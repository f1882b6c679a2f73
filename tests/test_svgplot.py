import numpy as np

from bergercmc.svgplot import polyline_svg, write_csv


def test_write_csv_cell_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("name", "k", "n", "x", "y"),
              [("Sphere", 3, np.int64(-7), 0.1, np.float64(1e-300)),
               ("Torus", 0, np.int64(12), 2.0, np.float64(float("nan")))])
    assert path.read_bytes() == (b"name,k,n,x,y\n"
                                 b"Sphere,3,-7,0.1,1e-300\n"
                                 b"Torus,0,12,2.0,nan\n")


def test_write_csv_array_rows(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ("alpha", "H"), np.array([[0.5, 1.0 / 3.0]]))
    assert path.read_text() == "alpha,H\n0.5,0.3333333333333333\n"


def test_svg_is_byte_stable(tmp_path):
    curves = [([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], "a"), ([0.0, 2.0], [0.0, np.nan], "b")]
    polyline_svg(tmp_path / "1.svg", curves, title="t")
    polyline_svg(tmp_path / "2.svg", curves, title="t")
    text = (tmp_path / "1.svg").read_text()
    assert text == (tmp_path / "2.svg").read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480">')
