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


def test_write_csv_numpy_and_python_scalars_give_the_same_bytes(tmp_path):
    python = [("Sphere", 3, -7, 0.1, 1e-300, True), ("Torus", 0, 2**40, -2.0, float("nan"), False),
              ("x", 255, 12, float(np.float32(0.1)), float("-inf"), True)]
    numpy = [("Sphere", np.int64(3), np.int32(-7), np.float64(0.1), np.float64(1e-300), True),
             ("Torus", np.uint8(0), np.int64(2**40), np.float64(-2.0), np.float64("nan"), False),
             ("x", np.uint8(255), np.int16(12), np.float32(0.1), np.float64("-inf"), True)]
    write_csv(tmp_path / "p.csv", ("name", "k", "n", "x", "y", "flag"), python)
    write_csv(tmp_path / "n.csv", ("name", "k", "n", "x", "y", "flag"), numpy)
    assert (tmp_path / "n.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
    assert (tmp_path / "n.csv").read_text().splitlines()[1] == "Sphere,3,-7,0.1,1e-300,1"


def test_svg_from_arrays_and_from_lists_is_the_same(tmp_path):
    x = np.linspace(-1.0, 3.0, 57)
    y = np.exp(x)
    y[[0, 5, 9]] = [np.nan, np.inf, -np.inf]  # dropped, with their x
    x2, y2 = x[::3].copy(), np.cos(x[::3])
    x2[4] = np.nan
    arrays = [(x, y, "exp"), (x2, y2, "cos")]
    lists = [(a.tolist(), b.tolist(), lab) for a, b, lab in arrays]
    polyline_svg(tmp_path / "a.svg", arrays, title="t", xlabel="x", ylabel="y")
    polyline_svg(tmp_path / "l.svg", lists, title="t", xlabel="x", ylabel="y")
    text = (tmp_path / "a.svg").read_text()
    assert text == (tmp_path / "l.svg").read_text()
    points = [p.count(",") for p in text.split('points="')[1:]]
    assert points == [57 - 3, 19 - 1]
