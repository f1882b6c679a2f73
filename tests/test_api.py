import pytest

from bergercmc.cmc_spheres import MERIDIAN_MAX_N, MERIDIAN_MIN_N, reconstruct_meridian
from bergercmc.isoperimetry import PROFILE_MAX_N, PROFILE_MIN_N, sphere_profile, torus_profile
from bergercmc.stability import SPECTRUM_MAX_N, SPECTRUM_MIN_N, jacobi_spectrum
from bergercmc.tori import TORUS_MAX_N, TORUS_MIN_N, torus_data, torus_spectrum


@pytest.mark.parametrize("call,lo,hi", [
    (lambda n: reconstruct_meridian(0.5, 1.0, n=n), MERIDIAN_MIN_N, MERIDIAN_MAX_N),
    (lambda n: jacobi_spectrum(0.5, 1.0, n=n), SPECTRUM_MIN_N, SPECTRUM_MAX_N),
    (lambda n: sphere_profile(0.5, n=n), PROFILE_MIN_N, PROFILE_MAX_N),
    (lambda n: torus_profile(0.5, n=n), PROFILE_MIN_N, PROFILE_MAX_N),
    (lambda n: torus_spectrum(torus_data(0.5, 0.0), N=n), TORUS_MIN_N, TORUS_MAX_N),
], ids=["meridian", "jacobi_spectrum", "sphere_profile", "torus_profile", "torus_spectrum"])
def test_size_bounds_are_checked_where_the_grid_is_allocated(call, lo, hi):
    # one past each bound; the routine names both bounds and the value it got
    for n in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"{lo} <= [nN] <= {hi}") as exc:
            call(n)
        assert str(n) in str(exc.value)
