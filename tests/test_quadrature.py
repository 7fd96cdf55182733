"""Quadrature rules of the package against mpmath at 30 digits."""

import mpmath
import pytest

from bettibound.mesh import BumpySphere
from bettibound.suites import _gauss_22_integral

DIGITS = 30


def _bumpy_area_reference(amplitude, frequency):
    a, k = mpmath.mpf(amplitude), frequency

    def integrand(theta):
        r = 1 + a * mpmath.cos(k * theta)
        dr = -a * k * mpmath.sin(k * theta)
        sin, cos = mpmath.sin(theta), mpmath.cos(theta)
        drho = dr * sin + r * cos
        dz = dr * cos - r * sin
        return r * sin * mpmath.sqrt(drho**2 + dz**2)

    # 8k + 1 subintervals, about 16 per period of the bump, keep tanh-sinh
    # accurate on the oscillating integrand.
    cuts = mpmath.linspace(0, mpmath.pi, 8 * k + 2)
    return 2 * mpmath.pi * mpmath.quad(integrand, cuts)


@pytest.mark.parametrize("amplitude,frequency", [(0.05, 3), (0.5, 8), (-0.4, 5)])
def test_bumpy_sphere_area_matches_mpmath(amplitude, frequency):
    with mpmath.workdps(DIGITS):
        reference = _bumpy_area_reference(amplitude, frequency)
        area = BumpySphere(amplitude, frequency).area()
        assert abs(area - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("mu_t0", [0.0, 1e-3, 1.0, 24.0])
@pytest.mark.parametrize("t0", [0.1, 1.0, 3.0])
def test_22_integral_rule_matches_closed_form(mu_t0, t0):
    mu = mu_t0 / t0
    oracle = _gauss_22_integral(mu, t0)
    with mpmath.workdps(DIGITS):
        if mu == 0.0:
            exact = mpmath.mpf(t0)
        else:
            exact = -mpmath.expm1(-mpmath.mpf(mu) * t0) / mpmath.mpf(mu)
        assert abs(oracle - exact) <= 1e-14 * abs(exact)

