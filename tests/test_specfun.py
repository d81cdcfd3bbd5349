"""Exponential integral and xi_n kernel against independent references.

mpmath supplies the high-precision oracles; the frozen literals below were
produced by the same 30-digit evaluations and are asserted directly so a
regression cannot hide behind a broken oracle import.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fdsched.specfun import exp_integral_ei, xi_n

mp.mp.dps = 30


def mp_xi(n, x, y):
    f = lambda t: mp.e ** (-x * t) * (t + y) ** (-n)
    return float(mp.quad(f, [0, y, 10 * y, 10.0 / x, mp.inf]))


class TestExpIntegral:
    def test_frozen_values_negative_axis(self):
        assert exp_integral_ei(-1.0) == pytest.approx(-0.21938393439552027, rel=1e-14)
        assert exp_integral_ei(-10.0) == pytest.approx(-4.1569689296853243e-6, rel=1e-13)

    def test_negative_axis_against_mpmath(self):
        for t in np.logspace(-6, math.log10(40.0), 40):
            ref = float(mp.ei(-t))
            assert exp_integral_ei(-float(t)) == pytest.approx(ref, rel=1e-12), t

    def test_sign_and_monotone_decay(self):
        assert exp_integral_ei(-0.5) < 0.0
        assert exp_integral_ei(-5.0) < 0.0
        ts = np.logspace(-3, 2, 60)
        mags = [abs(exp_integral_ei(-float(t))) for t in ts]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_deep_negative_underflows_cleanly(self):
        assert exp_integral_ei(-800.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_integral_ei(0.0)
        with pytest.raises(ValueError):
            exp_integral_ei(math.nan)
        with pytest.raises(ValueError):
            exp_integral_ei(math.inf)
        with pytest.raises(ValueError):
            exp_integral_ei(2.0)  # only the negative axis is evaluated


class TestXiN:
    def test_xi1_identity_with_ei(self):
        # xi_1(x, 1) == -e^x Ei(-x), checked through the package's own Ei.
        for x in (0.1, 1.0, 10.0):
            expected = -math.exp(x) * exp_integral_ei(-x)
            assert xi_n(1, x, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_xi1_frozen_value(self):
        assert xi_n(1, 1.0, 1.0) == pytest.approx(0.59634736232319407, rel=1e-13)

    def test_xi3_frozen_value(self):
        assert xi_n(3, 2.0, 0.5) == pytest.approx(1.1926947246463881, rel=1e-12)

    def test_against_mpmath_quadrature(self):
        for n in (1, 2, 3, 5, 10, 15):
            for x in (1e-3, 0.1, 1.0, 10.0, 1e3):
                for y in (0.1, 1.0, 10.0):
                    assert xi_n(n, x, y) == pytest.approx(mp_xi(n, x, y), rel=1e-8), (n, x, y)

    def test_against_mpmath_expint(self):
        # xi_n(x, y) = y^(1-n) e^(xy) E_n(xy): criterion 1's grid, then n up
        # to 41 (k_d + 1 at K = 40) at small and large y.  mpmath's expint
        # itself loses ~10 digits at n = 36, xy = 100, hence 60 digits.
        grid = [(n, y) for n in range(1, 16) for y in (0.1, 1.0, 10.0)]
        grid += [(n, y) for n in range(16, 42) for y in (1e-3, 1.0, 1e2)]
        with mp.workdps(60):
            for n, y in grid:
                for x in np.logspace(-3.0, 3.0, 13):
                    x = float(x)
                    z = mp.mpf(x) * mp.mpf(y)
                    ref = float(mp.mpf(y) ** (1 - n) * mp.e ** z * mp.expint(n, z))
                    assert xi_n(n, x, y) == pytest.approx(ref, rel=1e-13), (n, x, y)

    def test_overflowing_power_raises(self):
        # y^(1-n) = 1e400 is beyond float range: an error, never inf.
        with pytest.raises(ArithmeticError):
            xi_n(41, 1.0, 1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_underflowing_product_raises(self, n):
        # x*y = 1e-340 underflows to 0 although x and y are positive: the
        # same explained error as an overflowing product, not a log(0).
        with pytest.raises(ValueError, match="x \\* y is not representable"):
            xi_n(n, 1e-170, 1e-170)

    def test_huge_exponent_no_overflow(self):
        # x*y = 1e4: the continued fraction gives e^{xy} E_2(xy) without
        # forming e^{xy}.
        val = xi_n(2, 1e3, 10.0)
        assert val == pytest.approx(mp_xi(2, 1e3, 10.0), rel=1e-8)

    @pytest.mark.parametrize("n,z", [
        (41, 3294866757325.7847), (1, 3409877033003.259), (15, 6929435138069.05),
        (2, 1.2737642961475328e16), (1, 2.5290353369586884e16), (30, 7.035896408983942e134),
        (3, 1.0342525042945084e211), (5, 8.443155090737525e272),
    ])
    def test_large_product_where_the_fraction_never_reaches_1(self, n, z):
        # At these z rounding holds every continued-fraction factor one ulp
        # from 1, so a stop on a factor of exactly 1 alone raised "stalled".
        # Reference: e^z E_n(z) = sum_k (-1)^k (n)_k / z^(k+1), whose terms
        # past the sixth are below 1e-60 of the first at z > 1e12.
        with mp.workdps(40):
            ref = mp.fsum((-1) ** k * mp.rf(n, k) / mp.mpf(z) ** (k + 1) for k in range(6))
        assert xi_n(n, z, 1.0) == pytest.approx(float(ref), rel=1e-15)

    def test_positive_everywhere(self):
        for n in (1, 4, 15):
            for x in (1e-3, 1.0, 1e3):
                for y in (0.1, 1.0, 10.0):
                    assert xi_n(n, x, y) > 0.0

    def test_strictly_decreasing_in_x_and_y(self):
        xs = np.logspace(-2, 2, 9)
        for n in (1, 3, 8):
            vals = [xi_n(n, float(x), 1.0) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            ys = np.logspace(-1, 1, 9)
            vals = [xi_n(n, 1.0, float(y)) for y in ys]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            xi_n(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            xi_n(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            xi_n(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            xi_n(1, -2.0, 1.0)
        with pytest.raises(TypeError):
            xi_n(1.5, 1.0, 1.0)

