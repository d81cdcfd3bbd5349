"""Scalar special-function kernel used by the closed-form rate expressions.

Everything in the analytical layer reduces to the exponential integral Ei
on the negative real axis and to the kernel family

    xi_n(x, y) = integral_0^inf e^{-x t} (t + y)^{-n} dt,

whose closed form mixes Gamma factors with e^{x y} Ei(-x y).  Where that
form cancels, xi_n falls back to adaptive quadrature of the defining
integral (``scipy.integrate.quad``, imported on first use).  All functions
here are pure and stateless, so they are safe to call from any number of
concurrent contexts.
"""

import math
import operator
import warnings
from math import exp, fsum, lgamma, log

import numpy as np

EULER_GAMMA = 0.5772156649015328606065

# The alternating series of E1 loses ~e^x to cancellation, so the continued
# fraction takes over early.
_E1_SERIES_MAX = 1.0
_CF_MAX_ITER = 1000
_TINY = 1e-300

# Estimated relative cancellation in the xi_n closed form beyond which the
# defining integral is used instead.
_XI_CANCEL_LIMIT = 1e-9
_EPS4 = 4.0 * float(np.finfo(float).eps)


def _e1_series(x):
    """E1(x) by the alternating power series; meant for 0 < x <= 1."""
    acc = [-EULER_GAMMA, -log(x)]
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        acc.append(-term / k)
        if abs(term) < 1e-20:
            break
    return fsum(acc)


def _e1_cf_scaled(x):
    """e^x E1(x) by modified-Lentz continued fraction; accurate for x >= ~0.7.

    The scaled product never forms an exponential, so it cannot overflow or
    underflow no matter how large x gets.
    """
    f = _TINY
    c = f
    d = 0.0
    for i in range(1, _CF_MAX_ITER + 1):
        a = 1.0 if i == 1 else -float(i - 1) ** 2
        b = x + 2.0 * i - 1.0
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f
    raise ArithmeticError(f"continued fraction for e^x E1(x) stalled at x={x!r}")


def _e1_scaled(x):
    """e^x E1(x) for x > 0."""
    if x <= _E1_SERIES_MAX:
        return exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def exp_integral_ei(t):
    """Exponential integral Ei(t) for real t < 0, the only side the kernel
    needs: Ei(t) = -E1(-t).

    Series / continued-fraction evaluation with relative error below 1e-12
    over the representable range.
    """
    t = float(t)
    if not (math.isfinite(t) and t < 0.0):
        raise ValueError(f"Ei is evaluated for finite t < 0 only, got {t!r}")
    x = -t
    if x <= _E1_SERIES_MAX:
        return -_e1_series(x)
    return -exp(-x) * _e1_cf_scaled(x)


def xi_n(n, x, y):
    """Kernel xi_n(x, y) = integral_0^inf e^{-x t} (t + y)^{-n} dt.

    Requires integer n >= 1 and x, y > 0.  Evaluated through the closed form

        (-x)^{n-1}/Gamma(n) * ( sum_{k=1}^{n-1} Gamma(k) (-x)^{-k} y^{-k}
                                - e^{x y} Ei(-x y) ),

    with the finite sum accumulated exactly (fsum) and e^{xy} Ei(-xy) taken
    in scaled form so it cannot overflow.  The alternating terms cancel
    catastrophically once n and x*y grow together; whenever the estimated
    cancellation exceeds 1e-9 of the result, the value is recomputed by
    adaptive quadrature of the defining integral.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"xi_n requires n >= 1, got {n}")
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"xi_n requires x > 0, got {x!r}")
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError(f"xi_n requires y > 0, got {y!r}")
    if not math.isfinite(x * y):
        raise ValueError("x * y is not representable")

    lg_n = lgamma(n)
    log_x = log(x)
    log_y = log(y)
    exponents = [lgamma(k) - lg_n + (n - 1 - k) * log_x - k * log_y for k in range(1, n)]
    lead_exponent = (n - 1) * log_x - lg_n
    if any(e > 700.0 for e in exponents) or lead_exponent > 700.0:
        return _xi_quadrature(n, x, y)

    terms = []
    for k, e in enumerate(exponents, start=1):
        sign = -1.0 if (n - 1 - k) % 2 else 1.0
        terms.append(sign * exp(e))
    # -(−x)^{n−1} e^{xy} Ei(−xy) / Gamma(n)  ==  (−1)^{n−1} x^{n−1} e^{xy} E1(xy) / Gamma(n)
    lead_sign = -1.0 if (n - 1) % 2 else 1.0
    terms.append(lead_sign * exp(lead_exponent) * _e1_scaled(x * y))

    total = fsum(terms)
    gross = fsum(abs(v) for v in terms)
    if total <= 0.0 or _EPS4 * gross > _XI_CANCEL_LIMIT * total:
        return _xi_quadrature(n, x, y)
    return total


def _xi_quadrature(n, x, y):
    """Defining integral of xi_n by adaptive quadrature after u = x t."""
    inv_x = 1.0 / x

    def f(u):
        return exp(-u) * (u * inv_x + y) ** (-n) * inv_x

    from scipy import integrate  # loaded on first use: simulate never needs it

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    if not (val > 0.0) or err > 1e-9 * val:
        raise ArithmeticError(
            f"quadrature for xi_n(n={n}, x={x!r}, y={y!r}) achieved only {err!r}"
        )
    return val

