"""Scalar special-function kernel used by the closed-form rate expressions.

Everything in the analytical layer reduces to the exponential integral Ei
on the negative real axis and to the kernel family

    xi_n(x, y) = integral_0^inf e^{-x t} (t + y)^{-n} dt.

Substituting t + y = y s turns the kernel into a scaled generalized
exponential integral (DLMF 8.19),

    xi_n(x, y) = y^{1-n} e^{x y} E_n(x y),

and Ei(t) = -E_1(-t) for t < 0.  Both come from one evaluation of
e^z E_n(z) (Numerical Recipes 6.3): a modified-Lentz continued fraction
for z > 1 and the psi(n) power series for z <= 1.  Neither regime cancels,
so there is no fallback.  All functions here are pure and stateless, so
they are safe to call from any number of concurrent contexts.
"""

import math
import operator
from math import exp, fsum, log

EULER_GAMMA = 0.5772156649015328606065

_MAX_ITER = 1000
_TINY = 1e-300


def _en_scaled(n, z):
    """e^z E_n(z) for integer n >= 1 and z > 0.

    For z > 1 the continued fraction never forms an exponential, so it
    cannot overflow or underflow no matter how large z gets.  It stops at a
    step whose factor is exactly 1; where rounding holds every factor an ulp
    from 1 (z above ~3e12), it returns f at the first factor within 2^-52 of 1.
    For z <= 1 the series of E_n is summed exactly (fsum); its terms shrink
    like z^i / i!, so they lose little to cancellation.
    """
    if z > 1.0:
        b = z + n
        c = 1.0 / _TINY
        d = 1.0 / b
        f = d
        near = []  # f at each step whose factor is within 2^-52 of 1
        for i in range(1, _MAX_ITER + 1):
            a = -i * (n - 1.0 + i)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            f *= delta
            if abs(delta - 1.0) <= 2.0 ** -52:
                if delta == 1.0:
                    return f
                near.append(f)
        if not near:
            raise ArithmeticError(f"continued fraction for e^z E_{n}(z) stalled at z={z!r}")
        return near[0]
    psi = -EULER_GAMMA + fsum(1.0 / k for k in range(1, n))
    acc = [1.0 / (n - 1)] if n > 1 else [psi, -log(z)]
    fact = 1.0
    for i in range(1, _MAX_ITER + 1):
        fact *= -z / i
        term = fact * (psi - log(z)) if i == n - 1 else -fact / (i - n + 1)
        acc.append(term)
        if abs(term) < 1e-17 * abs(acc[0]):
            return exp(z) * fsum(acc)
    raise ArithmeticError(f"series for E_{n}(z) stalled at z={z!r}")


def exp_integral_ei(t):
    """Exponential integral Ei(t) for real t < 0, the only side the kernel
    needs: Ei(t) = -E1(-t) = -e^t (e^{-t} E1(-t)).

    Relative error below 1e-12 over the representable range.
    """
    t = float(t)
    if not (math.isfinite(t) and t < 0.0):
        raise ValueError(f"Ei is evaluated for finite t < 0 only, got {t!r}")
    return -exp(t) * _en_scaled(1, -t)


def xi_n(n, x, y):
    """Kernel xi_n(x, y) = integral_0^inf e^{-x t} (t + y)^{-n} dt.

    Requires integer n >= 1, x, y > 0 and a product x y that neither
    overflows nor underflows to 0 (else ValueError).  Evaluated as
    y^{1-n} e^{x y} E_n(x y), with e^{x y} E_n(x y) by continued fraction
    for x y > 1 and by series for x y <= 1; no term cancels in either.
    Raises OverflowError (an ArithmeticError) if y^{1-n} overflows.
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
    if not 0.0 < x * y < math.inf:
        raise ValueError("x * y is not representable")
    return _en_scaled(n, x * y) * y ** (1 - n)
