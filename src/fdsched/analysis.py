"""Closed-form average sum rates over Rayleigh fading and their oracles.

Three independent computation paths cover every analytical quantity: the
closed forms built from the xi_n kernel, adaptive quadrature of the generic
rate integral

    Rbar = (1/ln 2) * integral_0^inf (2 - F_ul(x) - F_dl(x)) / (x + 1) dx,

taken over t = ln(1 + x) up to where its integrand is exactly 0 (no error
for monotone CDFs at most 1; see :func:`avg_rate_integral`), and Monte
Carlo simulation (:mod:`fdsched.sim`).  The closed forms are the product;
the quadrature path doubles as their in-package oracle and as the stable
route where the closed forms are numerically unusable:

* removable poles: the A1 form has factors p0/(p0 - k pu), the A2 form has
  (1 - p0/pu)^{-n}.  At a pole the parameters are nudged (pu up by 1e-6
  relative) and the result is flagged.
* cancellation: the alternating binomial sums lose ~2^K digits; whenever
  the compensated-summation error estimate exceeds 1e-9 of the result (in
  practice for K beyond ~20-30, and always near a pole), or a user count
  exceeds 40, the value is recomputed from the rate integral with
  numerically stable CDF forms.
"""

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb, exp, fsum, log
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.special import roots_laguerre

from .model import LN2
from .specfun import _EPS4, xi_n

_POLE_EPS = 1e-9          # relative pole distance that triggers the guard
_PERTURB_REL = 1e-6       # relative nudge applied to pu at a pole
_CANCEL_LIMIT = 1e-9      # estimated cancellation beyond this -> quadrature
_BINOM_DIRECT_MAX = 20    # alternating binomial CDF sums: direct up to here
_CLOSED_RATE_MAX_K = 40   # closed rate forms are never attempted beyond this
_LAGUERRE_NODES = 200


@dataclass(frozen=True)
class AnalyticalParams:
    """Fixed-power operating point for the closed-form expressions."""

    p0: float
    pu: float
    sigma0_sq: float
    sigmaD_sq: float
    si_gain: float
    k_u: int
    k_d: int

    def __post_init__(self):
        if not (math.isfinite(self.p0) and self.p0 > 0.0):
            raise ValueError(f"p0 must be positive, got {self.p0!r}")
        if not (math.isfinite(self.pu) and self.pu > 0.0):
            raise ValueError(f"pu must be positive, got {self.pu!r}")
        if self.sigma0_sq <= 0.0 or self.sigmaD_sq <= 0.0:
            raise ValueError("noise powers must be positive")
        if not (math.isfinite(self.si_gain) and self.si_gain >= 0.0):
            raise ValueError(f"si_gain must be finite and >= 0, got {self.si_gain!r}")
        if self.k_u < 1 or self.k_d < 1:
            raise ValueError("k_u and k_d must be >= 1")

    @classmethod
    def from_config(cls, config):
        """Operating point at a config's maximum powers."""
        return cls(config.p0_max, config.pu_max, config.sigma0_sq, config.sigmaD_sq,
                   config.si_gain, config.k_u, config.k_d)


class ClosedFormRate(NamedTuple):
    """Closed-form value plus whether a pole guard perturbed the inputs."""

    value: float
    flagged: bool


class AsymptoticRate(NamedTuple):
    """Large-system approximation in both log bases."""

    nats: float
    bits: float


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


@lru_cache(maxsize=4)
def _laguerre(n):
    return roots_laguerre(n)


def cdf_sinr_ul(x, params):
    """CDF of the UL SINR when the UL user is the gain-max over k_u
    candidates (the same law under A1 and A2).

    Alternating binomial form for small k_u; the mathematically identical
    product form (1 - e^{-a x})^K beyond, where the alternating sum would
    drown in cancellation.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"CDF argument must be >= 0, got {x!r}")
    a = (params.p0 * params.si_gain + params.sigma0_sq) / params.pu
    k_u = params.k_u
    if k_u <= _BINOM_DIRECT_MAX:
        v = fsum(comb(k_u, k) * (-1.0) ** k * exp(-k * a * x) for k in range(k_u + 1))
    else:
        v = (1.0 - exp(-min(a * x, 745.0))) ** k_u
    return min(max(v, 0.0), 1.0)


def cdf_sinr_dl_a1(x, params):
    """CDF of the DL SINR when the DL user is the gain-max over k_d
    candidates (selection ignores the interference it will suffer).

    Alternating binomial form for small k_d; for large k_d the conditioning
    integral over the interferer's gain is evaluated by Gauss-Laguerre
    quadrature instead.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"CDF argument must be >= 0, got {x!r}")
    p0, pu, sd = params.p0, params.pu, params.sigmaD_sq
    k_d = params.k_d
    if k_d <= _BINOM_DIRECT_MAX:
        v = fsum(
            comb(k_d, k) * (-1.0) ** k / (k * pu * x / p0 + 1.0) * exp(-k * sd * x / p0)
            for k in range(k_d + 1)
        )
    else:
        nodes, weights = _laguerre(_LAGUERRE_NODES)
        inner = (1.0 - np.exp(-np.minimum((pu * nodes + sd) * x / p0, 745.0))) ** k_d
        v = float(np.dot(weights, inner))
    return min(max(v, 0.0), 1.0)


def cdf_sinr_dl_a2(x, params):
    """CDF of the DL SINR when the DL user maximizes SINR given the chosen
    UL user's leakage.

    The stated sum telescopes exactly into the product form
    (1 - e^{-a x} / (1 + b x))^K, which is used for large k_d.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError(f"CDF argument must be >= 0, got {x!r}")
    b = params.pu / params.p0
    a = params.sigmaD_sq / params.p0
    k_d = params.k_d
    if k_d <= _BINOM_DIRECT_MAX:
        v = fsum(
            comb(k_d, k) * (-b * x - 1.0) ** (-k) * exp(-a * k * x)
            for k in range(k_d + 1)
        )
    else:
        v = (1.0 - exp(-min(a * x, 745.0)) / (1.0 + b * x)) ** k_d
    return min(max(v, 0.0), 1.0)


def _degenerate_cdf(x):
    """CDF of an a.s.-zero SINR; plug in for a link that does not exist."""
    return 1.0


def avg_rate_integral(cdf_ul, cdf_dl, tol=1e-9):
    """Average sum rate from two SINR CDFs, integrated over t = ln(1 + x).

    ``cdf_ul`` and ``cdf_dl`` are callables on [0, inf).  With
    x = expm1(t) the weight dx/(1 + x) becomes dt, so the integrand is
    max(0, 2 - F_ul - F_dl), bounded by 2.  The domain is cut at the first
    T in 8, 16, ..., 512 where that integrand is exactly 0; for CDFs that
    are monotone and at most 1 the rest of the tail is then exactly 0, so
    the cut adds no error.  [0, T] is integrated adaptively to the absolute
    tolerance ``tol`` (bits).  Raises :class:`QuadratureError` with the
    achieved error bound if that cannot be reached, or with an infinite
    bound if the integrand is still positive at T = 512 (x ~ 1e222).
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    itol = tol * LN2  # tolerance on the raw (nats-scaled) integral

    def integrand(t):
        x = math.expm1(t)
        return max(0.0, 2.0 - cdf_ul(x) - cdf_dl(x))

    cutoff = 8.0
    while integrand(cutoff) > 0.0:
        if cutoff >= 512.0:
            raise QuadratureError("integrand is still positive at ln(1+x) = 512",
                                  achieved=math.inf)
        cutoff *= 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(integrand, 0.0, cutoff, epsabs=itol / 2.0, epsrel=0.0, limit=500)
    if err > itol:
        raise QuadratureError("rate integral did not converge", achieved=err / LN2)
    return val / LN2


def _rate_by_quadrature(params, cdf_dl=None):
    """The rate integral of the UL law plus ``cdf_dl`` (None: UL only); the
    oracle of the closed forms and their route around cancellation."""
    return avg_rate_integral(
        lambda x: cdf_sinr_ul(x, params),
        _degenerate_cdf if cdf_dl is None else lambda x: cdf_dl(x, params),
    )


def _ul_terms(params):
    """Per-k terms of the closed UL rate and their gross magnitudes."""
    k_u = params.k_u
    scale = (params.p0 * params.si_gain + params.sigma0_sq) / params.pu
    terms = [
        comb(k_u, k) * (-1.0) ** (k + 1) / LN2 * xi_n(1, k * scale, 1.0)
        for k in range(1, k_u + 1)
    ]
    return terms, [abs(t) for t in terms]


def _closed_or_quadrature(params, dl_terms=None, cdf_dl=None):
    """The closed UL rate plus ``dl_terms`` (None: UL only), or the rate
    integral with ``cdf_dl`` when a user count is beyond the closed forms or
    the compensated-summation error estimate exceeds 1e-9 of the sum."""
    k = params.k_u if dl_terms is None else max(params.k_u, params.k_d)
    if k <= _CLOSED_RATE_MAX_K:
        terms, gross = _ul_terms(params)
        if dl_terms is not None:
            more, more_gross = dl_terms(params)
            terms, gross = terms + more, gross + more_gross
        total = fsum(terms)
        if total > 0.0 and _EPS4 * fsum(gross) <= _CANCEL_LIMIT * total:
            return total
    return _rate_by_quadrature(params, cdf_dl)


def avg_rate_ul_closed(params):
    """Closed-form average UL rate: an alternating binomial combination of
    xi_1 kernels.  Falls back to the rate integral when cancellation would
    eat the result (large k_u)."""
    return _closed_or_quadrature(params)


def _guard(params, on_pole):
    """``(params, False)``, or with ``on_pole`` pu nudged up by 1e-6 relative and True."""
    if on_pole:
        return replace(params, pu=params.pu * (1.0 + _PERTURB_REL)), True
    return params, False


def _dl_a1_terms(params):
    k_d, p0, pu = params.k_d, params.p0, params.pu
    terms, gross = [], []
    for k in range(1, k_d + 1):
        a = k * params.sigmaD_sq / p0
        xa = xi_n(1, a, 1.0)
        xb = xi_n(1, a, p0 / (k * pu))
        coef = comb(k_d, k) * (-1.0) ** (k + 1) / LN2 * (p0 / (p0 - k * pu))
        terms.append(coef * (xa - xb))
        gross.append(abs(coef) * (xa + xb))
    return terms, gross


def avg_rate_a1(params) -> ClosedFormRate:
    """Closed-form average sum rate under gain-max UL and gain-max DL
    selection (UL part plus partial-fraction DL part).

    Removable poles at p0 = k*pu flag the result and nudge pu by 1e-6
    relative; severe cancellation reroutes the evaluation to the rate
    integral.  Never raises on a pole.
    """
    eff, flagged = _guard(params, any(abs(params.p0 - k * params.pu) < _POLE_EPS * params.pu
                                      for k in range(1, params.k_d + 1)))
    return ClosedFormRate(_closed_or_quadrature(eff, _dl_a1_terms, cdf_sinr_dl_a1), flagged)


def _dl_a2_terms(params):
    k_d = params.k_d
    ratio = params.p0 / params.pu
    terms, gross = [], []
    for k in range(1, k_d + 1):
        a = k * params.sigmaD_sq / params.p0
        inner = [(-1.0) ** ell * (1.0 - ratio) ** (-ell) * xi_n(k - ell + 1, a, ratio)
                 for ell in range(1, k + 1)]
        inner.append((-1.0) ** (1 - k) * (1.0 - ratio) ** (-k) * xi_n(1, a, 1.0))
        coef = comb(k_d, k) * (-ratio) ** k / LN2
        terms.append(coef * fsum(inner))
        gross.append(abs(coef) * fsum(abs(t) for t in inner))
    return terms, gross


def avg_rate_a2(params) -> ClosedFormRate:
    """Closed-form average sum rate under gain-max UL and SINR-max DL
    selection (UL part plus the nested xi_n combination).

    The pole at p0 = pu flags the result and nudges pu by 1e-6 relative;
    the (1 - p0/pu)^{-n} weights blow up the cancellation near that pole,
    in which case the rate-integral route takes over.
    """
    eff, flagged = _guard(params, abs(1.0 - params.p0 / params.pu) < _POLE_EPS)
    return ClosedFormRate(_closed_or_quadrature(eff, _dl_a2_terms, cdf_sinr_dl_a2), flagged)


def asymptotic_rate_a1(params) -> AsymptoticRate:
    """Large-system scaling approximation of the A1 average sum rate:
    log(log k_d * log k_u) + log(pu / (p0 * si_gain + sigma0_sq)).

    The log base of the scaling law is ambiguous while measured rates are
    in bps/Hz, so both readings are returned; trend comparisons must match
    bases (use ``.bits`` against the closed forms).
    """
    if params.k_u < 2 or params.k_d < 2:
        raise ValueError("the scaling law needs k_u >= 2 and k_d >= 2")
    nats = log(log(params.k_d) * log(params.k_u)) + log(
        params.pu / (params.p0 * params.si_gain + params.sigma0_sq)
    )
    return AsymptoticRate(nats=nats, bits=nats / LN2)
