"""Closed-form average sum rates over Rayleigh fading and their oracles.

Three independent paths cover every analytical quantity: the closed forms
built from the xi_n kernel, quadrature of the rate integral

    Rbar = (1/ln 2) * integral_0^inf (S_ul(x) + S_dl(x)) / (x + 1) dx

over the survival functions S = 1 - F of the two links' SINRs, and Monte
Carlo simulation (:mod:`fdsched.sim`).  The operating point is an
:class:`AnalyticalParams`, a SystemConfig with positive maximum powers, so
one object drives all three.  The quadrature doubles as the closed forms'
oracle and as their route (``ClosedFormRate.route``) around

* removable poles: the A1 form has factors p0/(p0 - k pu), the A2 form
  (1 - p0/pu)^{-n}; a pole goes to the rate integral at the same point,
  whose survival functions have no pole, and flags the result;
* cancellation: the alternating binomial sums lose ~2^K digits, so a sum
  whose compensated-summation error estimate exceeds 1e-9 bits, the
  reroute's tolerance, or a user count above 40, goes to the rate
  integral.  Both routes thus meet one absolute contract.

The survival functions take numpy arrays and never subtract from 1, so
their tails keep full relative precision.  UL and A2 DL: the best of K
candidates, each above x with probability y, is above x with probability
-expm1(K log1p(-y)).  A1 DL, with h the largest of K unit exponentials, g
the interferer's gain, c = sigmaD^2 x / p0, q = e^{-c} and r = pu x / p0:
expanding (1 - q e^{-r g})^K binomially and averaging over g gives a finite
sum of non-negative terms,

    S = sum_k C(K,k) q^k (1 - q)^{K-k} (1 - prod_{j<=k} j r / (1 + j r)).

The rate integral is taken over t = ln(1 + x) on [0, T], T the first of 8,
16, ..., 512 where the integrand is exactly 0, by 16-point Gauss-Legendre
panels, halved until successive estimates agree to 1e-9 bits.
:func:`avg_rate_integral` is the public, generic path over any two scalar
CDFs (adaptive QAGS, :mod:`fdsched.quadpack`, bit for bit the
``scipy.integrate.quad`` of scipy 1.17.1) and the independent check of
validate and of ``fdsched analyze``'s oracle column.  Nothing here loads
scipy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, fsum, log
from typing import NamedTuple

import numpy as np

from .model import LN2, SystemConfig
from .scheduling import require_positive_powers
from .specfun import xi_n

_POLE_EPS = 1e-9          # relative pole distance that routes to the rate integral
_CLOSED_RATE_MAX_K = 40   # closed rate forms are never attempted beyond this
_RATE_TOL = 1e-9          # bits: error estimate allowed on either route
_EPS4 = 4.0 * float(np.finfo(float).eps)  # compensated-sum error per unit gross size
_MAX_PANELS = 4096        # narrowest Gauss-Legendre panel: T / 4096
_TINY = np.finfo(float).tiny
_LOG_FLOOR = -700.0       # A1 binomial weights below e^-700 count as 0


@dataclass(frozen=True)
class AnalyticalParams(SystemConfig):
    """A SystemConfig with both maximum powers positive, as the closed forms need."""

    def __post_init__(self):
        super().__post_init__()
        require_positive_powers(self)

    @classmethod
    def from_config(cls, config):
        """Operating point at a config's maximum powers."""
        return cls(**vars(config))


class ClosedFormRate(NamedTuple):
    """Closed-form value and the route that computed it: ``"closed"``,
    ``"quadrature:cancellation"``, ``"quadrature:large-k"`` or
    ``"quadrature:pole"``."""

    value: float
    route: str = "closed"

    @property
    def flagged(self):
        """True at a removable pole of the closed form."""
        return self.route == "quadrature:pole"


class AsymptoticRate(NamedTuple):
    """Large-system approximation in both log bases."""

    nats: float
    bits: float


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _checked(x):
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"CDF argument must be >= 0, got {x!r}")
    return x


def _ul_tail(x, params, m=np):
    """e^{-a x}: the chance that one UL candidate's SINR exceeds x."""
    return m.exp(-(params.p0_max * params.si_gain + params.sigma0_sq) / params.pu_max * x)


def _a2_tail(x, params, m=np):
    """e^{-a x} / (1 + b x): the chance that one DL candidate's SINR, given
    the chosen UL user's leakage, exceeds x."""
    return m.exp(-params.sigmaD_sq / params.p0_max * x) / (1.0 + params.pu_max / params.p0_max * x)


def _best_of_sf(y, k):
    """1 - (1 - y)^k over arrays: the best of k i.i.d. candidates, each above
    x with probability y, is above x."""
    with np.errstate(divide="ignore"):
        return -np.expm1(k * np.log1p(-y))


def _best_of_cdf(y, k):
    """(1 - y)^k for one scalar y in [0, 1], from the same logarithm."""
    return math.exp(k * math.log1p(-y)) if y < 1.0 else 0.0


def _sf_ul(x, params):
    """Survival function of the UL SINR (gain-max over k_u, same under A1
    and A2) on an array of x >= 0."""
    return _best_of_sf(_ul_tail(x, params), params.k_u)


def _sf_dl_a2(x, params):
    """Survival function of the A2 DL SINR (SINR-max over k_d given the
    chosen UL user's leakage) on an array of x >= 0."""
    return _best_of_sf(_a2_tail(x, params), params.k_d)


@lru_cache(maxsize=64)
def _a1_terms(k_d):
    """(k, k_d - k, log C(k_d, k)) for k = 1..k_d, the counts as floats and
    each log that of the exact integer: the terms of the A1 DL survival sum."""
    terms, binom = [], 1
    for k in range(1, k_d + 1):
        binom = binom * (k_d - k + 1) // k
        terms.append((float(k), float(k_d - k), log(binom)))
    return tuple(terms)


def _sf_dl_a1(x, params):
    """Survival function of the A1 DL SINR (gain-max over k_d, blind to the
    interference it will suffer) on an array of x >= 0: the finite sum of
    non-negative terms in the module docstring, with each binomial weight
    and each 1 - prod_{j<=k} j r / (1 + j r) taken from logarithms."""
    k, k_rest, log_comb = map(np.array, zip(*_a1_terms(params.k_d)))
    x = np.asarray(x, dtype=float)[..., None]
    c = params.sigmaD_sq / params.p0_max * x
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(-np.expm1(-c), _TINY))
        neg_log_prod = np.cumsum(np.log1p(params.p0_max / (params.pu_max * x) / k), axis=-1)
    log_w = log_comb - k * c + k_rest * log_p
    # Weights below e^-700 are dropped: exp is ~20x slower where its
    # result is subnormal or 0.
    w = np.exp(np.maximum(log_w, _LOG_FLOOR)) * (log_w > _LOG_FLOOR)
    return np.minimum(-(w * np.expm1(-neg_log_prod)).sum(axis=-1), 1.0)


def cdf_sinr_ul(x, params):
    """CDF of the UL SINR when the UL user is the gain-max over k_u
    candidates (the same law under A1 and A2): (1 - e^{-a x})^{k_u}."""
    return _best_of_cdf(_ul_tail(_checked(x), params, math), params.k_u)


def cdf_sinr_dl_a1(x, params):
    """CDF of the DL SINR when the DL user is the gain-max over k_d
    candidates (selection ignores the interference it will suffer).

    1 minus the finite non-negative sum of the module docstring, summed
    term by term in scalar arithmetic.
    """
    x = _checked(x)
    if x == 0.0:
        return 0.0
    c = params.sigmaD_sq / params.p0_max * x
    log_p = math.log(max(-math.expm1(-c), _TINY))
    rho = params.p0_max / (params.pu_max * x)
    sf = neg_log_prod = 0.0
    log1p, exp, expm1 = math.log1p, math.exp, math.expm1
    for k, k_rest, log_comb in _a1_terms(params.k_d):
        neg_log_prod += log1p(rho / k)
        log_w = log_comb - k * c + k_rest * log_p
        if log_w > _LOG_FLOOR:
            sf -= exp(log_w) * expm1(-neg_log_prod)
    return max(0.0, 1.0 - sf)


def cdf_sinr_dl_a2(x, params):
    """CDF of the DL SINR when the DL user maximizes SINR given the chosen
    UL user's leakage: the stated alternating sum telescopes exactly into
    (1 - e^{-a x} / (1 + b x))^{k_d}."""
    return _best_of_cdf(_a2_tail(_checked(x), params, math), params.k_d)


def avg_rate_integral(cdf_ul, cdf_dl):
    """Average sum rate from two SINR CDFs, integrated over t = ln(1 + x).

    ``cdf_ul`` and ``cdf_dl`` are callables on [0, inf) with values in
    [0, 1]; a value outside it (NaN included) raises ``ValueError``.  With
    x = expm1(t) the weight dx/(1 + x) becomes dt, so the integrand is
    2 - F_ul - F_dl, between 0 and 2.  The domain is cut at the first
    T in 8, 16, ..., 512 where that integrand is exactly 0; for CDFs that
    are monotone the rest of the tail is then exactly 0, so the cut adds
    no error.  [0, T] is integrated by QAGS (:func:`quadpack.qags`) to an
    absolute tolerance of 1e-9 bits.  Raises :class:`QuadratureError` with
    the achieved error bound if that cannot be reached, or with an
    infinite bound if the integrand is still positive at T = 512
    (x ~ 1e222).
    """
    itol = _RATE_TOL * LN2  # tolerance on the raw (nats-scaled) integral

    def integrand(t):
        x = math.expm1(t)
        f_ul = cdf_ul(x)
        f_dl = cdf_dl(x)
        if not (0.0 <= f_ul <= 1.0 and 0.0 <= f_dl <= 1.0):
            link, bad = ("DL", f_dl) if 0.0 <= f_ul <= 1.0 else ("UL", f_ul)
            raise ValueError(f"{link} CDF value at x = {x!r} is {bad!r}, not in [0, 1]")
        return 2.0 - f_ul - f_dl

    cutoff = 8.0
    while integrand(cutoff) > 0.0:
        if cutoff >= 512.0:
            raise QuadratureError("integrand is still positive at ln(1+x) = 512",
                                  achieved=math.inf)
        cutoff *= 2.0
    from . import quadpack  # compiled on first use: the simulator never integrates

    val, err = quadpack.qags(integrand, 0.0, cutoff, itol / 2.0)
    if err > itol:
        raise QuadratureError("rate integral did not converge", achieved=err / LN2)
    return val / LN2


@lru_cache(maxsize=1)
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [0, 1], made on first
    use (the eigenvalue solve costs the simulator's processes ~1 MB)."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _rate_by_quadrature(params, sf_dl=None):
    """The rate integral of S_ul plus the survival function ``sf_dl`` (None:
    UL only): the closed forms' oracle and route around cancellation.

    Starting from 8 panels, every panel whose estimate and the sum over its
    halves differ by more than its share (width / T) of 1e-9 bits is halved,
    until the differences of all panels add up to at most 1e-9 bits.
    Raises :class:`QuadratureError` if a panel gets narrower than T / 4096.
    """
    nodes, weights = _gauss_legendre()

    def integrand(t):
        x = np.expm1(t)
        return _sf_ul(x, params) if sf_dl is None else _sf_ul(x, params) + sf_dl(x, params)

    def panels(lo, width):
        return integrand(lo[:, None] + nodes * width) @ weights * width

    cutoffs = 2.0 ** np.arange(3, 10)   # 8, 16, ..., 512
    alive = integrand(cutoffs) > 0.0
    if alive[-1]:
        raise QuadratureError("integrand is still positive at ln(1+x) = 512", achieved=math.inf)
    cutoff = cutoffs[alive.argmin()]
    width = cutoff / 8.0
    lo = np.arange(8) * width
    coarse = panels(lo, width)
    total = spent = 0.0
    while True:
        width /= 2.0
        halves = panels(np.concatenate([lo, lo + width]), width).reshape(2, -1)
        fine = halves.sum(axis=0)
        err = np.abs(fine - coarse)
        if spent + err.sum() <= _RATE_TOL * LN2:
            return float(total + fine.sum()) / LN2
        done = err <= _RATE_TOL * LN2 * 2.0 * width / cutoff
        total += fine[done].sum()
        spent += err[done].sum()
        if width <= cutoff / _MAX_PANELS:
            raise QuadratureError("panel halving did not converge",
                                  achieved=err[~done].sum() / LN2)
        lo = np.concatenate([lo[~done], lo[~done] + width])
        coarse = halves[:, ~done].ravel()


def _ul_terms(params):
    """Per-k terms of the closed UL rate with their gross magnitudes."""
    k_u = params.k_u
    scale = (params.p0_max * params.si_gain + params.sigma0_sq) / params.pu_max
    for k in range(1, k_u + 1):
        term = comb(k_u, k) * (-1.0) ** (k + 1) / LN2 * xi_n(1, k * scale, 1.0)
        yield term, abs(term)


def _closed_or_quadrature(params, dl_terms=None, sf_dl=None, pole=False):
    """The closed UL rate plus ``dl_terms`` (None: UL only), or the rate
    integral with ``sf_dl`` at a ``pole``, beyond the closed forms' user
    counts, or when the compensated-summation error estimate exceeds 1e-9
    bits, the reroute's tolerance; the one place that sets a
    :class:`ClosedFormRate`'s route.  The terms stop once their gross
    magnitude alone fails the estimate, which the full sum would then fail.
    """
    k = params.k_u if dl_terms is None else max(params.k_u, params.k_d)
    if pole:
        route = "quadrature:pole"
    elif k > _CLOSED_RATE_MAX_K:
        route = "quadrature:large-k"
    else:
        terms, gross, running = [], [], 0.0
        for term, size in chain(_ul_terms(params), () if dl_terms is None else dl_terms(params)):
            terms.append(term)
            gross.append(size)
            running += size
            if running > _RATE_TOL / _EPS4:
                break
        else:
            if _EPS4 * fsum(gross) <= _RATE_TOL:
                return ClosedFormRate(fsum(terms))
        route = "quadrature:cancellation"
    return ClosedFormRate(_rate_by_quadrature(params, sf_dl), route)


def avg_rate_ul_closed(params):
    """Closed-form average UL rate: an alternating binomial combination of
    xi_1 kernels.  Falls back to the rate integral when cancellation would
    eat the result (large k_u)."""
    return _closed_or_quadrature(params).value


def _dl_a1_terms(params):
    k_d, p0, pu = params.k_d, params.p0_max, params.pu_max
    for k in range(1, k_d + 1):
        a = k * params.sigmaD_sq / p0
        xa = xi_n(1, a, 1.0)
        xb = xi_n(1, a, p0 / (k * pu))
        coef = comb(k_d, k) * (-1.0) ** (k + 1) / LN2 * (p0 / (p0 - k * pu))
        yield coef * (xa - xb), abs(coef) * (xa + xb)


def avg_rate_a1(params) -> ClosedFormRate:
    """Closed-form average sum rate under gain-max UL and gain-max DL
    selection (UL part plus partial-fraction DL part).

    At a removable pole p0 = k*pu, and wherever cancellation is severe,
    the rate integral is taken at the same point; a pole flags the result.
    Never raises on a pole.
    """
    pole = any(abs(params.p0_max - k * params.pu_max) < _POLE_EPS * params.pu_max
               for k in range(1, params.k_d + 1))
    return _closed_or_quadrature(params, _dl_a1_terms, _sf_dl_a1, pole)


def _dl_a2_terms(params):
    k_d = params.k_d
    ratio = params.p0_max / params.pu_max
    for k in range(1, k_d + 1):
        a = k * params.sigmaD_sq / params.p0_max
        inner = [(-1.0) ** ell * (1.0 - ratio) ** (-ell) * xi_n(k - ell + 1, a, ratio)
                 for ell in range(1, k + 1)]
        inner.append((-1.0) ** (1 - k) * (1.0 - ratio) ** (-k) * xi_n(1, a, 1.0))
        coef = comb(k_d, k) * (-ratio) ** k / LN2
        yield coef * fsum(inner), abs(coef) * fsum(abs(t) for t in inner)


def avg_rate_a2(params) -> ClosedFormRate:
    """Closed-form average sum rate under gain-max UL and SINR-max DL
    selection (UL part plus the nested xi_n combination).

    The pole at p0 = pu goes to the rate integral at the same point and
    flags the result; the (1 - p0/pu)^{-n} weights blow up the cancellation
    near that pole, in which case the rate integral takes over too.
    """
    pole = abs(1.0 - params.p0_max / params.pu_max) < _POLE_EPS
    return _closed_or_quadrature(params, _dl_a2_terms, _sf_dl_a2, pole)


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
        params.pu_max / (params.p0_max * params.si_gain + params.sigma0_sq)
    )
    return AsymptoticRate(nats=nats, bits=nats / LN2)
