"""Closed-form average sum rates over Rayleigh fading and their oracles.

Three independent paths cover every analytical quantity: the closed forms
built from the xi_n kernel, quadrature of the rate integral

    Rbar = (1/ln 2) * integral_0^inf (S_ul(x) + S_dl(x)) / (x + 1) dx

over the survival functions S = 1 - F of the two links' SINRs, and Monte
Carlo simulation (:mod:`fdsched.sim`).  The operating point is a plain
SystemConfig, so one object drives all three.  The quadrature doubles as
the closed forms' oracle and as their route (``ClosedFormRate.route``) around

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

Its cost grows linearly with K.  Both A1 DL laws, this one and the CDF
below, are evaluated in blocks of rows of x, each block's (rows, K)
temporaries holding about 2^13 floats, so their memory is one block at any
K and the values are those of one call on all of x.

Both integrands, S_ul + S_dl for the reroute and 2 - F_ul - F_dl for
:func:`avg_rate_integral`, go through one rule over t = ln(1 + x) on
[0, T], T the first of 8, 16, ..., 512 where the integrand is exactly 0
(all seven probed in one call): a global-adaptive 7/15-point
Gauss-Kronrod rule that splits each panel it flags in four, to 1e-9 bits.
Each of its rounds is one integrand call, so numpy's fixed cost per call
is paid per round, not per panel.
:func:`avg_rate_integral` is the public, generic path over any two CDFs
that work elementwise on float arrays, and the independent check of
validate and of ``fdsched analyze``'s oracle column.  The public
``cdf_sinr_*`` it is given are written from the CDF formulas themselves,
never as 1 - S, so that check shares with the reroute only the rule, the
one-candidate tails and the A1 binomial logarithms.  Nothing here loads scipy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, fsum, log
from typing import NamedTuple

import numpy as np

from .model import LN2, SystemConfig
from .specfun import xi_n

_POLE_EPS = 1e-9          # relative pole distance that routes to the rate integral
_CLOSED_RATE_MAX_K = 40   # closed rate forms are never attempted beyond this
_RATE_TOL = 1e-9          # bits: error estimate allowed on either route
_EPS4 = 4.0 * float(np.finfo(float).eps)  # compensated-sum error per unit gross size
_MAX_PANELS = 500         # most Gauss-Kronrod panels of a rate integral
_CUTOFFS = 2.0 ** np.arange(3.0, 10.0)  # t = ln(1 + x) cut-off candidates 8, 16, ..., 512
_TINY = np.finfo(float).tiny
_LOG_FLOOR = -700.0       # A1 binomial weights below e^-700 count as 0
_A1_BLOCK = 2 ** 13       # floats (64 KiB) in each (rows, k_d) temporary of the A1 DL laws


@dataclass(frozen=True)
class AnalyticalParams(SystemConfig):
    """A SystemConfig under another name: the closed forms take any config."""

    @classmethod
    def from_config(cls, config):
        """The operating point of ``config``."""
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
    """x as a float array (0-d for a scalar) whose elements are all >= 0."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0).all():
        raise ValueError(f"CDF argument must be >= 0, got {float(x[~(x >= 0.0)][0])!r}")
    return x


def _ul_tail(x, params):
    """e^{-a x}: the chance that one UL candidate's SINR exceeds x."""
    return np.exp(-(params.p0_max * params.si_gain + params.sigma0_sq) / params.pu_max * x)


def _a2_tail(x, params):
    """e^{-a x} / (1 + b x): the chance that one DL candidate's SINR, given
    the chosen UL user's leakage, exceeds x."""
    return np.exp(-params.sigmaD_sq / params.p0_max * x) / (1.0 + params.pu_max / params.p0_max * x)


def _best_of_sf(y, k):
    """1 - (1 - y)^k over arrays: the best of k i.i.d. candidates, each above
    x with probability y, is above x."""
    with np.errstate(divide="ignore"):
        return -np.expm1(k * np.log1p(-y))


def _best_of_cdf(y, k):
    """(1 - y)^k over arrays, from the same logarithm: all k candidates are
    at most x (exactly 0 where y = 1)."""
    with np.errstate(divide="ignore"):
        return np.exp(k * np.log1p(-y))


def _exp_floored(log_w):
    """e^{log_w}, with every value below e^-700 taken as 0: exp is ~20x
    slower where its result is subnormal or 0."""
    return np.exp(np.maximum(log_w, _LOG_FLOOR)) * (log_w > _LOG_FLOOR)


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
    """Read-only arrays of k, k_d - k and log C(k_d, k) for k = 1..k_d, each
    log that of the exact integer: the terms of the A1 DL sums.  The
    integers are built for k <= k_d / 2 only and their logs mirrored, since
    C(k_d, k) = C(k_d, k_d - k)."""
    log_comb, binom = [], 1
    for k in range(1, k_d // 2 + 1):
        binom = binom * (k_d - k + 1) // k
        log_comb.append(log(binom))
    log_comb += log_comb[:(k_d - 1) // 2][::-1] + [0.0]
    k = np.arange(1.0, k_d + 1.0)
    terms = np.array([k, k_d - k, log_comb])
    terms.setflags(write=False)
    return terms


def _by_row_blocks(law, x, params):
    """``law(x, params)`` for an A1 DL law that works on x[..., None]
    against the k_d terms, evaluated on the flattened x in blocks of rows
    whose (rows, k_d) temporaries hold about ``_A1_BLOCK`` floats each (one
    row when k_d is larger), and written back in x's shape.  Memory is thus
    one block at any k_d, and each temporary stays in cache and, at 64 KiB,
    under glibc's first 128 KiB mmap threshold: larger blocks had a fresh
    process fault their pages in again on most calls.  Each row's cumsum,
    sum and exp stand alone, so the values are bit for bit those of one
    call on all of x, which is what an x of at most one block gets."""
    rows = max(1, _A1_BLOCK // params.k_d)
    if x.size <= rows:
        return law(x, params)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, rows):
        out[start:start + rows] = law(flat[start:start + rows], params)
    return out.reshape(x.shape)


def _sf_dl_a1_rows(x, params):
    """:func:`_sf_dl_a1` in one call on all of x."""
    k, k_rest, log_comb = _a1_terms(params.k_d)
    x = x[..., None]
    c = params.sigmaD_sq / params.p0_max * x
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(-np.expm1(-c), _TINY))
        neg_log_prod = np.cumsum(np.log1p(params.p0_max / (params.pu_max * x) / k), axis=-1)
    w = _exp_floored(log_comb - k * c + k_rest * log_p)
    return np.minimum(-(w * np.expm1(-neg_log_prod)).sum(axis=-1), 1.0)


def _sf_dl_a1(x, params):
    """Survival function of the A1 DL SINR (gain-max over k_d, blind to the
    interference it will suffer) on an array of x >= 0: the finite sum of
    non-negative terms in the module docstring, with each binomial weight
    and each 1 - prod_{j<=k} j r / (1 + j r) taken from logarithms.  Its
    cost grows linearly with k_d; its memory is one row block
    (:func:`_by_row_blocks`)."""
    return _by_row_blocks(_sf_dl_a1_rows, np.asarray(x, dtype=float), params)


def cdf_sinr_ul(x, params):
    """CDF of the UL SINR when the UL user is the gain-max over k_u
    candidates (the same law under A1 and A2): (1 - e^{-a x})^{k_u}, for a
    scalar or elementwise on an array of x >= 0."""
    return _best_of_cdf(_ul_tail(_checked(x), params), params.k_u)


def _cdf_dl_a1_rows(x, params):
    """:func:`cdf_sinr_dl_a1` in one call on all of x, already checked."""
    x = x[..., None]
    k, k_rest, log_comb = _a1_terms(params.k_d)
    c = params.sigmaD_sq / params.p0_max * x
    with np.errstate(divide="ignore"):
        log_p = np.log(np.maximum(-np.expm1(-c), _TINY))
        log_prod = -np.cumsum(np.log1p(params.p0_max / (params.pu_max * x) / k), axis=-1)
    f = (_exp_floored(params.k_d * log_p[..., 0])
         + _exp_floored(log_comb - k * c + k_rest * log_p + log_prod).sum(axis=-1))
    return np.minimum(f, 1.0)


def cdf_sinr_dl_a1(x, params):
    """CDF of the DL SINR when the DL user is the gain-max over k_d
    candidates (selection ignores the interference it will suffer), for a
    scalar or elementwise on an array of x >= 0.

    With q = e^{-c} and r as in the module docstring, writing
    1 - q e^{-r g} = (1 - q) + q (1 - e^{-r g}) and averaging the binomial
    expansion of its k_d-th power over g gives non-negative terms,

        F = sum_{k=0}^{k_d} C(k_d,k) q^k (1 - q)^{k_d-k} prod_{j<=k} j r / (1 + j r),

    each taken from logarithms.  Its cost grows linearly with k_d; its
    memory is one row block (:func:`_by_row_blocks`).
    """
    return _by_row_blocks(_cdf_dl_a1_rows, _checked(x), params)


def cdf_sinr_dl_a2(x, params):
    """CDF of the DL SINR when the DL user maximizes SINR given the chosen
    UL user's leakage, for a scalar or elementwise on an array of x >= 0:
    the stated alternating sum telescopes exactly into
    (1 - e^{-a x} / (1 + b x))^{k_d}."""
    return _best_of_cdf(_a2_tail(_checked(x), params), params.k_d)


# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule inside it
# (QUADPACK's dqk15): the nodes x >= 0 from the outermost in, and their
# weights in each rule (0 in the Gauss rule at the Kronrod-only nodes).
_XK = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
       0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
       0.207784955007898468, 0.0)
_WK = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
       0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
       0.204432940075298892, 0.209482141084727828)
_WG = (0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
       0.0, 0.381830050505118945, 0.0, 0.417959183673469388)
_GK_NODES = np.concatenate([np.negative(_XK[:-1]), _XK[::-1]])
_GK_WEIGHTS = np.array([_WK[:-1] + _WK[::-1], _WG[:-1] + _WG[::-1]]).T


def _kronrod_breakpoints(cutoff):
    """The oracle's first panel edges: 0, 2^-40, 2^-36, ..., 2^-4, 1, 2, 4,
    ..., cutoff.  A link of mean SNR s has its mass at t below about s, so
    one panel on [0, cutoff] puts no node there at low SNR, and is wrong
    while its error estimate reads ~0."""
    return np.concatenate([[0.0], 2.0 ** np.arange(-40.0, -3.0, 4.0),
                           2.0 ** np.arange(float(int(cutoff).bit_length()))])


def _kronrod_panels(integrand, lo, hi):
    """The panel table ``(lo, hi, K15, |K15 - G7|)``, a (4, n) array: the
    15-point Kronrod estimate on each panel [lo, hi] and its distance from
    the embedded 7-point Gauss estimate, from one integrand call."""
    half = (hi - lo) / 2.0
    f = integrand((lo + half)[:, None] + half[:, None] * _GK_NODES)
    kronrod, gauss = (f @ _GK_WEIGHTS * half[:, None]).T
    return np.array([lo, hi, kronrod, np.abs(kronrod - gauss)])


def _kronrod_rule(integrand, edges, tol):
    """``(value, abserr)`` of ``integrand`` (elementwise on a float array)
    over the panels between ``edges``.  Each round splits every panel whose
    |K15 - G7| exceeds its share, ``tol`` over the panel count, into four
    equal parts, all evaluated in one integrand call.  The rule stops once
    those differences, summed into abserr, are at most ``tol``, or where a
    round would pass ``_MAX_PANELS`` panels."""
    table = _kronrod_panels(integrand, edges[:-1], edges[1:])
    while table[3].sum() > tol:
        split = table[3] > tol / table.shape[1]
        if table.shape[1] + 3 * np.count_nonzero(split) > _MAX_PANELS:
            break
        lo, hi = table[:2, split]
        mid = (lo + hi) / 2.0
        quarters = np.array([lo, (lo + mid) / 2.0, mid, (mid + hi) / 2.0, hi])
        new = _kronrod_panels(integrand, quarters[:-1].ravel(), quarters[1:].ravel())
        table = np.concatenate([table[:, ~split], new], axis=1)
    return fsum(table[2]), float(table[3].sum())


def _cdf_values(link, cdf, x):
    """``cdf`` at the array x, broadcast to its shape; a value outside
    [0, 1], NaN included, raises ``ValueError``."""
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        f = np.broadcast_to(f, x.shape)
    if not (f.min() >= 0.0 and f.max() <= 1.0):  # NaN fails both
        bad = ~((f >= 0.0) & (f <= 1.0))
        raise ValueError(f"{link} CDF value at x = {float(x[bad][0])!r} is "
                         f"{float(f[bad][0])!r}, not in [0, 1]")
    return f


def _integrate(integrand):
    """The rate integral, in bits, of ``integrand`` (elementwise on a float
    array of t = ln(1 + x)), cut off, integrated and checked as
    :func:`avg_rate_integral` describes.  The cut-off probe is one
    integrand call on all of ``_CUTOFFS``; T is the first candidate where
    the integrand is not positive, the same T as probing them in order."""
    itol = _RATE_TOL * LN2  # tolerance on the raw (nats-scaled) integral
    positive = integrand(_CUTOFFS) > 0.0
    if positive.all():
        raise QuadratureError("integrand is still positive at ln(1+x) = 512",
                              achieved=math.inf)
    cutoff = _CUTOFFS[positive.argmin()]
    value, abserr = _kronrod_rule(integrand, _kronrod_breakpoints(cutoff), itol)
    if abserr > itol:
        raise QuadratureError("rate integral did not converge", achieved=abserr / LN2)
    return value / LN2


def avg_rate_integral(cdf_ul, cdf_dl):
    """Average sum rate from two SINR CDFs, integrated over t = ln(1 + x).

    ``cdf_ul`` and ``cdf_dl`` are callables that work elementwise on a float
    array of x >= 0 (a constant such as ``lambda x: 1.0`` broadcasts), with
    values in [0, 1]; a value outside it (NaN included) raises
    ``ValueError``.  With x = expm1(t) the weight dx/(1 + x) becomes dt, so
    the integrand is 2 - F_ul - F_dl, between 0 and 2.  The domain is cut
    at the first T in 8, 16, ..., 512 where that integrand is exactly 0;
    for CDFs that are monotone the rest of the tail is then exactly 0, so
    the cut adds no error.  The seven candidates are probed in one call, so
    each CDF is evaluated, and its values checked, at every candidate, those
    past T included.

    [0, T] is integrated to 1e-9 bits by :func:`_kronrod_rule`, a
    global-adaptive 7/15-point Gauss-Kronrod rule (Piessens et al.,
    *QUADPACK*, 1983, routine QAG; Gander & Gautschi, BIT 40, 2000) started
    from the panels of :func:`_kronrod_breakpoints`; each round splits every
    panel it flags in four and passes all its nodes to each CDF in one
    call.  Raises :class:`QuadratureError` with the rule's error estimate
    if it stops at 500 panels, or with an infinite bound if the integrand
    is still positive at T = 512 (x ~ 1e222).
    """
    def integrand(t):
        x = np.expm1(t)
        return 2.0 - _cdf_values("UL", cdf_ul, x) - _cdf_values("DL", cdf_dl, x)

    return _integrate(integrand)


def _rate_by_quadrature(params, sf_dl=None):
    """The rate integral of S_ul plus the survival function ``sf_dl`` (None:
    UL only), by the rule of :func:`avg_rate_integral`: the closed forms'
    route around poles, cancellation and large user counts.  Raises
    :class:`QuadratureError` as :func:`avg_rate_integral` does."""
    def integrand(t):
        x = np.expm1(t)
        return _sf_ul(x, params) if sf_dl is None else _sf_ul(x, params) + sf_dl(x, params)

    return _integrate(integrand)


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


def avg_rate_ul_closed(params) -> ClosedFormRate:
    """Closed-form average UL rate: an alternating binomial combination of
    xi_1 kernels, or the rate integral where cancellation would eat it or
    k_u > 40, with the route that computed it (the UL form has no pole)."""
    return _closed_or_quadrature(params)


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
