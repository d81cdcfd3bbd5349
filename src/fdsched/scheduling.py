"""The scheduling kernel: user-pair selection, binary power allocation and
the duplex-mode switch, written once for a batch of snapshots.

A1 takes the strongest raw gain on both links, A2 refines the DL choice by
its SINR given the already-chosen UL user, A3 refines the UL choice by its
signal-to-leakage ratio toward the already-chosen DL user, all at maximum
powers.  The OPA rules then pick the best of the pair's three live power
corners (see :mod:`fdsched.power`), ES-FDHD the best of the exhaustive FD
pair and the two best single links.  Ties resolve to the lowest index
(lexicographic (u, d) for pair searches), then to FD, HD-UL, HD-DL.

Gains carry a leading trial axis.  :func:`decide` gives per-trial users and
powers, :func:`evaluate` per-trial rates for the Monte Carlo engine; the
scalar ``select_*`` functions and :mod:`fdsched.power` are batch-of-one
views of the same code, and return a :class:`Schedule`.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import RateBreakdown, log2_1p, sinr


class Scheduler(str, enum.Enum):
    A1 = "a1"
    A2 = "a2"
    A3 = "a3"
    A1_OPA = "a1-opa"
    A2_OPA = "a2-opa"
    A3_OPA = "a3-opa"
    ES_FD = "es-fd"
    ES_FDHD = "es-fdhd"
    HD_TDD = "hd-tdd"


# The fixed-power rule each OPA scheduler starts from.
OPA_BASE = {
    Scheduler.A1_OPA: Scheduler.A1,
    Scheduler.A2_OPA: Scheduler.A2,
    Scheduler.A3_OPA: Scheduler.A3,
}


class DuplexMode(enum.Enum):
    FD = "fd"
    HD_UL = "hd-ul"
    HD_DL = "hd-dl"


@dataclass(frozen=True)
class Schedule:
    """One scheduling decision: users and powers.  The duplex mode is read
    off the powers, and a link at power 0 keeps no user (it becomes None)."""

    ul: Optional[int]
    dl: Optional[int]
    p0: float
    pu: float

    def __post_init__(self):
        if not (math.isfinite(self.p0) and math.isfinite(self.pu)) or min(self.p0, self.pu) < 0.0:
            raise ValueError(f"powers must be finite and >= 0, got ({self.p0!r}, {self.pu!r})")
        if self.p0 == 0.0 and self.pu == 0.0:
            raise ValueError("the all-off corner is never a valid schedule")
        if (self.pu > 0.0 and self.ul is None) or (self.p0 > 0.0 and self.dl is None):
            raise ValueError("a link with positive power needs a user")
        for user, power in (("ul", self.pu), ("dl", self.p0)):
            if power == 0.0:
                object.__setattr__(self, user, None)

    @property
    def mode(self):
        if self.p0 == 0.0:
            return DuplexMode.HD_UL
        return DuplexMode.HD_DL if self.pu == 0.0 else DuplexMode.FD


def require_positive_powers(config):
    """Every scheduler but HD-TDD pairs users in full duplex at maximum
    powers, so both maximum powers must be positive.  The one check for
    the engine, the scalar views and the closed forms' operating point."""
    if config.p0_max <= 0.0 or config.pu_max <= 0.0:
        raise ValueError("full-duplex scheduling needs positive p0_max and pu_max")


def zeta(p0, g_ul_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the DL power: its sign governs whether the
    pair sum rate keeps growing with the UL power (>= 0) or turns convex."""
    return g_ul_star * sigmaD_sq / (p0 * si_gain + sigma0_sq) - g_x_star


def eta(pu, g_dl_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the UL power: its sign governs monotonicity of
    the pair sum rate in the DL power."""
    return g_dl_star * sigma0_sq / (pu * g_x_star + sigmaD_sq) - si_gain


def _hd_rates(config, si, g_ul, g_dl):
    """Full-power single-link rates of UL gains ``g_ul`` and DL gains
    ``g_dl``: the FD rates with the other link's power off."""
    return (log2_1p(sinr(config.pu_max, g_ul, 0.0, si, config.sigma0_sq)),
            log2_1p(sinr(config.p0_max, g_dl, 0.0, 0.0, config.sigmaD_sq)))


def _corner_powers(config, r_fd, r_hd_ul, r_hd_dl, fast=False):
    """Powers (p0, pu) of the best live corner: (P0, PU) when ``fast`` or
    when FD is best, else (0, PU) or (P0, 0).  Ties prefer FD, then HD-UL,
    then HD-DL."""
    fd = fast | ((r_fd >= r_hd_ul) & (r_fd >= r_hd_dl))
    on_ul = ~fd & (r_hd_ul >= r_hd_dl)
    return config.p0_max * ~on_ul, config.pu_max * (fd | on_ul)  # 0 where the link is off


def allocate(config, si, g_ul, g_dl, g_x):
    """Binary power allocation of pairs with gains ``g_ul``, ``g_dl`` and
    cross gain ``g_x`` (arrays or 0-d scalars): ``(fast, p0, pu, r_hd_ul,
    r_hd_dl)``, where ``fast`` marks pairs whose two indicators settle
    full-power FD outright."""
    p0, pu = config.p0_max, config.pu_max
    s0, sd = config.sigma0_sq, config.sigmaD_sq
    fast = (zeta(p0, g_ul, g_x, s0, sd, si) >= 0.0) & (eta(pu, g_dl, g_x, s0, sd, si) >= 0.0)
    r_fd = log2_1p(sinr(pu, g_ul, p0, si, s0)) + log2_1p(sinr(p0, g_dl, pu, g_x, sd))
    hd = _hd_rates(config, si, g_ul, g_dl)
    return (fast, *_corner_powers(config, r_fd, *hd, fast), *hd)


def decide(scheduler, config, si, g_ul, g_dl, g_x):
    """Per-trial decisions ``(ul, dl, p0, pu, extras)`` of an FD-capable
    scheduler on a block of snapshots with self-interference gain ``si``.

    Pairs are chosen at maximum powers; A2 reads only column u* of each
    cross-gain matrix and A3 only row d*, building the metric in place in
    the gathered copy.  Each returned power is 0 or its maximum and so names
    the duplex mode; a half-duplex outcome hands both links to the gain-max
    users (the off link's user is moot).  ``extras`` holds the OPA rules'
    indicator fast path and the single-link corner rates of their base pair.
    """
    require_positive_powers(config)
    n, k_u = g_ul.shape
    k_d = g_dl.shape[1]
    p0, pu, s0, sd = config.p0_max, config.pu_max, config.sigma0_sq, config.sigmaD_sq
    idx = np.arange(n)
    rule = OPA_BASE.get(scheduler, scheduler)
    if rule in (Scheduler.ES_FD, Scheduler.ES_FDHD):
        r_ul = log2_1p(sinr(pu, g_ul, p0, si, s0))
        # Pair sum rates, built in place in (n, k_u, k_d) layout: one tensor
        # the size of g_x, and its first flat max is the lexicographic (u, d).
        pair = sinr(p0, g_dl[:, None, :], pu, g_x.transpose(0, 2, 1), sd,
                    out=np.empty((n, k_u, k_d)))
        log2_1p(pair, out=pair)
        pair += r_ul[:, :, None]
        pair = pair.reshape(n, -1)
        best = np.argmax(pair, axis=1)
        ul, dl, r_fd = best // k_d, best % k_d, pair[idx, best]
    elif rule is Scheduler.A3:
        dl = np.argmax(g_dl, axis=1)
        row = g_x[idx, dl, :]  # a copy: the metric is built in place
        ul = np.argmax(sinr(pu, g_ul, pu, row, s0, out=row), axis=1)  # signal-to-leakage
    else:
        ul = np.argmax(g_ul, axis=1)
        if rule is Scheduler.A1:
            dl = np.argmax(g_dl, axis=1)
        else:
            col = g_x[idx, :, ul]
            dl = np.argmax(sinr(p0, g_dl, pu, col, sd, out=col), axis=1)
    if scheduler not in OPA_BASE and scheduler is not Scheduler.ES_FDHD:
        return ul, dl, np.full(n, p0), np.full(n, pu), {}
    best_ul, best_dl = np.argmax(g_ul, axis=1), np.argmax(g_dl, axis=1)
    extras = {}
    if scheduler is Scheduler.ES_FDHD:
        hd = _hd_rates(config, si, g_ul[idx, best_ul], g_dl[idx, best_dl])
        p0, pu = _corner_powers(config, r_fd, *hd)
    else:
        fast, p0, pu, *hd = allocate(config, si, g_ul[idx, ul], g_dl[idx, dl], g_x[idx, dl, ul])
        extras = {"fast": fast, "pair_hd_ul": hd[0], "pair_hd_dl": hd[1]}
    off = (p0 == 0.0) | (pu == 0.0)
    return np.where(off, best_ul, ul), np.where(off, best_dl, dl), p0, pu, extras


def evaluate(scheduler, config, g_ul, g_dl, g_x):
    """Per-trial ``r_ul``, ``r_dl`` and FD flags of one scheduler on a block
    of snapshots, plus A1-A3's pair SINRs (``gamma_ul``/``gamma_dl``) and
    the OPA rules' :func:`decide` extras."""
    n = g_ul.shape[0]
    if scheduler is Scheduler.HD_TDD:
        r_ul, r_dl = _hd_rates(config, 0.0, g_ul.max(axis=1), g_dl.max(axis=1))
        return {"r_ul": 0.5 * r_ul, "r_dl": 0.5 * r_dl, "fd": np.zeros(n, dtype=bool)}
    si = config.si_gain
    ul, dl, p0, pu, extras = decide(scheduler, config, si, g_ul, g_dl, g_x)
    idx = np.arange(n)
    gamma_ul = sinr(pu, g_ul[idx, ul], p0, si, config.sigma0_sq)
    gamma_dl = sinr(p0, g_dl[idx, dl], pu, g_x[idx, dl, ul], config.sigmaD_sq)
    out = {"r_ul": log2_1p(gamma_ul), "r_dl": log2_1p(gamma_dl), "fd": (p0 > 0.0) & (pu > 0.0)}
    if scheduler in OPA_BASE.values():
        out.update(gamma_ul=gamma_ul, gamma_dl=gamma_dl)
    return {**out, **extras}


def _select(scheduler, ch, config):
    """Batch-of-one view of :func:`decide` on one snapshot."""
    ul, dl, p0, pu, _ = decide(scheduler, config, ch.si_gain,
                               ch.g_ul[None], ch.g_dl[None], ch.g_x[None])
    return Schedule(int(ul[0]), int(dl[0]), float(p0[0]), float(pu[0]))


def select_a1(ch, config):
    """Strongest raw gain on both links, chosen independently."""
    return _select(Scheduler.A1, ch, config)


def select_a2(ch, config):
    """Strongest-gain UL user, then the DL user with the best SINR given
    that UL user's leakage.  Reads only column u* of the cross-gain matrix."""
    return _select(Scheduler.A2, ch, config)


def select_a3(ch, config):
    """Strongest-gain DL user, then the UL user with the best
    signal-to-leakage ratio toward it.  Reads only row d* of the cross-gain
    matrix."""
    return _select(Scheduler.A3, ch, config)


def select_es_fd(ch, config):
    """Exhaustive search over all (UL, DL) pairs at maximum powers."""
    return _select(Scheduler.ES_FD, ch, config)


def select_es_fdhd(ch, config):
    """Best of the exhaustive FD pairing and the two full-power single-link
    half-duplex corners.  Tie preference: FD, then HD-UL, then HD-DL."""
    return _select(Scheduler.ES_FDHD, ch, config)


def select_hd_tdd(ch, config):
    """Half-duplex TDD benchmark rate.

    Convention: the best UL and the best DL user each get half of the
    resource at full power, with no self- or inter-terminal interference.
    The equal split is deliberately isolated in :func:`evaluate` so an
    alternative HD accounting can be swapped in without touching anything
    else.
    """
    out = evaluate(Scheduler.HD_TDD, config, ch.g_ul[None], ch.g_dl[None], ch.g_x[None])
    r_ul, r_dl = float(out["r_ul"][0]), float(out["r_dl"][0])
    return RateBreakdown(r_ul=r_ul, r_dl=r_dl, r_sum=r_ul + r_dl)
