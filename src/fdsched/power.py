"""Binary optimal power allocation and duplex-mode switching.

The sum rate of a scheduled pair, as a function of either transmit power
with the other held fixed, is monotone increasing when the matching
indicator below is nonnegative and convex otherwise -- so its maximum
always sits at a power corner.  That makes the optimal allocation binary:
each power is either zero or its maximum, and only three corners can win
(both powers zero is always dominated).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import LN2
from .scheduling import DuplexMode, Schedule


def zeta(p0, g_ul_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the DL power: its sign governs whether the
    pair sum rate keeps growing with the UL power (>= 0) or turns convex."""
    return g_ul_star * sigmaD_sq / (p0 * si_gain + sigma0_sq) - g_x_star


def eta(pu, g_dl_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the UL power: its sign governs monotonicity of
    the pair sum rate in the DL power."""
    return g_dl_star * sigma0_sq / (pu * g_x_star + sigmaD_sq) - si_gain


def require_positive_powers(config):
    """Power allocation needs both maximum powers positive; the scalar
    :func:`opa` and the batched engine both reject other configs here."""
    if config.p0_max <= 0.0 or config.pu_max <= 0.0:
        raise ValueError("power allocation needs positive p0_max and pu_max")


@dataclass(frozen=True)
class OpaDecision:
    """Outcome of the binary power allocation for one scheduled pair."""

    p0_star: float
    pu_star: float
    mode: DuplexMode
    fast_path: bool  # True when the indicator test settled it without corner enumeration

    def __post_init__(self):
        if self.p0_star == 0.0 and self.pu_star == 0.0:
            raise ValueError("the all-off corner is never a valid decision")
        expected = {
            DuplexMode.FD: self.p0_star > 0.0 and self.pu_star > 0.0,
            DuplexMode.HD_UL: self.p0_star == 0.0 and self.pu_star > 0.0,
            DuplexMode.HD_DL: self.p0_star > 0.0 and self.pu_star == 0.0,
        }[self.mode]
        if not expected:
            raise ValueError(f"mode {self.mode} inconsistent with powers "
                             f"({self.p0_star!r}, {self.pu_star!r})")


def opa(ch, ul, dl, config):
    """Sum-rate-optimal power allocation for the scheduled pair (ul, dl).

    Fast path: if zeta(P0) >= 0 and eta(PU) >= 0, full-power FD is optimal
    outright.  Otherwise the optimum is found by enumerating the three live
    corners (P0,PU), (0,PU), (P0,0).  Ties prefer FD, then HD-UL, then
    HD-DL.
    """
    require_positive_powers(config)
    if not 0 <= ul < ch.g_ul.shape[0]:
        raise IndexError(f"UL index {ul} out of range")
    if not 0 <= dl < ch.g_dl.shape[0]:
        raise IndexError(f"DL index {dl} out of range")
    g0 = float(ch.g_ul[ul])
    gd = float(ch.g_dl[dl])
    gx = float(ch.g_x[dl, ul])
    p0, pu = config.p0_max, config.pu_max
    s0, sd, si = config.sigma0_sq, config.sigmaD_sq, ch.si_gain

    if (zeta(p0, g0, gx, s0, sd, si) >= 0.0
            and eta(pu, gd, gx, s0, sd, si) >= 0.0):
        return OpaDecision(p0_star=p0, pu_star=pu, mode=DuplexMode.FD, fast_path=True)

    r_fd = (math.log1p(pu * g0 / (p0 * si + s0))
            + math.log1p(p0 * gd / (pu * gx + sd))) / LN2
    r_hd_ul = math.log1p(pu * g0 / s0) / LN2
    r_hd_dl = math.log1p(p0 * gd / sd) / LN2
    if r_fd >= r_hd_ul and r_fd >= r_hd_dl:
        return OpaDecision(p0_star=p0, pu_star=pu, mode=DuplexMode.FD, fast_path=False)
    if r_hd_ul >= r_hd_dl:
        return OpaDecision(p0_star=0.0, pu_star=pu, mode=DuplexMode.HD_UL, fast_path=False)
    return OpaDecision(p0_star=p0, pu_star=0.0, mode=DuplexMode.HD_DL, fast_path=False)


def opa_enhanced_schedule(ch, config, base):
    """Run a fixed-power selector, then let the binary power allocation pick
    the duplex mode.

    ``base`` is one of the fixed-power selectors (``select_a1`` /
    ``select_a2`` / ``select_a3`` or any callable with that signature).  If
    the allocation keeps FD, the base pair stands at maximum powers.  If it
    collapses to a half-duplex mode, the surviving link's user is
    rescheduled by raw channel gain, which is what maximizes a single-link
    rate.
    """
    pair = base(ch, config)
    decision = opa(ch, pair.ul, pair.dl, config)
    if decision.mode is DuplexMode.FD:
        return pair
    if decision.mode is DuplexMode.HD_UL:
        return Schedule(
            ul=int(np.argmax(ch.g_ul)), dl=None,
            p0=0.0, pu=config.pu_max, mode=DuplexMode.HD_UL,
        )
    return Schedule(
        ul=None, dl=int(np.argmax(ch.g_dl)),
        p0=config.p0_max, pu=0.0, mode=DuplexMode.HD_DL,
    )
