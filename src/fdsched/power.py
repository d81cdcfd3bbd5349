"""Binary optimal power allocation and duplex-mode switching.

The sum rate of a scheduled pair, as a function of either transmit power
with the other held fixed, is monotone increasing when the matching
indicator below is nonnegative and convex otherwise -- so its maximum
always sits at a power corner.  That makes the optimal allocation binary:
each power is either zero or its maximum, and only three corners can win
(both powers zero is always dominated).

The indicators, the corner comparison and the rescheduling live in the
batched kernel of :mod:`fdsched.scheduling`; the functions here are its
views for one snapshot and one pair.
"""

from dataclasses import dataclass

import numpy as np

from .model import _check_index
from .scheduling import (  # zeta and eta are re-exported
    DuplexMode,
    _schedule_of,
    allocate,
    eta,
    require_positive_powers,
    zeta,
)


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
    _check_index("UL", ul, ch.g_ul.shape[0])
    _check_index("DL", dl, ch.g_dl.shape[0])
    fast, p0, pu, _, _ = allocate(config, ch.si_gain, ch.g_ul[ul], ch.g_dl[dl], ch.g_x[dl, ul])
    s = _schedule_of(ul, dl, float(p0), float(pu))
    return OpaDecision(p0_star=s.p0, pu_star=s.pu, mode=s.mode, fast_path=bool(fast))


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
    return _schedule_of(int(np.argmax(ch.g_ul)), int(np.argmax(ch.g_dl)),
                        decision.p0_star, decision.pu_star)
