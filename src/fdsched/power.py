"""Binary optimal power allocation and duplex-mode switching.

The sum rate of a scheduled pair, as a function of either transmit power
with the other held fixed, is monotone increasing when the matching
indicator below is nonnegative and convex otherwise -- so its maximum
always sits at a power corner.  That makes the optimal allocation binary:
each power is either zero or its maximum, and only three corners can win
(both powers zero is always dominated).

The indicators, the corner comparison and the rescheduling live in the
batched kernel of :mod:`fdsched.scheduling`; the functions here are its
views for one snapshot and one pair.  :func:`opa` returns an
:class:`OpaDecision`: a Schedule that also records whether the indicator
fast path settled it, so it goes to :func:`fdsched.model.rates` as it is.
"""

from dataclasses import dataclass

from .model import pair_gains
from .scheduling import Schedule, _pair_at, _powers, allocate


@dataclass(frozen=True)
class OpaDecision(Schedule):
    """The Schedule that the binary power allocation gives one pair."""

    fast_path: bool  # True when the indicator test settled it without corner enumeration


def opa(ch, ul, dl, config):
    """Sum-rate-optimal power allocation for the scheduled pair (ul, dl).

    Fast path: if zeta(P0) >= 0 and eta(PU) >= 0, full-power FD is optimal
    outright.  Otherwise the optimum is found by enumerating the three live
    corners (P0,PU), (0,PU), (P0,0).  Ties prefer FD, then HD-UL, then
    HD-DL.
    """
    pair = _pair_at(config, ul, dl, pair_gains(ch, ul, dl))
    fast, fd, on_ul, _, _ = allocate(config, pair)
    return OpaDecision(ul, dl, *_powers(config, fd, on_ul), bool(fast))
