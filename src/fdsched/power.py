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

from .model import _check_index
from .scheduling import (  # zeta and eta are re-exported
    Schedule,
    Scheduler,
    _select,
    allocate,
    eta,
    require_positive_powers,
    select_a1,
    select_a2,
    select_a3,
    zeta,
)

# The OPA scheduler that starts from each fixed-power selector.
_OPA_OF = {select_a1: Scheduler.A1_OPA, select_a2: Scheduler.A2_OPA, select_a3: Scheduler.A3_OPA}


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
    require_positive_powers(config)
    _check_index("UL", ul, ch.g_ul.shape[0])
    _check_index("DL", dl, ch.g_dl.shape[0])
    fast, p0, pu, _, _ = allocate(config, ch.si_gain, ch.g_ul[ul], ch.g_dl[dl], ch.g_x[dl, ul])
    return OpaDecision(ul, dl, float(p0), float(pu), bool(fast))


def opa_enhanced_schedule(ch, config, base):
    """Run a fixed-power selector, then let the binary power allocation pick
    the duplex mode.

    ``base`` is ``select_a1``, ``select_a2`` or ``select_a3``; this is the
    matching OPA scheduler's decision.  If the allocation keeps FD, the base
    pair stands at maximum powers.  If it collapses to a half-duplex mode,
    the surviving link's user is rescheduled by raw channel gain, which is
    what maximizes a single-link rate.
    """
    rule = _OPA_OF.get(base)
    if rule is None:
        raise ValueError(f"base must be select_a1, select_a2 or select_a3, got {base!r}")
    return _select(rule, ch, config)
