"""The scheduling kernel: user-pair selection, binary power allocation and
the duplex-mode switch, written once for a batch of snapshots.

A1 takes the strongest raw gain on both links, A2 refines the DL choice by
its SINR given the already-chosen UL user, A3 refines the UL choice by its
signal-to-leakage ratio toward the already-chosen DL user, all at maximum
powers.  The OPA rules then pick the best of the pair's three live power
corners (see :mod:`fdsched.power`), ES-FDHD the best of the exhaustive FD
pair and the two best single links.  Ties resolve to the lowest index
(lexicographic (u, d) for pair searches), then to FD, HD-UL, HD-DL.

Gains carry a leading trial axis.  :func:`evaluate` gives the per-trial
rates of every scheduler of a run on one batch, each picked from work done
once per batch: the gain-max users, their gains and single-link rates, and
each base pair (A1, A2, A3, the exhaustive search) with its max-power rates.
A pair link whose user is the gain-max one reuses that user's gain, and in
an OPA rule its single-link rate: both links for A1, UL for A2, DL for A3.

numpy pays per row, not per element, for fancy indexing with several index
arrays and for reductions over short rows, and a batch has thousands of
rows of a few users.  So every gather is an ``ndarray.take`` on the
flattened gains with offsets built from row bases, cached per batch shape:
a user's gain or rate per row, the pair's cross gain, A2's cross-gain
column u* (and the search winner's, and each live pair's), A3's row d*.
``argmax`` over rows 1 or 2 wide, and the least cross gain of short rows,
are answered column by column.  Each gives numpy's bits and its
first-index ties.

The exhaustive search keeps each UL user's best DL SINR, so it takes logs
of K values, not K², and holds no (u, d) tensor of a whole batch: below
``_TILE_FROM`` pairs a snapshot it sweeps the DL users over K-wide rows,
from there it holds a tile of at most ``_TILE_PAIRS`` pairs (512 KB).
ES-FDHD without ES-FD skips the search on a batch where FD can win no
snapshot: where each snapshot's bound on the FD sum, u*'s UL rate plus d*'s
DL rate under the least cross gain, is below its best single link by a 1e-9
margin.  The first 16 snapshots take their own least cross gain; the rest
take the least of them all, one flat min, and their own only where that
looser bound reaches a best single link.  Where FD may win, it bounds each
(snapshot, UL user) pair the same way, with the user's own UL rate and
least cross gain, and searches only the live pairs, those whose bound
reaches the best single link.
The scalar ``select_*`` functions and :mod:`fdsched.power` are
batch-of-one views of the same code, and return a :class:`Schedule`.
"""

import enum
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .model import RateBreakdown, log2_1p, sinr, whole_number


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
        for user, label, power in (("ul", "UL index", self.pu), ("dl", "DL index", self.p0)):
            index = getattr(self, user)
            if index is not None:
                index = whole_number(label, index)
            object.__setattr__(self, user, None if power == 0.0 else index)

    @property
    def mode(self):
        if self.p0 == 0.0:
            return DuplexMode.HD_UL
        return DuplexMode.HD_DL if self.pu == 0.0 else DuplexMode.FD


def zeta(p0, g_ul_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the DL power: its sign governs whether the
    pair sum rate keeps growing with the UL power (>= 0) or turns convex."""
    return g_ul_star * sigmaD_sq / (p0 * si_gain + sigma0_sq) - g_x_star


def eta(pu, g_dl_star, g_x_star, sigma0_sq, sigmaD_sq, si_gain):
    """Indicator evaluated at the UL power: its sign governs monotonicity of
    the pair sum rate in the DL power."""
    return g_dl_star * sigma0_sq / (pu * g_x_star + sigmaD_sq) - si_gain


def _hd_ul(config, g_ul):
    """Full-power UL rate of UL gains ``g_ul``: the FD rate with the DL off."""
    return log2_1p(sinr(config.pu_max, g_ul, 0.0, config.si_gain, config.sigma0_sq))


def _hd_dl(config, g_dl):
    """Full-power DL rate of DL gains ``g_dl``: the FD rate with the UL off."""
    return log2_1p(sinr(config.p0_max, g_dl, 0.0, 0.0, config.sigmaD_sq))


def _corner(r_fd, r_hd_ul, r_hd_dl, fast=False):
    """Masks ``(fd, on_ul)`` of the best live corner (FD if ``fast``); ties prefer FD, then HD-UL."""
    fd = fast | ((r_fd >= r_hd_ul) & (r_fd >= r_hd_dl))
    return fd, np.logical_not(fd) & (r_hd_ul >= r_hd_dl)


def _powers(config, fd, on_ul):
    """Powers ``(p0, pu)`` of one snapshot's corner, as floats: 0 where the
    link is off.  Branches, since numpy's arithmetic on bool scalars costs
    about 1 µs an operation."""
    return 0.0 if on_ul else float(config.p0_max), float(config.pu_max) if fd or on_ul else 0.0


# Users, gains (g_ul, g_dl, g_x), SINRs, rates and sum rate of a pair in FD at maximum powers.
_Pair = namedtuple("_Pair", "ul dl gains gamma rates r_fd")


def _fd_ul(config, g_ul):
    """FD UL ``(SINR, rate)`` of UL gains ``g_ul`` at maximum powers."""
    gamma = sinr(config.pu_max, g_ul, config.p0_max, config.si_gain, config.sigma0_sq)
    return gamma, log2_1p(gamma)


def _pair_at(config, ul, dl, gains, r_fd=None, fd_ul=None):
    """The ``_Pair`` of users ``ul``, ``dl`` with ``gains`` (arrays or 0-d
    scalars); ``r_fd`` defaults to the sum of the rates, and ``fd_ul`` to
    the UL link's :func:`_fd_ul`."""
    gamma_ul, r_ul = _fd_ul(config, gains[0]) if fd_ul is None else fd_ul
    gamma_dl = sinr(config.p0_max, gains[1], config.pu_max, gains[2], config.sigmaD_sq)
    rates = r_ul, log2_1p(gamma_dl)
    return _Pair(ul, dl, gains, (gamma_ul, gamma_dl), rates, rates[0] + rates[1] if r_fd is None else r_fd)


def allocate(config, pair, hd_ul=None, hd_dl=None):
    """Binary power allocation of a ``_Pair``: ``(fast, fd, on_ul, r_hd_ul,
    r_hd_dl)``, where ``fast`` marks pairs whose two indicators settle
    full-power FD outright.  ``hd_ul`` and ``hd_dl`` are the pair's
    single-link rates where the caller has them already."""
    (g_ul, g_dl, g_x), p0, pu = pair.gains, config.p0_max, config.pu_max
    s0, sd, si = config.sigma0_sq, config.sigmaD_sq, config.si_gain
    fast = (zeta(p0, g_ul, g_x, s0, sd, si) >= 0.0) & (eta(pu, g_dl, g_x, s0, sd, si) >= 0.0)
    if hd_ul is None:
        hd_ul = _hd_ul(config, g_ul)
    if hd_dl is None:
        hd_dl = _hd_dl(config, g_dl)
    return (fast, *_corner(pair.r_fd, hd_ul, hd_dl, fast), hd_ul, hd_dl)


_CORNER_RULES = {*OPA_BASE, Scheduler.ES_FDHD}  # the rules that pick a power corner

# Offsets into flattened (n, k_u), (n, k_d) and (n, k_d, k_u) arrays: row i's
# first entry in each, and in ``col`` the k_d entries of a cross-gain column
# from its first.
_Bases = namedtuple("_Bases", "ul dl x col")


@lru_cache(maxsize=2)
def _bases(n, k_d, k_u):
    """The read-only ``_Bases`` of a batch of ``n`` rows, made on first use
    and kept for the next batches of that shape: a run's chunks and its
    shorter last one.  They are n long; an (n, k_d) table of column offsets
    kept between batches raised the peak RSS of repeated ``validate
    --quick`` runs by 2-4 MB, heap that the long-lived tables held."""
    rows = np.arange(n)
    bases = _Bases(rows * k_u, rows * k_d, rows * (k_d * k_u), np.arange(0, k_d * k_u, k_u))
    for b in bases:
        b.flags.writeable = False
    return bases


def _argmax(a):
    """``np.argmax(a, axis=1)``: each row's first maximal index, NaN counting
    as maximal.  numpy loops over the rows: on 4096 rows 1 or 2 wide that
    costs 50-80 µs, where the answer column-wise costs 1-20 µs.  From 4
    wide a column sweep is slower than numpy's loop, so numpy keeps those."""
    if a.shape[1] == 1:
        return np.zeros(len(a), np.intp)
    if a.shape[1] == 2:
        a0, a1 = a[:, 0], a[:, 1]
        return ((a1 > a0) | ((a1 != a1) & (a0 == a0))).astype(np.intp)
    return a.argmax(axis=1)


def _row_min(a):
    """``a.min(axis=1)`` of an (n, k) or (n, k, m) array.  While k is small
    next to n, an ``np.minimum`` sweep over axis 1 skips numpy's per-row
    loop: one sweep step costs about as much as 16 rows of that loop, and
    past 36 columns the sweep's strided passes fall out of cache.  On the
    cross gains of a 4 MiB chunk, over the DL users, the sweep took 0.49
    against numpy's 1.14 ms at K = 8 and 0.47 against 0.52 ms at K = 32,
    and numpy 0.35 against the sweep's 0.47 ms at K = 64."""
    n, k = a.shape[:2]
    if k > min(36, n // 16):
        return a.min(axis=1)
    out = a[:, 0].copy()
    for j in range(1, k):
        np.minimum(out, a[:, j], out=out)
    return out


_TILE_PAIRS = 1 << 16  # pairs per tile of the exhaustive search: a 512 KB buffer
# Pairs per snapshot from which the tiles replace the sweep over the DL
# users.  Measured on 4 MiB chunks of cross gains, the tiles took 0.5-0.8x
# the sweep's time from K = 48 up, 0.9-1.0x at K = 24-32, and 1.3-3.4x at
# K <= 16, where their max over a short DL axis pays numpy's per-row cost.
# Around 1024 pairs, shapes with k_u <= 8 read 0.85-1.34x across runs.
_TILE_FROM = 1024


def _best_dl_sinr(p0, pu, sd, g_dl, g_x):
    """Each row's best DL SINR of each UL user over the DL users, an
    (n, k_u) array, NaN where some DL user's is.  Below ``_TILE_FROM`` pairs
    a snapshot, a sweep over the DL users folds each (n, k_u) SINR slice
    into a running maximum; from there, rows go in tiles of at most
    ``_TILE_PAIRS`` pairs (one row if a row has more), each tile's SINRs
    computed into one buffer and reduced over its DL users.  The float
    operations are :func:`sinr`'s either way, and max is exact, so both
    give the same bits."""
    n, k_d, k_u = g_x.shape
    if k_d * k_u < _TILE_FROM:
        best, buf = np.full((n, k_u), -np.inf), np.empty((n, k_u))
        for d in range(k_d):
            np.maximum(best, sinr(p0, g_dl[:, d, None], pu, g_x[:, d, :], sd, out=buf), out=best)
        return best
    rows = max(_TILE_PAIRS // (k_d * k_u), 1)
    best, buf = np.empty((n, k_u)), np.empty((min(rows, n), k_d, k_u))
    for lo in range(0, n, rows):
        tile = buf[:min(rows, n - lo)]
        sinr(p0, g_dl[lo:lo + rows, :, None], pu, g_x[lo:lo + rows], sd, out=tile)
        tile.max(axis=1, out=best[lo:lo + rows])
    return best


class _Batch:
    """A batch of snapshots and the work its schedulers share, each piece
    done once, on first use, and dropped with the batch."""

    def __init__(self, config, g_ul, g_dl, g_x, schedulers=()):
        self.config, self.pairs, self.schedulers = config, {}, schedulers
        # C order, so that every gather is a take on a flat view
        self.g_ul, self.g_dl, self.g_x = map(np.ascontiguousarray, (g_ul, g_dl, g_x))
        self.bases = _bases(*self.g_x.shape)
        self.best = _argmax(self.g_ul), _argmax(self.g_dl)  # the gain-max users

    def at(self, a, users, rows=slice(None)):
        """``a[i, users[i]]`` of each row i of ``rows`` (default all) of an
        (n, k_u) or (n, k_d) array."""
        base = self.bases.ul if a.shape[1] == self.g_ul.shape[1] else self.bases.dl  # equal if k_u = k_d
        return a.reshape(-1).take(base[rows] + users)

    def column(self, ul, rows=slice(None)):
        """Column ``ul[i]`` of the cross gains of each row i of ``rows``
        (default all), as a fresh (len(ul), k_d) array."""
        return self.g_x.reshape(-1).take((self.bases.x[rows] + ul)[:, None] + self.bases.col)

    @cached_property
    def star(self):
        """The gain-max users' gains ``(g_ul, g_dl)``."""
        return self.at(self.g_ul, self.best[0]), self.at(self.g_dl, self.best[1])

    @cached_property
    def fd_ul(self):
        """FD ``(SINR, rate)`` of the gain-max UL user: A1's and A2's UL link
        and the first term of ES-FDHD's bound."""
        return _fd_ul(self.config, self.star[0])

    @cached_property
    def hd(self):
        """Full-power single-link rates of the gain-max users."""
        return _hd_ul(self.config, self.star[0]), _hd_dl(self.config, self.star[1])

    @cached_property
    def hd_best(self):
        """Each row's best single-link rate, the bar FD must reach in ES-FDHD."""
        return np.maximum(*self.hd)

    @cached_property
    def r_fd_ul(self):
        """FD UL rate of every UL user, an (n, k_u) array: the first term of
        each pair sum."""
        return _fd_ul(self.config, self.g_ul)[1]

    def users(self, rule):
        """``(ul, dl, r_fd)`` of A1, A2, A3, the exhaustive search (ES_FD) or
        ES-FDHD's search of its live pairs (:meth:`live_search`); ``r_fd`` is
        the search's pair sum rate, else None.  A2 reads only column u* of
        each cross-gain matrix and A3 only row d*, in a gathered copy; the
        search reads every pair but keeps each UL user's best DL SINR, never
        a K² tensor of the batch."""
        config, g_ul, g_dl, g_x = self.config, self.g_ul, self.g_dl, self.g_x
        p0, pu, s0, sd = config.p0_max, config.pu_max, config.sigma0_sq, config.sigmaD_sq
        if rule is Scheduler.ES_FD:
            # log2_1p and + r_ul are monotone, so each UL user's best pair sum
            # is log2_1p of its best DL SINR.
            best = _best_dl_sinr(p0, pu, sd, g_dl, g_x)
            return self.search(np.add(log2_1p(best, out=best), self.r_fd_ul, out=best))
        if rule is Scheduler.ES_FDHD:
            return self.live_search()
        if rule is Scheduler.A3:
            dl = self.best[1]
            row = g_x.reshape(-1, g_x.shape[2]).take(self.bases.dl + dl, axis=0)
            return _argmax(sinr(pu, g_ul, pu, row, s0, out=row)), dl, None
        ul, dl = self.best
        if rule is Scheduler.A2:
            col = self.column(ul)
            dl = _argmax(sinr(p0, g_dl, pu, col, sd, out=col))
        return ul, dl, None

    def pair(self, rule):
        """The ``_Pair`` of a base rule, made on first use; a gain-max user's
        gains are the ones gathered for :attr:`star`."""
        if rule not in self.pairs:
            ul, dl, r_fd = self.users(rule)
            gains = (self.star[0] if ul is self.best[0] else self.at(self.g_ul, ul),
                     self.star[1] if dl is self.best[1] else self.at(self.g_dl, dl),
                     self.g_x.reshape(-1).take(self.bases.x + dl * self.g_x.shape[2] + ul))
            self.pairs[rule] = _pair_at(self.config, ul, dl, gains, r_fd,
                                        self.fd_ul if ul is self.best[0] else None)
        return self.pairs[rule]

    def search(self, sums, rows=slice(None)):
        """``(ul, dl, r_fd)`` of the lexicographic (u, d) pair search on
        ``rows``, from their best pair sum of each UL user, ``sums``: the
        first UL user of highest sum, then the first DL user whose rounded
        sum with it ties, which need not be the first of highest SINR."""
        config = self.config
        ul = _argmax(sums)
        col = self.column(ul, rows)  # the winner's pair sums are built in place
        log2_1p(sinr(config.p0_max, self.g_dl[rows], config.pu_max, col, config.sigmaD_sq, out=col), out=col)
        col += self.at(self.r_fd_ul, ul, rows)[:, None]
        return ul, _argmax(col), self.at(sums, ul, slice(len(ul)))  # sums has a row per searched row

    def live(self):
        """Which (row, UL user) pairs are live, an (n, k_u) mask: where the
        user's FD UL rate plus d*'s DL rate under the user's least cross
        gain, a bound on each of the user's pair sums, reaches the row's
        best single link.  The bound and its 1e-9 margin are those of
        :attr:`fd_may_win` with a min over the DL users only; NaN is live."""
        config = self.config
        bound = _row_min(self.g_x)
        sinr(config.p0_max, self.star[1][:, None], config.pu_max, bound, config.sigmaD_sq, out=bound)
        bound = np.add(log2_1p(bound, out=bound), self.r_fd_ul, out=bound)
        bound *= 1.0 + 1e-9
        return np.logical_not(bound < self.hd_best[:, None])

    def live_search(self):
        """``(ul, dl, r_fd)`` of ES-FDHD's search of only its live pairs
        (:meth:`live`).  A UL user with no live pair cannot reach its row's
        best single link, so it can neither win where FD wins nor matter
        where FD loses.  The live pairs' best DL SINRs are gathered in
        pieces of at most ``_TILE_PAIRS / 4`` cross gains (128 KB), since a
        piece holds four arrays that size: its offsets, its cross gains, its
        DL gains and their product with the power.  A piece is laid out DL
        user by DL user, (k_d, pairs), so that its max over the DL users is
        a sweep, not numpy's per-row loop over rows k_d wide.  The rows with
        a live pair are then searched as the whole batch is
        (:meth:`search`); the others get ``r_fd`` = -inf, which loses to
        either single link, and users 0."""
        config, g_dl_t, bases = self.config, self.g_dl.T.copy(), self.bases
        n, k_d, k_u = self.g_x.shape
        i, u = np.divmod(np.flatnonzero(self.live()), k_u)
        first = np.empty(len(i), dtype=bool)  # each row's first live pair
        first[:1] = True
        np.not_equal(i[1:], i[:-1], out=first[1:])
        rows, at = i[first], np.cumsum(first) - 1  # rows with a live pair, and each pair's among them
        sums = np.full((len(rows), k_u), -np.inf)
        step = max(_TILE_PAIRS // (4 * k_d), 1)  # pairs a piece
        for lo in range(0, len(i), step):
            ii, uu = i[lo:lo + step], u[lo:lo + step]
            x = self.g_x.reshape(-1).take(bases.col[:, None] + (bases.x[ii] + uu))
            best = sinr(config.p0_max, g_dl_t.take(ii, axis=1), config.pu_max, x, config.sigmaD_sq,
                        out=x).max(axis=0)
            sums[at[lo:lo + step], uu] = np.add(log2_1p(best, out=best), self.at(self.r_fd_ul, uu, ii), out=best)
        ul, dl, r_fd = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), np.full(n, -np.inf)
        ul[rows], dl[rows], r_fd[rows] = self.search(sums, rows)
        return ul, dl, r_fd

    @cached_property
    def fd_may_win(self):
        """Whether FD may win ES-FDHD's corner on some row: whether a row's
        bound on every pair's sum rate, u*'s UL rate plus d*'s DL rate under
        the row's least cross gain, reaches its best single link.  The bound
        is exact up to log1p's few-ulp error, which the 1e-9 margin covers.
        The first 16 rows are bounded first, so a batch where FD may win is
        told before a pass over all its cross gains.  The rest are bounded
        under the least cross gain of them all, one flat min: the DL SINR
        falls as the cross gain grows and every rounded step is monotone, so
        that bound is at least each row's own, and if it is below every
        row's best single link FD can win no row.  Only where it is not
        does each row take its own least cross gain."""
        config, g_dl, hd = self.config, self.star[1], self.hd_best
        _, k_d, k_u = self.g_x.shape

        def below(rows, least):  # whether no row's bound under cross gain `least` reaches its best link
            bound = self.fd_ul[1][rows] + log2_1p(sinr(config.p0_max, g_dl[rows], config.pu_max, least,
                                                       config.sigmaD_sq))
            return np.all(bound * (1.0 + 1e-9) < hd[rows])  # a NaN bound may win

        head, rest = slice(0, 16), slice(16, None)
        if not below(head, _row_min(self.g_x[head].reshape(-1, k_d * k_u))):
            return True
        if below(rest, self.g_x[rest].min(initial=np.inf)):  # inf past a short batch's head
            return False
        return not below(rest, _row_min(self.g_x[rest].reshape(-1, k_d * k_u)))

    def corner(self, scheduler):
        """``(pair, fd, on_ul, extras)`` of an OPA rule or ES-FDHD: its base pair,
        its FD and HD-UL row masks, and the OPA rules' extra arrays.  A pair
        link whose user is the gain-max one takes its single-link rate from
        :attr:`hd`: both links for A1, UL for A2, DL for A3.  Unless ES-FD is
        evaluated too, ES-FDHD searches no pair where FD can win no row
        (:attr:`fd_may_win`): its pair is then None, and every row takes the
        gain-max users' better single link, as it would after a search.
        Where FD may win, it searches only its live pairs
        (:meth:`live_search`); its pair's users are then 0 on the rows
        without one, which FD wins on no row."""
        if scheduler is Scheduler.ES_FDHD:
            if Scheduler.ES_FD in self.schedulers:
                pair = self.pair(Scheduler.ES_FD)
            elif self.fd_may_win:
                pair = self.pair(Scheduler.ES_FDHD)
            else:
                return None, np.zeros(len(self.g_ul), dtype=bool), self.hd[0] >= self.hd[1], {}
            return (pair, *_corner(pair.r_fd, *self.hd), {})
        pair = self.pair(OPA_BASE[scheduler])
        fast, fd, on_ul, hd_ul, hd_dl = allocate(
            self.config, pair, self.hd[0] if pair.ul is self.best[0] else None,
            self.hd[1] if pair.dl is self.best[1] else None)
        return pair, fd, on_ul, {"fast": fast, "pair_hd_ul": hd_ul, "pair_hd_dl": hd_dl}

    def rows(self, scheduler):
        """Per-trial arrays of one scheduler: the pair's rates on FD rows, the
        gain-max user's single-link rate on a half-duplex row's live link."""
        if scheduler is Scheduler.HD_TDD:
            r_ul, r_dl = self.hd
            return {"r_ul": 0.5 * r_ul, "r_dl": 0.5 * r_dl, "fd": np.zeros(len(r_ul), dtype=bool)}
        if scheduler not in _CORNER_RULES:  # fixed powers: the base pair in FD on every trial
            pair = self.pair(scheduler)
            gamma = {} if scheduler is Scheduler.ES_FD else dict(zip(("gamma_ul", "gamma_dl"), pair.gamma))
            return {"r_ul": pair.rates[0], "r_dl": pair.rates[1], "fd": np.ones(len(pair.ul), dtype=bool),
                    **gamma}
        pair, fd, on_ul, extras = self.corner(scheduler)
        hd_ul, hd_dl = self.hd
        r_ul, r_dl = np.where(on_ul, hd_ul, 0.0), np.where(on_ul, 0.0, hd_dl)
        if pair is not None:
            r_ul, r_dl = np.where(fd, pair.rates[0], r_ul), np.where(fd, pair.rates[1], r_dl)
        return {"r_ul": r_ul, "r_dl": r_dl, "fd": fd, **extras}


def evaluate(schedulers, config, g_ul, g_dl, g_x):
    """Per-trial arrays ``{scheduler: {name: array}}`` of ``schedulers`` on one
    batch: ``r_ul``, ``r_dl`` and FD flags, plus A1-A3's pair SINRs ``gamma_ul``
    and ``gamma_dl``, and the OPA rules' ``fast``, ``pair_hd_ul``, ``pair_hd_dl``.
    Schedulers may share an array (the OPA rules' single-link rates of a
    gain-max user), so treat them as read-only."""
    schedulers = [Scheduler(s) for s in schedulers]
    batch = _Batch(config, g_ul, g_dl, g_x, schedulers)
    return {s: batch.rows(s) for s in schedulers}


def _select(scheduler, ch, config):
    """Batch-of-one view of the kernel; a half-duplex link goes to its gain-max user."""
    batch = _Batch(config, ch.g_ul[None], ch.g_dl[None], ch.g_x[None], (scheduler,))
    if scheduler not in _CORNER_RULES:  # fixed powers: the base pair in FD
        ul, dl, _ = batch.users(scheduler)
        return Schedule(ul[0], dl[0], float(config.p0_max), float(config.pu_max))
    pair, fd, on_ul, _ = batch.corner(scheduler)
    ul, dl = (pair.ul, pair.dl) if fd[0] else batch.best
    return Schedule(ul[0], dl[0], *_powers(config, fd[0], on_ul[0]))


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
    half-duplex corners.  Tie preference: FD, then HD-UL, then HD-DL.  The
    pairs are searched only if an upper bound on their sum rate (see
    :attr:`_Batch.fd_may_win`) reaches the better single link; else the
    better single link is the answer, as it would be after a search.  Else
    only the UL users whose own bound reaches it are searched
    (:meth:`_Batch.live_search`)."""
    return _select(Scheduler.ES_FDHD, ch, config)


def select_hd_tdd(ch, config):
    """Half-duplex TDD benchmark rate.

    Convention: the best UL and the best DL user each get half of the
    resource at full power, with no self- or inter-terminal interference.
    """
    out = evaluate([Scheduler.HD_TDD], config, ch.g_ul[None], ch.g_dl[None], ch.g_x[None])
    r_ul, r_dl = float(out[Scheduler.HD_TDD]["r_ul"][0]), float(out[Scheduler.HD_TDD]["r_dl"][0])
    return RateBreakdown(r_ul=r_ul, r_dl=r_dl, r_sum=r_ul + r_dl)
