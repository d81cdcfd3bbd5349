"""Deterministic vectorized Monte Carlo over channel snapshots.

Trials are organized in fixed-size blocks of ``BLOCK_SIZE``; block j draws
from its own child stream ``SeedSequence(entropy=seed, spawn_key=(j,))`` in
a pinned order, so the channel snapshot of trial i is a pure function of
(seed, i) -- independent of the total trial count, of the worker count, and
of which other schedulers run.  That gives bit-identical results under any
degree of parallelism.  A block's cross gains come last in its stream and
are drawn and evaluated in row chunks of about ``CHUNK_BYTES``: the chunks
continue the same stream, so the numbers are those of a whole-block draw,
while memory stays bounded at any user count.  Drawing stops at the last
row a run uses, so a short last block draws only the cross gains it uses.

Each chunk's per-trial results go to a sink as they arrive.  Where only
aggregates are returned (:func:`run_trials`, :func:`run_sweep`), the sink
reduces them at once and keeps 8 bytes a trial and scheduler: the
per-trial sum rate, which the two-pass standard deviation reads.  The mean
rates are summed node by node over numpy's own pairwise-summation tree, so
they are the bits of ``ndarray.sum`` over the whole per-trial arrays, at any
worker count.  :func:`run_coupled`, the one function that returns per-trial
arrays, stores them and takes its stats from ``ndarray.sum`` of them.

The engine takes runs, each a config and its schedulers, whose configs
share their user counts, the only settings a draw reads: each block is
drawn once for all of them (once per sweep point in a sweep), and each
chunk goes to one call of the batched kernel of :mod:`fdsched.scheduling`
per distinct config, which gives the per-trial arrays of every scheduler
at it and does the work they share once.  The runs of one engine call see
common random numbers by construction.  The scalar views of
:mod:`fdsched.scheduling` and :mod:`fdsched.power` run this same code, so
there is no second implementation to agree with (:func:`fdsched.model.rates`
is no view; it shares the SINR formula).  The test suite checks the engine
against a plain-Python brute-force enumeration of every pair and power corner.
"""

import functools
import math
import numbers
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import RADIO_DEFAULTS, config_from_db, whole_number
from .scheduling import OPA_BASE, Scheduler, evaluate

BLOCK_SIZE = 4096
# Cross gains drawn and evaluated at a time, per worker; the kernel's pair
# search adds a tile of at most 512 KB, or K-wide rows at small K.
CHUNK_BYTES = 4 << 20

SWEEPABLE_PARAMETERS = ("p0_dbm", "si_cancellation_db", "k_users")

BASE_CONFIG_DEFAULTS = {**RADIO_DEFAULTS, "pu_dbm_scale": None}


@dataclass(frozen=True)
class TrialStats:
    """Aggregates of one Monte Carlo run."""

    mean_sum_rate: float
    mean_ul_rate: float
    mean_dl_rate: float
    std_error: float
    n_trials: int
    fd_fraction: float


class SweepPoint(NamedTuple):
    value: float
    stats: TrialStats
    scheduler: Scheduler


def _as_float(name, value):
    """``float(value)`` of a real number that is not a bool, or a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large: it overflows a float") from None


def resolve_config(base_config, swept_parameter=None, value=None):
    """Build a SystemConfig from dB-domain settings, keyed as in
    :data:`BASE_CONFIG_DEFAULTS` (unknown keys raise a ValueError).

    ``k_users`` sets k_u = k_d together.  When ``pu_dbm_scale`` is set, the
    UL power follows pu_dbm = pu_dbm_scale * p0_dbm (a dBm-domain rule) and
    any explicit pu_dbm is ignored.  A setting that is not a number (a
    bool included), or is too large for a float, raises a ValueError that
    names it.
    """
    unknown = set(base_config) - set(BASE_CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown base_config keys: {sorted(unknown)}")
    settings = {**BASE_CONFIG_DEFAULTS, **base_config}
    for key, setting in settings.items():  # all floats but the user counts and an unset scale
        if key not in ("k_u", "k_d") and not (key == "pu_dbm_scale" and setting is None):
            settings[key] = _as_float(key, setting)
    if swept_parameter is not None:
        if swept_parameter == "k_users":
            settings["k_u"] = settings["k_d"] = value
        else:
            settings[swept_parameter] = _as_float(swept_parameter, value)
    scale = settings.pop("pu_dbm_scale")
    if scale is not None:
        settings["pu_dbm"] = scale * settings["p0_dbm"]
    return config_from_db(**settings)


def derived_trial_seed(seed, index):
    """Per-sweep-value seed derived from (seed, value index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(block),)))


def _chunk_rows(config):
    """Rows per cross-gain chunk: about CHUNK_BYTES of float64, 1 to BLOCK_SIZE."""
    return min(max(CHUNK_BYTES // (8 * config.k_u * config.k_d), 1), BLOCK_SIZE)


def _draw_block(config, rng, rows):
    """Draw one block's UL and DL gains (always BLOCK_SIZE rows) and the
    cross gains of its first chunk of rows, stopped at the ``rows`` a run
    uses of the block; the engine draws the rest from ``rng`` in chunks of
    that size.  Single seam for doctored channels."""
    g_ul = rng.standard_exponential((BLOCK_SIZE, config.k_u))
    g_dl = rng.standard_exponential((BLOCK_SIZE, config.k_d))
    g_x = rng.standard_exponential((min(_chunk_rows(config), rows), config.k_d, config.k_u))
    return g_ul, g_dl, g_x


_evaluate_block = evaluate  # per-trial arrays of every scheduler on one chunk; a seam for tracing


def _schedulers(schedulers):
    """``schedulers`` as a non-empty list of Scheduler, or a ValueError."""
    if isinstance(schedulers, str):  # a bare name would be read letter by letter
        name = getattr(schedulers, "value", schedulers)
        raise ValueError(f"schedulers must be a sequence, e.g. [{name!r}], not the bare name {name!r}")
    if not isinstance(schedulers, Iterable):
        raise ValueError(f"schedulers must be a sequence of names, got {schedulers!r}")
    schedulers = [Scheduler(s) for s in schedulers]
    if not schedulers:
        raise ValueError("at least one scheduler is required")
    return schedulers


def _run_settings(n_trials, seed, workers):
    """``(n_trials, seed, workers)`` checked, or a ValueError naming the bad one."""
    names = ("n_trials", "seed", "workers")
    settings = tuple(whole_number(k, v) for k, v in zip(names, (n_trials, seed, workers)))
    for name, value, least in zip(names, settings, (1, 0, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    return settings


_LEAF = 128  # numpy's pairwise sum adds a range of at most this many floats in one loop


def _halve(length):
    """Where numpy's pairwise sum splits a range longer than ``_LEAF``."""
    half = length // 2
    return half - half % 8


@functools.lru_cache(maxsize=256)  # runs of one trial count cut their chunks alike
def _cover(lo, hi, n_trials):
    """Trials [lo, hi) over the pairwise-summation tree of n_trials: the
    largest nodes inside them, and the leaves they only enter, each as
    (heap index, start, length) with the root at (1, 0, n_trials)."""
    whole, parts = [], []

    def walk(node, start, length):
        if lo <= start and start + length <= hi:
            whole.append((node, start, length))
        elif length <= _LEAF:
            parts.append((node, start, length))
        else:
            half = _halve(length)
            if lo < start + half:
                walk(2 * node, start, half)
            if hi > start + half:
                walk(2 * node + 1, start + half, length - half)

    walk(1, 0, n_trials)
    return tuple(whole), tuple(parts)


class _Store:
    """Sink that keeps each scheduler's per-trial arrays, every chunk's rows
    at its offset."""

    def __init__(self, n_trials):
        self.n_trials = n_trials
        self.arrays = {}
        self.lock = threading.Lock()

    def take(self, lo, chunk):
        for s, block in chunk.items():
            with self.lock:  # the first chunk to finish allocates the outputs
                dest = self.arrays.get(s)
                if dest is None:
                    dest = self.arrays[s] = {k: np.empty(self.n_trials, v.dtype)
                                             for k, v in block.items()}
            for k, v in block.items():
                dest[k][lo:lo + len(v)] = v

    def result(self, s):
        return self.arrays[s]


class _Reduced(NamedTuple):
    """What :func:`_aggregate` reads of one scheduler's run."""

    sum_ul: float          # the r_ul sum, as ``ndarray.sum`` adds it
    sum_dl: float
    r_sum: np.ndarray      # r_ul + r_dl per trial
    fd_count: int


class _Reduce:
    """Sink that reduces each chunk as it arrives, to 8 bytes a trial and
    scheduler: r_ul + r_dl per trial (the two-pass std reads it), an FD
    count, and the r_ul and r_dl sums of the nodes of numpy's pairwise
    summation tree over n_trials.  The sum of a node's range is the node's
    value in the whole array's sum, since the tree depends on lengths alone;
    a node whose children are both in is added up at once, and a leaf that
    straddles chunks waits for its rows.  The sums are those of
    ``ndarray.sum`` over the stored arrays, whatever order chunks come in."""

    def __init__(self, schedulers, n_trials):
        self.schedulers = list(schedulers)
        self.n_trials = n_trials
        self.r_sum = np.empty((len(self.schedulers), n_trials))
        self.fd = np.zeros(len(self.schedulers), np.int64)
        self.sums = {}    # heap index of a node -> its r_ul sums, then its r_dl sums
        self.leaves = {}  # heap index of a leaf partly in -> [its rows so far, rows missing]
        self.lock = threading.Lock()

    def take(self, lo, chunk):
        blocks = [chunk[s] for s in self.schedulers]
        rates = np.array([b["r_ul"] for b in blocks] + [b["r_dl"] for b in blocks])
        hi = lo + rates.shape[1]
        np.add(rates[:len(blocks)], rates[len(blocks):], out=self.r_sum[:, lo:hi])
        fd = [np.count_nonzero(b["fd"]) for b in blocks]  # cheaper than one call on a stack
        whole, parts = _cover(lo, hi, self.n_trials)
        done = [(node, np.add.reduce(rates[:, start - lo:start - lo + length], axis=1))
                for node, start, length in whole]
        with self.lock:
            self.fd += fd
            for node, start, length in parts:
                a, b = max(lo, start), min(hi, start + length)
                leaf = self.leaves.get(node)
                if leaf is None:
                    leaf = self.leaves[node] = [np.empty((len(rates), length)), length]
                leaf[0][:, a - start:b - start] = rates[:, a - lo:b - lo]
                leaf[1] -= b - a
                if not leaf[1]:
                    done.append((node, np.add.reduce(self.leaves.pop(node)[0], axis=1)))
            for node, sums in done:
                while node > 1 and node ^ 1 in self.sums:  # the sibling is in: add up the parent
                    sums = sums + self.sums.pop(node ^ 1)  # (IEEE addition commutes)
                    node >>= 1
                self.sums[node] = sums

    def result(self, s):
        i = self.schedulers.index(s)
        total = self.sums[1]
        return _Reduced(total[i], total[len(self.schedulers) + i], self.r_sum[i], int(self.fd[i]))


def _run_arrays(runs, n_trials, seed, workers=1, reduce=False):
    """Per-trial arrays of ``(config, schedulers)`` runs whose configs share
    (k_u, k_d): one ``{scheduler: {name: array}}`` per run, in the order
    given (repeated schedulers collapse).  With ``reduce=True`` the entries
    are :class:`_Reduced` instead, and no per-trial array but the sum rate
    is kept (:class:`_Reduce`).

    Each block is drawn once for every run and evaluated a chunk of
    cross-gain rows at a time, in one kernel call per distinct config with
    the schedulers of every run at it (runs at equal configs share their
    results); each chunk goes to that config's sink with its offset, so the
    result is the same for any worker count.
    """
    runs = [(config, _schedulers(schedulers)) for config, schedulers in runs]
    n_trials, seed, workers = _run_settings(n_trials, seed, workers)
    if len({(config.k_u, config.k_d) for config, _ in runs}) != 1:
        raise ValueError(f"the runs must share one (k_u, k_d), got {[(c.k_u, c.k_d) for c, _ in runs]}")
    calls = {config: {} for config, _ in runs}  # distinct config -> the schedulers of every run at it
    for config, schedulers in runs:
        calls[config].update(dict.fromkeys(schedulers))
    sinks = {config: _Reduce(schedulers, n_trials) if reduce else _Store(n_trials)
             for config, schedulers in calls.items()}
    n_blocks = -(-n_trials // BLOCK_SIZE)

    def one(j):
        lo = j * BLOCK_SIZE
        take = min(BLOCK_SIZE, n_trials - lo)
        rng = _block_rng(seed, j)
        g_ul, g_dl, g_x = _draw_block(runs[0][0], rng, take)
        rows = len(g_x)
        for start in range(0, take, rows):
            n = min(rows, take - start)
            if start:  # g_x is last in the stream: refill in place, stop at the last row used
                g_x = rng.standard_exponential(out=g_x[:n])
            for config, schedulers in calls.items():
                sinks[config].take(lo + start, _evaluate_block(
                    list(schedulers), config, g_ul[start:start + n], g_dl[start:start + n], g_x[:n]))

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(n_blocks)))
    else:
        for j in range(n_blocks):
            one(j)
    return [{s: sinks[config].result(s) for s in schedulers} for config, schedulers in runs]


def _aggregate(reduced):
    """The TrialStats of one scheduler's :class:`_Reduced` run."""
    r_sum = reduced.r_sum
    n_trials = len(r_sum)
    mean_ul = float(reduced.sum_ul / n_trials)
    mean_dl = float(reduced.sum_dl / n_trials)
    std_error = float(r_sum.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return TrialStats(
        mean_sum_rate=mean_ul + mean_dl,
        mean_ul_rate=mean_ul,
        mean_dl_rate=mean_dl,
        std_error=std_error,
        n_trials=n_trials,
        fd_fraction=reduced.fd_count / n_trials,
    )


def _run_stats(runs, n_trials, seed, workers=1):
    """One ``{scheduler: TrialStats}`` per run of :func:`_run_arrays`, on
    shared draws, each chunk reduced as it arrives (:class:`_Reduce`): 8
    bytes a trial and scheduler, not the per-trial arrays."""
    reduced = _run_arrays(runs, n_trials, seed, workers, reduce=True)
    return [{s: _aggregate(r) for s, r in run.items()} for run in reduced]


def run_trials(config, scheduler, n_trials, seed, workers=1):
    """Monte Carlo aggregate of one scheduler over n_trials snapshots.

    Bit-identical output for identical (config, scheduler, n_trials, seed)
    no matter how many workers run the blocks: each chunk is reduced as it
    arrives, at its offset in one fixed summation tree, and only the
    per-trial sum rates (8 bytes a trial) are kept for the standard error.
    """
    scheduler = Scheduler(scheduler)
    return _run_stats([(config, [scheduler])], n_trials, seed, workers)[0][scheduler]


_DOMINANCE_TOL = 1e-9


def run_coupled(config, schedulers, n_trials, seed, workers=1):
    """Run several schedulers against the same channel draws.

    Each block is drawn once and evaluated by every scheduler, so the
    comparison is coupled by construction.  The per-realization chain is
    asserted (a RuntimeError lists its violations): ES-FDHD dominates ES-FD
    and every OPA-enhanced selector, and each OPA-enhanced selector both
    single-link HD corner rates of its pair.  Returns ({scheduler: TrialStats},
    {scheduler: per-trial arrays}), the stats by numpy's sums of the arrays.
    """
    (arrays,) = _run_arrays([(config, schedulers)], n_trials, seed, workers)
    violations = dominance_violations(arrays)
    if violations:
        raise RuntimeError("per-realization dominance violated: " + "; ".join(violations))
    stats = {s: _aggregate(_Reduced(a["r_ul"].sum(), a["r_dl"].sum(), a["r_ul"] + a["r_dl"],
                                    np.count_nonzero(a["fd"])))
             for s, a in arrays.items()}
    return stats, arrays


def dominance_violations(arrays):
    """Check the per-realization dominance chain on coupled per-trial
    arrays; returns a list of human-readable violation descriptions."""
    out = []

    def r_sum(s):
        return arrays[s]["r_ul"] + arrays[s]["r_dl"]

    if Scheduler.ES_FDHD in arrays:
        top = r_sum(Scheduler.ES_FDHD)
        for s in arrays:
            if s is Scheduler.ES_FDHD or s is Scheduler.HD_TDD:
                continue
            bad = int(np.sum(r_sum(s) > top + _DOMINANCE_TOL))
            if bad:
                out.append(f"es-fdhd < {s.value} on {bad} trials")
    for s, arr in arrays.items():
        if s not in OPA_BASE:
            continue
        r = r_sum(s)
        for corner in ("pair_hd_ul", "pair_hd_dl"):
            bad = int(np.sum(arr[corner] > r + _DOMINANCE_TOL))
            if bad:
                out.append(f"{s.value} < {corner} on {bad} trials")
    return out


def run_sweep(base_config, swept_parameter, values, schedulers, n_trials, seed, workers=1):
    """Every scheduler at every value of one swept parameter.

    ``swept_parameter`` is one of :data:`SWEEPABLE_PARAMETERS`, set on
    ``base_config`` as in :func:`resolve_config`, and ``values`` is strictly
    monotone.  The settings and every point's config are checked before
    the first draw.  Sweep value i is simulated once for all schedulers,
    with the seed derived from (seed, i): each block is drawn once and
    evaluated by every scheduler, and each chunk is reduced as it arrives,
    so a point keeps 8 bytes a trial and scheduler, freed before the next
    point is drawn.  Rows come back scheduler-major: every
    value of ``schedulers[0]`` in sweep order, then the next scheduler.
    """
    if swept_parameter not in SWEEPABLE_PARAMETERS:
        raise ValueError(f"swept_parameter must be one of {SWEEPABLE_PARAMETERS}, "
                         f"got {swept_parameter!r}")
    if not isinstance(values, Iterable):
        raise ValueError(f"values must be a sequence, got {values!r}")
    values = tuple(values)
    if not values:
        raise ValueError("values must be non-empty")
    schedulers = _schedulers(schedulers)
    n_trials, seed, workers = _run_settings(n_trials, seed, workers)
    configs = [resolve_config(base_config, swept_parameter, value) for value in values]  # each a number
    steps = list(zip(values, values[1:]))  # compared, not subtracted: an int past float range would overflow
    if not (all(a < b for a, b in steps) or all(a > b for a, b in steps)):
        raise ValueError("values must be strictly monotone")
    points = [_run_stats([(config, schedulers)], n_trials, derived_trial_seed(seed, i), workers)[0]
              for i, config in enumerate(configs)]
    return [SweepPoint(value, stats[s], s) for s in schedulers for value, stats in zip(values, points)]
