"""Deterministic vectorized Monte Carlo over channel snapshots.

Trials are organized in fixed-size blocks of ``BLOCK_SIZE``; block j draws
from its own child stream ``SeedSequence(entropy=seed, spawn_key=(j,))`` in
a pinned order, so the channel snapshot of trial i is a pure function of
(seed, i) -- independent of the total trial count, of the worker count, and
of which other schedulers run.  That gives bit-identical results under any
degree of parallelism.  A block's cross gains come last in its stream and
are drawn and evaluated in row chunks of about ``CHUNK_BYTES``: the chunks
continue the same stream, so the numbers are those of a whole-block draw,
while memory stays bounded at any user count.

The engine takes a list of schedulers: each block is drawn once (once per
sweep point in a sweep) and every scheduler is evaluated on it, so the
schedulers of one run see common random numbers by construction and the
draws are never repeated.

Per-block evaluation is the batched scheduling kernel of
:mod:`fdsched.scheduling`; the scalar functions of :mod:`fdsched.model`,
:mod:`fdsched.scheduling` and :mod:`fdsched.power` are batch-of-one views
of the same code, so there is no second implementation to agree with.  The
test suite checks the engine against a plain-Python brute-force
enumeration of every pair and power corner instead.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import RADIO_DEFAULTS, config_from_db, whole_number
from .scheduling import OPA_BASE, Scheduler, evaluate

BLOCK_SIZE = 4096
CHUNK_BYTES = 8 << 20  # cross gains drawn and evaluated at a time, per worker

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


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, one or more schedulers, shared base configuration.

    ``schedulers`` is a tuple of scheduler names; a single name is taken as
    a one-element tuple.
    """

    swept_parameter: str
    values: tuple
    schedulers: tuple
    base_config: dict
    n_trials: int
    seed: int

    def __post_init__(self):
        if self.swept_parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEEPABLE_PARAMETERS}, "
                f"got {self.swept_parameter!r}"
            )
        values = tuple(self.values)
        if not values:
            raise ValueError("values must be non-empty")
        diffs = [b - a for a, b in zip(values, values[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError("values must be strictly monotone")
        for name in ("n_trials", "seed"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "values", values)
        schedulers = (self.schedulers,) if isinstance(self.schedulers, str) else self.schedulers
        schedulers = tuple(Scheduler(s) for s in schedulers)
        if not schedulers:
            raise ValueError("schedulers must be non-empty")
        object.__setattr__(self, "schedulers", schedulers)
        for value in values:  # every sweep point must make a valid config
            resolve_config(self.base_config, self.swept_parameter, value)


class SweepPoint(NamedTuple):
    value: float
    stats: TrialStats
    scheduler: Scheduler


def resolve_config(base_config, swept_parameter=None, value=None):
    """Build a SystemConfig from dB-domain settings, keyed as in
    :data:`BASE_CONFIG_DEFAULTS` (unknown keys raise a ValueError).

    ``k_users`` sets k_u = k_d together.  When ``pu_dbm_scale`` is set, the
    UL power follows pu_dbm = pu_dbm_scale * p0_dbm (a dBm-domain rule) and
    any explicit pu_dbm is ignored.
    """
    unknown = set(base_config) - set(BASE_CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown base_config keys: {sorted(unknown)}")
    settings = {**BASE_CONFIG_DEFAULTS, **base_config}
    if swept_parameter is not None:
        if swept_parameter == "k_users":
            settings["k_u"] = settings["k_d"] = value
        else:
            settings[swept_parameter] = float(value)
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


def _draw_block(config, rng):
    """Draw one block's UL and DL gains (always BLOCK_SIZE rows) and the
    cross gains of its first chunk of rows; the engine draws the rest from
    ``rng`` in chunks of that size.  Single seam for doctored channels."""
    g_ul = rng.standard_exponential((BLOCK_SIZE, config.k_u))
    g_dl = rng.standard_exponential((BLOCK_SIZE, config.k_d))
    g_x = rng.standard_exponential((_chunk_rows(config), config.k_d, config.k_u))
    return g_ul, g_dl, g_x


_evaluate_block = evaluate  # per-trial arrays of one scheduler on one block; a seam for tracing


def _run_arrays(config, schedulers, n_trials, seed, workers=1, keys=None):
    """Per-trial arrays of every scheduler, ``{scheduler: {name: array}}``
    in the order given (repeats collapse); ``keys`` limits the arrays kept.

    Each block is drawn once and evaluated by every scheduler, a chunk of
    cross-gain rows at a time; the rows go straight into per-scheduler
    output arrays at their offset, so the result is the same for any
    worker count.
    """
    schedulers = list(dict.fromkeys(Scheduler(s) for s in schedulers))
    if not schedulers:
        raise ValueError("at least one scheduler is required")
    n_trials, seed, workers = (whole_number(k, v) for k, v in
                               (("n_trials", n_trials), ("seed", seed), ("workers", workers)))
    for name, value, least in (("n_trials", n_trials, 1), ("seed", seed, 0), ("workers", workers, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    n_blocks = -(-n_trials // BLOCK_SIZE)
    out = {}
    lock = threading.Lock()

    def one(j):
        rng = _block_rng(seed, j)
        g_ul, g_dl, g_x = _draw_block(config, rng)
        lo, rows = j * BLOCK_SIZE, len(g_x)
        take = min(BLOCK_SIZE, n_trials - lo)
        for start in range(0, take, rows):
            n = min(rows, take - start)
            if start:  # g_x is last in the stream: refill in place, stop at the last row used
                g_x = rng.standard_exponential(out=g_x[:n])
            for s in schedulers:
                block = _evaluate_block(s, config, g_ul[start:start + n],
                                        g_dl[start:start + n], g_x[:n])
                if keys is not None:
                    block = {k: block[k] for k in keys}
                with lock:  # the first chunk to finish allocates the outputs
                    dest = out.get(s)
                    if dest is None:
                        dest = out[s] = {k: np.empty(n_trials, v.dtype) for k, v in block.items()}
                for k, v in block.items():
                    dest[k][lo + start:lo + start + n] = v

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(n_blocks)))
    else:
        for j in range(n_blocks):
            one(j)
    return {s: out[s] for s in schedulers}


def _aggregate(arrays):
    r_ul = arrays["r_ul"]
    r_dl = arrays["r_dl"]
    n_trials = len(r_ul)
    mean_ul = float(r_ul.sum() / n_trials)
    mean_dl = float(r_dl.sum() / n_trials)
    r_sum = r_ul + r_dl
    std_error = float(r_sum.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return TrialStats(
        mean_sum_rate=mean_ul + mean_dl,
        mean_ul_rate=mean_ul,
        mean_dl_rate=mean_dl,
        std_error=std_error,
        n_trials=n_trials,
        fd_fraction=float(arrays["fd"].mean()),
    )


_STATS_KEYS = ("r_ul", "r_dl", "fd")


def _run_stats(config, schedulers, n_trials, seed, workers=1):
    """``{scheduler: TrialStats}`` on shared draws, keeping only the
    per-trial arrays the aggregates read."""
    arrays = _run_arrays(config, schedulers, n_trials, seed, workers, keys=_STATS_KEYS)
    return {s: _aggregate(a) for s, a in arrays.items()}


def run_trials(config, scheduler, n_trials, seed, workers=1):
    """Monte Carlo aggregate of one scheduler over n_trials snapshots.

    Bit-identical output for identical (config, scheduler, n_trials, seed)
    no matter how many workers run the blocks, because every block's rows
    land at the block's offset before the (fixed-order) reduction.
    """
    scheduler = Scheduler(scheduler)
    return _run_stats(config, [scheduler], n_trials, seed, workers)[scheduler]


def selected_sinr_samples(config, scheduler, n_trials, seed, workers=1):
    """Per-trial (UL SINR, DL SINR) of the pair picked by a fixed-power
    selection rule at maximum powers.  Only meaningful for a1/a2/a3."""
    scheduler = Scheduler(scheduler)
    if scheduler not in (Scheduler.A1, Scheduler.A2, Scheduler.A3):
        raise ValueError("SINR sampling applies to the fixed-power selectors only")
    arrays = _run_arrays(config, [scheduler], n_trials, seed, workers)[scheduler]
    return arrays["gamma_ul"], arrays["gamma_dl"]


_DOMINANCE_TOL = 1e-9


def run_coupled(config, schedulers, n_trials, seed, workers=1):
    """Run several schedulers against the same channel draws.

    Each block is drawn once and evaluated by every scheduler, so the
    comparison is coupled by construction.  The per-realization chain is
    asserted: ES-FDHD dominates ES-FD and every OPA-enhanced selector, and
    each OPA-enhanced selector dominates both single-link HD corner rates
    of its scheduled pair.  Returns ({scheduler: TrialStats},
    {scheduler: per-trial arrays}).
    """
    arrays = _run_arrays(config, schedulers, n_trials, seed, workers)
    violations = dominance_violations(arrays)
    if violations:
        raise RuntimeError("per-realization dominance violated: " + "; ".join(violations))
    stats = {s: _aggregate(a) for s, a in arrays.items()}
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


def run_sweep(spec, workers=1):
    """Every scheduler of ``spec`` at every sweep value.

    Sweep value i is simulated once for all schedulers, with the seed
    derived from (spec.seed, i): each block is drawn once and evaluated by
    every scheduler, and the point's per-trial arrays are freed before the
    next point is drawn.  Rows come back scheduler-major: every value of
    ``spec.schedulers[0]`` in sweep order, then the next scheduler.
    """
    points = []
    for i, value in enumerate(spec.values):
        config = resolve_config(spec.base_config, spec.swept_parameter, value)
        seed = derived_trial_seed(spec.seed, i)
        points.append(_run_stats(config, spec.schedulers, spec.n_trials, seed, workers))
    return [SweepPoint(value, stats[s], s)
            for s in spec.schedulers for value, stats in zip(spec.values, points)]
