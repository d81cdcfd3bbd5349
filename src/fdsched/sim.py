"""Deterministic vectorized Monte Carlo over channel snapshots.

Trials are organized in fixed-size blocks of ``BLOCK_SIZE``; block j draws
from its own child stream ``SeedSequence(entropy=seed, spawn_key=(j,))`` in
a pinned order, so the channel snapshot of trial i is a pure function of
(seed, i) -- independent of the total trial count, of the worker count, and
of which other schedulers run.  That gives bit-identical results under any
degree of parallelism.

The engine takes a list of schedulers: each block is drawn once (once per
sweep point in a sweep) and every scheduler is evaluated on it, so the
schedulers of one run see common random numbers by construction and the
draws are never repeated.

All per-block evaluation is vectorized numpy; the scalar pipeline in
:mod:`fdsched.model` / :mod:`fdsched.scheduling` / :mod:`fdsched.power`
computes identical numbers one realization at a time (the test suite
cross-checks the two paths trial by trial).
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import LN2, config_from_db
from .power import require_positive_powers

BLOCK_SIZE = 4096

SWEEPABLE_PARAMETERS = ("p0_dbm", "si_cancellation_db", "k_users")

BASE_CONFIG_DEFAULTS = {
    "p0_dbm": 24.0,
    "pu_dbm": 23.0,
    "pu_dbm_scale": None,
    "si_cancellation_db": 80.0,
    "nf_bs_db": 13.0,
    "nf_mt_db": 9.0,
    "bandwidth_hz": 1e7,
    "k_u": 5,
    "k_d": 5,
}


class Scheduler(str, Enum):
    A1 = "a1"
    A2 = "a2"
    A3 = "a3"
    A1_OPA = "a1-opa"
    A2_OPA = "a2-opa"
    A3_OPA = "a3-opa"
    ES_FD = "es-fd"
    ES_FDHD = "es-fdhd"
    HD_TDD = "hd-tdd"


_OPA_BASE = {
    Scheduler.A1_OPA: "a1",
    Scheduler.A2_OPA: "a2",
    Scheduler.A3_OPA: "a3",
}


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
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        object.__setattr__(self, "values", values)
        schedulers = (self.schedulers,) if isinstance(self.schedulers, str) else self.schedulers
        schedulers = tuple(Scheduler(s) for s in schedulers)
        if not schedulers:
            raise ValueError("schedulers must be non-empty")
        object.__setattr__(self, "schedulers", schedulers)
        unknown = set(self.base_config) - set(BASE_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown base_config keys: {sorted(unknown)}")


class SweepPoint(NamedTuple):
    value: float
    stats: TrialStats
    scheduler: Scheduler


def resolve_config(base_config, swept_parameter=None, value=None):
    """Build a SystemConfig from dB-domain settings.

    ``k_users`` sets k_u = k_d together.  When ``pu_dbm_scale`` is set, the
    UL power follows pu_dbm = pu_dbm_scale * p0_dbm (a dBm-domain rule) and
    any explicit pu_dbm is ignored.
    """
    settings = dict(BASE_CONFIG_DEFAULTS)
    settings.update(base_config)
    if swept_parameter is not None:
        if swept_parameter == "k_users":
            settings["k_u"] = settings["k_d"] = int(value)
        else:
            settings[swept_parameter] = float(value)
    p0_dbm = settings["p0_dbm"]
    scale = settings.get("pu_dbm_scale")
    pu_dbm = scale * p0_dbm if scale is not None else settings["pu_dbm"]
    return config_from_db(
        p0_dbm=p0_dbm,
        pu_dbm=pu_dbm,
        si_cancellation_db=settings["si_cancellation_db"],
        noise_figure_bs_db=settings["nf_bs_db"],
        noise_figure_mt_db=settings["nf_mt_db"],
        bandwidth_hz=settings["bandwidth_hz"],
        k_u=settings["k_u"],
        k_d=settings["k_d"],
    )


def derived_trial_seed(seed, index):
    """Per-sweep-value seed derived from (seed, value index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(block),)))


def _draw_block(config, rng):
    """Draw one full block of channel snapshots (always BLOCK_SIZE rows;
    callers slice).  Single seam for tests that need doctored channels."""
    g_ul = rng.standard_exponential((BLOCK_SIZE, config.k_u))
    g_dl = rng.standard_exponential((BLOCK_SIZE, config.k_d))
    g_x = rng.standard_exponential((BLOCK_SIZE, config.k_d, config.k_u))
    return g_ul, g_dl, g_x


def _base_selection(base, config, g_ul, g_dl, g_x):
    """Vectorized decoupled pair selection at maximum powers."""
    if base == "a1":
        ul = np.argmax(g_ul, axis=1)
        dl = np.argmax(g_dl, axis=1)
    elif base == "a2":
        ul = np.argmax(g_ul, axis=1)
        # SINR metric built in place in the gathered column (a fresh copy).
        den = np.take_along_axis(g_x, ul[:, None, None], axis=2)[:, :, 0]
        den *= config.pu_max
        den += config.sigmaD_sq
        dl = np.argmax(np.divide(config.p0_max * g_dl, den, out=den), axis=1)
    elif base == "a3":
        dl = np.argmax(g_dl, axis=1)
        den = np.take_along_axis(g_x, dl[:, None, None], axis=1)[:, 0, :]
        den *= config.pu_max
        den += config.sigma0_sq
        ul = np.argmax(np.divide(config.pu_max * g_ul, den, out=den), axis=1)
    else:  # pragma: no cover
        raise ValueError(f"unknown base selector {base!r}")
    return ul, dl


def _evaluate_block(scheduler, config, g_ul, g_dl, g_x):
    """Per-trial UL/DL rates, final-mode flags, and scheduler-specific
    extras for one block of snapshots."""
    p0, pu = config.p0_max, config.pu_max
    s0, sd, si = config.sigma0_sq, config.sigmaD_sq, config.si_gain
    n = g_ul.shape[0]
    idx = np.arange(n)

    if scheduler is Scheduler.HD_TDD:
        r_ul = 0.5 * np.log1p(pu * g_ul.max(axis=1) / s0) / LN2
        r_dl = 0.5 * np.log1p(p0 * g_dl.max(axis=1) / sd) / LN2
        return {"r_ul": r_ul, "r_dl": r_dl, "fd": np.zeros(n, dtype=bool)}

    if scheduler in (Scheduler.A1, Scheduler.A2, Scheduler.A3):
        ul, dl = _base_selection(scheduler.value, config, g_ul, g_dl, g_x)
        g0 = g_ul[idx, ul]
        gd = g_dl[idx, dl]
        gx = g_x[idx, dl, ul]
        gamma_ul = pu * g0 / (p0 * si + s0)
        gamma_dl = p0 * gd / (pu * gx + sd)
        return {
            "r_ul": np.log1p(gamma_ul) / LN2,
            "r_dl": np.log1p(gamma_dl) / LN2,
            "fd": np.ones(n, dtype=bool),
            "gamma_ul": gamma_ul,
            "gamma_dl": gamma_dl,
        }

    if scheduler in (Scheduler.ES_FD, Scheduler.ES_FDHD):
        k_u, k_d = g_ul.shape[1], g_dl.shape[1]
        r0 = np.log1p(pu * g_ul / (p0 * si + s0)) / LN2                      # (n, ku)
        # Pair sum rates, built in place in (n, ku, kd) layout: one tensor
        # the size of g_x, and its first flat max is the lexicographic (u, d).
        pair = np.multiply(pu, g_x.transpose(0, 2, 1), out=np.empty((n, k_u, k_d)))
        pair += sd
        np.divide((p0 * g_dl)[:, None, :], pair, out=pair)
        np.log1p(pair, out=pair)
        pair /= LN2
        pair += r0[:, :, None]
        best = np.argmax(pair.reshape(n, -1), axis=1)
        u = best // k_d
        d = best % k_d
        r_fd_ul = r0[idx, u]
        r_fd_dl = np.log1p(p0 * g_dl[idx, d] / (pu * g_x[idx, d, u] + sd)) / LN2
        if scheduler is Scheduler.ES_FD:
            return {"r_ul": r_fd_ul, "r_dl": r_fd_dl, "fd": np.ones(n, dtype=bool)}
        r_fd = r_fd_ul + r_fd_dl
        hd_ul = np.log1p(pu * g_ul.max(axis=1) / s0) / LN2
        hd_dl = np.log1p(p0 * g_dl.max(axis=1) / sd) / LN2
        fd = r_fd >= np.maximum(hd_ul, hd_dl)
        ul_mode = ~fd & (hd_ul >= hd_dl)
        dl_mode = ~(fd | ul_mode)
        return {
            "r_ul": np.where(fd, r_fd_ul, np.where(ul_mode, hd_ul, 0.0)),
            "r_dl": np.where(fd, r_fd_dl, np.where(dl_mode, hd_dl, 0.0)),
            "fd": fd,
        }

    base = _OPA_BASE[scheduler]
    ul, dl = _base_selection(base, config, g_ul, g_dl, g_x)
    g0 = g_ul[idx, ul]
    gd = g_dl[idx, dl]
    gx = g_x[idx, dl, ul]
    zeta = g0 * sd / (p0 * si + s0) - gx
    eta = gd * s0 / (pu * gx + sd) - si
    r_fd_ul = np.log1p(pu * g0 / (p0 * si + s0)) / LN2
    r_fd_dl = np.log1p(p0 * gd / (pu * gx + sd)) / LN2
    r_fd = r_fd_ul + r_fd_dl
    pair_hd_ul = np.log1p(pu * g0 / s0) / LN2   # HD corner rates of the base pair
    pair_hd_dl = np.log1p(p0 * gd / sd) / LN2
    fast = (zeta >= 0.0) & (eta >= 0.0)
    fd = fast | (r_fd >= np.maximum(pair_hd_ul, pair_hd_dl))
    ul_mode = ~fd & (pair_hd_ul >= pair_hd_dl)
    dl_mode = ~(fd | ul_mode)
    # HD outcome reschedules the surviving link to the gain-max user.
    best_hd_ul = np.log1p(pu * g_ul.max(axis=1) / s0) / LN2
    best_hd_dl = np.log1p(p0 * g_dl.max(axis=1) / sd) / LN2
    return {
        "r_ul": np.where(fd, r_fd_ul, np.where(ul_mode, best_hd_ul, 0.0)),
        "r_dl": np.where(fd, r_fd_dl, np.where(dl_mode, best_hd_dl, 0.0)),
        "fd": fd,
        "fast": fast,
        "pair_hd_ul": pair_hd_ul,
        "pair_hd_dl": pair_hd_dl,
    }


def _run_arrays(config, schedulers, n_trials, seed, workers=1, keys=None):
    """Per-trial arrays of every scheduler, ``{scheduler: {name: array}}``
    in the order given (repeats collapse); ``keys`` limits the arrays kept.

    Each block is drawn once and evaluated by every scheduler; its rows go
    straight into per-scheduler output arrays at the block's offset, so the
    result is the same for any worker count.
    """
    schedulers = list(dict.fromkeys(Scheduler(s) for s in schedulers))
    if not schedulers:
        raise ValueError("at least one scheduler is required")
    n_trials = int(n_trials)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if any(s in _OPA_BASE for s in schedulers):
        require_positive_powers(config)
    n_blocks = -(-n_trials // BLOCK_SIZE)
    out = {}
    lock = threading.Lock()

    def one(j):
        g_ul, g_dl, g_x = _draw_block(config, _block_rng(seed, j))
        lo = j * BLOCK_SIZE
        take = min(BLOCK_SIZE, n_trials - lo)
        for s in schedulers:
            block = _evaluate_block(s, config, g_ul, g_dl, g_x)
            if keys is not None:
                block = {k: block[k] for k in keys}
            with lock:  # the first block to finish allocates the outputs
                dest = out.get(s)
                if dest is None:
                    dest = out[s] = {k: np.empty(n_trials, v.dtype) for k, v in block.items()}
            for k, v in block.items():
                dest[k][lo:lo + take] = v[:take]

    if workers and workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            list(pool.map(one, range(n_blocks)))
    else:
        for j in range(n_blocks):
            one(j)
    return {s: out[s] for s in schedulers}


def _aggregate(arrays, n_trials):
    r_ul = arrays["r_ul"]
    r_dl = arrays["r_dl"]
    mean_ul = float(r_ul.sum() / n_trials)
    mean_dl = float(r_dl.sum() / n_trials)
    r_sum = r_ul + r_dl
    std_error = float(r_sum.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return TrialStats(
        mean_sum_rate=mean_ul + mean_dl,
        mean_ul_rate=mean_ul,
        mean_dl_rate=mean_dl,
        std_error=std_error,
        n_trials=int(n_trials),
        fd_fraction=float(arrays["fd"].mean()),
    )


_STATS_KEYS = ("r_ul", "r_dl", "fd")


def _run_stats(config, schedulers, n_trials, seed, workers=1):
    """``{scheduler: TrialStats}`` on shared draws, keeping only the
    per-trial arrays the aggregates read."""
    arrays = _run_arrays(config, schedulers, n_trials, seed, workers, keys=_STATS_KEYS)
    return {s: _aggregate(a, int(n_trials)) for s, a in arrays.items()}


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


def run_coupled(config, schedulers, n_trials, seed, workers=1, check_dominance=True):
    """Run several schedulers against the same channel draws.

    Each block is drawn once and evaluated by every scheduler, so the
    comparison is coupled by construction.  With ``check_dominance`` the
    per-realization chain is asserted: ES-FDHD dominates ES-FD and every
    OPA-enhanced selector, and each OPA-enhanced selector dominates both
    single-link HD corner rates of its scheduled pair.  Returns
    ({scheduler: TrialStats}, {scheduler: per-trial arrays}).
    """
    arrays = _run_arrays(config, schedulers, n_trials, seed, workers)
    if check_dominance:
        violations = dominance_violations(arrays)
        if violations:
            raise RuntimeError("per-realization dominance violated: " + "; ".join(violations))
    stats = {s: _aggregate(a, int(n_trials)) for s, a in arrays.items()}
    return stats, arrays


def dominance_violations(arrays, tol=_DOMINANCE_TOL):
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
            bad = int(np.sum(r_sum(s) > top + tol))
            if bad:
                out.append(f"es-fdhd < {s.value} on {bad} trials")
    for s, arr in arrays.items():
        if s not in _OPA_BASE:
            continue
        r = r_sum(s)
        for corner in ("pair_hd_ul", "pair_hd_dl"):
            bad = int(np.sum(arr[corner] > r + tol))
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
