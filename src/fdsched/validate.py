"""Desk-scale verification suite behind ``fdsched validate``.

Each criterion is one function of ``quick`` and ``workers`` returning
(passed, detail).  The same functions back tests/test_acceptance.py, so the
CLI table and the pytest suite can never drift apart.  ``quick=True``
shrinks the Monte Carlo sizes (statistical tolerances scale with them
automatically) so the whole table finishes within seconds.  ``workers`` is
the thread count of the engine calls of the triangles, dominance-chain,
cdf-laws and trend-reproductions; the other criteria run no engine call
of their own and ignore it.  Engine results are bit-identical under any
worker count, so no detail string depends on it.  Within one :func:`run`
the Theorem 2 and 3 triangles share their Monte Carlo draws: whichever
runs first carries the Monte Carlo time of both.  binary-opa draws its
realizations, then evaluates their power grids in batches, elementwise, so
each grid keeps the bits it has alone, and checks them in draw order.
"""

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, power, scheduling, sim, specfun
from .analysis import avg_rate_integral
from .model import LN2, SystemConfig, draw_realization, pair_gains
from .sim import Scheduler


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


_DE_STEP = 1.0 / 64.0  # step of the xi_n reference's exp-sinh rule
_XI_BLOCK = 32         # reference points a pass: (32, 513) temporaries of 131 KB


def _xi_reference(n, x, y):
    """Oracle for the xi_n kernel, independent of the implementation's
    scaled E_n evaluation: the raw defining integral by the double-exponential
    (exp-sinh) rule of Takahasi & Mori (1974).  With t = y u and
    u = exp(pi/2 sinh s),

        xi_n(x, y) = y^{1-n} integral e^{-x y u - n log(1 + u)} du/ds ds,

    summed over the 513 nodes s = -4.5, ..., 3.5.  Takes arrays (or scalars)
    and returns one reference per element.  Over the special-functions grid
    it is within 3.9e-16 relative of 40-digit mpmath ``expint``.

    The points go through the rule ``_XI_BLOCK`` at a time, so that its
    (points, nodes) temporaries stay small whatever the input's size; each
    point's sum is one row's, so the blocks do not move its bits."""
    n, x, y = (np.asarray(v, dtype=float) for v in (n, x, y))
    s = np.arange(-288, 225) * _DE_STEP
    u = np.exp(np.pi / 2.0 * np.sinh(s))
    weights = np.pi / 2.0 * np.cosh(s) * u * _DE_STEP
    log1p_u = np.log1p(u)
    xy = x * y
    shape = np.broadcast_shapes(xy.shape, n.shape)
    xy, n_flat = (np.broadcast_to(v, shape).ravel() for v in (xy, n))
    sums = np.empty(xy.size)
    for lo in range(0, xy.size, _XI_BLOCK):
        block = slice(lo, lo + _XI_BLOCK)
        f = np.exp(-xy[block, None] * u - n_flat[block, None] * log1p_u)
        sums[block] = (f * weights).sum(axis=-1)
    return y ** (1.0 - n) * sums.reshape(shape)


def crit_special_functions(quick=False, workers=1):
    """xi_n vs quadrature over the full grid; the xi_1 identity vs Ei."""
    grid = [(n, x, y) for n in range(1, 16)
            for x in np.logspace(-3.0, 3.0, 13) for y in (0.1, 1.0, 10.0)]
    worst = 0.0
    for (n, x, y), ref in zip(grid, _xi_reference(*zip(*grid))):
        got = specfun.xi_n(n, float(x), y)
        rel = abs(got - ref) / abs(ref)
        worst = max(worst, rel)
        if rel > 1e-8:
            return False, f"xi_n({n},{x:.3g},{y}) off by {rel:.2e}"
    worst_id = 0.0
    for x in np.logspace(-3.0, 2.5, 12):
        lhs = specfun.xi_n(1, float(x), 1.0)
        rhs = -math.exp(float(x)) * specfun.exp_integral_ei(-float(x))
        rel = abs(lhs - rhs) / abs(rhs)
        worst_id = max(worst_id, rel)
        if rel > 1e-12:
            return False, f"xi_1({x:.3g},1) identity off by {rel:.2e}"
    return True, f"grid worst {worst:.2e} (tol 1e-8); identity worst {worst_id:.2e} (tol 1e-12)"


# Operating points for the closed-form triangles: two generic, one near the
# k = 2 partial-fraction pole of the A1 form, one exactly on the p0 = pu
# pole of the A2 form.
_TRIANGLE_POINTS_A1 = [
    (1.0, 0.8, 1e-2, 1e-2, 1e-8),
    (0.7, 1.3, 0.2, 0.05, 1e-4),
    (2.000002, 1.0, 0.3, 0.2, 0.01),  # near-singular: p0 ~ 2*pu
]
_TRIANGLE_POINTS_A2 = [
    (1.0, 0.8, 1e-2, 1e-2, 1e-8),
    (0.7, 1.3, 0.2, 0.05, 1e-4),
    (1.0, 1.0, 0.1, 0.1, 1e-3),  # exactly on the p0 = pu pole
]
_run_memos = []  # one dict per run() in progress: the work its criteria share


def _triangle_stats(quick, workers, memo):
    """``{(scheduler, K, point): TrialStats}`` of both triangles, whose runs at
    one (K, point) share a seed and so one engine call on ``workers``
    threads; made once per ``memo``, which is the :func:`run`'s in a run and
    a direct criterion call's own outside one, so none reads another's draws."""
    if "triangles" not in memo:
        n_mc = 100_000 if quick else 1_000_000
        rules = (Scheduler.A1, Scheduler.A2)
        stats = {}
        for k in (1, 2, 5):
            for i, points in enumerate(zip(_TRIANGLE_POINTS_A1, _TRIANGLE_POINTS_A2)):
                runs = [(SystemConfig(*p, k, k), [s]) for p, s in zip(points, rules)]
                for s, run in zip(rules, sim._run_stats(runs, n_mc, seed=1000 + 10 * k + i, workers=workers)):
                    stats[s, k, i] = run[s]
        memo["triangles"] = stats
    return memo["triangles"]


def _triangle(closed_fn, cdf_dl, scheduler, points, pole_index, expect_flag, quick, workers):
    worst_quad = 0.0
    worst_z = 0.0
    memo = _run_memos[-1] if _run_memos else {}
    for k_users in (1, 2, 5):
        for i, (p0, pu, s0, sd, si) in enumerate(points):
            params = SystemConfig(p0, pu, s0, sd, si, k_users, k_users)
            closed = closed_fn(params)
            oracle = avg_rate_integral(
                lambda x: analysis.cdf_sinr_ul(x, params),
                lambda x: cdf_dl(x, params),
            )
            rel = abs(closed.value - oracle) / oracle
            worst_quad = max(worst_quad, rel)
            if rel > 1e-6:
                return False, (
                    f"K={k_users} point {i}: closed {closed.value:.9f} vs "
                    f"quadrature {oracle:.9f} (rel {rel:.2e} > 1e-06)"
                )
            if expect_flag and i == pole_index and not closed.flagged:
                return False, f"K={k_users} point {i}: pole not flagged"
            stats = _triangle_stats(quick, workers, memo)[scheduler, k_users, i]
            z = abs(closed.value - stats.mean_sum_rate) / stats.std_error
            worst_z = max(worst_z, z)
            if z > 3.0:
                return False, (
                    f"K={k_users} point {i}: closed {closed.value:.6f} vs MC "
                    f"{stats.mean_sum_rate:.6f} +- {stats.std_error:.6f} (z={z:.2f})"
                )
    return True, f"worst quadrature rel {worst_quad:.2e}; worst MC z-score {worst_z:.2f}"


def crit_theorem2_triangle(quick=False, workers=1):
    """A1 closed form vs rate integral (1e-6) vs Monte Carlo (3 SE)."""
    return _triangle(
        analysis.avg_rate_a1, analysis.cdf_sinr_dl_a1, Scheduler.A1,
        _TRIANGLE_POINTS_A1, pole_index=2, expect_flag=False, quick=quick, workers=workers,
    )


def crit_theorem3_triangle(quick=False, workers=1):
    """A2 closed form vs rate integral vs Monte Carlo, incl. the p0=pu pole."""
    return _triangle(
        analysis.avg_rate_a2, analysis.cdf_sinr_dl_a2, Scheduler.A2,
        _TRIANGLE_POINTS_A2, pole_index=2, expect_flag=True, quick=quick, workers=workers,
    )


# Realizations whose 51 x 51 power grids are evaluated in one numpy pass:
# two (16, 51, 51) float64 buffers of 333 KB each, reused from batch to
# batch, stay in a core's L2 cache (2 MiB a core on a Xeon host).  One
# realization a pass pays numpy's per-call cost on 2601 cells; a few
# hundred a pass make buffers of megabytes, which leave L2.
_GRID_BATCH = 16
_GRID_FRAC = np.linspace(0.0, 1.0, 51)  # each power's grid, as fractions of its maximum


def _grid_maxima(links, a, b):
    """Each realization's best 51 x 51 power-grid sum rate, in nats.

    ``links`` holds one realization a row: p0_max, pu_max, s0, sd, si and
    the scheduled pair's g0, gd, gx.  ``a`` and ``b`` are buffers of shape
    (at least len(links), 51, 51).  Every cell goes through the multiplies,
    adds, divides and log1p of its realization's own grid, elementwise, and
    max is exact, so each maximum has the bits of the grid evaluated alone."""
    n = len(links)
    a, b = a[:n], b[:n]
    p0_max, pu_max, s0, sd, si, g0, gd, gx = (v[:, None, None] for v in links.T)
    p0 = _GRID_FRAC[:, None] * p0_max   # (n, 51, 1)
    pu = _GRID_FRAC[None, :] * pu_max   # (n, 1, 51)
    np.divide(pu * g0, p0 * si + s0, out=a)
    np.divide(p0 * gd, pu * gx + sd, out=b)
    np.log1p(a, out=a)
    np.log1p(b, out=b)
    np.add(a, b, out=a)
    return a.max(axis=(1, 2))


def crit_binary_opa(quick=False, workers=1):
    """Corner allocation is never beaten by a 51x51 power grid; fast-path
    decisions always agree with corner enumeration.

    Each realization is drawn and decided on its own, through the scalar
    views the criterion checks, up to the first non-maximal corner or
    failing fast path.  The grids drawn are then evaluated ``_GRID_BATCH``
    at a time (:func:`_grid_maxima`), which keeps each grid's maximum bit
    for bit, and checked in draw order, so the failure reported is that of
    the first failing realization: within one, corner, grid, fast path."""
    n_real = 2_000 if quick else 10_000
    rng = np.random.default_rng(20240817)
    fast_count = 0
    failure = None  # the corner or fast-path failure that stopped the draws
    links = np.empty((n_real, 8))
    best_corners = []  # each realization's best corner rate, for its grid's check

    # log10 of p0_max, pu_max, s0, sd and si, uniform on [low, high), from one
    # draw of five doubles: Generator.uniform's own low + (high - low) * u
    # on the numbers of five scalar uniform draws, without its 12 µs of
    # broadcasting.  Python's ** makes the powers, since numpy's array **
    # differs from it in the last bit of about one power in four.
    low, high = np.array([-1.0, -1.0, -3.0, -3.0, -12.0]), np.array([2.0, 2.0, 0.0, 0.0, 0.0])
    span = high - low
    for i in range(n_real):
        p0_max, pu_max, s0, sd, si = [10.0 ** v for v in (low + span * rng.random(5)).tolist()]
        config = SystemConfig(p0_max, pu_max, s0, sd, si, 5, 5)
        ch = draw_realization(config, rng)
        pair = scheduling.select_a2(ch, config)
        decision = power.opa(ch, pair.ul, pair.dl, config)
        g0, gd, gx = map(float, pair_gains(ch, pair.ul, pair.dl))
        r_fd = (math.log1p(pu_max * g0 / (p0_max * si + s0))
                + math.log1p(p0_max * gd / (pu_max * gx + sd))) / LN2
        r_hd_ul = math.log1p(pu_max * g0 / s0) / LN2
        r_hd_dl = math.log1p(p0_max * gd / sd) / LN2
        corner_best = max(r_fd, r_hd_ul, r_hd_dl)
        chosen = {"fd": r_fd, "hd-ul": r_hd_ul, "hd-dl": r_hd_dl}[decision.mode.value]
        if chosen < corner_best - 1e-12:
            failure = f"opa returned a non-maximal corner ({chosen} < {corner_best})"
            break
        links[i] = (p0_max, pu_max, s0, sd, si, g0, gd, gx)
        best_corners.append(corner_best)
        if decision.fast_path:
            fast_count += 1
            if r_fd < max(r_hd_ul, r_hd_dl) - 1e-9:
                failure = "fast path disagreed with corner enumeration"
                break

    links = links[:len(best_corners)]
    a, b = np.empty((2, _GRID_BATCH, 51, 51))
    maxima = np.empty(len(links))
    for lo in range(0, len(links), _GRID_BATCH):
        maxima[lo:lo + _GRID_BATCH] = _grid_maxima(links[lo:lo + _GRID_BATCH], a, b)
    # Each grid's best rate in nats, then bits: dividing by ln 2 is
    # monotone, so each is the largest of its grid's rates in bits.
    excess = maxima / LN2 - best_corners
    beaten = np.flatnonzero(excess > 1e-9)
    if beaten.size:
        return False, f"grid beat the corners by {excess[beaten[0]]:.3e}"
    if failure:
        return False, failure
    return True, (
        f"{n_real} realizations, worst grid excess {excess.max():.2e} "
        f"(tol 1e-9), {fast_count} fast-path cases all consistent"
    )


def crit_dominance_chain(quick=False, workers=1):
    """Per-realization ordering of ES-FDHD, ES-FD, OPA selectors, and the
    scheduled pair's HD corner rates, on coupled draws."""
    n = 2_000 if quick else 10_000
    config = SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 5, 5)
    schedulers = [
        Scheduler.ES_FDHD, Scheduler.ES_FD,
        Scheduler.A1_OPA, Scheduler.A2_OPA, Scheduler.A3_OPA,
    ]
    try:
        _, arrays = sim.run_coupled(config, schedulers, n, seed=77, workers=workers)
    except RuntimeError as exc:  # the engine's own check of the chain
        return False, str(exc)
    top = arrays[Scheduler.ES_FDHD]["r_ul"] + arrays[Scheduler.ES_FDHD]["r_dl"]
    es = arrays[Scheduler.ES_FD]["r_ul"] + arrays[Scheduler.ES_FD]["r_dl"]
    margin = float(np.min(top - es))
    return True, f"{n} coupled trials, zero violations (min es-fdhd - es-fd = {margin:.3e})"


def _sup_distance(samples, sf, params):
    """Kolmogorov distance between the samples and the law with survival
    function ``sf``, evaluated once on the sorted sample array."""
    xs = np.sort(samples)
    n = xs.size
    theo = 1.0 - sf(xs, params)
    lo = np.arange(n) / n
    hi = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(theo - lo), np.abs(theo - hi))))


def crit_cdf_laws(quick=False, workers=1):
    """Empirical SINR CDFs vs the three closed-form CDFs at K=5."""
    n = 30_000 if quick else 100_000
    params = SystemConfig(1.2, 0.9, 0.15, 0.08, 0.02, 5, 5)
    checks = []
    a1 = sim.run_coupled(params, [Scheduler.A1], n, seed=31, workers=workers)[1][Scheduler.A1]
    a2 = sim.run_coupled(params, [Scheduler.A2], n, seed=32, workers=workers)[1][Scheduler.A2]
    checks.append(("ul sinr (a1 run)", _sup_distance(a1["gamma_ul"], analysis._sf_ul, params)))
    checks.append(("ul sinr (a2 run)", _sup_distance(a2["gamma_ul"], analysis._sf_ul, params)))
    checks.append(("dl sinr under a1", _sup_distance(a1["gamma_dl"], analysis._sf_dl_a1, params)))
    checks.append(("dl sinr under a2", _sup_distance(a2["gamma_dl"], analysis._sf_dl_a2, params)))
    tol = 0.01 if not quick else 0.02
    bad = [f"{name} sup-distance {d:.4f}" for name, d in checks if d > tol]
    if bad:
        return False, "; ".join(bad)
    return True, "; ".join(f"{name} {d:.4f}" for name, d in checks) + f" (tol {tol})"


def _sweep_means(*sweep):
    """``{scheduler: [mean sum rate per sweep value]}`` of one
    :func:`sim.run_sweep` call with arguments ``sweep``."""
    means = {}
    for pt in sim.run_sweep(*sweep):
        means.setdefault(pt.scheduler, []).append(pt.stats.mean_sum_rate)
    return means


def crit_trend_reproductions(quick=False, workers=1):
    """Monotone-trend substitutes for the published absolute numbers:
    (a) FD-mode fraction grows with K and with SI cancellation,
    (b) ES-FD falls below HD-TDD at high DL power while ES-FDHD never does,
    (c) the A2-over-A1 mean-rate gap is positive and widens with K."""
    n = 20_000 if quick else 100_000

    # (a) FD fraction trends, all three OPA selectors.
    opa = (Scheduler.A1_OPA, Scheduler.A2_OPA, Scheduler.A3_OPA)
    fractions = {}
    for k in (5, 15):  # one draw for both SI levels
        runs = [(SystemConfig(1.0, 1.0, 1e-9, 0.03, si, k, k), opa) for si in (1e-8, 1e-9)]
        for si_db, stats in zip((80, 90), sim._run_stats(runs, n, seed=41, workers=workers)):
            for s in opa:
                fractions[(s, si_db, k)] = stats[s].fd_fraction
    for s in opa:
        for si_db in (80, 90):
            if not fractions[(s, si_db, 5)] < fractions[(s, si_db, 15)]:
                return False, f"(a) {s.value}: fd fraction not increasing in K at {si_db} dB"
        for k in (5, 15):
            if not fractions[(s, 80, k)] < fractions[(s, 90, k)]:
                return False, f"(a) {s.value}: fd fraction not increasing in SI cancellation at K={k}"

    # (b) crossover sweep at 80 dB cancellation, pu = 0.95 * p0 (dBm rule).
    base = {"pu_dbm_scale": 0.95, "si_cancellation_db": 80.0, "k_u": 5, "k_d": 5}
    p0_values = list(range(-20, 31, 5))
    means = _sweep_means(base, "p0_dbm", [float(v) for v in p0_values],
                         (Scheduler.ES_FD, Scheduler.ES_FDHD, Scheduler.HD_TDD), n, 43, workers)
    crossed = [v for v, fd_m, hd_m in zip(p0_values, means[Scheduler.ES_FD], means[Scheduler.HD_TDD])
               if fd_m < hd_m]
    if not crossed:
        return False, "(b) es-fd never fell below hd-tdd over the sweep"
    for v, fdhd_m, hd_m in zip(p0_values, means[Scheduler.ES_FDHD], means[Scheduler.HD_TDD]):
        if fdhd_m < hd_m - 1e-12:
            return False, f"(b) es-fdhd below hd-tdd at p0 = {v} dBm"

    # (c) A2 >= A1 and a widening gap as K grows (fixed 24/23 dBm, 80 dB).
    k_values = (2, 5, 10, 15)
    means = _sweep_means({"si_cancellation_db": 80.0}, "k_users", k_values,
                         (Scheduler.A1, Scheduler.A2), n, 45, workers)
    gaps = []
    for k, a1, a2 in zip(k_values, means[Scheduler.A1], means[Scheduler.A2]):
        if a2 < a1:
            return False, f"(c) mean A2 < mean A1 at K={k}"
        gaps.append(a2 - a1)
    if not all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])):
        return False, f"(c) A2-A1 gap not widening: {['%.3f' % g for g in gaps]}"

    return True, (
        f"(a) fd fractions e.g. a2-opa: {fractions[(Scheduler.A2_OPA, 80, 5)]:.3f} -> "
        f"{fractions[(Scheduler.A2_OPA, 80, 15)]:.3f} (K), "
        f"{fractions[(Scheduler.A2_OPA, 80, 5)]:.3f} -> {fractions[(Scheduler.A2_OPA, 90, 5)]:.3f} (SI); "
        f"(b) crossover from p0 = {crossed[0]} dBm; "
        f"(c) gaps {['%.3f' % g for g in gaps]}"
    )


def crit_asymptotic_trend(quick=False, workers=1):
    """Relative gap between the A1 average rate and the large-system
    approximation strictly shrinks as K doubles through 16..1024."""
    gaps = []
    for k in (16, 64, 256, 1024):
        params = SystemConfig(1.0, 0.01, 0.01, 1.0, 0.0, k, k)
        value = analysis.avg_rate_a1(params).value
        asym = analysis.asymptotic_rate_a1(params).bits
        gaps.append(abs(value - asym) / value)
    if not all(b < a for a, b in zip(gaps, gaps[1:])):
        return False, f"relative gaps not strictly decreasing: {['%.4f' % g for g in gaps]}"
    return True, "relative gaps " + " > ".join(f"{g:.4f}" for g in gaps)


def crit_determinism(quick=False, workers=1):
    """Identical manifest settings give byte-identical CSV regardless of
    the worker count; a manifest reload reproduces the file."""
    import contextlib
    import io

    from . import cli  # deferred: keeps validate importable without argparse cost

    trials = "4000" if quick else "20000"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        common = [
            "simulate", "--scheduler", "a2-opa", "--si-db", "80", "--kd", "5",
            "--ku", "5", "--trials", trials, "--seed", "11",
        ]
        f1 = tmp / "run1.csv"
        f2 = tmp / "run2.csv"
        f3 = tmp / "run3.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc1 = cli.main(common + ["--workers", "1", "--out", str(f1)])
            rc2 = cli.main(common + ["--workers", "4", "--out", str(f2)])
            rc3 = cli.main([
                "simulate", "--config", str(f1) + ".manifest.json",
                "--workers", "2", "--out", str(f3),
            ])
        if rc1 != 0 or rc2 != 0:
            return False, f"simulate exited {rc1}/{rc2}"
        if not filecmp.cmp(f1, f2, shallow=False):
            return False, "CSV differs between --workers 1 and --workers 4"
        if rc3 != 0:
            return False, f"manifest reload exited {rc3}"
        if not filecmp.cmp(f1, f3, shallow=False):
            return False, "CSV from manifest reload differs"
    return True, f"byte-identical CSV across workers and manifest reload ({trials} trials)"


CRITERIA = [
    ("special-functions", crit_special_functions),
    ("theorem2-triangle", crit_theorem2_triangle),
    ("theorem3-triangle", crit_theorem3_triangle),
    ("binary-opa", crit_binary_opa),
    ("dominance-chain", crit_dominance_chain),
    ("cdf-laws", crit_cdf_laws),
    ("trend-reproductions", crit_trend_reproductions),
    ("asymptotic-trend", crit_asymptotic_trend),
    ("determinism", crit_determinism),
]


def run(names=None, quick=False, echo=print, workers=1):
    """Run the acceptance criteria, the engine's on ``workers`` threads;
    returns (results, all_passed).  The engine's results do not depend on
    the worker count, so neither does any detail string."""
    wanted = dict(CRITERIA)
    if names:
        unknown = [n for n in names if n not in wanted]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
        selected = [(n, wanted[n]) for n in names]
    else:
        selected = CRITERIA
    results = []
    _run_memos.append({})
    try:
        for name, fn in selected:
            start = time.perf_counter()
            try:
                passed, detail = fn(quick=quick, workers=workers)
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            results.append(CriterionResult(name, passed, detail, elapsed))
            if echo:
                status = "PASS" if passed else "FAIL"
                echo(f"{status}  {name:<22} [{elapsed:7.2f}s]  {detail}")
    finally:
        _run_memos.pop()
    all_passed = all(r.passed for r in results)
    if echo:
        echo(f"{'all criteria passed' if all_passed else 'FAILURES PRESENT'} "
             f"({sum(r.passed for r in results)}/{len(results)})")
    return results, all_passed
