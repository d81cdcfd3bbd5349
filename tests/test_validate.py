"""Shared draws inside ``fdsched validate``: the Theorem 2 and Theorem 3
triangles draw each block once for both, criterion 7(a) draws once for both
SI levels, no memo outlives one ``validate.run`` call, and a criterion
called directly draws its own.  The xi_n reference of the
special-functions criterion against 40-digit mpmath.  The binary-opa
criterion's draws against its recorded detail string under each class of
numpy's CPU dispatch, its batched grids against one grid at a time, and
the order in which it reports failures.  The engine criteria on two
workers."""

import collections
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fdsched import model, power, scheduling, sim, validate
from fdsched.power import OpaDecision


@pytest.fixture
def drawn_seeds(monkeypatch):
    """The seed of every block drawn, one entry per ``sim._draw_block`` call.
    The criteria counted here run on one worker, so a block's draw follows
    the creation of its stream."""
    seeds, current = [], []
    real_rng, real_draw = sim._block_rng, sim._draw_block

    def block_rng(seed, block):
        current[:] = [seed]
        return real_rng(seed, block)

    def draw_block(config, rng, rows):
        seeds.append(current[0])
        return real_draw(config, rng, rows)

    monkeypatch.setattr(sim, "_block_rng", block_rng)
    monkeypatch.setattr(sim, "_draw_block", draw_block)
    return seeds


def _details(names, workers=1):
    results, passed = validate.run(names=names, quick=True, echo=None, workers=workers)
    assert passed, [r.detail for r in results]
    return {r.name: r.detail for r in results}


def test_triangles_draw_each_block_once(drawn_seeds):
    # 3 user counts x 3 points x 25 blocks of 4096 rows for 100_000 trials;
    # each triangle drawing its own would be 450.
    both = _details(["theorem2-triangle", "theorem3-triangle"])
    assert len(drawn_seeds) == 225
    assert len(set(drawn_seeds)) == 9
    # The memo does not outlive a run: the next run draws them all again.
    drawn_seeds.clear()
    assert _details(["theorem2-triangle", "theorem3-triangle"]) == both
    assert len(drawn_seeds) == 225
    # Either triangle alone pays for both and reports what it did beside the other.
    drawn_seeds.clear()
    assert _details(["theorem3-triangle"])["theorem3-triangle"] == both["theorem3-triangle"]
    assert len(drawn_seeds) == 225


def test_direct_triangle_calls_draw_their_own_blocks(drawn_seeds):
    # Outside a run, theorem3 after theorem2 is judged on draws of its own.
    assert validate.crit_theorem2_triangle(quick=True)[0]
    drawn_seeds.clear()
    assert validate.crit_theorem3_triangle(quick=True)[0]
    assert len(drawn_seeds) == 225


def test_trend_criterion_draws_once_for_both_si_levels(drawn_seeds):
    passed, _ = validate.crit_trend_reproductions(quick=True)
    assert passed
    # (a) runs on seed 41: K = 5 and K = 15, 5 blocks each for 20_000 trials,
    # shared by the 80 dB and 90 dB configs (20 if each SI level drew its own).
    assert drawn_seeds.count(41) == 10


@pytest.mark.parametrize("args", [
    np.meshgrid(np.arange(1, 16), np.logspace(-3.0, 3.0, 13), (0.1, 1.0, 10.0)),
    (np.arange(1, 16)[:, None], np.logspace(-3.0, 3.0, 13), 1.0),   # broadcast, 195 points
    (3, 0.5, 2.0),
], ids=["grid", "broadcast", "scalar"])
def test_xi_reference_blocks_keep_the_bits_of_one_pass(args):
    n, x, y = (np.asarray(v, dtype=float) for v in args)
    s = np.arange(-288, 225) * validate._DE_STEP
    u = np.exp(np.pi / 2.0 * np.sinh(s))
    weights = np.pi / 2.0 * np.cosh(s) * u * validate._DE_STEP
    # Every point in one (points, nodes) pass, as before the blocks.
    f = np.exp(-(x * y)[..., None] * u - n[..., None] * np.log1p(u))
    one_pass = y ** (1.0 - n) * (f * weights).sum(axis=-1)
    got = validate._xi_reference(*args)
    assert got.shape == one_pass.shape
    assert got.tobytes() == one_pass.tobytes()


def test_xi_reference_against_mpmath_expint():
    # The special-functions grid, in one vectorised call; xi_n(x, y) is
    # y^{1-n} e^{xy} E_n(xy).
    n, x, y = np.meshgrid(np.arange(1, 16), np.logspace(-3.0, 3.0, 13), (0.1, 1.0, 10.0))
    got = validate._xi_reference(n, x, y)
    assert got.shape == n.shape == (13, 15, 3)
    with mp.workdps(40):
        for ni, xi, yi, gi in zip(n.flat, x.flat, y.flat, got.flat):
            z = mp.mpf(float(xi)) * float(yi)
            ref = mp.mpf(float(yi)) ** (1 - int(ni)) * mp.exp(z) * mp.expint(int(ni), z)
            assert abs(gi - ref) <= 1e-14 * ref, (ni, xi, yi)


# numpy's version and the CPU features its dispatch finds fix the last bit of
# the grid's np.log1p, and so binary-opa's worst excess: with AVX-512 it
# rounds differently from the corners' math.log1p, below it (X86_V3, AVX2)
# it gives libm's bits.  Each class's string was recorded on the quick run,
# the second with NPY_DISABLE_CPU_FEATURES set to the features that make
# the first.
RECORDED_WITH = {"numpy": "2.4.6"}
_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
_WORST_EXCESS = {"avx512": "3.55e-15", "x86-v3": "0.00e+00"}


def _found():
    """The CPU features numpy's dispatch found in this process."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {f for f in __cpu_dispatch__ if __cpu_features__[f]}


def _dispatch_class(found):
    """The recorded class of numpy's dispatch with the features ``found``, or None."""
    if set(_AVX512) <= found:
        return "avx512"
    if "X86_V3" in found and not set(_AVX512) & found:
        return "x86-v3"
    return None


def _binary_opa_detail(excess):
    return (f"2000 realizations, worst grid excess {excess} (tol 1e-9), "
            "1273 fast-path cases all consistent")


def _skip_unrecorded():
    if np.__version__ != RECORDED_WITH["numpy"]:
        pytest.skip(f"recorded with numpy {RECORDED_WITH['numpy']}, running {np.__version__}")
    found = _found()
    if _dispatch_class(found) is None:
        pytest.skip(f"no string recorded for numpy dispatch {sorted(found)}")
    return _dispatch_class(found)


def test_binary_opa_draws_the_recorded_realizations():
    # The detail string of the quick run, recorded while each realization drew
    # its five log-powers one scalar draw at a time: one vector draw must
    # leave the stream, the powers and so every count and excess unchanged.
    here = _skip_unrecorded()
    passed, detail = validate.crit_binary_opa(quick=True)
    assert passed
    assert detail == _binary_opa_detail(_WORST_EXCESS[here])


def test_binary_opa_below_avx512_in_a_child():
    # A host that finds AVX-512 checks the other class too, in a child process
    # whose dispatch stops below it.
    if _skip_unrecorded() != "avx512":
        pytest.skip("this host's own class is the one below AVX-512")
    package = str(Path(validate.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512),
           "PYTHONPATH": os.pathsep.join(filter(None, (package, os.environ.get("PYTHONPATH"))))}
    code = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__; "
            "from fdsched import validate; "
            "print(' '.join(f for f in __cpu_dispatch__ if __cpu_features__[f])); "
            "print(validate.crit_binary_opa(quick=True)[1])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    found, detail = proc.stdout.splitlines()
    assert _dispatch_class(set(found.split())) == "x86-v3"
    assert detail == _binary_opa_detail(_WORST_EXCESS["x86-v3"])


def test_quick_binary_opa_decides_each_realization_through_the_scalar_views(monkeypatch):
    # The criterion checks the per-snapshot API: every realization is drawn,
    # selected and allocated through it, one call each.  perfbench's
    # validate-quick counts these three calls and needs them nonzero, so a
    # batched shortcut around them would blind it.
    calls = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(validate, "draw_realization")
    spy(scheduling, "select_a2")
    spy(power, "opa")
    assert validate.crit_binary_opa(quick=True)[0]
    assert calls == {"draw_realization": 2000, "select_a2": 2000, "opa": 2000}


@pytest.fixture
def grid_batches(monkeypatch):
    """``(links, maxima)`` of every ``validate._grid_maxima`` call, copied,
    since the criterion reuses its buffers."""
    calls, real = [], validate._grid_maxima

    def grid_maxima(links, a, b):
        maxima = real(links, a, b)
        calls.append((links.copy(), maxima.copy()))
        return maxima

    monkeypatch.setattr(validate, "_grid_maxima", grid_maxima)
    return calls


def test_batched_grid_maxima_have_the_bits_of_one_grid_at_a_time(grid_batches):
    passed, _ = validate.crit_binary_opa(quick=True)
    assert passed
    assert [len(links) for links, _ in grid_batches] == [validate._GRID_BATCH] * 125
    frac = np.linspace(0.0, 1.0, 51)
    for links, maxima in grid_batches:
        for row, got in zip(links.tolist(), maxima.tolist()):
            # The grid of one realization, as the criterion evaluated it before
            # its grids were batched.
            p0_max, pu_max, s0, sd, si, g0, gd, gx = row
            p0_grid = frac[:, None] * p0_max
            pu_grid = frac[None, :] * pu_max
            grid = (np.log1p(pu_grid * g0 / (p0_grid * si + s0))
                    + np.log1p(p0_grid * gd / (pu_grid * gx + sd)))
            assert got.hex() == float(grid.max()).hex()


def test_a_partial_last_batch_is_checked(grid_batches, monkeypatch):
    monkeypatch.setattr(validate, "_GRID_BATCH", 48)   # 2000 = 41 * 48 + 32
    passed, detail = validate.crit_binary_opa(quick=True)
    assert passed
    assert detail.startswith("2000 realizations, worst grid excess ")
    assert [len(links) for links, _ in grid_batches] == [48] * 41 + [32]
    assert sum(len(maxima) for _, maxima in grid_batches) == 2000


def _inject(monkeypatch, grid=None, corner=None, fast=None):
    """Make realization ``grid`` (0-based, in draw order) beat its corners on
    the grid, ``corner`` get a non-maximal corner from opa, and ``fast``
    claim the fast path for a half-duplex decision."""
    seen, real_maxima, real_opa = [0], validate._grid_maxima, power.opa

    def grid_maxima(links, a, b):
        maxima = real_maxima(links, a, b)
        index = grid - seen[0]
        if 0 <= index < len(maxima):
            maxima[index] += 1.0
        seen[0] += len(maxima)
        return maxima

    decisions = []

    def opa(ch, ul, dl, config):
        decision = real_opa(ch, ul, dl, config)
        i = len(decisions)
        decisions.append(decision)
        if i == corner:   # the corner of the lowest sum rate
            corners = [OpaDecision(ul, dl, p0, pu, False)
                       for p0, pu in ((config.p0_max, config.pu_max), (0.0, config.pu_max),
                                      (config.p0_max, 0.0))]
            return min(corners, key=lambda d: model.rates(ch, d, config).r_sum)
        if i == fast:
            assert decision.mode.value != "fd"
            return dataclasses.replace(decision, fast_path=True)
        return decision

    if grid is not None:
        monkeypatch.setattr(validate, "_grid_maxima", grid_maxima)
    monkeypatch.setattr(power, "opa", opa)
    return decisions


_GRID_FAILED = "grid beat the corners by 1.443e+00"
_CORNER_FAILED = "opa returned a non-maximal corner"
_FAST_FAILED = "fast path disagreed with corner enumeration"


def _first_hd_decision():
    """The index of a half-duplex decision inside the first batch, with a
    realization of the same batch on either side."""
    with pytest.MonkeyPatch.context() as patch:
        decisions = _inject(patch)
        assert validate.crit_binary_opa(quick=True)[0]
    return next(i for i in range(1, validate._GRID_BATCH - 1) if decisions[i].mode.value != "fd")


@pytest.mark.parametrize("grid, corner, expected", [
    (3, 5, _GRID_FAILED),      # a batch's grids are checked before a later corner
    (5, 3, _CORNER_FAILED),    # and a corner before a later grid
    (4, 4, _CORNER_FAILED),    # within one realization, its corner first
    (0, 15, _GRID_FAILED),     # the first and the last of one batch
    (15, 16, _GRID_FAILED),    # the last of a batch and the first of the next
], ids=["grid-then-corner", "corner-then-grid", "same-realization", "batch-ends", "across-batches"])
def test_binary_opa_reports_the_first_failure_in_draw_order(monkeypatch, grid, corner, expected):
    decisions = _inject(monkeypatch, grid=grid, corner=corner)
    passed, detail = validate.crit_binary_opa(quick=True)
    assert not passed
    assert detail.startswith(expected)
    assert len(decisions) <= corner + 1   # nothing is drawn past a failing corner


@pytest.mark.parametrize("grid_offset, expected", [(1, _FAST_FAILED), (0, _GRID_FAILED),
                                                   (-1, _GRID_FAILED)],
                         ids=["fast-then-grid", "same-realization", "grid-then-fast"])
def test_binary_opa_reports_a_fast_path_failure_in_draw_order(monkeypatch, grid_offset, expected):
    hd = _first_hd_decision()
    _inject(monkeypatch, grid=hd + grid_offset, fast=hd)
    passed, detail = validate.crit_binary_opa(quick=True)
    assert not passed
    assert detail.startswith(expected)


def test_nothing_is_drawn_past_a_failing_fast_path(monkeypatch):
    hd = _first_hd_decision()
    decisions = _inject(monkeypatch, fast=hd)
    passed, detail = validate.crit_binary_opa(quick=True)
    assert not passed
    assert detail == _FAST_FAILED
    assert len(decisions) == hd + 1


def test_a_grid_failure_in_a_partial_last_batch_is_reported(grid_batches, monkeypatch):
    monkeypatch.setattr(validate, "_GRID_BATCH", 48)   # 2000 = 41 * 48 + 32
    decisions = _inject(monkeypatch, grid=1999)
    passed, detail = validate.crit_binary_opa(quick=True)
    assert not passed
    assert detail == _GRID_FAILED
    assert len(decisions) == 2000
    assert [len(links) for links, _ in grid_batches] == [48] * 41 + [32]


def test_unknown_criterion_is_refused():
    with pytest.raises(ValueError, match=r"unknown criteria: \['nope'\]"):
        validate.run(names=["nope"], echo=None)


def test_dominance_chain_reports_the_engine_check(monkeypatch):
    monkeypatch.setattr(sim, "dominance_violations", lambda arrays: ["injected"])
    assert validate.crit_dominance_chain(quick=True) == (
        False, "per-realization dominance violated: injected")


_ENGINE_CRITERIA = ["theorem2-triangle", "theorem3-triangle", "dominance-chain", "cdf-laws",
                    "trend-reproductions"]


def test_two_workers_give_every_detail_of_one():
    assert _details(None, workers=2) == _details(None)


@pytest.mark.parametrize("name", _ENGINE_CRITERIA)
def test_engine_criteria_run_on_the_pool(monkeypatch, name):
    seen, real = [], sim._run_arrays

    def run_arrays(runs, n_trials, seed, workers=1, reduce=False):
        seen.append(workers)
        return real(runs, n_trials, seed, workers, reduce)

    monkeypatch.setattr(sim, "_run_arrays", run_arrays)
    _details([name], workers=2)   # run clears the triangles' memo first
    assert seen and set(seen) == {2}
