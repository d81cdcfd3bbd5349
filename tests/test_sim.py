"""Monte Carlo engine: determinism, coupling, aggregation, and agreement
with a plain-Python reference that enumerates every pair and power corner
one realization at a time."""

import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fdsched import scheduling, sim
from fdsched.model import ChannelRealization, SystemConfig, config_from_db
from fdsched.sim import (
    BLOCK_SIZE,
    Scheduler,
    derived_trial_seed,
    dominance_violations,
    resolve_config,
    run_coupled,
    run_sweep,
    run_trials,
)

CFG = SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 5, 5)


class TestDeterminism:
    def test_bit_identical_across_workers(self):
        for sched in (Scheduler.A2_OPA, Scheduler.ES_FDHD, Scheduler.HD_TDD):
            a = run_trials(CFG, sched, 10_000, seed=5, workers=1)
            b = run_trials(CFG, sched, 10_000, seed=5, workers=3)
            assert a == b

    def test_trials_are_a_prefix_function_of_seed(self):
        # Trial i's draws depend only on (seed, i): growing n_trials keeps
        # the earlier trials' per-trial rates bit-identical.
        short = sim._run_arrays([(CFG, [Scheduler.A2_OPA])], BLOCK_SIZE + 7, seed=12)[0][Scheduler.A2_OPA]
        long = sim._run_arrays([(CFG, [Scheduler.A2_OPA])], 3 * BLOCK_SIZE, seed=12)[0][Scheduler.A2_OPA]
        for key in short:
            assert np.array_equal(short[key], long[key][: BLOCK_SIZE + 7])

    def test_seed_changes_output(self):
        a = run_trials(CFG, Scheduler.A1, 5_000, seed=1)
        b = run_trials(CFG, Scheduler.A1, 5_000, seed=2)
        assert a.mean_sum_rate != b.mean_sum_rate

    def test_n_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials(CFG, Scheduler.A1, 0, seed=1)


class TestAggregation:
    def test_sum_rate_is_component_sum(self):
        stats = run_trials(CFG, Scheduler.A2_OPA, 20_000, seed=3)
        assert stats.mean_sum_rate == pytest.approx(
            stats.mean_ul_rate + stats.mean_dl_rate, abs=1e-12
        )
        assert 0.0 <= stats.fd_fraction <= 1.0
        assert stats.std_error > 0.0
        assert stats.n_trials == 20_000

    def test_std_error_scaling(self):
        small = run_trials(CFG, Scheduler.A1, 50_000, seed=8)
        large = run_trials(CFG, Scheduler.A1, 200_000, seed=8)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_single_trial(self):
        stats = run_trials(CFG, Scheduler.A1, 1, seed=4)
        assert stats.std_error == 0.0
        assert stats.n_trials == 1


class TestModeBookkeeping:
    def test_hd_tdd_never_fd(self):
        assert run_trials(CFG, Scheduler.HD_TDD, 2_000, seed=6).fd_fraction == 0.0

    def test_fixed_power_selectors_always_fd(self):
        for sched in (Scheduler.A1, Scheduler.A2, Scheduler.A3, Scheduler.ES_FD):
            assert run_trials(CFG, sched, 2_000, seed=6).fd_fraction == 1.0

    def test_opa_always_fd_without_interference(self, monkeypatch):
        # Zero-interference hook: silence the cross gains, no SI.
        config = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        real_draw = sim._draw_block

        def quiet_draw(cfg, rng, rows):
            g_ul, g_dl, g_x = real_draw(cfg, rng, rows)
            return g_ul, g_dl, np.zeros_like(g_x)

        monkeypatch.setattr(sim, "_draw_block", quiet_draw)
        for sched in (Scheduler.A1_OPA, Scheduler.A2_OPA, Scheduler.A3_OPA):
            assert run_trials(config, sched, 2_000, seed=7).fd_fraction == 1.0


LN2 = math.log(2.0)

# A plain-Python reference pipeline: one realization at a time, every
# candidate pair and power corner enumerated with scalar math.log1p.  Ties go
# to the lowest index, pairs lexicographically in (u, d), corners
# FD > HD-UL > HD-DL.  Each selector returns (u, d, lead), where lead is the
# smallest margin by which a rate comparison was won: a trial with a tiny
# lead may round the other way in a different implementation.


def _first_max(values):
    """Index of the first maximum and its lead over the best other value."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    others = [v for i, v in enumerate(values) if i != best]
    return best, (values[best] - max(others) if others else math.inf)


def _fd_rates(cfg, g_ul, g_dl, g_x, u, d):
    return (math.log1p(cfg.pu_max * g_ul[u] / (cfg.p0_max * cfg.si_gain + cfg.sigma0_sq)) / LN2,
            math.log1p(cfg.p0_max * g_dl[d] / (cfg.pu_max * g_x[d][u] + cfg.sigmaD_sq)) / LN2)


def _hd_rates(cfg, g_ul, g_dl, u, d):
    """Single-link rates of UL user u and DL user d at full power."""
    return (math.log1p(cfg.pu_max * g_ul[u] / cfg.sigma0_sq) / LN2,
            math.log1p(cfg.p0_max * g_dl[d] / cfg.sigmaD_sq) / LN2)


def select_a1(cfg, g_ul, g_dl, g_x):
    return _first_max(g_ul)[0], _first_max(g_dl)[0], math.inf


def select_a2(cfg, g_ul, g_dl, g_x):
    u = _first_max(g_ul)[0]
    sinr = [cfg.p0_max * g_dl[d] / (cfg.pu_max * g_x[d][u] + cfg.sigmaD_sq)
            for d in range(len(g_dl))]
    return u, _first_max(sinr)[0], math.inf


def select_a3(cfg, g_ul, g_dl, g_x):
    d = _first_max(g_dl)[0]
    slr = [cfg.pu_max * g_ul[u] / (cfg.pu_max * g_x[d][u] + cfg.sigma0_sq)
           for u in range(len(g_ul))]
    return _first_max(slr)[0], d, math.inf


def select_es(cfg, g_ul, g_dl, g_x):
    pairs = [(u, d) for u in range(len(g_ul)) for d in range(len(g_dl))]
    k, lead = _first_max([sum(_fd_rates(cfg, g_ul, g_dl, g_x, u, d)) for u, d in pairs])
    return pairs[k] + (lead,)


def reference(sched, select, cfg, g_ul, g_dl, g_x):
    """``(r_ul, r_dl, mode, lead)`` of one realization under ``sched``,
    whose (base) pair comes from ``select``."""
    best_ul, best_dl = _hd_rates(cfg, g_ul, g_dl, *select_a1(cfg, g_ul, g_dl, g_x)[:2])
    if sched is Scheduler.HD_TDD:
        return 0.5 * best_ul, 0.5 * best_dl, "tdd", math.inf
    u, d, lead = select(cfg, g_ul, g_dl, g_x)
    r_ul, r_dl = _fd_rates(cfg, g_ul, g_dl, g_x, u, d)
    if sched is Scheduler.ES_FDHD:
        corners = [r_ul + r_dl, best_ul, best_dl]
    elif sched in scheduling.OPA_BASE:
        corners = [r_ul + r_dl, *_hd_rates(cfg, g_ul, g_dl, u, d)]
    else:
        return r_ul, r_dl, "fd", lead
    k, corner_lead = _first_max(corners)
    # A half-duplex outcome hands the surviving link to its gain-max user.
    r_ul, r_dl = [(r_ul, r_dl), (best_ul, 0.0), (0.0, best_dl)][k]
    return r_ul, r_dl, ("fd", "hd-ul", "hd-dl")[k], min(lead, corner_lead)


REFERENCE_CONFIGS = [
    SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 1, 1),   # K = 1
    SystemConfig(1.4, 0.9, 0.2, 0.1, 0.3, 4, 3),      # k_u > k_d, all three modes
    SystemConfig(2.0, 1.5, 0.4, 0.6, 0.3, 2, 5),      # k_u < k_d, all three modes
    SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 4, 4),   # FD and HD-UL
]


class TestAgainstScalarPipeline:
    """The engine trial by trial against the plain-Python reference."""

    N = 400

    def _check(self, sched, select):
        close_calls = 0
        modes = set()
        for c, config in enumerate(REFERENCE_CONFIGS):
            arrays = sim._run_arrays([(config, [sched])], self.N, seed=20 + c)[0][sched]
            g_ul, g_dl, g_x = sim._draw_block(config, sim._block_rng(20 + c, 0), self.N)
            for i in range(self.N):
                r_ul, r_dl, mode, lead = reference(sched, select, config, g_ul[i].tolist(),
                                                   g_dl[i].tolist(), g_x[i].tolist())
                modes.add(mode)
                if lead <= 1e-12:
                    close_calls += 1
                    continue
                assert arrays["fd"][i] == (mode == "fd")
                assert arrays["r_ul"][i] == pytest.approx(r_ul, rel=1e-13, abs=1e-15)
                assert arrays["r_dl"][i] == pytest.approx(r_dl, rel=1e-13, abs=1e-15)
        assert close_calls <= 2
        return modes

    @pytest.mark.parametrize("sched", [Scheduler.A1, Scheduler.A2, Scheduler.A3,
                                       Scheduler.ES_FD, Scheduler.ES_FDHD])
    def test_selector_rates_match(self, sched):
        select = {Scheduler.A1: select_a1, Scheduler.A2: select_a2,
                  Scheduler.A3: select_a3}.get(sched, select_es)
        modes = self._check(sched, select)
        assert modes == ({"fd", "hd-ul", "hd-dl"} if sched is Scheduler.ES_FDHD else {"fd"})

    def test_hd_tdd_matches(self):
        assert self._check(Scheduler.HD_TDD, None) == {"tdd"}

    @pytest.mark.parametrize(
        "sched,base",
        [
            (Scheduler.A1_OPA, select_a1),
            (Scheduler.A2_OPA, select_a2),
            (Scheduler.A3_OPA, select_a3),
        ],
    )
    def test_opa_schedulers_match(self, sched, base):
        assert self._check(sched, base) == {"fd", "hd-ul", "hd-dl"}


    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_ties_at_small_k_go_to_index_0(self, k):
        # Row 0 ties every comparison.  At K = 2, row 1 ties A2's DL SINRs
        # (1/2 and 2/4 under UL user 0) and row 2 A3's UL signal-to-leakage
        # ratios (1/2 and 2/4 toward DL user 0), with untied raw gains.
        config = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, k, k)
        rows = [([1.0] * k, [1.0] * k, [[1.0] * k] * k)]
        if k == 2:
            rows += [([1.0, 1.0], [1.0, 2.0], [[1.0, 5.0], [3.0, 5.0]]),
                     ([1.0, 2.0], [1.0, 1.0], [[1.0, 3.0], [5.0, 5.0]])]
        gains = [np.array([row[i] for row in rows]) for i in range(3)]
        batch = scheduling._Batch(config, *gains)
        for rule, select, view in [(Scheduler.A1, select_a1, scheduling.select_a1),
                                   (Scheduler.A2, select_a2, scheduling.select_a2),
                                   (Scheduler.A3, select_a3, scheduling.select_a3),
                                   (Scheduler.ES_FD, select_es, scheduling.select_es_fd)]:
            pair = batch.pair(rule)
            for i, (g_ul, g_dl, g_x) in enumerate(rows):
                expect = select(config, g_ul, g_dl, g_x)[:2]
                assert (pair.ul[i], pair.dl[i]) == expect, (rule, i)
                s = view(ChannelRealization(g_ul, g_dl, g_x), config)
                assert (s.ul, s.dl) == expect, (rule, i)
            assert (pair.ul[0], pair.dl[0]) == (0, 0)
        if k == 2:
            assert (batch.pair(Scheduler.A2).dl[1], batch.pair(Scheduler.A3).ul[2]) == (0, 0)


class TestSharedDraws:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_scheduler_run_matches_single_runs(self, workers):
        n = 2 * BLOCK_SIZE + 7
        (shared,) = sim._run_arrays([(CFG, list(Scheduler))], n, seed=61, workers=workers)
        assert list(shared) == list(Scheduler)
        for sched in Scheduler:
            alone = sim._run_arrays([(CFG, [sched])], n, seed=61, workers=workers)[0][sched]
            assert shared[sched].keys() == alone.keys()
            for key, values in alone.items():
                assert shared[sched][key].dtype == values.dtype
                assert shared[sched][key].tobytes() == values.tobytes()

    def test_shared_outputs_survive_thread_contention(self):
        # More workers than cores and a tiny switch interval: a lost
        # allocation or write of a shared output array would show here.
        n = 6 * BLOCK_SIZE + 3
        (serial,) = sim._run_arrays([(CFG, list(Scheduler))], n, seed=63, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (threaded,) = sim._run_arrays([(CFG, list(Scheduler))], n, seed=63, workers=4)
        finally:
            sys.setswitchinterval(interval)
        for sched in Scheduler:
            for key, values in serial[sched].items():
                assert threaded[sched][key].tobytes() == values.tobytes()

    def test_each_block_is_drawn_once_per_sweep_point(self, monkeypatch):
        draws = []
        real_draw = sim._draw_block

        def counting_draw(cfg, rng, rows):
            draws.append(cfg.k_u)
            return real_draw(cfg, rng, rows)

        monkeypatch.setattr(sim, "_draw_block", counting_draw)
        base, values = {"si_cancellation_db": 80.0}, (2, 3, 4)
        schedulers = (Scheduler.A2_OPA, Scheduler.ES_FDHD, Scheduler.HD_TDD)
        rows = run_sweep(base, "k_users", values, ("a2-opa", "es-fdhd", "hd-tdd"),
                         BLOCK_SIZE + 1, seed=62)
        assert draws == [2, 2, 3, 3, 4, 4]
        # Scheduler-major rows, each equal to a run of that scheduler alone.
        assert [(pt.scheduler, pt.value) for pt in rows] == [
            (s, k) for s in schedulers for k in values]
        for pt in rows:
            config = resolve_config(base, "k_users", pt.value)
            seed = derived_trial_seed(62, values.index(pt.value))
            assert pt.stats == run_trials(config, pt.scheduler, BLOCK_SIZE + 1, seed)

    @pytest.mark.parametrize("values,n_trials,message", [
        ((2, 3, 4.5), 100, "whole number"),
        ((2, 3, 4), 0, "n_trials must be >= 1"),
    ], ids=["fractional-last-k", "zero-trials"])
    def test_sweep_checks_everything_before_the_first_draw(self, monkeypatch, values,
                                                           n_trials, message):
        draws = []
        monkeypatch.setattr(sim, "_draw_block", lambda cfg, rng, rows: draws.append(cfg.k_u))
        with pytest.raises(ValueError, match=message):
            run_sweep({}, "k_users", values, [Scheduler.A1], n_trials, seed=1)
        assert draws == []

    def test_sweep_to_an_overflowing_power_is_a_value_error(self, monkeypatch):
        draws = []
        monkeypatch.setattr(sim, "_draw_block", lambda cfg, rng, rows: draws.append(cfg.k_u))
        with pytest.raises(ValueError, match="p0_dbm is too large"):
            run_sweep({}, "p0_dbm", (20.0, 4000.0), [Scheduler.A1], 100, seed=1)
        with pytest.raises(ValueError, match="pu_dbm is too large"):
            run_sweep({"pu_dbm_scale": 1000.0}, "p0_dbm", (20.0,), [Scheduler.A1], 100, seed=1)
        assert draws == []

    @pytest.mark.parametrize("base,values,name", [
        ({}, [10**400], "p0_dbm"),
        ({}, [20.0, 10**400], "p0_dbm"),
        ({"pu_dbm_scale": 10**400}, [20.0], "pu_dbm_scale"),
        ({"noise_figure_bs_db": 10**400}, [20.0], "noise_figure_bs_db"),
        ({"bandwidth_hz": 10**400}, [20.0], "bandwidth_hz"),
    ], ids=["swept", "swept-second", "scale", "noise-figure", "bandwidth"])
    def test_an_integer_past_float_range_is_a_named_value_error(self, monkeypatch, base, values, name):
        draws = []
        monkeypatch.setattr(sim, "_draw_block", lambda cfg, rng, rows: draws.append(cfg.k_u))
        with pytest.raises(ValueError, match=f"^{name} is too large"):
            run_sweep(base, "p0_dbm", values, [Scheduler.A1], 10, seed=1)
        assert draws == []

    def test_es_tie_order_matches_scalar_search(self, monkeypatch):
        # With p0 = pu = s0 = sd = 1 and no SI, a zero cross gain makes the
        # UL rate of gain a and the DL rate of gain b the same function, so
        # pairs (u, d) and (u', d') whose gains swap tie exactly on the sum
        # rate but split it differently between UL and DL.  Gains from
        # {1, 2, 3} make such ties common; a cross gain of 50 takes a pair
        # out of contention.  The reference is the plain-Python pair search.
        config = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 3, 3)

        def tied_draw(cfg, rng, rows):
            g_ul = rng.integers(1, 4, (BLOCK_SIZE, cfg.k_u)).astype(float)
            g_dl = rng.integers(1, 4, (BLOCK_SIZE, cfg.k_d)).astype(float)
            g_x = rng.choice([0.0, 50.0], (BLOCK_SIZE, cfg.k_d, cfg.k_u))
            return g_ul, g_dl, g_x

        monkeypatch.setattr(sim, "_draw_block", tied_draw)
        n = 400
        (arrays,) = sim._run_arrays([(config, [Scheduler.ES_FD, Scheduler.ES_FDHD])], n, seed=71)
        g_ul, g_dl, g_x = tied_draw(config, sim._block_rng(71, 0), n)
        split_ties = 0
        for i in range(n):
            for sched in (Scheduler.ES_FD, Scheduler.ES_FDHD):
                r_ul, r_dl, _, _ = reference(sched, select_es, config, g_ul[i].tolist(),
                                             g_dl[i].tolist(), g_x[i].tolist())
                assert arrays[sched]["r_ul"][i] == pytest.approx(r_ul, rel=1e-13)
                assert arrays[sched]["r_dl"][i] == pytest.approx(r_dl, rel=1e-13)
            fd_pairs = [(math.log1p(g_ul[i, u]) / LN2,
                         math.log1p(g_dl[i, d] / (g_x[i, d, u] + 1.0)) / LN2)
                        for u in range(3) for d in range(3)]
            best = max(r_ul + r_dl for r_ul, r_dl in fd_pairs)
            split_ties += len({r_ul for r_ul, r_dl in fd_pairs if r_ul + r_dl == best}) > 1
        assert split_ties > 10  # the tie order decided these trials


class TestMultiConfigRuns:
    """One engine call draws each block once for several configs that share
    (k_u, k_d), and gives every run the arrays of a run of its own."""

    @staticmethod
    def _runs(k):
        at_80, at_60 = (config_from_db(24.0, 23.0, si, k_u=k, k_d=k) for si in (80.0, 60.0))
        again_80 = config_from_db(24.0, 23.0, 80.0, k_u=k, k_d=k)  # equal to at_80, not the same object
        return [(at_80, [Scheduler.A2_OPA, Scheduler.ES_FDHD]),
                (at_60, [Scheduler.A2_OPA, Scheduler.A1, Scheduler.A1]),
                (again_80, [Scheduler.HD_TDD, Scheduler.A2_OPA])]

    @pytest.mark.parametrize("k", [5, 40], ids=["K5", "K40-chunked"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_run_matches_a_run_of_its_own(self, monkeypatch, k, workers):
        runs = self._runs(k)
        calls, draws = [], []
        real_evaluate, real_draw = sim._evaluate_block, sim._draw_block

        def counting_evaluate(schedulers, config, g_ul, g_dl, g_x):
            calls.append((tuple(schedulers), config, len(g_ul)))
            return real_evaluate(schedulers, config, g_ul, g_dl, g_x)

        def counting_draw(config, rng, rows):
            draws.append(config.k_u)
            return real_draw(config, rng, rows)

        monkeypatch.setattr(sim, "_evaluate_block", counting_evaluate)
        monkeypatch.setattr(sim, "_draw_block", counting_draw)
        n, seed = BLOCK_SIZE + 7, 81
        together = sim._run_arrays(runs, n, seed, workers=workers)
        # Two blocks drawn once; per chunk one kernel call per distinct
        # config, the equal configs' scheduler lists merged.
        chunks = -(-BLOCK_SIZE // sim._chunk_rows(runs[0][0])) + 1  # the 7-row block is one
        rows = sim.CHUNK_BYTES // (8 * k * k)  # K = 5 fits a block in one chunk, K = 40 does not
        assert chunks == (2 if k == 5 else -(-BLOCK_SIZE // rows) + 1) and (rows < BLOCK_SIZE) == (k == 40)
        assert draws == [k, k]
        assert len(calls) == 2 * chunks and sum(rows for *_, rows in calls) == 2 * n
        merged = (Scheduler.A2_OPA, Scheduler.ES_FDHD, Scheduler.HD_TDD)
        assert {c[:2] for c in calls} == {(merged, runs[0][0]),
                                          ((Scheduler.A2_OPA, Scheduler.A1), runs[1][0])}
        assert together[0][Scheduler.A2_OPA] is together[2][Scheduler.A2_OPA]
        assert len(together) == len(runs)
        for (config, schedulers), arrays in zip(runs, together):
            (alone,) = sim._run_arrays([(config, schedulers)], n, seed, workers=workers)
            assert list(arrays) == list(alone) == list(dict.fromkeys(schedulers))
            for s, values in alone.items():
                assert arrays[s].keys() == values.keys()
                for key, v in values.items():
                    assert arrays[s][key].dtype == v.dtype
                    assert arrays[s][key].tobytes() == v.tobytes(), (s, key)

    @pytest.mark.parametrize("other", [
        SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 5, 6),
        SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 6, 5),
    ], ids=["k_d", "k_u"])
    def test_other_user_counts_raise_before_the_first_draw(self, monkeypatch, other):
        draws = []
        monkeypatch.setattr(sim, "_draw_block", lambda cfg, rng, rows: draws.append(cfg.k_u))
        with pytest.raises(ValueError, match=r"share one \(k_u, k_d\)"):
            sim._run_arrays([(CFG, [Scheduler.A1]), (other, [Scheduler.A1])], 100, seed=1)
        with pytest.raises(ValueError, match=r"share one \(k_u, k_d\)"):
            sim._run_arrays([], 100, seed=1)
        assert draws == []


class TestChunkedDraws:
    """Cross gains are drawn and evaluated a chunk of rows at a time."""

    @pytest.mark.parametrize("k_u,k_d", [(40, 40), (7, 40)])
    def test_chunks_match_whole_block_draws(self, monkeypatch, k_u, k_d):
        # The reference draws every block whole, g_ul, g_dl and then all
        # BLOCK_SIZE rows of g_x, and evaluates it in one kernel call.
        config = config_from_db(24.0, 23.0, 60.0, k_u=k_u, k_d=k_d)
        n, seed = 2 * BLOCK_SIZE + 7, 64
        reference = {s: {} for s in Scheduler}
        for j in range(3):
            rng = sim._block_rng(seed, j)
            g_ul = rng.standard_exponential((BLOCK_SIZE, k_u))
            g_dl = rng.standard_exponential((BLOCK_SIZE, k_d))
            g_x = rng.standard_exponential((BLOCK_SIZE, k_d, k_u))
            for s in Scheduler:
                for key, v in scheduling.evaluate([s], config, g_ul, g_dl, g_x)[s].items():
                    reference[s].setdefault(key, []).append(v)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 13 * 8 * k_u * k_d)  # 13 rows, 4096 % 13 = 1
        assert sim._chunk_rows(config) == 13
        for workers in (1, 2):
            (arrays,) = sim._run_arrays([(config, list(Scheduler))], n, seed, workers=workers)
            for s in Scheduler:
                assert arrays[s].keys() == reference[s].keys()
                for key, parts in reference[s].items():
                    expected = np.concatenate(parts)[:n]
                    assert arrays[s][key].dtype == expected.dtype
                    assert arrays[s][key].tobytes() == expected.tobytes(), (s, key, workers)

    def test_chunk_rows_bound_the_cross_gains(self):
        k = math.isqrt(sim.CHUNK_BYTES // (8 * BLOCK_SIZE))  # the largest K with whole-block chunks
        assert sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=k, k_d=k)) == BLOCK_SIZE
        assert sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=k + 1, k_d=k + 1)) < BLOCK_SIZE
        for k_u, k_d in [(64, 64), (7, 300), (100, 100)]:
            rows = sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=k_u, k_d=k_d))
            assert 1 <= rows < BLOCK_SIZE and 8 * rows * k_u * k_d <= sim.CHUNK_BYTES
        assert sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=2000, k_d=2000)) == 1

    @pytest.mark.parametrize("n_trials", [100, BLOCK_SIZE + 7])
    def test_short_runs_evaluate_only_the_rows_they_use(self, monkeypatch, n_trials):
        rows, drawn = [], []
        real_evaluate, real_draw = sim._evaluate_block, sim._draw_block

        def counting_evaluate(schedulers, config, g_ul, g_dl, g_x):
            rows.append(len(g_ul))
            return real_evaluate(schedulers, config, g_ul, g_dl, g_x)

        def counting_draw(config, rng, n):
            gains = real_draw(config, rng, n)
            drawn.append(len(gains[2]))
            return gains

        monkeypatch.setattr(sim, "_evaluate_block", counting_evaluate)
        monkeypatch.setattr(sim, "_draw_block", counting_draw)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 1000 * 8 * 6 * 6)
        run_trials(SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 6, 6), "es-fdhd", n_trials, seed=65)
        assert sum(rows) == n_trials and max(rows) <= 1000
        # a block's first chunk stops at the last row the run uses, as the later ones do
        assert drawn == [min(1000, n_trials - lo) for lo in range(0, n_trials, BLOCK_SIZE)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_kernel_call_per_chunk_for_every_scheduler(self, monkeypatch, workers):
        calls = []
        real_evaluate = sim._evaluate_block

        def counting_evaluate(schedulers, config, g_ul, g_dl, g_x):
            calls.append((tuple(schedulers), len(g_ul)))
            return real_evaluate(schedulers, config, g_ul, g_dl, g_x)

        monkeypatch.setattr(sim, "_evaluate_block", counting_evaluate)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 1000 * 8 * 6 * 6)  # 1000 rows a chunk
        n_trials = 2 * BLOCK_SIZE + 7
        run_coupled(SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 6, 6), list(Scheduler), n_trials,
                    seed=67, workers=workers)
        assert len(calls) == 5 + 5 + 1  # two full blocks of 5 chunks, then 7 rows
        assert sum(rows for _, rows in calls) == n_trials
        assert all(schedulers == tuple(Scheduler) for schedulers, _ in calls)

    def test_large_k_run_memory_is_bounded(self):
        # tracemalloc sees numpy's buffers.  Drawing a whole block of cross
        # gains at K = 100 would take 4096 * 100**2 * 8 bytes = 328 MB.
        config = config_from_db(24.0, 23.0, 80.0, k_u=100, k_d=100)
        tracemalloc.start()
        try:
            run_trials(config, "es-fdhd", 100, seed=66)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def _stored_stats(arrays):
    """TrialStats of whole per-trial arrays, by numpy's own reductions."""
    r_ul, r_dl = arrays["r_ul"], arrays["r_dl"]
    n = len(r_ul)
    mean_ul, mean_dl = float(r_ul.sum() / n), float(r_dl.sum() / n)
    std_error = float((r_ul + r_dl).std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return sim.TrialStats(mean_ul + mean_dl, mean_ul, mean_dl, std_error, n, float(arrays["fd"].mean()))


def _node_range(n, node):
    """(start, length) of a heap-indexed node of the pairwise tree over n."""
    start, length = 0, n
    for bit in bin(node)[3:]:
        half = sim._halve(length)
        start, length = (start, half) if bit == "0" else (start + half, length - half)
    return start, length


# Lengths below 8, off multiples of 8, about one leaf, and 4096·k ± 1.
_TREE_LENGTHS = [1, 2, 3, 5, 7, 8, 9, 13, 127, 128, 129, 255, 257, 1000, 1024, 4095, 4096,
                 4097, 8191, 8193, 12287, 12289, 65536, 100_003, 2 ** 17 + 5]


def _wide_rates(n, seed):
    """Four rows of n positive floats over 16 decades, so that summing them
    in another order moves the last bits."""
    rng = np.random.default_rng(seed)
    return rng.standard_exponential((4, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (4, n))


class TestStreamedReduction:
    """Each chunk is reduced as it arrives, to the bits of numpy's reductions
    over the whole per-trial arrays."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 4095, 4096, 4097,
                                   3 * BLOCK_SIZE - 1, 3 * BLOCK_SIZE + 1, 100_003])
    @pytest.mark.parametrize("rows", [None, 100], ids=["whole-blocks", "100-row-chunks"])
    def test_stats_equal_those_of_the_stored_arrays(self, monkeypatch, n, rows):
        config = SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 3, 4)
        if rows is not None:  # leaves of 128 trials straddle up to three chunks
            monkeypatch.setattr(sim, "CHUNK_BYTES", rows * 8 * 3 * 4)
            assert sim._chunk_rows(config) == rows
        for workers in (1, 4):
            coupled, stored = run_coupled(config, list(Scheduler), n, seed=90, workers=workers)
            (streamed,) = sim._run_stats([(config, list(Scheduler))], n, seed=90, workers=workers)
            for s in Scheduler:
                assert streamed[s] == _stored_stats(stored[s]), (s, workers)
                assert coupled[s] == streamed[s], (s, workers)

    @pytest.mark.parametrize("n", _TREE_LENGTHS)
    def test_tree_sums_equal_ndarray_sum(self, n):
        # Chunks of random sizes arrive in random order; every sum the sink
        # holds, part way and at the end, is ndarray.sum over its range.
        values = _wide_rates(n, n)
        schedulers = [Scheduler.A1, Scheduler.HD_TDD]
        rng = np.random.default_rng(n + 1)
        cuts = sorted({int(c) for c in rng.integers(1, n, size=40)}) if n > 1 else []
        chunks = list(zip([0] + cuts, cuts + [n]))
        rng.shuffle(chunks)
        sink = sim._Reduce(schedulers, n)
        for count, (lo, hi) in enumerate(chunks, 1):
            sink.take(lo, {s: {"r_ul": values[i, lo:hi], "r_dl": values[2 + i, lo:hi],
                               "fd": values[i, lo:hi] > 1.0} for i, s in enumerate(schedulers)})
            if count == len(chunks) // 2 or count == len(chunks):
                for node, sums in sink.sums.items():
                    start, length = _node_range(n, node)
                    expected = [row[start:start + length].copy().sum() for row in values]
                    assert sums.tolist() == expected, (n, node)
        assert list(sink.sums) == [1] and not sink.leaves
        for i, s in enumerate(schedulers):
            got = sink.result(s)
            assert (got.sum_ul, got.sum_dl) == (values[i].sum(), values[2 + i].sum())
            assert got.r_sum.tobytes() == (values[i] + values[2 + i]).tobytes()
            assert got.fd_count == np.count_nonzero(values[i] > 1.0)

    def test_threads_that_switch_often_give_the_same_stats(self):
        # More workers than cores, a short switch interval and 65 blocks whose
        # edges split leaves: a lost update to the shared node sums, leaf
        # buffers or FD counts would move a sum or leave a leaf unfinished.
        runs, n = [(SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 2, 2), ["a1", "a2"])], 64 * BLOCK_SIZE + 1001
        (serial,) = sim._run_stats(runs, n, seed=95)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert sim._run_stats(runs, n, seed=95, workers=8) == [serial]
        finally:
            sys.setswitchinterval(interval)

    def test_siblings_handed_in_together_are_added_up(self):
        # Two threads hand in the two 128-trial halves of a 256-trial tree at
        # once, and each yields while it looks for the other's half: the lock
        # must keep both from missing it, or the root is never formed.
        class Yielding(dict):
            def __contains__(self, node):
                found = super().__contains__(node)
                time.sleep(0.01)
                return found

        values = _wide_rates(256, 7)
        schedulers = [Scheduler.A1, Scheduler.A2]
        sink = sim._Reduce(schedulers, 256)
        sink.sums = Yielding()
        threads = [threading.Thread(target=sink.take, args=(lo, {
            s: {"r_ul": values[i, lo:lo + 128], "r_dl": values[2 + i, lo:lo + 128],
                "fd": values[i, lo:lo + 128] > 1.0} for i, s in enumerate(schedulers)}))
            for lo in (0, 128)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert list(sink.sums) == [1]
        assert sink.sums[1].tolist() == [row.sum() for row in values]

    def test_the_data_tells_summation_orders_apart(self):
        # The sums above would catch a numpy that added in another order:
        # left to right, or with the first element split off as a reduction
        # seeded with it does.  Below 8 elements numpy adds left to right.
        rows = [row for n in _TREE_LENGTHS if n > 8 for row in _wide_rates(n, n)]
        split_first = sum(row[0] + row[1:].sum() != row.sum() for row in rows)
        in_order = sum(np.cumsum(row)[-1] != row.sum() for row in rows)
        assert split_first >= len(rows) // 4 and in_order >= len(rows) // 2

    def test_tree_splits_as_numpy_does(self):
        assert [sim._halve(n) for n in (129, 136, 255, 256, 4097, 100_003)] == [
            64, 64, 120, 128, 2048, 50000]
        whole, parts = sim._cover(100, 4196, 8192)  # a 4096-row chunk off the leaves' grid
        assert all(_node_range(8192, node) == (start, length) for node, start, length in whole + parts)
        assert [start for _, start, _ in parts] == [0, 4096]
        assert sum(length for *_, length in whole) == 4096 - 128

    def test_reducing_run_keeps_8_bytes_a_trial_and_scheduler(self):
        # fig4's eight schedulers at K = 2, 20 dB, 2**17 trials: storing r_ul,
        # r_dl and fd (17 B a trial and scheduler) peaked at 19.9 MB traced;
        # the sum rates alone take 8.4 MB, plus one std temporary and a chunk.
        config = config_from_db(24.0, 23.0, 20.0, k_u=2, k_d=2)
        schedulers = ["a1", "a2", "a3", "a1-opa", "a2-opa", "a3-opa", "es-fdhd", "hd-tdd"]
        tracemalloc.start()
        try:
            sim._run_stats([(config, schedulers)], 2 ** 17, seed=91)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_aggregate_runs_once_per_run_and_scheduler(self, monkeypatch):
        calls = []
        real = sim._aggregate
        monkeypatch.setattr(sim, "_aggregate", lambda reduced: calls.append(1) or real(reduced))
        run_sweep({"k_u": 3, "k_d": 3}, "p0_dbm", (20.0, 24.0), ["a1", "es-fdhd", "hd-tdd"], 500, seed=92)
        assert len(calls) == 6
        run_coupled(CFG, [Scheduler.A2_OPA, Scheduler.ES_FDHD], 500, seed=93)
        assert len(calls) == 8
        sim._run_stats([(CFG, ["a1"]), (CFG, ["a1", "a2"])], 500, seed=94)
        assert len(calls) == 11


class TestInputChecks:
    @pytest.mark.parametrize("p0,pu", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_power_rejected_on_both_paths(self, p0, pu):
        # The config refuses a dead link, so no scalar view and no engine run,
        # of any scheduler (HD-TDD too), is ever given one.
        with pytest.raises(ValueError, match="positive p0_max and pu_max"):
            SystemConfig(p0, pu, 1.0, 1.0, 1e-3, 2, 2)
        with pytest.raises(ValueError, match="positive p0_max and pu_max"):
            replace(CFG, p0_max=p0, pu_max=pu)
        dead = {"p0_dbm" if p0 == 0.0 else "pu_dbm": -4000.0}  # 10^-400 mW underflows to 0
        with pytest.raises(ValueError, match="positive p0_max and pu_max"):
            run_sweep(dead, "si_cancellation_db", (80.0,), [Scheduler.HD_TDD], 100, seed=1)

    def test_system_config_needs_whole_user_counts(self):
        assert SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 5.0, 3).k_u == 5
        with pytest.raises(ValueError, match="whole number"):
            SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 2.5, 3)

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True)], ids=["true", "false", "np-true"])
    def test_booleans_are_not_whole_numbers(self, flag):
        for k_u, k_d, name in [(flag, 3, "k_u"), (3, flag, "k_d")]:
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, k_u, k_d)
        with pytest.raises(ValueError, match="k_u must be a whole number"):
            config_from_db(24.0, 23.0, 80.0, k_u=flag, k_d=flag)
        for args in [{"n_trials": flag, "seed": 1}, {"n_trials": 100, "seed": flag},
                     {"n_trials": 100, "seed": 1, "workers": flag}]:
            name = next(k for k, v in args.items() if v is flag)
            with pytest.raises(ValueError, match=f"{name} must be a whole number"):
                run_trials(CFG, "a1", **args)

    def test_config_from_db_needs_whole_user_counts(self):
        assert config_from_db(24.0, 23.0, 80.0, k_u=5.0, k_d=4).k_u == 5
        with pytest.raises(ValueError, match="whole number"):
            config_from_db(24.0, 23.0, 80.0, k_u=4, k_d=5.5)

    def test_resolve_config_needs_whole_user_counts(self):
        assert resolve_config({"k_u": 5.0}).k_u == 5
        assert resolve_config({}, "k_users", 3.0).k_d == 3
        with pytest.raises(ValueError, match="whole number"):
            resolve_config({}, "k_users", 2.5)
        with pytest.raises(ValueError, match="whole number"):
            run_sweep({}, "k_users", (2.5, 3.7), [Scheduler.A1], 100, 0)

    @pytest.mark.parametrize("n_trials", [2.5, "100"])
    def test_engine_needs_whole_trial_counts(self, n_trials):
        with pytest.raises(ValueError, match="n_trials"):
            run_trials(CFG, "a1", n_trials, seed=1)
        with pytest.raises(ValueError, match="n_trials"):
            run_coupled(CFG, [Scheduler.ES_FDHD, Scheduler.A1_OPA], n_trials, seed=1)

    def test_engine_takes_whole_float_trial_counts(self):
        assert run_trials(CFG, "a1", 100.0, seed=1) == run_trials(CFG, "a1", 100, seed=1)

    @pytest.mark.parametrize("args,message", [
        ({"seed": 5.5}, "seed must be a whole number"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"workers": 2.5}, "workers must be a whole number"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"workers": -1}, "workers must be >= 1"),
    ])
    def test_engine_needs_whole_seeds_and_workers(self, args, message):
        args = {"seed": 1, **args}
        with pytest.raises(ValueError, match=message):
            run_trials(CFG, "a1", 100, **args)
        with pytest.raises(ValueError, match=message):
            run_coupled(CFG, [Scheduler.ES_FDHD, Scheduler.A1_OPA], 100, **args)

    def test_engine_takes_whole_float_seeds_and_workers(self):
        expected = run_trials(CFG, "a1", 5000, seed=5)
        assert run_trials(CFG, "a1", 5000, seed=5.0, workers=2.0) == expected

    # A str is a sequence of letters, so a bare name would be read letter by letter.
    @pytest.mark.parametrize("name", ["a1", "es-fdhd", Scheduler.A1], ids=["a1", "es-fdhd", "enum"])
    def test_sweep_refuses_a_bare_scheduler_name(self, name):
        with pytest.raises(ValueError, match=r"schedulers must be a sequence, e\.g\. \['"):
            run_sweep({}, "p0_dbm", [1.0], name, 100, 0)

    @pytest.mark.parametrize("name", ["a1", "es-fdhd", Scheduler.A1], ids=["a1", "es-fdhd", "enum"])
    def test_coupled_run_refuses_a_bare_scheduler_name(self, name):
        with pytest.raises(ValueError, match=r"schedulers must be a sequence, e\.g\. \['"):
            run_coupled(CFG, name, 100, 0)

    def test_scheduler_list_must_be_non_empty(self):
        with pytest.raises(ValueError):
            sim._run_arrays([(CFG, [])], 100, seed=1)
        with pytest.raises(ValueError):
            run_sweep({}, "p0_dbm", (1.0,), (), 100, 0)


class TestCoupling:
    def test_coupled_runs_see_identical_draws(self):
        stats, arrays = run_coupled(
            CFG, [Scheduler.ES_FDHD, Scheduler.ES_FD, Scheduler.A2_OPA], 4_000, seed=31
        )
        top = arrays[Scheduler.ES_FDHD]["r_ul"] + arrays[Scheduler.ES_FDHD]["r_dl"]
        es = arrays[Scheduler.ES_FD]["r_ul"] + arrays[Scheduler.ES_FD]["r_dl"]
        assert np.all(top >= es)
        assert stats[Scheduler.ES_FDHD].mean_sum_rate >= stats[Scheduler.ES_FD].mean_sum_rate

    def test_dominance_check_flags_corrupted_arrays(self, monkeypatch):
        _, arrays = run_coupled(CFG, [Scheduler.ES_FDHD, Scheduler.A2_OPA], 1_000, seed=33)
        corrupted = dict(arrays)
        corrupted[Scheduler.ES_FDHD] = {
            "r_ul": arrays[Scheduler.ES_FDHD]["r_ul"] * 0.0,
            "r_dl": arrays[Scheduler.ES_FDHD]["r_dl"] * 0.0,
            "fd": arrays[Scheduler.ES_FDHD]["fd"],
        }
        assert dominance_violations(corrupted)
        monkeypatch.setattr(sim, "dominance_violations", lambda arrays: ["injected"])
        with pytest.raises(RuntimeError, match="injected"):
            run_coupled(CFG, [Scheduler.ES_FDHD], 100, seed=1)

    def test_opa_corner_violation_is_reported(self):
        ones, zeros = np.ones(3), np.zeros(3)
        arrays = {Scheduler.A2_OPA: {"r_ul": zeros, "r_dl": ones, "pair_hd_ul": ones + 0.5,
                                     "pair_hd_dl": ones}}
        assert dominance_violations(arrays) == ["a2-opa < pair_hd_ul on 3 trials"]

    def test_sinr_samples_shape_and_sign(self):
        _, arrays = run_coupled(CFG, [Scheduler.A1], 5_000, seed=35)
        for key in ("gamma_ul", "gamma_dl"):
            gamma = arrays[Scheduler.A1][key]
            assert gamma.shape == (5_000,) and np.all(gamma >= 0)


class TestSweeps:
    def test_single_value_sweep_equals_direct_run(self):
        base = {"k_u": 5, "k_d": 5}
        rows = run_sweep(base, "si_cancellation_db", (80.0,), (Scheduler.A2_OPA,),
                         n_trials=5_000, seed=51)
        assert len(rows) == 1
        config = resolve_config(base, "si_cancellation_db", 80.0)
        direct = run_trials(config, Scheduler.A2_OPA, 5_000, derived_trial_seed(51, 0))
        assert rows[0].stats == direct

    def test_scheduler_listed_twice_gives_its_rows_twice(self):
        rows = run_sweep({}, "p0_dbm", (20.0, 24.0), iter(["a1", "hd-tdd", "a1"]), 500, seed=52)
        assert [(pt.scheduler.value, pt.value) for pt in rows] == [
            (s, v) for s in ("a1", "hd-tdd", "a1") for v in (20.0, 24.0)]
        assert rows[0] == rows[4] and rows[1] == rows[5]

    def test_k_users_sweep_sets_both_sides(self):
        config = resolve_config({}, "k_users", 7)
        assert config.k_u == 7 and config.k_d == 7

    def test_pu_scale_rule(self):
        config = resolve_config({"pu_dbm_scale": 0.95, "p0_dbm": 20.0})
        assert config.pu_max == pytest.approx(10.0 ** (0.95 * 20.0 / 10.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep({}, "p0_dbm", (), [Scheduler.A1], 100, 0)
        with pytest.raises(ValueError):
            run_sweep({}, "p0_dbm", (1.0, 3.0, 2.0), [Scheduler.A1], 100, 0)
        with pytest.raises(ValueError):
            run_sweep({}, "bandwidth", (1.0,), [Scheduler.A1], 100, 0)
        with pytest.raises(ValueError):
            run_sweep({}, "p0_dbm", (1.0,), [Scheduler.A1], 0, 0)
        with pytest.raises(ValueError):
            run_sweep({"bogus": 1}, "p0_dbm", (1.0,), [Scheduler.A1], 100, 0)

    def test_si_sweep_fd_fraction_monotone(self):
        rows = run_sweep(
            base_config={"p0_dbm": 0.0, "pu_dbm": 0.0, "k_u": 5, "k_d": 5,
                         "bandwidth_hz": 1e7},
            swept_parameter="si_cancellation_db",
            values=tuple(float(v) for v in range(60, 111, 10)),
            schedulers=(Scheduler.A2_OPA,),
            n_trials=20_000,
            seed=53,
        )
        fracs = [pt.stats.fd_fraction for pt in rows]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > fracs[0]
