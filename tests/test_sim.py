"""Monte Carlo engine: determinism, coupling, aggregation, and agreement
with a plain-Python reference that enumerates every pair and power corner
one realization at a time."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from fdsched import power, scheduling, sim
from fdsched.model import SystemConfig, config_from_db, draw_realization
from fdsched.sim import (
    BLOCK_SIZE,
    Scheduler,
    SweepSpec,
    derived_trial_seed,
    dominance_violations,
    resolve_config,
    run_coupled,
    run_sweep,
    run_trials,
    selected_sinr_samples,
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
        short = sim._run_arrays(CFG, [Scheduler.A2_OPA], BLOCK_SIZE + 7, seed=12)[Scheduler.A2_OPA]
        long = sim._run_arrays(CFG, [Scheduler.A2_OPA], 3 * BLOCK_SIZE, seed=12)[Scheduler.A2_OPA]
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

        def quiet_draw(cfg, rng):
            g_ul, g_dl, g_x = real_draw(cfg, rng)
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
            arrays = sim._run_arrays(config, [sched], self.N, seed=20 + c)[sched]
            g_ul, g_dl, g_x = sim._draw_block(config, sim._block_rng(20 + c, 0))
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


class TestSharedDraws:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_multi_scheduler_run_matches_single_runs(self, workers):
        n = 2 * BLOCK_SIZE + 7
        shared = sim._run_arrays(CFG, list(Scheduler), n, seed=61, workers=workers)
        assert list(shared) == list(Scheduler)
        for sched in Scheduler:
            alone = sim._run_arrays(CFG, [sched], n, seed=61, workers=workers)[sched]
            assert shared[sched].keys() == alone.keys()
            for key, values in alone.items():
                assert shared[sched][key].dtype == values.dtype
                assert shared[sched][key].tobytes() == values.tobytes()

    def test_shared_outputs_survive_thread_contention(self):
        # More workers than cores and a tiny switch interval: a lost
        # allocation or write of a shared output array would show here.
        n = 6 * BLOCK_SIZE + 3
        serial = sim._run_arrays(CFG, list(Scheduler), n, seed=63, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = sim._run_arrays(CFG, list(Scheduler), n, seed=63, workers=4)
        finally:
            sys.setswitchinterval(interval)
        for sched in Scheduler:
            for key, values in serial[sched].items():
                assert threaded[sched][key].tobytes() == values.tobytes()

    def test_each_block_is_drawn_once_per_sweep_point(self, monkeypatch):
        draws = []
        real_draw = sim._draw_block

        def counting_draw(cfg, rng):
            draws.append(cfg.k_u)
            return real_draw(cfg, rng)

        monkeypatch.setattr(sim, "_draw_block", counting_draw)
        spec = SweepSpec("k_users", (2, 3, 4), ("a2-opa", "es-fdhd", "hd-tdd"),
                         {"si_cancellation_db": 80.0}, BLOCK_SIZE + 1, seed=62)
        rows = run_sweep(spec)
        assert draws == [2, 2, 3, 3, 4, 4]
        # Scheduler-major rows, each equal to a run of that scheduler alone.
        assert [(pt.scheduler, pt.value) for pt in rows] == [
            (s, k) for s in spec.schedulers for k in spec.values]
        for pt in rows:
            config = resolve_config(spec.base_config, "k_users", pt.value)
            seed = derived_trial_seed(62, spec.values.index(pt.value))
            assert pt.stats == run_trials(config, pt.scheduler, spec.n_trials, seed)

    def test_es_tie_order_matches_scalar_search(self, monkeypatch):
        # With p0 = pu = s0 = sd = 1 and no SI, a zero cross gain makes the
        # UL rate of gain a and the DL rate of gain b the same function, so
        # pairs (u, d) and (u', d') whose gains swap tie exactly on the sum
        # rate but split it differently between UL and DL.  Gains from
        # {1, 2, 3} make such ties common; a cross gain of 50 takes a pair
        # out of contention.  The reference is the plain-Python pair search.
        config = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 3, 3)

        def tied_draw(cfg, rng):
            g_ul = rng.integers(1, 4, (BLOCK_SIZE, cfg.k_u)).astype(float)
            g_dl = rng.integers(1, 4, (BLOCK_SIZE, cfg.k_d)).astype(float)
            g_x = rng.choice([0.0, 50.0], (BLOCK_SIZE, cfg.k_d, cfg.k_u))
            return g_ul, g_dl, g_x

        monkeypatch.setattr(sim, "_draw_block", tied_draw)
        n = 400
        arrays = sim._run_arrays(config, [Scheduler.ES_FD, Scheduler.ES_FDHD], n, seed=71)
        g_ul, g_dl, g_x = tied_draw(config, sim._block_rng(71, 0))
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
                for key, v in scheduling.evaluate(s, config, g_ul, g_dl, g_x).items():
                    reference[s].setdefault(key, []).append(v)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 13 * 8 * k_u * k_d)  # 13 rows, 4096 % 13 = 1
        assert sim._chunk_rows(config) == 13
        for workers in (1, 2):
            arrays = sim._run_arrays(config, list(Scheduler), n, seed, workers=workers)
            for s in Scheduler:
                assert arrays[s].keys() == reference[s].keys()
                for key, parts in reference[s].items():
                    expected = np.concatenate(parts)[:n]
                    assert arrays[s][key].dtype == expected.dtype
                    assert arrays[s][key].tobytes() == expected.tobytes(), (s, key, workers)

    def test_chunk_rows_bound_the_cross_gains(self):
        assert sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=15, k_d=15)) == BLOCK_SIZE
        for k_u, k_d in [(64, 64), (7, 300), (100, 100)]:
            rows = sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=k_u, k_d=k_d))
            assert 1 <= rows < BLOCK_SIZE and 8 * rows * k_u * k_d <= sim.CHUNK_BYTES
        assert sim._chunk_rows(config_from_db(24.0, 23.0, 80.0, k_u=2000, k_d=2000)) == 1

    @pytest.mark.parametrize("n_trials", [100, BLOCK_SIZE + 7])
    def test_short_runs_evaluate_only_the_rows_they_use(self, monkeypatch, n_trials):
        rows = []
        real_evaluate = sim._evaluate_block

        def counting_evaluate(scheduler, config, g_ul, g_dl, g_x):
            rows.append(len(g_ul))
            return real_evaluate(scheduler, config, g_ul, g_dl, g_x)

        monkeypatch.setattr(sim, "_evaluate_block", counting_evaluate)
        monkeypatch.setattr(sim, "CHUNK_BYTES", 1000 * 8 * 6 * 6)
        run_trials(SystemConfig(1.0, 1.0, 1e-9, 0.03, 1e-8, 6, 6), "es-fdhd", n_trials, seed=65)
        assert sum(rows) == n_trials and max(rows) <= 1000

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


class TestInputChecks:
    @pytest.mark.parametrize("p0,pu", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_power_rejected_on_both_paths(self, p0, pu):
        # Every scheduler but HD-TDD, as a scalar view and in the engine.
        config = SystemConfig(p0, pu, 1.0, 1.0, 1e-3, 2, 2)
        ch = draw_realization(config, np.random.default_rng(0))
        scalar = [scheduling.select_a1, scheduling.select_a2, scheduling.select_a3,
                  scheduling.select_es_fd, scheduling.select_es_fdhd,
                  lambda ch, config: power.opa(ch, 0, 0, config)]
        for view in scalar:
            with pytest.raises(ValueError, match="positive p0_max and pu_max"):
                view(ch, config)
        for sched in Scheduler:
            if sched is Scheduler.HD_TDD:
                assert run_trials(config, sched, 100, seed=1).n_trials == 100
                continue
            with pytest.raises(ValueError, match="positive p0_max and pu_max"):
                run_trials(config, sched, 100, seed=1)
        with pytest.raises(ValueError, match="positive p0_max and pu_max"):
            run_coupled(config, [Scheduler.HD_TDD, Scheduler.A2_OPA], 100, seed=1)
        scheduling.select_hd_tdd(ch, config)

    def test_system_config_needs_whole_user_counts(self):
        assert SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 5.0, 3).k_u == 5
        with pytest.raises(ValueError, match="whole number"):
            SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 2.5, 3)

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
            SweepSpec("k_users", (2.5, 3.7), Scheduler.A1, {}, 100, 0)

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

    def test_scheduler_list_must_be_non_empty(self):
        with pytest.raises(ValueError):
            sim._run_arrays(CFG, [], 100, seed=1)
        with pytest.raises(ValueError):
            SweepSpec("p0_dbm", (1.0,), (), {}, 100, 0)


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

    def test_selected_sinr_samples_shape_and_law(self):
        g_ul, g_dl = selected_sinr_samples(CFG, Scheduler.A1, 5_000, seed=35)
        assert g_ul.shape == (5_000,) and g_dl.shape == (5_000,)
        assert np.all(g_ul >= 0) and np.all(g_dl >= 0)
        with pytest.raises(ValueError):
            selected_sinr_samples(CFG, Scheduler.ES_FD, 100, seed=1)


class TestSweeps:
    def test_single_value_sweep_equals_direct_run(self):
        spec = SweepSpec(
            swept_parameter="si_cancellation_db",
            values=(80.0,),
            schedulers=(Scheduler.A2_OPA,),
            base_config={"k_u": 5, "k_d": 5},
            n_trials=5_000,
            seed=51,
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        config = resolve_config(spec.base_config, "si_cancellation_db", 80.0)
        direct = run_trials(config, Scheduler.A2_OPA, 5_000, derived_trial_seed(51, 0))
        assert rows[0].stats == direct

    def test_k_users_sweep_sets_both_sides(self):
        config = resolve_config({}, "k_users", 7)
        assert config.k_u == 7 and config.k_d == 7

    def test_pu_scale_rule(self):
        config = resolve_config({"pu_dbm_scale": 0.95, "p0_dbm": 20.0})
        assert config.pu_max == pytest.approx(10.0 ** (0.95 * 20.0 / 10.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("p0_dbm", (), Scheduler.A1, {}, 100, 0)
        with pytest.raises(ValueError):
            SweepSpec("p0_dbm", (1.0, 3.0, 2.0), Scheduler.A1, {}, 100, 0)
        with pytest.raises(ValueError):
            SweepSpec("bandwidth", (1.0,), Scheduler.A1, {}, 100, 0)
        with pytest.raises(ValueError):
            SweepSpec("p0_dbm", (1.0,), Scheduler.A1, {}, 0, 0)
        with pytest.raises(ValueError):
            SweepSpec("p0_dbm", (1.0,), Scheduler.A1, {"bogus": 1}, 100, 0)

    def test_si_sweep_fd_fraction_monotone(self):
        spec = SweepSpec(
            swept_parameter="si_cancellation_db",
            values=tuple(float(v) for v in range(60, 111, 10)),
            schedulers=(Scheduler.A2_OPA,),
            base_config={"p0_dbm": 0.0, "pu_dbm": 0.0, "k_u": 5, "k_d": 5,
                         "bandwidth_hz": 1e7},
            n_trials=20_000,
            seed=53,
        )
        fracs = [pt.stats.fd_fraction for pt in run_sweep(spec)]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > fracs[0]
