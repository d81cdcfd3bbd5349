"""Selection rules against brute-force scans, decoupling, and baselines."""

import math
import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from fdsched import scheduling, sim
from fdsched.power import opa
from fdsched.model import (
    ChannelRealization, SystemConfig, config_from_db, draw_realization, log2_1p, rates, sinr,
)
from fdsched.scheduling import (
    OPA_BASE,
    DuplexMode,
    Schedule,
    Scheduler,
    evaluate,
    select_a1,
    select_a2,
    select_a3,
    select_es_fd,
    select_es_fdhd,
    select_hd_tdd,
)

CFG = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 5, 5)


def make_ch(g_ul, g_dl, g_x):
    return ChannelRealization(
        g_ul=np.asarray(g_ul, float),
        g_dl=np.asarray(g_dl, float),
        g_x=np.asarray(g_x, float),
    )


def random_ch(rng, cfg=CFG):
    return draw_realization(cfg, rng)


class TestA1:
    def test_picks_argmax(self):
        ch = make_ch([0.5, 2.0, 1.0], [3.0, 0.1],
                     np.ones((2, 3)))
        cfg = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 3, 2)
        s = select_a1(ch, cfg)
        assert (s.ul, s.dl) == (1, 0)
        assert s.mode is DuplexMode.FD
        assert s.p0 == cfg.p0_max and s.pu == cfg.pu_max

    def test_singleton(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        s = select_a1(make_ch([0.3], [0.7], [[0.2]]), cfg)
        assert (s.ul, s.dl) == (0, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            ch = random_ch(rng)
            s = select_a1(ch, CFG)
            assert s.ul == max(range(CFG.k_u), key=lambda u: ch.g_ul[u])
            assert s.dl == max(range(CFG.k_d), key=lambda d: ch.g_dl[d])

    def test_tie_breaks_to_lowest_index(self):
        ch = make_ch([2.0, 2.0, 1.0], [1.0, 1.0], np.ones((2, 3)))
        cfg = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 3, 2)
        s = select_a1(ch, cfg)
        assert (s.ul, s.dl) == (0, 0)

    def test_decoupled_from_cross_gains(self):
        rng = np.random.default_rng(3)
        ch = random_ch(rng)
        scrambled = ChannelRealization(
            g_ul=ch.g_ul, g_dl=ch.g_dl,
            g_x=rng.standard_exponential(ch.g_x.shape),
        )
        assert select_a1(ch, CFG) == select_a1(scrambled, CFG)
        # UL choice blind to DL gains, and vice versa.
        swapped_dl = ChannelRealization(
            g_ul=ch.g_ul, g_dl=rng.standard_exponential(ch.g_dl.shape),
            g_x=ch.g_x,
        )
        assert select_a1(swapped_dl, CFG).ul == select_a1(ch, CFG).ul
        swapped_ul = ChannelRealization(
            g_ul=rng.standard_exponential(ch.g_ul.shape), g_dl=ch.g_dl,
            g_x=ch.g_x,
        )
        assert select_a1(swapped_ul, CFG).dl == select_a1(ch, CFG).dl

    def test_scale_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            ch = random_ch(rng)
            scaled = ChannelRealization(
                g_ul=3.7 * ch.g_ul, g_dl=0.04 * ch.g_dl, g_x=ch.g_x
            )
            base = select_a1(ch, CFG)
            other = select_a1(scaled, CFG)
            assert (base.ul, base.dl) == (other.ul, other.dl)


class TestA2:
    def test_reduces_to_a1_without_interference(self):
        rng = np.random.default_rng(4)
        ch = random_ch(rng)
        quiet = ChannelRealization(
            g_ul=ch.g_ul, g_dl=ch.g_dl, g_x=np.zeros_like(ch.g_x)
        )
        assert select_a2(quiet, CFG).dl == select_a1(quiet, CFG).dl

    def test_avoids_jammed_user(self):
        g_x = np.zeros((2, 1))
        g_x[1, 0] = 10.0
        ch = make_ch([1.0], [1.0, 1.0], g_x)
        cfg = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 1, 2)
        assert select_a2(ch, cfg).dl == 0

    def test_matches_brute_force_sinr_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            ch = random_ch(rng)
            s = select_a2(ch, CFG)
            ul = int(np.argmax(ch.g_ul))
            best = max(
                range(CFG.k_d),
                key=lambda d: CFG.p0_max * ch.g_dl[d]
                / (CFG.pu_max * ch.g_x[d, ul] + CFG.sigmaD_sq),
            )
            assert (s.ul, s.dl) == (ul, best)

    def test_reads_only_selected_column(self):
        rng = np.random.default_rng(31)
        ch = random_ch(rng)
        ul = int(np.argmax(ch.g_ul))
        g_x = rng.standard_exponential(ch.g_x.shape)
        g_x[:, ul] = ch.g_x[:, ul]
        scrambled = ChannelRealization(ch.g_ul, ch.g_dl, g_x)
        assert select_a2(ch, CFG) == select_a2(scrambled, CFG)


class TestA3:
    def test_reduces_to_a1_without_leakage(self):
        rng = np.random.default_rng(6)
        ch = random_ch(rng)
        quiet = ChannelRealization(
            g_ul=ch.g_ul, g_dl=ch.g_dl, g_x=np.zeros_like(ch.g_x)
        )
        assert select_a3(quiet, CFG).ul == select_a1(quiet, CFG).ul

    def test_avoids_leaky_user(self):
        g_x = np.array([[10.0, 0.0]])
        ch = make_ch([1.0, 1.0], [1.0], g_x)
        cfg = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 2, 1)
        assert select_a3(ch, cfg).ul == 1

    def test_matches_brute_force_slnr_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            ch = random_ch(rng)
            s = select_a3(ch, CFG)
            dl = int(np.argmax(ch.g_dl))
            best = max(
                range(CFG.k_u),
                key=lambda u: CFG.pu_max * ch.g_ul[u]
                / (CFG.pu_max * ch.g_x[dl, u] + CFG.sigma0_sq),
            )
            assert (s.ul, s.dl) == (best, dl)

    def test_reads_only_selected_row(self):
        rng = np.random.default_rng(41)
        ch = random_ch(rng)
        dl = int(np.argmax(ch.g_dl))
        g_x = rng.standard_exponential(ch.g_x.shape)
        g_x[dl, :] = ch.g_x[dl, :]
        scrambled = ChannelRealization(ch.g_ul, ch.g_dl, g_x)
        assert select_a3(ch, CFG) == select_a3(scrambled, CFG)


class TestExhaustiveSearch:
    def test_singleton_pair(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        s = select_es_fd(make_ch([0.3], [0.7], [[0.2]]), cfg)
        assert (s.ul, s.dl) == (0, 0)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            ch = random_ch(rng)
            s = select_es_fd(ch, CFG)
            best_pair, best_rate = None, -1.0
            for u in range(CFG.k_u):
                for d in range(CFG.k_d):
                    r = rates(ch, Schedule(u, d, CFG.p0_max, CFG.pu_max), CFG).r_sum
                    if r > best_rate:
                        best_pair, best_rate = (u, d), r
            assert (s.ul, s.dl) == best_pair

    # UL user 1's rate swamps both DL rates, so its pairs with d = 0 and d = 1
    # have the same rounded sum at different DL SINRs: the lexicographic
    # (u, d) search takes d = 0, not the DL user of highest SINR.
    TIE_CFG = SystemConfig(1.0, 1.0, 1e-18, 1.0, 0.0, 2, 2)
    TIE_GAINS = [1.0, 2.0], [1e-20, 2e-20], np.ones((2, 2))

    def test_rounded_sum_tie_goes_to_lowest_dl(self):
        for select in (select_es_fd, select_es_fdhd):
            s = select(make_ch(*self.TIE_GAINS), self.TIE_CFG)
            assert (s.ul, s.dl) == (1, 0)
        gains = (np.asarray(g, float)[None] for g in self.TIE_GAINS)
        out = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], self.TIE_CFG, *gains)
        for rows in out.values():
            assert rows["fd"][0]
            assert rows["r_dl"][0] == log2_1p(1e-20 / 2.0)  # d = 0's SINR under UL leakage

    def test_exact_tie_goes_to_lowest_ul(self):
        # UL users 0 and 2 are the same user; each pairs best with DL user 1.
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 3, 2)
        ch = make_ch([2.0, 1.0, 2.0], [1.0, 3.0], [[1.0, 1.0, 1.0], [2.0, 1.0, 2.0]])
        for select in (select_es_fd, select_es_fdhd):
            s = select(ch, cfg)
            assert (s.ul, s.dl) == (0, 1)

    def test_search_memory_is_a_fraction_of_the_cross_gains(self):
        config = config_from_db(24.0, 23.0, 80.0, k_u=64, k_d=64)
        gains = _exponential_block(config, np.random.default_rng(67), n=256)
        tracemalloc.start()
        try:
            evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, *gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gains[2].nbytes / 4

    def test_dominates_a2(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            ch = random_ch(rng)
            r_es = rates(ch, select_es_fd(ch, CFG), CFG).r_sum
            r_a2 = rates(ch, select_a2(ch, CFG), CFG).r_sum
            assert r_es >= r_a2

    def test_fdhd_prefers_fd_without_interference(self):
        rng = np.random.default_rng(53)
        cfg = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.0, 5, 5)
        for _ in range(50):
            base = draw_realization(cfg, rng)
            ch = ChannelRealization(base.g_ul, base.g_dl, np.zeros_like(base.g_x))
            assert select_es_fdhd(ch, cfg).mode is DuplexMode.FD

    def test_fdhd_collapses_to_hd_under_crushing_interference(self):
        rng = np.random.default_rng(59)
        cfg = SystemConfig(1.0, 1.0, 0.5, 0.5, 1e12, 3, 3)
        for _ in range(20):
            base = draw_realization(cfg, rng)
            ch = ChannelRealization(
                base.g_ul, base.g_dl, np.full_like(base.g_x, 1e12)
            )
            s = select_es_fdhd(ch, cfg)
            assert s.mode in (DuplexMode.HD_UL, DuplexMode.HD_DL)

    def test_fdhd_dominates_everything(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            ch = random_ch(rng)
            top = rates(ch, select_es_fdhd(ch, CFG), CFG).r_sum
            for select in (select_a1, select_a2, select_a3, select_es_fd):
                assert top >= rates(ch, select(ch, CFG), CFG).r_sum - 1e-12


class TestHdTdd:
    def test_equal_split_of_unit_sinrs(self):
        # Both single-link SNRs equal 3 -> half of 2 bits each.
        ch = make_ch([3.0, 1.0], [1.5, 0.2], np.ones((2, 2)))
        cfg = SystemConfig(2.0, 1.0, 1.0, 1.0, 0.0, 2, 2)
        out = select_hd_tdd(ch, cfg)
        assert out.r_ul == pytest.approx(1.0, rel=1e-12)
        assert out.r_dl == pytest.approx(1.0, rel=1e-12)
        assert out.r_sum == pytest.approx(2.0, rel=1e-12)

    def test_dead_downlink(self):
        # A dead link is no operating point: the config refuses it for HD-TDD too.
        with pytest.raises(ValueError, match="positive p0_max and pu_max"):
            SystemConfig(0.0, 1.0, 1.0, 1.0, 0.0, 1, 1)

    def test_double_entry(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            ch = random_ch(rng)
            out = select_hd_tdd(ch, CFG)
            expect = 0.5 * math.log2(1 + CFG.pu_max * ch.g_ul.max() / CFG.sigma0_sq) \
                + 0.5 * math.log2(1 + CFG.p0_max * ch.g_dl.max() / CFG.sigmaD_sq)
            assert out.r_sum == pytest.approx(expect, rel=1e-12)


class TestSiFromTheConfig:
    """The SI gain is the config's alone: a snapshot drawn under one config
    and judged under another SI gain gets the kernel's answer at that gain."""

    VIEWS = {Scheduler.A1: select_a1, Scheduler.A2: select_a2, Scheduler.A3: select_a3,
             Scheduler.ES_FD: select_es_fd, Scheduler.ES_FDHD: select_es_fdhd}

    @pytest.mark.parametrize("si_db", [80.0, 110.0, 120.0])
    def test_views_and_opa_match_evaluate_at_the_config(self, si_db):
        # Drawn at 80 dB cancellation, where every OPA pair is half duplex.
        drawn = config_from_db(24.0, 23.0, 80.0, k_u=3, k_d=3)
        config = replace(drawn, si_gain=config_from_db(24.0, 23.0, si_db).si_gain)
        rng = np.random.default_rng(83)
        modes = set()
        for _ in range(40):
            ch = draw_realization(drawn, rng)
            out = evaluate(list(Scheduler), config, ch.g_ul[None], ch.g_dl[None], ch.g_x[None])
            for rule, view in self.VIEWS.items():
                s, rows = view(ch, config), out[rule]
                assert (s.mode is DuplexMode.FD) == rows["fd"][0], rule
                got = rates(ch, s, config)
                assert (got.r_ul, got.r_dl) == pytest.approx((rows["r_ul"][0], rows["r_dl"][0]), rel=1e-12)
            tdd = select_hd_tdd(ch, config)
            assert (tdd.r_ul, tdd.r_dl) == (out[Scheduler.HD_TDD]["r_ul"][0], out[Scheduler.HD_TDD]["r_dl"][0])
            for rule, base in OPA_BASE.items():
                pair, rows = self.VIEWS[base](ch, config), out[rule]
                d = opa(ch, pair.ul, pair.dl, config)
                modes.add(d.mode)
                assert d.fast_path == rows["fast"][0] and (d.mode is DuplexMode.FD) == rows["fd"][0], rule
                got = rates(ch, d, config)
                expect = ((rows["r_ul"][0], rows["r_dl"][0]) if d.mode is DuplexMode.FD
                          else (rows["pair_hd_ul"][0] * (d.pu > 0), rows["pair_hd_dl"][0] * (d.p0 > 0)))
                assert (got.r_ul, got.r_dl) == pytest.approx(expect, rel=1e-12), rule
        assert (DuplexMode.FD in modes) == (si_db > 80.0) and DuplexMode.HD_DL in modes


def _exponential_block(config, rng, n=700):
    return (rng.standard_exponential((n, config.k_u)), rng.standard_exponential((n, config.k_d)),
            rng.standard_exponential((n, config.k_d, config.k_u)))


def _integer_block(config, rng, n=700):
    # Small integer gains: argmax ties, pair-search ties and corner ties.
    return (rng.integers(1, 4, (n, config.k_u)).astype(float),
            rng.integers(1, 4, (n, config.k_d)).astype(float),
            rng.choice([0.0, 1.0, 50.0], (n, config.k_d, config.k_u)))


class TestSharedKernel:
    """Evaluating a list of schedulers gives each one the bytes it gets when
    evaluated alone, whatever the other schedulers and their order."""

    @pytest.mark.parametrize("config,block", [
        (SystemConfig(1.0, 1.0, 1.0, 1.0, 1.0, 4, 3), _integer_block),
        (config_from_db(24.0, 23.0, 20.0, k_u=3, k_d=4), _exponential_block),   # weak SI: HD only
        (config_from_db(24.0, 23.0, 110.0, k_u=3, k_d=4), _exponential_block),  # all three modes
        (config_from_db(24.0, 23.0, 100.0, k_u=1, k_d=1), _exponential_block),
        (config_from_db(24.0, 23.0, 90.0, k_u=7, k_d=2), _exponential_block),
        (SystemConfig(2.0, 1.0, 1.0, 0.5, 0.3, 2, 5), _integer_block),
    ], ids=["integer-gains", "weak-si", "mixed-modes", "k-1", "ku-7-kd-2", "integer-ku-2-kd-5"])
    def test_list_matches_each_scheduler_alone(self, config, block):
        rng = np.random.default_rng(config.k_u * 10 + config.k_d)
        gains = block(config, rng)
        alone = {s: evaluate([s], config, *gains)[s] for s in Scheduler}
        everything = list(Scheduler)
        subsets = [everything, everything[::-1]]
        subsets += [[everything[i] for i in rng.permutation(len(everything))[:rng.integers(1, 10)]]
                    for _ in range(12)]
        for subset in subsets:
            together = evaluate(subset, config, *gains)
            assert list(together) == subset
            for s in subset:
                assert list(together[s]) == list(alone[s])
                for key, values in alone[s].items():
                    assert together[s][key].dtype == values.dtype, (subset, s, key)
                    assert together[s][key].tobytes() == values.tobytes(), (subset, s, key)

    def test_weak_si_sends_opa_rows_to_both_half_duplex_modes(self):
        # The weak-SI case above, with the same draws.
        config = config_from_db(24.0, 23.0, 20.0, k_u=3, k_d=4)
        out = evaluate(OPA_BASE, config, *_exponential_block(config, np.random.default_rng(34)))
        for s in OPA_BASE:
            hd = ~out[s]["fd"]
            assert hd.all()
            assert np.any(hd & (out[s]["r_dl"] == 0.0)) and np.any(hd & (out[s]["r_ul"] == 0.0))


class TestIndexPaths:
    """The kernel reads its inputs through flat-index takes and answers
    narrow row reductions column by column; each gives numpy's own result."""

    @staticmethod
    def _views(g_ul, g_dl, g_x):
        """Non-contiguous arrays equal to the gains: Fortran order,
        transposed copies and strided slices."""
        strided = [np.repeat(g, 2, axis=-1)[..., ::2] for g in (g_ul, g_dl, g_x)]
        return [
            [np.asfortranarray(g) for g in (g_ul, g_dl, g_x)],
            [np.ascontiguousarray(g_ul.T).T, np.ascontiguousarray(g_dl.T).T,
             np.ascontiguousarray(g_x.transpose(2, 0, 1)).transpose(1, 2, 0)],
            strided,
            [g[::2] for g in (np.repeat(g_ul, 2, axis=0), np.repeat(g_dl, 2, axis=0), np.repeat(g_x, 2, axis=0))],
        ]

    @pytest.mark.parametrize("k_u,k_d", [(1, 1), (2, 2), (5, 5), (3, 4)])
    @pytest.mark.parametrize("si_db", [20.0, 110.0])
    def test_non_contiguous_inputs_give_the_contiguous_bytes(self, k_u, k_d, si_db):
        config = config_from_db(24.0, 23.0, si_db, k_u=k_u, k_d=k_d)
        gains = _exponential_block(config, np.random.default_rng(10 * k_u + k_d), n=300)
        all_views = self._views(*gains)
        # a K = 1 array in Fortran order, or transposed, is C-contiguous too
        assert sum(not all(v.flags.c_contiguous for v in views) for views in all_views) == (
            2 if k_u == k_d == 1 else 4)
        for schedulers in (list(Scheduler), [Scheduler.ES_FDHD]):
            expect = evaluate(schedulers, config, *gains)
            for views in all_views:
                got = evaluate(schedulers, config, *views)
                for s in schedulers:
                    for key, values in expect[s].items():
                        assert got[s][key].tobytes() == values.tobytes(), (s, key)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_argmax_is_numpys(self, k):
        rng = np.random.default_rng(k)
        a = rng.choice([0.0, 1.0, 2.0, np.inf, -np.inf, np.nan], size=(2000, k))
        got = scheduling._argmax(a)
        assert got.dtype == np.intp
        assert got.tolist() == np.argmax(a, axis=1).tolist()

    @pytest.mark.parametrize("n", [0, 1, 16, 17, 100, 4096])
    @pytest.mark.parametrize("k", [1, 4, 9, 36, 37])
    def test_row_min_is_numpys(self, n, k):
        a = np.random.default_rng(n + k).choice([0.0, 0.5, 2.0, np.inf, np.nan], size=(n, k))
        assert scheduling._row_min(a).tobytes() == a.min(axis=1).tobytes()

    @pytest.mark.parametrize("n,k_d,k_u", [(0, 3, 2), (1, 64, 64), (17, 4, 9), (100, 36, 5), (100, 37, 5),
                                           (4096, 8, 8), (128, 64, 64)])
    def test_row_min_over_the_dl_users_is_numpys(self, n, k_d, k_u):
        a = np.random.default_rng(n + k_d).choice([0.0, 0.5, 2.0, np.inf, np.nan], size=(n, k_d, k_u))
        assert scheduling._row_min(a).tobytes() == a.min(axis=1).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 16, 17, 100])
    def test_fd_may_win_on_short_batches(self, n):
        # The bound of every row, from numpy's own min over the cross gains.
        for si_db in (20.0, 60.0, 120.0):
            config = config_from_db(24.0, 23.0, si_db, k_u=3, k_d=2)
            gains = _exponential_block(config, np.random.default_rng(n), n=n)
            batch = scheduling._Batch(config, *gains)
            (g_ul, g_dl), (hd_ul, hd_dl) = batch.star, batch.hd
            bound = (log2_1p(sinr(config.pu_max, g_ul, config.p0_max, config.si_gain, config.sigma0_sq))
                     + log2_1p(sinr(config.p0_max, g_dl, config.pu_max, gains[2].min(axis=(1, 2)),
                                    config.sigmaD_sq)))
            assert batch.fd_may_win == bool(np.any(bound * (1.0 + 1e-9) >= np.maximum(hd_ul, hd_dl)))


class TestTiledSearch:
    """The search's best DL SINR per (row, UL user), from the sweep over the
    DL users or from row tiles, is numpy's max over the whole SINR tensor.
    Each shape runs both paths; the comments give the one its size picks."""

    @pytest.mark.parametrize("n,k_d,k_u", [
        (37, 4, 5),      # swept
        (37, 31, 33),    # 1023 pairs: the last shape swept
        (37, 32, 32),    # 1024 pairs: the first shape tiled, 64-row tiles
        (130, 40, 30),   # 54-row tiles: 54 + 54 + 22
        (7, 300, 300),   # a row past a tile's pairs: one row a tile
    ])
    @pytest.mark.parametrize("path", ["sweep", "tiles"])
    def test_equals_the_max_over_every_pair(self, monkeypatch, n, k_d, k_u, path):
        monkeypatch.setattr(scheduling, "_TILE_FROM", 1 if path == "tiles" else k_d * k_u + 1)
        rng = np.random.default_rng(n + k_d)
        g_dl, g_x = rng.standard_exponential((n, k_d)), rng.standard_exponential((n, k_d, k_u))
        g_dl[:, 1], g_x[:, 1] = g_dl[:, 0], g_x[:, 0]  # DL users 0 and 1 tie everywhere
        g_x[3, 2, 1] = np.nan   # one pair's SINR is NaN
        g_dl[5, -1] = np.nan    # one DL user's SINR is NaN for every UL user
        p0, pu, sd = 1.5, 0.8, 0.3
        expect = (p0 * g_dl[:, :, None] / (pu * g_x + sd)).max(axis=1)
        got = scheduling._best_dl_sinr(p0, pu, sd, g_dl, g_x)
        assert got.tobytes() == expect.tobytes()
        assert np.isnan(got[3, 1]) and np.isnan(got[5]).all() and np.isnan(got).sum() == k_u + 1


class TestBoundedSearch:
    """ES-FDHD without ES-FD skips the search where FD can win no row, and
    gives the bytes it gives on the search it shares with ES-FD."""

    def test_weak_si_never_searches(self, search_rows):
        config = config_from_db(24.0, 23.0, 20.0, k_u=5, k_d=5)
        gains = _exponential_block(config, np.random.default_rng(71), n=4096)
        assert not evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]["fd"].any()
        ch = draw_realization(config, np.random.default_rng(72))
        assert select_es_fdhd(ch, config).mode is not DuplexMode.FD
        assert search_rows == []

    def test_weak_si_decides_once_from_the_head_and_one_flat_min(self, monkeypatch, search_rows):
        # fig4's 20 dB at K = 8: no row can win FD, which the head's 16 rows
        # and one min over the rest's cross gains settle.
        config = config_from_db(24.0, 23.0, 20.0, k_u=8, k_d=8)
        gains = _exponential_block(config, np.random.default_rng(1020), n=4096)
        rows, decisions = [], []
        row_min, decide = scheduling._row_min, scheduling._Batch.fd_may_win.func

        def count_rows(a):
            rows.append(len(a))
            return row_min(a)

        def count_decisions(batch):
            decisions.append(len(batch.g_ul))
            return decide(batch)

        spy = cached_property(count_decisions)
        spy.__set_name__(scheduling._Batch, "fd_may_win")
        monkeypatch.setattr(scheduling._Batch, "fd_may_win", spy)
        monkeypatch.setattr(scheduling, "_row_min", count_rows)
        monkeypatch.setattr(scheduling, "_best_dl_sinr", lambda *args: pytest.fail("the pairs were searched"))
        assert not evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]["fd"].any()
        assert sum(rows) <= 16 and decisions == [4096] and search_rows == []
        batch = scheduling._Batch(config, *gains, [Scheduler.ES_FDHD])
        batch.rows(Scheduler.ES_FDHD)
        assert batch.corner(Scheduler.ES_FDHD)[0] is None  # no pair: every row is half duplex
        assert decisions == [4096, 4096]

    # How fd_may_win decides, by the rows it bounds one by one (``_row_min``)
    # and the rows searched after it; a search first bounds its live pairs
    # over every row.
    BOUND_PATHS = {
        "head wins": ((16, 4096), (4096,)),
        "flat min rules FD out": ((16,), ()),
        "per-row min rules FD out": ((16, 4080), ()),
        "a row past the head wins": ((16, 4080, 4096), (4096,)),
    }

    def test_every_bound_path_gives_the_shared_bytes(self, monkeypatch, search_rows):
        rows, paths = [], set()
        row_min = scheduling._row_min

        def count_rows(a):
            rows.append(len(a))
            return row_min(a)

        monkeypatch.setattr(scheduling, "_row_min", count_rows)
        for si_db in range(20, 101, 10):
            config = config_from_db(24.0, 23.0, float(si_db), k_u=8, k_d=8)
            gains = _exponential_block(config, np.random.default_rng(1000 + si_db), n=4096)
            rows.clear()
            search_rows.clear()
            alone = evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
            paths.add((tuple(rows), tuple(search_rows)))
            shared = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
            for key, values in shared.items():
                assert alone[key].tobytes() == values.tobytes(), (si_db, key)
        assert paths == set(self.BOUND_PATHS.values())

    def test_strong_si_searches_every_row_once(self, search_rows):
        config = config_from_db(24.0, 23.0, 120.0, k_u=5, k_d=5)
        evaluate([Scheduler.ES_FDHD], config, *_exponential_block(config, np.random.default_rng(73), n=4096))
        assert search_rows == [4096]

    @pytest.mark.parametrize("k_u,k_d", [(1, 1), (1, 2), (2, 5), (5, 2), (15, 5), (2, 15)])
    def test_equals_the_shared_search(self, search_rows, k_u, k_d):
        rng = np.random.default_rng(10 * k_u + k_d)
        paths = set()
        for si_db in range(0, 121, 5):
            config = config_from_db(24.0, 23.0, float(si_db), k_u=k_u, k_d=k_d)
            gains = _exponential_block(config, rng, n=400)
            if si_db % 10:  # zero cross gains keep FD alive: only on every other level
                gains[2][::7] = 0.0            # rows without cross gains
                gains[2][3::7, -1, 0] = 0.0    # rows with one zero cross gain
            search_rows.clear()
            alone = evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
            assert search_rows in ([], [400])
            paths.add(len(search_rows))
            shared = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
            assert list(alone) == list(shared)
            for key, values in shared.items():
                assert alone[key].tobytes() == values.tobytes(), (si_db, key)
            for i in range(0, 400, 23):  # the one-row scalar view
                ch = ChannelRealization(gains[0][i], gains[1][i], gains[2][i])
                s = select_es_fdhd(ch, config)
                assert (s.mode is DuplexMode.FD) == shared["fd"][i]
                if s.mode is DuplexMode.FD:
                    es = select_es_fd(ch, config)
                    assert (s.ul, s.dl) == (es.ul, es.dl)
                else:
                    assert (s.mode is DuplexMode.HD_UL) == (shared["r_dl"][i] == 0.0)
        assert paths == {0, 1}

    @pytest.mark.parametrize("row", [0, 15, 16, 99])
    def test_one_row_where_fd_may_win_searches_all(self, search_rows, row):
        # 20 dB cancellation leaves FD no row; a zero cross gain and strong
        # UL revive one row, before, at or past the leading rows' end.
        config = config_from_db(24.0, 23.0, 20.0, k_u=3, k_d=3)
        g_ul, g_dl, g_x = _exponential_block(config, np.random.default_rng(74), n=100)
        g_ul[row], g_x[row] = 1e3 * g_ul[row], 0.0
        alone = evaluate([Scheduler.ES_FDHD], config, g_ul, g_dl, g_x)[Scheduler.ES_FDHD]
        assert search_rows == [100]
        assert np.flatnonzero(alone["fd"]).tolist() == [row]
        shared = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, g_ul, g_dl, g_x)[Scheduler.ES_FDHD]
        for key, values in shared.items():
            assert alone[key].tobytes() == values.tobytes(), key

    def test_bound_equal_to_the_best_single_link_is_searched(self, search_rows):
        # Row 0 has a dead UL and a zero cross gain at d* = 0: its bound, the
        # FD sum of pair (0, 0) and its HD-DL rate are one number, and the tie
        # goes to FD.  Rows 1 and 2 leak so much that FD cannot win there.
        config = SystemConfig(1.0, 1.0, 1.0, 1.0, 1.0, 2, 2)
        g_ul = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        g_dl = np.array([[3.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        g_x = np.array([[[0.0, 2.0], [1.0, 1.0]]] + 2 * [np.full((2, 2), 1e6)])
        alone = evaluate([Scheduler.ES_FDHD], config, g_ul, g_dl, g_x)[Scheduler.ES_FDHD]
        assert search_rows == [3]
        assert alone["fd"].tolist() == [True, False, False]
        shared = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, g_ul, g_dl, g_x)[Scheduler.ES_FDHD]
        for key, values in shared.items():
            assert alone[key].tobytes() == values.tobytes(), key
        s = select_es_fdhd(ChannelRealization(g_ul[0], g_dl[0], g_x[0]), config)
        assert (s.mode, s.ul, s.dl) == (DuplexMode.FD, 0, 0)


def _enumerate_fdhd(ch, config):
    """ES-FDHD by plain-Python enumeration: ``(mode, ul, dl)`` of the first
    (u, d) pair of highest FD sum rate, or of the better gain-max single link."""
    pair, fd_sum = None, -math.inf
    for u in range(config.k_u):
        for d in range(config.k_d):
            r = rates(ch, Schedule(u, d, config.p0_max, config.pu_max), config).r_sum
            if r > fd_sum:
                pair, fd_sum = (u, d), r
    u_star, d_star = int(np.argmax(ch.g_ul)), int(np.argmax(ch.g_dl))
    hd_ul = rates(ch, Schedule(u_star, None, 0.0, config.pu_max), config).r_sum
    hd_dl = rates(ch, Schedule(None, d_star, config.p0_max, 0.0), config).r_sum
    if fd_sum >= max(hd_ul, hd_dl):
        return (DuplexMode.FD, *pair)
    return (DuplexMode.HD_UL, u_star, None) if hd_ul >= hd_dl else (DuplexMode.HD_DL, None, d_star)


class TestLiveSearch:
    """ES-FDHD without ES-FD searches only its live (row, UL user) pairs,
    those whose bound reaches the row's best single link, and gives the
    bytes of the whole search it shares with ES-FD."""

    @staticmethod
    def _assert_shared_bytes(search_rows, config, gains):
        """ES-FDHD's arrays beside ES-FD, which it gives alone too, and the
        rows of the searches it ran alone."""
        shared = evaluate([Scheduler.ES_FD, Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
        search_rows.clear()
        alone = evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
        assert list(alone) == list(shared)
        for key, values in shared.items():
            assert alone[key].tobytes() == values.tobytes(), key
        return shared, list(search_rows)

    @pytest.mark.parametrize("k,n", [(8, 700), (16, 300), (32, 200), (64, 130)])
    def test_gives_the_shared_bytes(self, search_rows, k, n):
        rng = np.random.default_rng(3600 + k)
        live, fd_rows = {}, {}
        for si_db in (60.0, 80.0, 100.0, 120.0):
            config = config_from_db(24.0, 23.0, si_db, k_u=k, k_d=k)
            gains = _exponential_block(config, rng, n=n)
            shared, searched = self._assert_shared_bytes(search_rows, config, gains)
            assert searched == [n]  # FD may win somewhere at each level
            live[si_db] = scheduling._Batch(config, *gains, [Scheduler.ES_FDHD]).live().mean()
            fd_rows[si_db] = np.count_nonzero(shared["fd"])
        # Few live pairs at 60-80 dB, most at 120 dB.
        assert live[60.0] <= live[80.0] < 0.1 < 0.5 < live[120.0]
        assert fd_rows[60.0] == 0 and 0 < fd_rows[80.0] < n

    def test_exact_ul_ties_and_a_winner_that_is_not_the_gain_max_user(self, search_rows):
        config = config_from_db(24.0, 23.0, 80.0, k_u=8, k_d=8)
        g_ul, g_dl, g_x = _exponential_block(config, np.random.default_rng(3700), n=40)
        # Row 3: UL users 2 and 5 are one strong user twice, same gain and
        # same cross-gain column, and every pair sum of the two ties exactly.
        g_ul[3, [2, 5]] = 1e3
        g_x[3, :, 5] = g_x[3, :, 2] = 1e-3 * g_x[3, :, 2]
        # Row 7: the gain-max UL user 0 jams every DL user; user 4, weaker,
        # leaks nothing and wins FD.
        g_ul[7] = 0.5
        g_ul[7, 0], g_ul[7, 4] = 1e3, 5e2
        g_x[7, :, 0], g_x[7, :, 4] = 1e6, 0.0
        # Row 8: user 4 leaks only toward DL user 1, whose gain is tiny, and
        # jams the rest: its bound takes d* = 0's gain under no leakage, so
        # its pairs are live, yet FD loses to d*'s single link.
        g_ul[8], g_x[8] = g_ul[7], 1e6
        g_dl[8, 0], g_dl[8, 1], g_x[8, 1, 4] = 1e3, 1e-9, 0.0
        # Row 9: every gain but the cross gains is 0, so every bound equals
        # the best single link, 0 bits, and FD wins the tie with (0, 0).
        g_ul[9], g_dl[9] = 0.0, 0.0
        gains = g_ul, g_dl, g_x
        live = scheduling._Batch(config, *gains, [Scheduler.ES_FDHD]).live()
        assert np.flatnonzero(live[8]).tolist() == [4] and live[9].all()
        shared, _ = self._assert_shared_bytes(search_rows, config, gains)
        assert shared["fd"][[3, 7, 9]].all() and not shared["fd"][8]
        for i in (3, 7, 8, 9):
            ch = ChannelRealization(g_ul[i], g_dl[i], g_x[i])
            s = select_es_fdhd(ch, config)
            assert (s.mode, s.ul, s.dl) == _enumerate_fdhd(ch, config), i
        assert select_es_fdhd(ChannelRealization(g_ul[3], g_dl[3], g_x[3]), config).ul == 2
        assert select_es_fdhd(ChannelRealization(g_ul[7], g_dl[7], g_x[7]), config).ul == 4

    def test_fd_may_win_yet_no_pair_is_live(self, search_rows):
        # UL user 0, the gain-max one, jams every DL user, and users 1 and 2
        # leak nothing but carry no rate: the row's bound under u*'s UL rate
        # and the least cross gain reaches a single link, no user's own does.
        config = config_from_db(24.0, 23.0, 80.0, k_u=3, k_d=3)
        g_ul, g_dl, g_x = _exponential_block(config, np.random.default_rng(3710), n=20)
        g_ul[:, 0], g_ul[:, 1:], g_x[:, :, 0], g_x[:, :, 1:] = 1e3, 1e-6, 1e6, 0.0
        batch = scheduling._Batch(config, g_ul, g_dl, g_x, [Scheduler.ES_FDHD])
        assert batch.fd_may_win and not batch.live().any()
        shared, searched = self._assert_shared_bytes(search_rows, config, (g_ul, g_dl, g_x))
        assert searched == [20] and not shared["fd"].any()

    @pytest.mark.parametrize("si_db", [90.0, 100.0])
    def test_rows_at_k_32_match_the_enumeration(self, si_db):
        config = config_from_db(24.0, 23.0, si_db, k_u=32, k_d=32)
        gains = _exponential_block(config, np.random.default_rng(3800 + int(si_db)), n=64)
        out = evaluate([Scheduler.ES_FDHD], config, *gains)[Scheduler.ES_FDHD]
        rows = np.flatnonzero(out["fd"])[:2].tolist() + np.flatnonzero(~out["fd"])[:2].tolist()
        assert len(rows) == 4
        for i in rows:
            ch = ChannelRealization(gains[0][i], gains[1][i], gains[2][i])
            mode, ul, dl = _enumerate_fdhd(ch, config)
            assert (mode is DuplexMode.FD) == out["fd"][i]
            got = rates(ch, Schedule(ul, dl, config.p0_max * (mode is not DuplexMode.HD_UL),
                                     config.pu_max * (mode is not DuplexMode.HD_DL)), config)
            assert (got.r_ul, got.r_dl) == pytest.approx((out["r_ul"][i], out["r_dl"][i]), rel=1e-12)
            s = select_es_fdhd(ch, config)
            assert (s.mode, s.ul, s.dl) == (mode, ul, dl)

    def test_scalar_view_at_k_64_agrees_with_the_kernel_row(self):
        config = config_from_db(24.0, 23.0, 80.0, k_u=64, k_d=64)
        rng = np.random.default_rng(3900)
        chs = [draw_realization(config, rng) for _ in range(80)]
        out = evaluate([Scheduler.ES_FDHD], config, *(np.stack([getattr(ch, g) for ch in chs])
                                                      for g in ("g_ul", "g_dl", "g_x")))[Scheduler.ES_FDHD]
        for i, ch in enumerate(chs):
            s = select_es_fdhd(ch, config)
            assert (s.mode is DuplexMode.FD) == out["fd"][i]
            assert rates(ch, s, config).r_ul == out["r_ul"][i] and rates(ch, s, config).r_dl == out["r_dl"][i]
            if s.mode is DuplexMode.FD:
                es = select_es_fd(ch, config)
                assert (s.ul, s.dl) == (es.ul, es.dl)
        assert 0 < np.count_nonzero(out["fd"]) < len(chs)

    def test_run_coupled_on_one_and_two_workers(self):
        # Two blocks at K = 64, the second cut at 200 rows: chunks of 128
        # rows and a last one of 72.
        config = config_from_db(24.0, 23.0, 80.0, k_u=64, k_d=64)
        n_trials = sim.BLOCK_SIZE + 200
        _, shared = sim.run_coupled(config, ["es-fdhd", "es-fd"], n_trials, 5, workers=1)
        for workers in (1, 2):
            _, alone = sim.run_coupled(config, ["es-fdhd", "a2-opa"], n_trials, 5, workers=workers)
            for key, values in shared[Scheduler.ES_FDHD].items():
                assert alone[Scheduler.ES_FDHD][key].tobytes() == values.tobytes(), (workers, key)

    def test_live_search_memory_is_a_fraction_of_the_cross_gains(self):
        config = config_from_db(24.0, 23.0, 80.0, k_u=64, k_d=64)
        gains = _exponential_block(config, np.random.default_rng(67), n=256)
        tracemalloc.start()
        try:
            evaluate([Scheduler.ES_FDHD], config, *gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gains[2].nbytes / 8


class TestScheduleInvariants:
    def test_fd_requires_both_users_and_powers(self):
        with pytest.raises(ValueError):
            Schedule(ul=None, dl=0, p0=1.0, pu=1.0)

    def test_hd_modes(self):
        with pytest.raises(ValueError):
            Schedule(ul=0, dl=None, p0=0.5, pu=1.0)
        with pytest.raises(ValueError):
            Schedule(ul=None, dl=0, p0=1.0, pu=0.5)
        Schedule(ul=0, dl=None, p0=0.0, pu=1.0)
        Schedule(ul=None, dl=0, p0=1.0, pu=0.0)

    @pytest.mark.parametrize("p0,pu", [(math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0), (0.0, 0.0)],
                             ids=["nan", "inf", "negative", "all-off"])
    def test_refuses_bad_powers(self, p0, pu):
        with pytest.raises(ValueError):
            Schedule(ul=0, dl=0, p0=p0, pu=pu)

    def test_mode_is_read_off_the_powers(self):
        s = Schedule(0, 3, 0.0, 1.0)
        assert s.dl is None and s.mode is DuplexMode.HD_UL
        s = Schedule(2, 3, 1.0, 0.0)
        assert s.ul is None and s.mode is DuplexMode.HD_DL
        assert Schedule(2, 3, 1.0, 1.0).mode is DuplexMode.FD

    @pytest.mark.parametrize("ul, dl, p0, pu, message", [
        (True, 1.5, 1.0, 1.0, "UL index must be a whole number, got True"),
        ("a", 0, 1.0, 1.0, "UL index must be a whole number, got 'a'"),
        (0, 1.5, 1.0, 1.0, "DL index must be a whole number, got 1.5"),
        ("a", 0, 1.0, 0.0, "UL index must be a whole number, got 'a'"),   # even on a link it drops
    ], ids=["bool", "str", "fraction", "dropped-link"])
    def test_refuses_an_index_that_is_not_a_whole_number(self, ul, dl, p0, pu, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Schedule(ul, dl, p0, pu)

    def test_keeps_whole_indices_as_ints(self):
        s = Schedule(1.0, np.int64(2), 1.0, 1.0)
        assert (s.ul, s.dl) == (1, 2) and type(s.ul) is int and type(s.dl) is int
