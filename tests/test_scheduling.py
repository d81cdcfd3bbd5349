"""Selection rules against brute-force scans, decoupling, and baselines."""

import math

import numpy as np
import pytest

from fdsched.model import ChannelRealization, SystemConfig, draw_realization, rates
from fdsched.scheduling import (
    DuplexMode,
    Schedule,
    select_a1,
    select_a2,
    select_a3,
    select_es_fd,
    select_es_fdhd,
    select_hd_tdd,
)

CFG = SystemConfig(1.5, 0.8, 0.2, 0.3, 0.05, 5, 5)


def make_ch(g_ul, g_dl, g_x, si=CFG.si_gain):
    return ChannelRealization(
        g_ul=np.asarray(g_ul, float),
        g_dl=np.asarray(g_dl, float),
        g_x=np.asarray(g_x, float),
        si_gain=si,
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
            g_x=rng.standard_exponential(ch.g_x.shape), si_gain=ch.si_gain,
        )
        assert select_a1(ch, CFG) == select_a1(scrambled, CFG)
        # UL choice blind to DL gains, and vice versa.
        swapped_dl = ChannelRealization(
            g_ul=ch.g_ul, g_dl=rng.standard_exponential(ch.g_dl.shape),
            g_x=ch.g_x, si_gain=ch.si_gain,
        )
        assert select_a1(swapped_dl, CFG).ul == select_a1(ch, CFG).ul
        swapped_ul = ChannelRealization(
            g_ul=rng.standard_exponential(ch.g_ul.shape), g_dl=ch.g_dl,
            g_x=ch.g_x, si_gain=ch.si_gain,
        )
        assert select_a1(swapped_ul, CFG).dl == select_a1(ch, CFG).dl

    def test_scale_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            ch = random_ch(rng)
            scaled = ChannelRealization(
                g_ul=3.7 * ch.g_ul, g_dl=0.04 * ch.g_dl, g_x=ch.g_x, si_gain=ch.si_gain
            )
            base = select_a1(ch, CFG)
            other = select_a1(scaled, CFG)
            assert (base.ul, base.dl) == (other.ul, other.dl)


class TestA2:
    def test_reduces_to_a1_without_interference(self):
        rng = np.random.default_rng(4)
        ch = random_ch(rng)
        quiet = ChannelRealization(
            g_ul=ch.g_ul, g_dl=ch.g_dl, g_x=np.zeros_like(ch.g_x), si_gain=ch.si_gain
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
        scrambled = ChannelRealization(ch.g_ul, ch.g_dl, g_x, ch.si_gain)
        assert select_a2(ch, CFG) == select_a2(scrambled, CFG)


class TestA3:
    def test_reduces_to_a1_without_leakage(self):
        rng = np.random.default_rng(6)
        ch = random_ch(rng)
        quiet = ChannelRealization(
            g_ul=ch.g_ul, g_dl=ch.g_dl, g_x=np.zeros_like(ch.g_x), si_gain=ch.si_gain
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
        scrambled = ChannelRealization(ch.g_ul, ch.g_dl, g_x, ch.si_gain)
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
            ch = ChannelRealization(base.g_ul, base.g_dl, np.zeros_like(base.g_x), 0.0)
            assert select_es_fdhd(ch, cfg).mode is DuplexMode.FD

    def test_fdhd_collapses_to_hd_under_crushing_interference(self):
        rng = np.random.default_rng(59)
        cfg = SystemConfig(1.0, 1.0, 0.5, 0.5, 1e12, 3, 3)
        for _ in range(20):
            base = draw_realization(cfg, rng)
            ch = ChannelRealization(
                base.g_ul, base.g_dl, np.full_like(base.g_x, 1e12), cfg.si_gain
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
        ch = make_ch([3.0], [5.0], [[1.0]])
        cfg = SystemConfig(0.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        out = select_hd_tdd(ch, cfg)
        assert out.r_dl == 0.0
        assert out.r_ul == pytest.approx(1.0, rel=1e-12)

    def test_double_entry(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            ch = random_ch(rng)
            out = select_hd_tdd(ch, CFG)
            expect = 0.5 * math.log2(1 + CFG.pu_max * ch.g_ul.max() / CFG.sigma0_sq) \
                + 0.5 * math.log2(1 + CFG.p0_max * ch.g_dl.max() / CFG.sigmaD_sq)
            assert out.r_sum == pytest.approx(expect, rel=1e-12)


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
