"""Indicator functions, binary power allocation, and the OPA-enhanced
scheduling wrapper."""

import math

import numpy as np
import pytest

from fdsched.model import ChannelRealization, SystemConfig, draw_realization, rates
from fdsched.power import OpaDecision, eta, opa, opa_enhanced_schedule, zeta
from fdsched.scheduling import (
    DuplexMode,
    Schedule,
    select_a1,
    select_a2,
    select_a3,
    select_es_fd,
)


def make_ch(g_ul, g_dl, g_x, si):
    return ChannelRealization(
        g_ul=np.asarray(g_ul, float),
        g_dl=np.asarray(g_dl, float),
        g_x=np.asarray(g_x, float),
        si_gain=si,
    )


class TestIndicators:
    def test_zeta_interference_free(self):
        assert zeta(5.0, 1.0, 0.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_zeta_hand_value(self):
        # 1*1/(1*1+1) - 0.5 = 0
        assert zeta(1.0, 1.0, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.0)

    def test_zeta_decreasing_in_p0(self):
        vals = [zeta(p0, 1.0, 0.2, 1.0, 1.0, 0.5) for p0 in np.linspace(0, 5, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eta_interference_free(self):
        assert eta(5.0, 1.0, 0.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_eta_hand_value(self):
        # 1*1/(1*1+1) - 0.25 = 0.25
        assert eta(1.0, 1.0, 1.0, 1.0, 1.0, 0.25) == pytest.approx(0.25)

    def test_eta_decreasing_in_pu(self):
        vals = [eta(pu, 1.0, 0.7, 1.0, 1.0, 0.1) for pu in np.linspace(0, 5, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestOpa:
    def test_fast_path_without_interference(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        ch = make_ch([1.0], [1.0], [[0.0]], si=0.0)
        d = opa(ch, 0, 0, cfg)
        assert d.fast_path
        assert d.mode is DuplexMode.FD
        assert (d.p0, d.pu) == (1.0, 1.0)

    def test_hd_wins_under_crushing_interference(self):
        # FD corner: 2*log2(1 + 1/101) ~ 0.0285; each HD corner: 1.0.
        # HD-UL wins the tie against HD-DL by preference order.
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 100.0, 1, 1)
        ch = make_ch([1.0], [1.0], [[100.0]], si=100.0)
        d = opa(ch, 0, 0, cfg)
        assert not d.fast_path
        assert d.mode is DuplexMode.HD_UL
        assert (d.p0, d.pu) == (0.0, 1.0)
        r_fd = 2 * math.log2(1 + 1.0 / 101.0)
        assert r_fd < 1.0

    def test_fd_can_win_despite_negative_eta(self):
        # Strong SI kills eta(PU) >= 0 but the corner comparison still
        # favors FD: 1.0142 > 1.0.
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 100.0, 1, 1)
        ch = make_ch([1.0], [1.0], [[0.0]], si=100.0)
        assert eta(1.0, 1.0, 0.0, 1.0, 1.0, 100.0) < 0
        d = opa(ch, 0, 0, cfg)
        assert not d.fast_path
        assert d.mode is DuplexMode.FD
        r_fd = math.log2(1 + 1.0 / 101.0) + math.log2(2.0)
        assert r_fd > 1.0

    def test_invalid_indices(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        ch = make_ch([1.0], [1.0], [[0.0]], si=0.0)
        with pytest.raises(IndexError):
            opa(ch, 1, 0, cfg)
        with pytest.raises(IndexError):
            opa(ch, 0, -1, cfg)

    def test_decision_invariants(self):
        with pytest.raises(ValueError):
            OpaDecision(0, 0, 0.0, 0.0, False)

    def test_corner_value_never_beaten_by_grid(self):
        rng = np.random.default_rng(71)
        frac = np.linspace(0.0, 1.0, 21)
        for _ in range(400):
            cfg = SystemConfig(
                10.0 ** rng.uniform(-1, 1.5),
                10.0 ** rng.uniform(-1, 1.5),
                10.0 ** rng.uniform(-2, 0),
                10.0 ** rng.uniform(-2, 0),
                10.0 ** rng.uniform(-8, 0),
                4, 4,
            )
            ch = draw_realization(cfg, rng)
            pair = select_a2(ch, cfg)
            d = opa(ch, pair.ul, pair.dl, cfg)
            g0, gd = ch.g_ul[pair.ul], ch.g_dl[pair.dl]
            gx = ch.g_x[pair.dl, pair.ul]
            grid = (
                np.log1p(frac[None, :] * cfg.pu_max * g0
                         / (frac[:, None] * cfg.p0_max * cfg.si_gain + cfg.sigma0_sq))
                + np.log1p(frac[:, None] * cfg.p0_max * gd
                           / (frac[None, :] * cfg.pu_max * gx + cfg.sigmaD_sq))
            ) / math.log(2)
            chosen = rates(ch, d, cfg).r_sum
            assert float(grid.max()) <= chosen + 1e-9

    def test_decision_is_a_schedule_at_the_best_corner(self):
        rng = np.random.default_rng(89)
        modes = set()
        for _ in range(200):
            cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 10.0 ** rng.uniform(-2, 2), 3, 3)
            ch = draw_realization(cfg, rng)
            d = opa(ch, 1, 2, cfg)
            assert isinstance(d, Schedule)
            corners = [rates(ch, Schedule(1, 2, p0, pu), cfg).r_sum
                       for p0, pu in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0))]
            assert rates(ch, d, cfg).r_sum == max(corners)
            modes.add(d.mode)
        assert modes == set(DuplexMode)

    def test_fast_path_agrees_with_enumeration(self):
        rng = np.random.default_rng(73)
        seen_fast = 0
        for _ in range(500):
            cfg = SystemConfig(
                10.0 ** rng.uniform(-1, 1.5), 10.0 ** rng.uniform(-1, 1.5),
                10.0 ** rng.uniform(-2, 0), 10.0 ** rng.uniform(-2, 0),
                10.0 ** rng.uniform(-8, 0), 4, 4,
            )
            ch = draw_realization(cfg, rng)
            pair = select_a1(ch, cfg)
            d = opa(ch, pair.ul, pair.dl, cfg)
            if not d.fast_path:
                continue
            seen_fast += 1
            g0, gd = ch.g_ul[pair.ul], ch.g_dl[pair.dl]
            gx = ch.g_x[pair.dl, pair.ul]
            r_fd = math.log1p(cfg.pu_max * g0 / (cfg.p0_max * cfg.si_gain + cfg.sigma0_sq)) \
                + math.log1p(cfg.p0_max * gd / (cfg.pu_max * gx + cfg.sigmaD_sq))
            r_ul = math.log1p(cfg.pu_max * g0 / cfg.sigma0_sq)
            r_dl = math.log1p(cfg.p0_max * gd / cfg.sigmaD_sq)
            assert r_fd >= max(r_ul, r_dl) - 1e-9
        assert seen_fast > 50

    def test_directional_monotonicity(self):
        # eta(PU) >= 0 makes the sum rate non-decreasing in p0 at pu = PU;
        # zeta(P0) >= 0 does the same in pu at p0 = P0.
        rng = np.random.default_rng(79)
        cfg = SystemConfig(2.0, 1.5, 0.4, 0.6, 0.3, 4, 4)
        grid = np.linspace(1e-4, 1.0, 12)
        checked_eta = checked_zeta = 0
        for _ in range(300):
            ch = draw_realization(cfg, rng)
            pair = select_a1(ch, cfg)
            g0, gd = ch.g_ul[pair.ul], ch.g_dl[pair.dl]
            gx = ch.g_x[pair.dl, pair.ul]
            if eta(cfg.pu_max, gd, gx, cfg.sigma0_sq, cfg.sigmaD_sq, cfg.si_gain) >= 0:
                checked_eta += 1
                vals = [
                    rates(ch, Schedule(pair.ul, pair.dl, float(f) * cfg.p0_max,
                                       cfg.pu_max), cfg).r_sum
                    for f in grid
                ]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            if zeta(cfg.p0_max, g0, gx, cfg.sigma0_sq, cfg.sigmaD_sq, cfg.si_gain) >= 0:
                checked_zeta += 1
                vals = [
                    rates(ch, Schedule(pair.ul, pair.dl, cfg.p0_max,
                                       float(f) * cfg.pu_max), cfg).r_sum
                    for f in grid
                ]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert checked_eta > 20 and checked_zeta > 20


class TestOpaEnhancedSchedule:
    def test_transparent_without_interference(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 4, 4)
        rng = np.random.default_rng(83)
        for base in (select_a1, select_a2, select_a3):
            raw = draw_realization(cfg, rng)
            ch = ChannelRealization(raw.g_ul, raw.g_dl, np.zeros_like(raw.g_x), 0.0)
            assert opa_enhanced_schedule(ch, cfg, base) == base(ch, cfg)

    def test_hd_ul_reschedules_away_from_a3_choice(self):
        # A3 avoids the leaky strongest UL user, but once the DL side is
        # switched off there is no leakage to avoid and the raw strongest
        # user must be re-selected.  Corner rates here: FD ~ 0.146,
        # HD-UL ~ 5.93, HD-DL ~ 0.14.
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 1e4, 2, 1)
        g_ul = [100.0, 60.0]
        g_x = [[1000.0, 1e-9]]  # strongest UL user leaks hard into the DL user
        ch = make_ch(g_ul, [0.1], g_x, si=1e4)
        base = select_a3(ch, cfg)
        assert base.ul == 1
        sched = opa_enhanced_schedule(ch, cfg, select_a3)
        assert sched.mode is DuplexMode.HD_UL
        assert sched.ul == 0
        assert sched.dl is None and sched.p0 == 0.0

    def test_base_must_be_a_fixed_power_selector(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 3, 3)
        ch = draw_realization(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match="select_a1, select_a2 or select_a3"):
            opa_enhanced_schedule(ch, cfg, select_es_fd)

    def test_never_worse_than_base(self):
        rng = np.random.default_rng(89)
        cfg = SystemConfig(3.0, 2.0, 0.1, 0.1, 2.0, 5, 5)
        for _ in range(300):
            ch = draw_realization(cfg, rng)
            for base in (select_a1, select_a2, select_a3):
                enhanced = rates(ch, opa_enhanced_schedule(ch, cfg, base), cfg).r_sum
                plain = rates(ch, base(ch, cfg), cfg).r_sum
                assert enhanced >= plain - 1e-12

    def test_dominates_pair_hd_corners(self):
        rng = np.random.default_rng(97)
        cfg = SystemConfig(3.0, 2.0, 0.1, 0.1, 2.0, 5, 5)
        for _ in range(300):
            ch = draw_realization(cfg, rng)
            for base in (select_a1, select_a2, select_a3):
                pair = base(ch, cfg)
                enhanced = rates(ch, opa_enhanced_schedule(ch, cfg, base), cfg).r_sum
                corner_ul = math.log1p(cfg.pu_max * ch.g_ul[pair.ul] / cfg.sigma0_sq) / math.log(2)
                corner_dl = math.log1p(cfg.p0_max * ch.g_dl[pair.dl] / cfg.sigmaD_sq) / math.log(2)
                assert enhanced >= max(corner_ul, corner_dl) - 1e-9
