"""Configuration conversions, channel statistics, and instantaneous rates."""

import math

import numpy as np
import pytest

from fdsched.model import (
    ChannelRealization,
    SystemConfig,
    config_from_db,
    draw_realization,
    rates,
    sinr_dl,
    sinr_ul,
)
from fdsched.scheduling import Schedule


def make_ch(g_ul, g_dl, g_x, si=0.0):
    return ChannelRealization(
        g_ul=np.asarray(g_ul, float),
        g_dl=np.asarray(g_dl, float),
        g_x=np.asarray(g_x, float),
        si_gain=si,
    )


class TestConfigFromDb:
    def test_reference_point(self):
        cfg = config_from_db(24.0, 23.0, 80.0, 13.0, 9.0, 1e7, 5, 5)
        assert cfg.p0_max == pytest.approx(251.18864315095797, rel=1e-12)
        assert cfg.pu_max == pytest.approx(199.52623149688787, rel=1e-12)
        assert cfg.si_gain == pytest.approx(1e-8, rel=1e-12)
        assert cfg.sigma0_sq == pytest.approx(10.0 ** -9.1, rel=1e-12)
        assert cfg.sigmaD_sq == pytest.approx(10.0 ** -9.5, rel=1e-12)
        assert cfg.k_u == 5 and cfg.k_d == 5

    def test_zero_db_is_identity(self):
        cfg = config_from_db(0.0, 0.0, 0.0, 0.0, 0.0, 1e6, 2, 2)
        assert cfg.p0_max == 1.0
        assert cfg.si_gain == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            config_from_db(10.0, 10.0, 80.0, bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            config_from_db(10.0, 10.0, 80.0, bandwidth_hz=math.inf)
        with pytest.raises(ValueError):
            config_from_db(10.0, 10.0, -1.0)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            SystemConfig(0.0, 0.0, 1.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, 1.0, 0.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 0, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, -1.0, 1.0, 1.0, 0.0, 1, 1)


class TestDrawRealization:
    def test_exponential_law(self):
        # 1e6 pooled gain samples: unit mean, unit variance, exponential CDF.
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 100, 3)
        rng = np.random.default_rng(7)
        pool = np.concatenate([draw_realization(cfg, rng).g_ul for _ in range(10_000)])
        assert pool.size == 1_000_000
        assert pool.mean() == pytest.approx(1.0, abs=0.01)
        assert pool.var() == pytest.approx(1.0, abs=0.02)
        xs = np.sort(pool)
        emp = np.arange(1, xs.size + 1) / xs.size
        sup = np.max(np.abs(emp - (1.0 - np.exp(-xs))))
        assert sup <= 0.005

    def test_reproducible_and_seed_sensitive(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.5, 4, 3)
        a = draw_realization(cfg, np.random.default_rng(123))
        b = draw_realization(cfg, np.random.default_rng(123))
        c = draw_realization(cfg, np.random.default_rng(124))
        assert np.array_equal(a.g_ul, b.g_ul)
        assert np.array_equal(a.g_dl, b.g_dl)
        assert np.array_equal(a.g_x, b.g_x)
        assert a.si_gain == cfg.si_gain
        assert not np.array_equal(a.g_ul, c.g_ul)

    def test_arrays_are_frozen(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 2, 2)
        ch = draw_realization(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ch.g_ul[0] = 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_ch([1.0, 2.0], [1.0, 2.0], [[1.0, 2.0]], si=0.0)  # g_x rows != k_d
        with pytest.raises(ValueError):
            make_ch([1.0], [1.0], [[1.0, 2.0]], si=0.0)
        with pytest.raises(ValueError):
            make_ch([1.0], [1.0], [[-1.0]], si=0.0)
        with pytest.raises(ValueError):
            make_ch([1.0], [1.0], [[1.0]], si=-0.5)


class TestSinr:
    def test_ul_no_si(self):
        ch = make_ch([1.0], [1.0], [[0.0]], si=0.0)
        assert sinr_ul(ch, 0, p0=123.0, pu=2.0, sigma0_sq=1.0) == pytest.approx(2.0)

    def test_ul_with_si(self):
        ch = make_ch([1.0], [1.0], [[0.0]], si=1.0)
        assert sinr_ul(ch, 0, p0=1.0, pu=1.0, sigma0_sq=1.0) == pytest.approx(0.5)

    def test_ul_zero_power(self):
        ch = make_ch([1.0], [1.0], [[0.0]], si=1.0)
        assert sinr_ul(ch, 0, p0=1.0, pu=0.0, sigma0_sq=1.0) == 0.0

    def test_dl_interference_free(self):
        ch = make_ch([1.0], [4.0], [[7.0]], si=0.0)
        assert sinr_dl(ch, 0, None, p0=1.0, pu=0.0, sigmaD_sq=1.0) == pytest.approx(4.0)

    def test_dl_with_interference(self):
        ch = make_ch([1.0], [1.0], [[1.0]], si=0.0)
        assert sinr_dl(ch, 0, 0, p0=1.0, pu=1.0, sigmaD_sq=1.0) == pytest.approx(0.5)

    def test_dl_zero_power(self):
        ch = make_ch([1.0], [1.0], [[1.0]], si=0.0)
        assert sinr_dl(ch, 0, 0, p0=0.0, pu=1.0, sigmaD_sq=1.0) == 0.0

    def test_index_errors(self):
        ch = make_ch([1.0, 2.0], [3.0], [[1.0, 1.0]], si=0.0)
        with pytest.raises(IndexError):
            sinr_ul(ch, 2, 1.0, 1.0, 1.0)
        with pytest.raises(IndexError):
            sinr_ul(ch, -1, 1.0, 1.0, 1.0)
        with pytest.raises(IndexError):
            sinr_dl(ch, 1, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sinr_dl(ch, 0, None, 1.0, 1.0, 1.0)  # pu > 0 with no UL user


class TestRates:
    def config(self):
        return SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)

    def test_unit_sinrs(self):
        # gamma_ul = gamma_dl = 1 -> 1 + 1 bps/Hz.
        ch = make_ch([1.0], [2.0], [[1.0]], si=0.0)
        sched = Schedule(ul=0, dl=0, p0=1.0, pu=1.0)
        out = rates(ch, sched, self.config())
        assert out.r_ul == pytest.approx(1.0, rel=1e-12)
        assert out.r_dl == pytest.approx(1.0, rel=1e-12)
        assert out.r_sum == pytest.approx(2.0, rel=1e-12)

    def test_hd_ul_only(self):
        # gamma_ul = 3 at p0 = 0 -> (2, 0, 2).
        ch = make_ch([3.0], [1.0], [[1.0]], si=0.7)
        sched = Schedule(ul=0, dl=None, p0=0.0, pu=1.0)
        out = rates(ch, sched, self.config())
        assert out.r_ul == pytest.approx(2.0, rel=1e-12)
        assert out.r_dl == 0.0
        assert out.r_sum == pytest.approx(2.0, rel=1e-12)

    def test_double_entry_against_sinr_ops(self):
        rng = np.random.default_rng(5)
        cfg = SystemConfig(2.0, 0.7, 0.3, 0.4, 0.05, 4, 3)
        for _ in range(50):
            ch = draw_realization(cfg, rng)
            u = int(rng.integers(cfg.k_u))
            d = int(rng.integers(cfg.k_d))
            sched = Schedule(ul=u, dl=d, p0=cfg.p0_max, pu=cfg.pu_max)
            out = rates(ch, sched, cfg)
            expect_ul = math.log2(1.0 + sinr_ul(ch, u, cfg.p0_max, cfg.pu_max, cfg.sigma0_sq))
            expect_dl = math.log2(1.0 + sinr_dl(ch, d, u, cfg.p0_max, cfg.pu_max, cfg.sigmaD_sq))
            assert out.r_ul == pytest.approx(expect_ul, rel=1e-12)
            assert out.r_dl == pytest.approx(expect_dl, rel=1e-12)
            assert out.r_sum == out.r_ul + out.r_dl

    def test_power_monotonicity(self):
        rng = np.random.default_rng(11)
        cfg = SystemConfig(2.0, 2.0, 0.5, 0.5, 0.3, 3, 3)
        grid = np.linspace(0.0, 2.0, 9)
        for _ in range(20):
            ch = draw_realization(cfg, rng)
            # r_ul falls as p0 grows (more SI), rises with pu.
            ul_vs_p0 = [
                rates(ch, Schedule(0, 0, float(p0), 1.0), cfg).r_ul
                for p0 in grid[1:]
            ]
            assert all(a >= b - 1e-12 for a, b in zip(ul_vs_p0, ul_vs_p0[1:]))
            dl_vs_p0 = [
                rates(ch, Schedule(0, 0, float(p0), 1.0), cfg).r_dl
                for p0 in grid[1:]
            ]
            assert all(b >= a - 1e-12 for a, b in zip(dl_vs_p0, dl_vs_p0[1:]))
            ul_vs_pu = [
                rates(ch, Schedule(0, 0, 1.0, float(pu)), cfg).r_ul
                for pu in grid[1:]
            ]
            assert all(b >= a - 1e-12 for a, b in zip(ul_vs_pu, ul_vs_pu[1:]))
            dl_vs_pu = [
                rates(ch, Schedule(0, 0, 1.0, float(pu)), cfg).r_dl
                for pu in grid[1:]
            ]
            assert all(a >= b - 1e-12 for a, b in zip(dl_vs_pu, dl_vs_pu[1:]))
