"""Configuration conversions, channel statistics, and instantaneous rates."""

import math
import numbers
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from fdsched.model import (
    ChannelRealization,
    SystemConfig,
    config_from_db,
    draw_realization,
    rates,
    sinr,
    whole_number,
)
from fdsched.scheduling import Schedule


def make_ch(g_ul, g_dl, g_x):
    return ChannelRealization(
        g_ul=np.asarray(g_ul, float),
        g_dl=np.asarray(g_dl, float),
        g_x=np.asarray(g_x, float),
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

    @pytest.mark.parametrize("name", ["p0_dbm", "pu_dbm", "noise_figure_bs_db",
                                      "noise_figure_mt_db"])
    def test_overflowing_db_setting_is_a_value_error(self, name):
        settings = {"p0_dbm": 24.0, "pu_dbm": 23.0, "si_cancellation_db": 80.0, name: 4000.0}
        with pytest.raises(ValueError, match=f"^{name} is too large"):
            config_from_db(**settings)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            SystemConfig(0.0, 0.0, 1.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, 1.0, 0.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 0, 1)
        with pytest.raises(ValueError):
            SystemConfig(1.0, -1.0, 1.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError, match="^si_gain must be finite and >= 0"):
            SystemConfig(1.0, 1.0, 1.0, 1.0, -0.5, 1, 1)


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
        assert not np.array_equal(a.g_ul, c.g_ul)

    def test_holds_channel_gains_only(self):
        # The SI gain is the config's alone: a snapshot has no copy of it.
        ch = draw_realization(SystemConfig(1.0, 1.0, 1.0, 1.0, 0.5, 2, 2), np.random.default_rng(0))
        assert [f.name for f in fields(ch)] == ["g_ul", "g_dl", "g_x"]

    @pytest.mark.parametrize("k_u, k_d", [(3, 5), (5, 2), (1, 4)])
    def test_one_draw_equals_three_in_order(self, k_u, k_d):
        # One call of k_u + k_d + k_d * k_u draws gives the numbers, and leaves
        # the generator state, of three calls: g_ul, g_dl, then g_x row-major.
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        ch = draw_realization(SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, k_u, k_d), rng)
        assert np.array_equal(ch.g_ul, ref.standard_exponential(k_u))
        assert np.array_equal(ch.g_dl, ref.standard_exponential(k_d))
        assert np.array_equal(ch.g_x, ref.standard_exponential((k_d, k_u)))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("source", ["drawn", "caller"])
    def test_gains_are_read_only_float64_in_c_order(self, source):
        if source == "drawn":
            ch = draw_realization(SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 3, 4), np.random.default_rng(0))
        else:
            ch = ChannelRealization([1, 2, 3], [1, 2, 3, 4], np.ones((3, 4)).T)  # ints, Fortran order
        for arr in (ch.g_ul, ch.g_dl, ch.g_x):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            if arr.base is not None:  # a view: its buffer is frozen too
                with pytest.raises(ValueError):
                    arr.base[...] = 5.0

    def test_caller_arrays_are_copied(self):
        g_ul, g_dl, g_x = np.ones(2), np.ones(3), np.ones((3, 2))
        ch = ChannelRealization(g_ul, g_dl, g_x)
        g_ul[0] = g_dl[0] = g_x[0, 0] = 7.0
        assert ch.g_ul.tolist() == [1.0, 1.0] and ch.g_dl.tolist() == [1.0] * 3
        assert ch.g_x.tolist() == [[1.0, 1.0]] * 3

    def test_arrays_are_frozen(self):
        cfg = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 2, 2)
        ch = draw_realization(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ch.g_ul[0] = 5.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            make_ch([1.0, 2.0], [1.0, 2.0], [[1.0, 2.0]])  # g_x rows != k_d
        with pytest.raises(ValueError):
            make_ch([1.0], [1.0], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            make_ch([1.0], [1.0], [[-1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    @pytest.mark.parametrize("name", ["g_ul", "g_dl", "g_x"])
    def test_rejects_non_finite_or_negative_gains_by_name(self, name, bad):
        gains = {"g_ul": np.ones(2), "g_dl": np.ones(3), "g_x": np.ones((3, 2))}
        gains[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} entries must be finite and >= 0"):
            ChannelRealization(**gains)

    def test_negative_zero_is_a_zero_gain(self):
        ch = make_ch([-0.0, 1.0], [1.0, -0.0, 2.0], [[-0.0, 0.0], [1.0, -0.0], [0.0, 0.0]])
        assert ch.g_ul.tolist() == [0.0, 1.0] and ch.g_x.min() == 0.0


class _Registered:
    """An integer type known to ``numbers.Integral`` by registration alone."""

    def __int__(self):
        return 5


numbers.Integral.register(_Registered)


class TestWholeNumber:
    @pytest.mark.parametrize("value, expected", [
        (5, 5), (np.int32(5), 5), (np.uint64(5), 5), (5.0, 5), (np.float64(5.0), 5),
        (np.float32(5.0), 5), (np.float16(3.0), 3), (_Registered(), 5),
    ], ids=["int", "int32", "uint64", "float", "float64", "float32", "float16", "registered"])
    def test_takes_whole_numbers_as_ints(self, value, expected):
        got = whole_number("n", value)
        assert type(got) is int and got == expected

    @pytest.mark.parametrize("value", [
        True, np.True_, 1.5, math.nan, math.inf, "5", None, Fraction(5, 1),
        np.float32(1.5), np.float64(math.nan), np.float16(math.inf),
    ], ids=["bool", "numpy-bool", "fraction-float", "nan", "inf", "str", "none", "Fraction",
            "float32-fraction", "float64-nan", "float16-inf"])
    def test_refuses_everything_else(self, value):
        with pytest.raises(ValueError, match=f"^n must be a whole number, got {re.escape(repr(value))}$"):
            whole_number("n", value)


UNIT_NOISE = SystemConfig(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)  # sigma0^2 = sigmaD^2 = 1
UNIT_SI = replace(UNIT_NOISE, si_gain=1.0)


class TestSinr:
    """Each link's SINR as :func:`rates` reads it: r = log2(1 + SINR)."""

    def test_ul_no_si(self):
        ch = make_ch([1.0], [1.0], [[0.0]])
        out = rates(ch, Schedule(0, 0, p0=123.0, pu=2.0), UNIT_NOISE)
        assert out.r_ul == pytest.approx(math.log2(1.0 + 2.0))

    def test_ul_with_si(self):
        # The SI term at the BS: p0 * si_gain joins the UL noise.
        ch = make_ch([1.0], [1.0], [[0.0]])
        out = rates(ch, Schedule(0, 0, p0=1.0, pu=1.0), UNIT_SI)
        assert out.r_ul == pytest.approx(math.log2(1.0 + 0.5))

    def test_ul_zero_power(self):
        ch = make_ch([1.0], [1.0], [[0.0]])
        assert rates(ch, Schedule(None, 0, p0=1.0, pu=0.0), UNIT_SI).r_ul == 0.0

    def test_dl_interference_free(self):
        # With the UL off, the cross gain 7 does not reach the DL.
        ch = make_ch([1.0], [4.0], [[7.0]])
        out = rates(ch, Schedule(None, 0, p0=1.0, pu=0.0), UNIT_NOISE)
        assert out.r_dl == pytest.approx(math.log2(1.0 + 4.0))

    def test_dl_with_interference(self):
        ch = make_ch([1.0], [1.0], [[1.0]])
        out = rates(ch, Schedule(0, 0, p0=1.0, pu=1.0), UNIT_NOISE)
        assert out.r_dl == pytest.approx(math.log2(1.0 + 0.5))

    def test_dl_zero_power(self):
        ch = make_ch([1.0], [1.0], [[1.0]])
        assert rates(ch, Schedule(0, None, p0=0.0, pu=1.0), UNIT_NOISE).r_dl == 0.0

    def test_index_errors(self):
        ch = make_ch([1.0, 2.0], [3.0], [[1.0, 1.0]])
        for ul, dl, message in [(2, 0, "UL index 2 out of range for 2 users"),
                                (-1, 0, "UL index -1 out of range for 2 users"),
                                (0, 1, "DL index 1 out of range for 1 users"),
                                (0, -1, "DL index -1 out of range for 1 users")]:
            with pytest.raises(IndexError, match=f"^{message}$"):
                rates(ch, Schedule(ul, dl, 1.0, 1.0), UNIT_NOISE)
        with pytest.raises(ValueError, match="needs a user"):
            Schedule(None, 0, 1.0, 1.0)  # pu > 0 with no UL user

    def test_index_must_be_a_whole_number(self):
        ch = make_ch([1.0, 2.0], [3.0, 4.0], [[1.0, 1.0], [1.0, 1.0]])
        for ul, dl, message in [(True, 0, "UL index must be a whole number, got True"),
                                (0, 1.5, "DL index must be a whole number, got 1.5"),
                                ("1", 0, "UL index must be a whole number, got '1'")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                rates(ch, Schedule(ul, dl, 1.0, 1.0), UNIT_NOISE)
        whole = rates(ch, Schedule(1.0, np.int64(1), 1.0, 1.0), UNIT_NOISE)
        assert whole == rates(ch, Schedule(1, 1, 1.0, 1.0), UNIT_NOISE)


class TestRates:
    def test_unit_sinrs(self):
        # gamma_ul = gamma_dl = 1 -> 1 + 1 bps/Hz.
        ch = make_ch([1.0], [2.0], [[1.0]])
        sched = Schedule(ul=0, dl=0, p0=1.0, pu=1.0)
        out = rates(ch, sched, UNIT_NOISE)
        assert out.r_ul == pytest.approx(1.0, rel=1e-12)
        assert out.r_dl == pytest.approx(1.0, rel=1e-12)
        assert out.r_sum == pytest.approx(2.0, rel=1e-12)

    def test_hd_ul_only(self):
        # gamma_ul = 3 at p0 = 0 -> (2, 0, 2).
        ch = make_ch([3.0], [1.0], [[1.0]])
        sched = Schedule(ul=0, dl=None, p0=0.0, pu=1.0)
        out = rates(ch, sched, replace(UNIT_NOISE, si_gain=0.7))
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
            gamma_ul = sinr(cfg.pu_max, ch.g_ul[u], cfg.p0_max, cfg.si_gain, cfg.sigma0_sq)
            gamma_dl = sinr(cfg.p0_max, ch.g_dl[d], cfg.pu_max, ch.g_x[d, u], cfg.sigmaD_sq)
            expect_ul = math.log2(1.0 + gamma_ul)
            expect_dl = math.log2(1.0 + gamma_dl)
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
