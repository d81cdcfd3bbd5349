"""Closed-form rates against quadrature, Monte Carlo, and high-precision
re-evaluation; CDF laws; the large-system approximation."""

import json
import math
import re
import tracemalloc
from math import comb
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fdsched import analysis
from fdsched.analysis import (
    AnalyticalParams,
    ClosedFormRate,
    QuadratureError,
    _dl_a1_terms,
    _dl_a2_terms,
    _rate_by_quadrature,
    _sf_dl_a1,
    _sf_dl_a2,
    _sf_ul,
    _ul_terms,
    asymptotic_rate_a1,
    avg_rate_a1,
    avg_rate_a2,
    avg_rate_integral,
    avg_rate_ul_closed,
    cdf_sinr_dl_a1,
    cdf_sinr_dl_a2,
    cdf_sinr_ul,
)
from fdsched.model import SystemConfig, config_from_db
from fdsched.sim import Scheduler, run_trials

mp.mp.dps = 40

P_GENERIC = AnalyticalParams(1.0, 0.8, 1e-2, 1e-2, 1e-8, 5, 5)


def _degenerate_cdf(x):
    """CDF of an a.s.-zero SINR: a link that does not exist."""
    return 1.0


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


def preset_params(k, si_db=80.0):
    """The benchmark's radio point (24/23 dBm) with k_u = k_d = k."""
    return AnalyticalParams.from_config(config_from_db(24, 23, si_db, k_u=k, k_d=k))


LAWS = {"ul": (_sf_ul, cdf_sinr_ul), "a1": (_sf_dl_a1, cdf_sinr_dl_a1),
        "a2": (_sf_dl_a2, cdf_sinr_dl_a2)}


def quad_rate(params, cdf_dl):
    return avg_rate_integral(
        lambda x: cdf_sinr_ul(x, params), lambda x: cdf_dl(x, params)
    )


class TestCdfs:
    def test_ul_anchors(self):
        assert cdf_sinr_ul(0.0, P_GENERIC) == 0.0
        assert cdf_sinr_ul(1e9, P_GENERIC) == pytest.approx(1.0, abs=1e-12)

    def test_ul_matches_max_of_exponentials(self):
        p = AnalyticalParams(1.3, 0.7, 0.2, 0.1, 0.05, 3, 4)
        a = (p.p0_max * p.si_gain + p.sigma0_sq) / p.pu_max
        for x in np.linspace(0.0, 20.0, 41):
            direct = (1.0 - math.exp(-a * x)) ** 3
            assert cdf_sinr_ul(float(x), p) == pytest.approx(direct, abs=1e-12)

    def test_ul_large_k_path_consistent(self):
        small = AnalyticalParams(1.0, 1.0, 0.5, 0.5, 0.0, 20, 2)
        big = AnalyticalParams(1.0, 1.0, 0.5, 0.5, 0.0, 21, 2)
        a = 0.5
        for x in (0.1, 1.0, 5.0):
            assert cdf_sinr_ul(x, small) == pytest.approx((1 - math.exp(-a * x)) ** 20, abs=1e-11)
            assert cdf_sinr_ul(x, big) == pytest.approx((1 - math.exp(-a * x)) ** 21, abs=1e-11)

    def test_dl_a1_anchors_and_single_user(self):
        assert cdf_sinr_dl_a1(0.0, P_GENERIC) == 0.0
        p = AnalyticalParams(2.0, 0.5, 0.3, 0.4, 0.0, 1, 1)
        for x in np.linspace(0.0, 30.0, 31):
            hand = 1.0 - math.exp(-p.sigmaD_sq * x / p.p0_max) / (p.pu_max * x / p.p0_max + 1.0)
            assert cdf_sinr_dl_a1(float(x), p) == pytest.approx(hand, abs=1e-12)

    def test_dl_a2_anchors_and_degeneracy(self):
        assert cdf_sinr_dl_a2(0.0, P_GENERIC) == pytest.approx(0.0, abs=1e-12)
        p1 = AnalyticalParams(2.0, 0.5, 0.3, 0.4, 0.0, 1, 1)
        for x in np.linspace(0.0, 30.0, 31):
            assert cdf_sinr_dl_a2(float(x), p1) == pytest.approx(
                cdf_sinr_dl_a1(float(x), p1), abs=1e-12
            )

    def test_dl_a2_product_form(self):
        p = AnalyticalParams(1.1, 0.6, 0.2, 0.3, 0.01, 2, 7)
        a, b = p.sigmaD_sq / p.p0_max, p.pu_max / p.p0_max
        for x in np.linspace(0.0, 25.0, 26):
            direct = (1.0 - math.exp(-a * x) / (1.0 + b * x)) ** 7
            assert cdf_sinr_dl_a2(float(x), p) == pytest.approx(direct, abs=1e-12)

    def test_monotone_and_bounded(self):
        # The operating point has ~20 dB mean SINRs and the A1 DL law has a
        # slow 1/x approach to 1, so the grid must reach far out.
        xs = np.concatenate([[0.0], np.logspace(-2, 4.5, 400)])
        for cdf in (cdf_sinr_ul, cdf_sinr_dl_a1, cdf_sinr_dl_a2):
            vals = [cdf(float(x), P_GENERIC) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[0] == 0.0
            assert vals[-1] > 0.99

    def test_dl_a1_large_k_matches_high_precision(self):
        p = AnalyticalParams(1.0, 1.0, 0.3, 0.5, 0.0, 2, 64)

        def ref(x):
            f = lambda y: (1 - mp.e ** (-(p.pu_max * y + p.sigmaD_sq) * x / p.p0_max)) ** 64 * mp.e ** (-y)
            return float(mp.quad(f, [0, mp.inf]))

        for x in (0.5, 2.0, 8.0):
            assert cdf_sinr_dl_a1(x, p) == pytest.approx(ref(x), abs=1e-9)

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("k", [1, 5, 48])
    def test_arrays_give_the_scalar_values(self, law, k):
        # The oracle calls each CDF once on a round's nodes; any other
        # caller may pass one float.  Both must give the same values and
        # refuse the same arguments.
        cdf = LAWS[law][1]
        params = preset_params(k)
        xs = np.concatenate([[0.0], np.logspace(-12.0, 15.0, 55)]).reshape(8, 7)
        values = cdf(xs, params)
        assert values.shape == xs.shape
        scalars = np.array([[cdf(float(x), params) for x in row] for row in xs])
        assert np.all(np.abs(values - scalars) <= 1e-15)
        assert cdf(0.0, params) == 0.0 and values[0, 0] == 0.0
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError) as scalar:
                cdf(bad, params)
            with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
                cdf(np.array([1.0, bad, 2.0]), params)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            cdf_sinr_ul(-0.1, P_GENERIC)
        for cdf in (cdf_sinr_ul, cdf_sinr_dl_a1, cdf_sinr_dl_a2):
            with pytest.raises(ValueError):
                cdf(math.nan, P_GENERIC)


class TestSurvivalLaws:
    XS = [0.0, 1e-12, 1.0, 1e3, 1e9, 1e15]

    def test_a1_tail_matches_high_precision(self):
        # A1 at 24/23 dBm, 80 dB, K = 30: the survival function 1e9 out,
        # against mpmath quadrature of the conditioning integral at 40 digits.
        assert _sf_dl_a1(1e9, preset_params(30)) == pytest.approx(5.0278059117969e-9, rel=1e-9)

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("k", [1, 5, 20, 21, 30, 48])
    def test_array_survival_and_scalar_cdf_agree(self, law, k):
        sf, cdf = LAWS[law]
        params = preset_params(k)
        xs = np.array(self.XS)
        s = sf(xs, params)
        f = np.array([cdf(x, params) for x in self.XS])
        assert np.all(np.abs(s + f - 1.0) <= 1e-14)
        assert np.all(np.diff(s) <= 0.0)
        assert s[0] == 1.0 and f[0] == 0.0
        assert [float(sf(x, params)) for x in self.XS] == s.tolist()

    def test_a1_finite_sum_matches_high_precision_integral(self):
        p = AnalyticalParams(1.0, 1.0, 0.3, 0.5, 0.0, 2, 64)

        def ref(x):
            f = lambda y: 1 - (1 - mp.e ** (-(p.pu_max * y + p.sigmaD_sq) * x / p.p0_max)) ** 64
            return float(mp.quad(lambda y: f(y) * mp.e ** (-y), [0, 1, 10, mp.inf]))

        for x in (0.5, 2.0, 8.0, 1e4):
            assert _sf_dl_a1(x, p) == pytest.approx(ref(x), rel=1e-12)


class TestA1RowBlocks:
    """The A1 DL laws' binomial terms, and their row blocks of about
    ``_A1_BLOCK`` floats, with the values of one call on all of x."""

    KERNELS = [(_sf_dl_a1, analysis._sf_dl_a1_rows), (cdf_sinr_dl_a1, analysis._cdf_dl_a1_rows)]

    @pytest.mark.parametrize("k_d", [1, 2, 3, 4, 5, 10, 11, 64, 1000, 1001])
    def test_binomial_logs_are_those_of_the_exact_integers(self, k_d):
        k, k_rest, log_comb = analysis._a1_terms(k_d)
        assert k.tolist() == list(range(1, k_d + 1))
        assert k_rest.tolist() == [k_d - j for j in range(1, k_d + 1)]
        assert log_comb.tolist() == [math.log(comb(k_d, j)) for j in range(1, k_d + 1)]

    @staticmethod
    def _blocked_and_one_call(monkeypatch, x, k_d, block):
        """Each law on x with ``_A1_BLOCK`` = block against its one-call
        kernel, and the sizes of the kernel calls the law made."""
        monkeypatch.setattr(analysis, "_A1_BLOCK", block)
        params = preset_params(k_d)
        for law, kernel in TestA1RowBlocks.KERNELS:
            sizes = []

            def spy(rows, p, kernel=kernel):
                sizes.append(rows.size)
                return kernel(rows, p)

            monkeypatch.setattr(analysis, kernel.__name__, spy)
            blocked = law(x, params)
            monkeypatch.setattr(analysis, kernel.__name__, kernel)
            yield blocked, kernel(np.asarray(x, dtype=float), params), sizes

    @pytest.mark.parametrize("n", [7, 8, 9, 25])
    def test_block_edges(self, monkeypatch, n):
        # k_d = 5 and 40-float blocks: 8 rows a block.
        x = np.concatenate([[0.0], np.logspace(-12.0, 13.0, n - 1)])
        for blocked, whole, sizes in self._blocked_and_one_call(monkeypatch, x, 5, 40):
            assert blocked.shape == x.shape and np.array_equal(blocked, whole)
            assert sizes == ([n] if n <= 8 else [8] * (n // 8) + [n % 8] * (n % 8 > 0))

    def test_panel_nodes_keep_their_shape(self, monkeypatch):
        x = np.expm1(np.linspace(0.0, 40.0, 4 * 15)).reshape(4, 15)
        for blocked, whole, sizes in self._blocked_and_one_call(monkeypatch, x, 5, 40):
            assert blocked.shape == (4, 15) and np.array_equal(blocked, whole)
            assert sizes == [8] * 7 + [4]

    def test_scalar_is_one_call(self, monkeypatch):
        for blocked, whole, sizes in self._blocked_and_one_call(monkeypatch, 3.0, 5, 40):
            assert np.shape(blocked) == () and blocked == whole
            assert sizes == [1]

    @pytest.mark.parametrize("shape", [(), (2,), (3, 15)])
    def test_a_row_larger_than_a_block_is_a_block(self, monkeypatch, shape):
        x = np.expm1(np.linspace(0.0, 40.0, math.prod(shape))).reshape(shape)
        for blocked, whole, sizes in self._blocked_and_one_call(monkeypatch, x, 64, 40):
            assert np.shape(blocked) == shape and np.array_equal(blocked, whole)
            assert sizes == [1] * x.size

    def test_large_k_memory_is_one_block(self):
        # tracemalloc sees numpy's buffers.  One call on a rule round's
        # nodes would make (nodes, 10^4) temporaries of up to 20 MB each.
        params = preset_params(10_000)
        analysis._a1_terms(params.k_d)  # cached: not counted
        peaks = []
        tracemalloc.start()
        try:
            avg_rate_a1(params)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            avg_rate_integral(lambda x: cdf_sinr_ul(x, params), lambda x: cdf_sinr_dl_a1(x, params))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 4e6, peaks


class TestRateRule:
    @pytest.mark.parametrize("alg,k,si_db", [("a1", 5, 80.0), ("a2", 10, 80.0), ("a1", 30, 40.0)])
    def test_matches_adaptive_integral(self, alg, k, si_db):
        params = preset_params(k, si_db)
        sf, cdf = LAWS[alg]
        assert _rate_by_quadrature(params, sf) == pytest.approx(quad_rate(params, cdf), abs=1e-9)

    def test_ul_only(self):
        p = AnalyticalParams(1.7, 0.6, 0.3, 0.2, 0.02, 5, 2)
        oracle = avg_rate_integral(lambda x: cdf_sinr_ul(x, p), _degenerate_cdf)
        assert _rate_by_quadrature(p) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("snr", [1e-9, 1e-6, 1e-3])
    @pytest.mark.parametrize("k", [1, 48])
    def test_low_snr_link(self, k, snr):
        # k Rayleigh UL candidates of mean SNR s, whose integrand in t lives
        # below t ~ s, where the reroute once put no node and read ~0: the
        # UL-only reroute at k = 1, the closed form's large-K route at 48.
        p = AnalyticalParams(1.0, snr, 1.0, 1.0, 0.0, k, k)
        got = _rate_by_quadrature(p) if k == 1 else avg_rate_ul_closed(p).value
        with mp.workdps(80):  # the alternating sum cancels ~2^k
            c = 1 / mp.mpf(snr)
            ref = mp.fsum(comb(k, j) * (-1) ** (j + 1) * mp.e ** (j * c) * mp.e1(j * c)
                          for j in range(1, k + 1)) / mp.log(2)
        assert abs(got - float(ref)) <= 1e-12

    def test_reports_panels_that_do_not_converge(self, monkeypatch):
        monkeypatch.setattr(analysis, "_MAX_PANELS", 16)
        with pytest.raises(QuadratureError) as err:
            _rate_by_quadrature(preset_params(30), _sf_dl_a1)
        assert 0.0 < err.value.achieved < math.inf

    @pytest.mark.parametrize("si_db", [40, 60, 80, 100, 120])
    @pytest.mark.parametrize("k", [30, 40, 48])
    def test_a1_large_k_against_reference(self, k, si_db):
        # perfbench/reference.json: mpmath at 40 digits.
        radio = REFERENCE["settings"]["radio"]
        assert (radio["p0_dbm"], radio["pu_dbm"], radio["nf_bs_db"], radio["nf_mt_db"],
                radio["bandwidth_hz"]) == (24, 23, 13, 9, 1e7)
        ref, = [float(p["rate_bits"]) for p in REFERENCE["points"]
                if (p["set"], p["alg"], p["k"], p["si_db"]) == ("analysis-grid", "a1", k, si_db)]
        assert avg_rate_a1(preset_params(k, si_db)).value == pytest.approx(ref, rel=1e-6)


class TestRoutes:
    def test_closed_form_rate_defaults_to_closed(self):
        assert ClosedFormRate(1.0).route == "closed"
        assert not ClosedFormRate(1.0).flagged

    @pytest.mark.parametrize("alg,p0", [("a1", 2.0), ("a2", 1.0)])
    def test_pole_route_beats_large_k(self, alg, p0):
        # A pole goes to the rate integral above 40 users too, and only a
        # pole flags the result.
        fn = avg_rate_a1 if alg == "a1" else avg_rate_a2
        res = fn(AnalyticalParams(p0, 1.0, 0.3, 0.2, 0.01, 48, 48))
        assert res.route == "quadrature:pole" and res.flagged
        off_pole = fn(AnalyticalParams(p0 + 0.5, 1.0, 0.3, 0.2, 0.01, 48, 48))
        assert off_pole.route == "quadrature:large-k" and not off_pole.flagged

    @pytest.mark.parametrize("k,route", [(5, "closed"), (10, "quadrature:cancellation"),
                                         (48, "quadrature:large-k")])
    def test_a2_route(self, k, route):
        assert avg_rate_a2(preset_params(k)).route == route

    @pytest.mark.parametrize("k,route", [(1, "closed"), (10, "closed"),
                                         (30, "quadrature:cancellation"),
                                         (41, "quadrature:large-k")])
    def test_ul_route(self, k, route):
        # The UL form returns its route too; it has no pole, so it is never flagged.
        result = avg_rate_ul_closed(preset_params(k))
        assert isinstance(result, ClosedFormRate)
        assert result.route == route and not result.flagged

    @pytest.mark.parametrize("alg", ["a1", "a2"])
    def test_early_stop_keeps_the_full_sum_decision(self, alg):
        # The closed sums stop once their gross magnitude alone fails the
        # absolute estimate; the route must be the one the full sums give.
        fn, dl_terms = (avg_rate_a1, _dl_a1_terms) if alg == "a1" else (avg_rate_a2, _dl_a2_terms)
        for si_db in (40.0, 80.0, 120.0):
            for k in (1, 2, 5, 8, 10, 15, 20, 30, 40):
                params = preset_params(k, si_db)
                terms, gross = zip(*list(_ul_terms(params)) + list(dl_terms(params)))
                estimate = analysis._EPS4 * math.fsum(gross)
                closed = estimate <= analysis._RATE_TOL
                result = fn(params)
                assert (result.route == "closed") == closed, (si_db, k)
                # Jensen's inequality, with E[max of K unit exponentials]
                # = H_K <= 1 + ln K and the DL SINR at most its
                # interference-free SNR.
                bound = (math.log2(1.0 + (1.0 + math.log(k)) * params.pu_max
                                   / (params.p0_max * params.si_gain + params.sigma0_sq))
                         + math.log2(1.0 + (1.0 + math.log(k)) * params.p0_max
                                     / params.sigmaD_sq))
                assert result.value < bound

    def test_analysis_grid_within_1e9_bits_of_reference(self):
        # Both routes hold the same absolute 1e-9-bit contract at every
        # analysis-grid point of perfbench/reference.json (mpmath, 40 digits).
        points = [p for p in REFERENCE["points"] if p["set"] == "analysis-grid"]
        assert len(points) == 120
        for p in points:
            fn = avg_rate_a1 if p["alg"] == "a1" else avg_rate_a2
            value = fn(preset_params(p["k"], float(p["si_db"]))).value
            assert abs(value - float(p["rate_bits"])) <= 1e-9, (p["alg"], p["si_db"], p["k"])


class TestRateIntegral:
    def test_zero_when_both_links_dead(self):
        assert avg_rate_integral(_degenerate_cdf, _degenerate_cdf) == 0.0

    def test_two_unit_rayleigh_links(self):
        # Two independent unit-SNR Rayleigh links: 2 e E1(1) / ln 2.
        single = lambda x: 1.0 - np.exp(-x)
        got = avg_rate_integral(single, single)
        assert got == pytest.approx(1.7206947645417719, abs=1e-9)

    def test_nonconvergent_integrand_reports_bound(self):
        # A CDF stuck at 0 makes the integrand ~ 2/(1+x): divergent.
        with pytest.raises(QuadratureError) as err:
            avg_rate_integral(lambda x: 0.0, lambda x: 0.0)
        assert err.value.achieved > 0.0

    @pytest.mark.parametrize("bad, cdf", [
        # NaN on (1, 50) once counted as 0, since max(0, nan) is 0: 0.6686.
        (r"UL CDF value at x = .* is nan",
         lambda x: np.where((1.0 < x) & (x < 50.0), np.nan, -np.expm1(-x))),
        # Stuck above 1, the integrand was clipped to 0 everywhere: 0.0.
        (r"UL CDF value at x = 2979\.95.* is 1\.5", lambda x: 1.5),
        (r"UL CDF value at x = .* is -0\.2", lambda x: np.where(x < 1.0, -0.2, 1.0)),
    ], ids=["nan", "above-1", "below-0"])
    def test_rejects_cdf_values_outside_0_1(self, bad, cdf):
        with pytest.raises(ValueError, match=bad):
            avg_rate_integral(cdf, _degenerate_cdf)
        with pytest.raises(ValueError, match=bad.replace("UL", "DL")):
            avg_rate_integral(_degenerate_cdf, cdf)

    @pytest.mark.parametrize("snr", [1e6, 1e12])
    def test_high_snr_link(self, snr):
        # One Rayleigh link of mean SNR s: e^{1/s} E1(1/s) / ln 2.  At 1e12
        # the integrand in x stays near 1/(1+x) out to x ~ 1e12.
        c = 1.0 / snr
        got = avg_rate_integral(lambda x: -np.expm1(-c * x), _degenerate_cdf)
        ref = float(mp.e ** mp.mpf(c) * mp.e1(mp.mpf(c)) / mp.log(2))
        assert got == pytest.approx(ref, abs=1e-9)

    def test_analysis_grid_within_1e12_bits_of_reference(self):
        # The oracle itself, not the closed forms, at every analysis-grid
        # point of perfbench/reference.json (mpmath, 40 digits).  None may
        # raise: the benchmark's analysis-grid ignores an oracle's errors.
        points = [p for p in REFERENCE["points"] if p["set"] == "analysis-grid"]
        assert len(points) == 120
        for p in points:
            params = preset_params(p["k"], float(p["si_db"]))
            oracle = quad_rate(params, cdf_sinr_dl_a1 if p["alg"] == "a1" else cdf_sinr_dl_a2)
            assert abs(oracle - float(p["rate_bits"])) <= 1e-12, (p["alg"], p["si_db"], p["k"])

    @staticmethod
    def _low_snr_link_error(snr):
        # One Rayleigh link of mean SNR s, whose integrand in t lives below
        # t ~ s, against e^{1/s} E1(1/s) / ln 2 at 40 digits.
        got = avg_rate_integral(lambda x: -np.expm1(-x / snr), _degenerate_cdf)
        c = 1.0 / mp.mpf(snr)
        return abs(got - float(mp.e ** c * mp.e1(c) / mp.log(2)))

    @pytest.mark.parametrize("snr", [1e-9, 1e-6, 1e-3])
    def test_low_snr_link(self, snr):
        assert self._low_snr_link_error(snr) <= 1e-12

    @pytest.mark.parametrize("snr", [1e-9, 1e-6, 1e-3])
    def test_low_snr_link_needs_the_breakpoints(self, monkeypatch, snr):
        # Started from one panel on [0, T], no node sees the link's mass and
        # the error estimate reads ~0: the rule is silently wrong by about
        # the whole rate, s / ln 2.
        monkeypatch.setattr(analysis, "_kronrod_breakpoints", lambda cutoff: np.array([0.0, cutoff]))
        assert self._low_snr_link_error(snr) > 0.5 * snr

    def test_reports_its_bound_when_the_panel_cap_is_hit(self, monkeypatch):
        monkeypatch.setattr(analysis, "_MAX_PANELS", 20)
        panels, live, live_counts = analysis._kronrod_panels, [], []

        def spy(integrand, lo, hi):
            # The live panels: those evaluated that no later panel lies in.
            live[:] = [(a, b) for a, b in live if not ((a <= lo) & (hi <= b)).any()]
            live.extend(zip(lo, hi))
            live_counts.append(len(live))
            return panels(integrand, lo, hi)

        monkeypatch.setattr(analysis, "_kronrod_panels", spy)
        with pytest.raises(QuadratureError) as err:
            quad_rate(preset_params(15, 100.0), cdf_sinr_dl_a1)
        assert analysis._RATE_TOL < err.value.achieved < math.inf
        # From its 16 first panels the rule stops before a split, since
        # each panel split in four adds 3; from one panel on [0, T] it
        # splits up to the cap, and no round may leave more live panels.
        assert live_counts == [16]
        live.clear()
        live_counts.clear()
        monkeypatch.setattr(analysis, "_kronrod_breakpoints", lambda cutoff: np.array([0.0, cutoff]))
        with pytest.raises(QuadratureError) as err:
            quad_rate(preset_params(15, 100.0), cdf_sinr_dl_a1)
        assert analysis._RATE_TOL < err.value.achieved < math.inf
        assert len(live_counts) > 2 and max(live_counts) <= 20

    @staticmethod
    def _sequential_cutoff(integrand):
        # The cut-off probe as it was: one integrand call per candidate 8,
        # 16, ..., 512 in order, up to the first where it is not positive;
        # None where it is positive at all seven.
        cutoff = 8.0
        while integrand(np.array([cutoff]))[0] > 0.0:
            if cutoff >= 512.0:
                return None
            cutoff *= 2.0
        return cutoff

    @pytest.mark.parametrize("zero_from", [8.0, 16.0, 64.0, 512.0, math.inf])
    def test_cutoff_probe_is_one_call(self, monkeypatch, zero_from):
        # A step integrand, positive below t = zero_from and 0 from there.
        # The rule is stubbed, so every integrand call is a probe.
        def step(t):
            return np.where(t < zero_from, 1.0, 0.0)

        def integrand(t):
            probes.append(t)
            return step(t)

        def rule(integrand, edges, tol):
            cutoffs.append(edges[-1])
            return 0.0, 0.0

        probes, cutoffs = [], []
        monkeypatch.setattr(analysis, "_kronrod_rule", rule)
        want = self._sequential_cutoff(step)
        if want is None:
            with pytest.raises(QuadratureError) as err:
                analysis._integrate(integrand)
            assert err.value.achieved == math.inf
            assert cutoffs == []
        else:
            assert analysis._integrate(integrand) == 0.0
            assert cutoffs == [want]
        assert len(probes) == 1

    def test_rejects_a_nan_cdf_value_past_the_cutoff(self):
        # The integrand is e^{-x}, exactly 0 from t = 8 (x ~ 2980), so T = 8,
        # while the CDF is NaN from x = 1e10 (t ~ 23) on.  Probed one
        # candidate at a time, the rule stopped at T = 8, never saw the NaN
        # and returned the unit-SNR link's rate; probed at all seven
        # candidates at once, the CDF is checked at t = 32 too.
        cdf = lambda x: np.where(x < 1e10, -np.expm1(-x), np.nan)
        with pytest.raises(ValueError, match=r"UL CDF value at x = .* is nan"):
            avg_rate_integral(cdf, _degenerate_cdf)

    def test_a2_at_preset_radio_point(self):
        # 24/23 dBm, 40 dB cancellation, K = 8: the A2 sum reroutes to the
        # rate integral.  Reference: perfbench/reference.json (mpmath at 40
        # digits, two independent methods per link rate).
        params = AnalyticalParams.from_config(config_from_db(24, 23, 40, k_u=8, k_d=8))
        value = avg_rate_a2(params).value
        assert value == pytest.approx(18.476650174666982236941392603738, rel=1e-6)


class TestUlClosed:
    def test_single_user_unit_snr(self):
        p = AnalyticalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        assert avg_rate_ul_closed(p).value == pytest.approx(0.86034738227088595, rel=1e-12)

    def test_si_drives_rate_to_zero(self):
        vals = [
            avg_rate_ul_closed(AnalyticalParams(1.0, 1.0, 1.0, 1.0, si, 3, 3)).value
            for si in (0.0, 1.0, 10.0, 100.0, 1e4)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_matches_ul_only_quadrature(self):
        p = AnalyticalParams(1.7, 0.6, 0.3, 0.2, 0.02, 5, 2)
        oracle = avg_rate_integral(lambda x: cdf_sinr_ul(x, p), _degenerate_cdf)
        assert avg_rate_ul_closed(p).value == pytest.approx(oracle, rel=1e-6)

    def test_large_k_falls_back_smoothly(self):
        p = AnalyticalParams(1.0, 1.0, 0.5, 0.5, 0.0, 200, 2)
        oracle = avg_rate_integral(lambda x: cdf_sinr_ul(x, p), _degenerate_cdf)
        assert avg_rate_ul_closed(p).value == pytest.approx(oracle, rel=1e-7)


class TestAvgRateA1:
    def test_k1_against_quadrature(self):
        p = AnalyticalParams(2.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        res = avg_rate_a1(p)
        assert not res.flagged
        assert res.value == pytest.approx(quad_rate(p, cdf_sinr_dl_a1), rel=1e-6)

    def test_generic_against_quadrature(self):
        res = avg_rate_a1(P_GENERIC)
        assert not res.flagged
        assert res.value == pytest.approx(quad_rate(P_GENERIC, cdf_sinr_dl_a1), rel=1e-6)

    def test_near_singular_stays_accurate(self):
        p = AnalyticalParams(3.0 * (1 + 1e-6), 1.0, 0.3, 0.2, 0.01, 5, 5)
        res = avg_rate_a1(p)
        assert not res.flagged
        assert res.value == pytest.approx(quad_rate(p, cdf_sinr_dl_a1), rel=1e-6)

    def test_exact_pole_flags_and_reroutes(self):
        p = AnalyticalParams(3.0, 1.0, 0.3, 0.2, 0.01, 5, 5)
        res = avg_rate_a1(p)
        assert res.flagged
        assert math.isfinite(res.value)
        assert res.value == pytest.approx(quad_rate(p, cdf_sinr_dl_a1), abs=1e-9)

    def test_monte_carlo_agreement(self):
        config = SystemConfig(1.0, 0.8, 1e-2, 1e-2, 1e-8, 5, 5)
        stats = run_trials(config, Scheduler.A1, 200_000, seed=3)
        closed = avg_rate_a1(P_GENERIC).value
        assert abs(closed - stats.mean_sum_rate) <= 3.0 * stats.std_error

    def test_k15_against_high_precision_transcription(self):
        # Worst-case compensated-summation stress: the K = 15 alternating
        # sum re-evaluated term by term at 40 digits.
        p = AnalyticalParams(1.0, 0.8, 0.05, 0.04, 1e-6, 15, 15)

        def mp_xi1(x, y):
            z = mp.mpf(x) * mp.mpf(y)
            return mp.e ** z * mp.e1(z)

        ln2 = mp.log(2)
        p0, pu = mp.mpf(p.p0_max), mp.mpf(p.pu_max)
        scale = (p0 * mp.mpf(p.si_gain) + mp.mpf(p.sigma0_sq)) / pu
        a_of = lambda k: k * mp.mpf(p.sigmaD_sq) / p0
        ul = mp.fsum(
            mp.binomial(15, k) * (-1) ** (k + 1) / ln2 * mp_xi1(k * scale, 1)
            for k in range(1, 16)
        )
        dl = mp.fsum(
            mp.binomial(15, k) * (-1) ** (k + 1) / ln2 * (p0 / (p0 - k * pu))
            * (mp_xi1(a_of(k), 1) - mp_xi1(a_of(k), p0 / (k * pu)))
            for k in range(1, 16)
        )
        reference = float(ul + dl)
        assert avg_rate_a1(p).value == pytest.approx(reference, rel=1e-9)


class TestAvgRateA2:
    def test_k1_degenerates_to_a1(self):
        p = AnalyticalParams(1.4, 0.9, 0.3, 0.2, 0.05, 1, 1)
        assert avg_rate_a2(p).value == pytest.approx(avg_rate_a1(p).value, rel=1e-12)

    def test_generic_against_quadrature(self):
        res = avg_rate_a2(P_GENERIC)
        assert not res.flagged
        assert res.value == pytest.approx(quad_rate(P_GENERIC, cdf_sinr_dl_a2), rel=1e-6)

    def test_various_points_against_quadrature(self):
        for (p0, pu, s0, sd, si, ku, kd) in [
            (2.0, 1.0, 1.0, 1.0, 0.0, 1, 1),
            (0.7, 1.3, 0.2, 0.05, 1e-4, 2, 2),
            (1.5, 0.9, 0.3, 0.2, 0.01, 3, 3),
        ]:
            p = AnalyticalParams(p0, pu, s0, sd, si, ku, kd)
            assert avg_rate_a2(p).value == pytest.approx(
                quad_rate(p, cdf_sinr_dl_a2), rel=1e-6
            ), p

    def test_pole_flags_and_stays_close(self):
        p = AnalyticalParams(1.0, 1.0, 0.1, 0.1, 1e-3, 5, 5)
        res = avg_rate_a2(p)
        assert res.flagged
        assert res.value == pytest.approx(quad_rate(p, cdf_sinr_dl_a2), abs=1e-9)

    def test_monte_carlo_agreement(self):
        config = SystemConfig(1.0, 0.8, 1e-2, 1e-2, 1e-8, 5, 5)
        stats = run_trials(config, Scheduler.A2, 200_000, seed=9)
        closed = avg_rate_a2(P_GENERIC).value
        assert abs(closed - stats.mean_sum_rate) <= 3.0 * stats.std_error

    def test_beats_a1_for_multiuser_dl(self):
        for (p0, pu, s0, sd, si) in [
            (1.0, 0.8, 1e-2, 1e-2, 1e-8),
            (2.0, 0.6, 0.3, 0.4, 0.1),
            (0.5, 1.5, 0.05, 0.2, 1e-3),
        ]:
            for k in (2, 5):
                p = AnalyticalParams(p0, pu, s0, sd, si, k, k)
                assert avg_rate_a2(p).value >= avg_rate_a1(p).value


def mp_survival_rate(params, alg):
    """Rate integral of the UL and DL survival laws at 30 digits, each law
    in a form with no pole.  A1's DL law averages 1 - (1 - e^{-(sigmaD^2 +
    pu g) x / p0})^K over the interferer's gain g ~ Exp(1) term by term; A2's
    is the best of K candidates, each above x with chance
    e^{-sigmaD^2 x / p0} / (1 + pu x / p0)."""
    with mp.workdps(30):
        p0, pu, sd = mp.mpf(params.p0_max), mp.mpf(params.pu_max), mp.mpf(params.sigmaD_sq)
        a_ul = (p0 * mp.mpf(params.si_gain) + mp.mpf(params.sigma0_sq)) / pu
        k_u, k_d = params.k_u, params.k_d

        def sf_dl(x):
            if alg == "a1":
                return mp.fsum(mp.binomial(k_d, k) * (-1) ** (k + 1) * mp.exp(-k * sd * x / p0)
                               / (1 + k * pu * x / p0) for k in range(1, k_d + 1))
            return 1 - (1 - mp.exp(-sd * x / p0) / (1 + pu * x / p0)) ** k_d

        def integrand(x):
            return (1 - (1 - mp.exp(-a_ul * x)) ** k_u + sf_dl(x)) / (1 + x)

        value, err = mp.quad(integrand, [0, 1, 10, 100, 1000, mp.inf], error=True)
        assert err < mp.mpf("1e-20")
        return float(value / mp.log(2))


POLES = [("a1", k_users, k) for k_users in (1, 2, 5) for k in range(1, k_users + 1)]
POLES += [("a2", k_users, 1) for k_users in (1, 2, 5)]


class TestPoles:
    @pytest.mark.parametrize("alg,k_users,k", POLES)
    def test_pole_within_1e9_bits_of_mpmath(self, alg, k_users, k):
        # A1 at p0 = k pu, A2 at p0 = pu: the rate integral at the point itself.
        params = AnalyticalParams(k * 0.8, 0.8, 0.3, 0.2, 0.01, k_users, k_users)
        res = (avg_rate_a1 if alg == "a1" else avg_rate_a2)(params)
        assert res.route == "quadrature:pole"
        assert res.flagged is True
        assert abs(res.value - mp_survival_rate(params, alg)) <= 1e-9


class TestAsymptotic:
    def test_matched_noise_reference_point(self):
        # With pu equal to the UL denominator the constant term vanishes
        # and the value is log(log(16)^2) nats.
        p = AnalyticalParams(1.0, 1.0, 1.0, 1.0, 0.0, 16, 16)
        out = asymptotic_rate_a1(p)
        expected = math.log(math.log(16.0) ** 2)
        assert out.nats == pytest.approx(expected, rel=1e-12)
        assert out.nats == pytest.approx(2.0395, abs=5e-4)
        assert out.bits == pytest.approx(expected / math.log(2.0), rel=1e-12)

    def test_grows_with_user_count(self):
        vals = [
            asymptotic_rate_a1(AnalyticalParams(1.0, 1.0, 1.0, 1.0, 0.0, k, k)).nats
            for k in (4, 8, 16, 32, 64)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            asymptotic_rate_a1(AnalyticalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1, 16))

    def test_relative_gap_shrinks(self):
        gaps = []
        for k in (16, 64, 256):
            p = AnalyticalParams(1.0, 0.01, 0.01, 1.0, 0.0, k, k)
            value = avg_rate_a1(p).value
            gaps.append(abs(value - asymptotic_rate_a1(p).bits) / value)
        assert gaps[0] > gaps[1] > gaps[2]


class TestParamsValidation:
    def test_rejects_nonpositive_powers(self):
        with pytest.raises(ValueError):
            AnalyticalParams(0.0, 1.0, 1.0, 1.0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            AnalyticalParams(1.0, -1.0, 1.0, 1.0, 0.0, 1, 1)

    def test_from_config(self):
        cfg = SystemConfig(2.0, 3.0, 0.1, 0.2, 0.5, 4, 6)
        p = AnalyticalParams.from_config(cfg)
        assert (p.p0_max, p.pu_max, p.k_u, p.k_d) == (2.0, 3.0, 4, 6)

    def test_whole_float_user_counts_give_the_same_bits(self):
        as_int = AnalyticalParams(1.0, 0.8, 1e-2, 1e-2, 1e-8, 5, 5)
        as_float = AnalyticalParams(1.0, 0.8, 1e-2, 1e-2, 1e-8, 5.0, 5.0)
        assert avg_rate_a1(as_float) == avg_rate_a1(as_int)
        assert avg_rate_a2(as_float) == avg_rate_a2(as_int)

    @pytest.mark.parametrize("s0, sd, k_u", [
        (1e-2, 1e-2, 2.5), (math.nan, 1e-2, 5), (1e-2, math.inf, 5),
    ], ids=["fractional-k_u", "nan-sigma0_sq", "inf-sigmaD_sq"])
    def test_rejects_what_system_config_rejects(self, s0, sd, k_u):
        with pytest.raises(ValueError):
            AnalyticalParams(1.0, 0.8, s0, sd, 1e-8, k_u, 5)

    def test_is_a_system_config_for_the_engine(self):
        params = AnalyticalParams(1.0, 0.8, 1e-2, 1e-2, 1e-8, 3, 4)
        assert isinstance(params, SystemConfig)
        same = SystemConfig(1.0, 0.8, 1e-2, 1e-2, 1e-8, 3, 4)
        assert run_trials(params, "a2", 5000, seed=3) == run_trials(same, "a2", 5000, seed=3)
