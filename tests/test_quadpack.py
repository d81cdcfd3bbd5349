"""The rate integral's Gauss-Kronrod rule against scipy's ``quad``, its
round budget on the analysis grid, and its failure path.

``analysis._kronrod_rule`` is QUADPACK's QAG (a global-adaptive 7/15-point
Gauss-Kronrod rule) in numpy, so on any integrand its value must lie within
its own tolerance, plus scipy's reported error, of what
``scipy.integrate.quad`` returns with ``epsrel=0``.  scipy is no dependency
of the package; it serves here as an independent reference implementation,
and these comparisons skip where it is not installed.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fdsched import analysis
from fdsched.analysis import (
    AnalyticalParams,
    QuadratureError,
    avg_rate_a1,
    avg_rate_a2,
    avg_rate_integral,
)
from fdsched.model import config_from_db

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())

try:
    from scipy import integrate
except ImportError:
    integrate = None

needs_scipy = pytest.mark.skipif(integrate is None, reason="scipy is not installed")


def scipy_quad(f, a, b, epsabs, points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=0.0, points=points,
                              limit=analysis._MAX_PANELS)


def _scalar(f):
    """``f`` (elementwise on a float array) as the scalar callable ``quad`` calls."""
    return lambda t: float(f(np.array([t]))[0])


@pytest.fixture
def rounds(monkeypatch):
    """``[probe calls, rounds]`` of every rate integral run: the integrand
    calls before the rule's first panel table, and the panel tables it
    makes, the first panels' included."""
    records = []
    panels, integrate = analysis._kronrod_panels, analysis._integrate

    def panels_spy(integrand, lo, hi):
        records[-1][1] += 1
        return panels(integrand, lo, hi)

    def integrate_spy(integrand):
        record = [0, 0]
        records.append(record)

        def counted(t):
            record[0] += record[1] == 0
            return integrand(t)

        return integrate(counted)

    monkeypatch.setattr(analysis, "_kronrod_panels", panels_spy)
    monkeypatch.setattr(analysis, "_integrate", integrate_spy)
    return records


@pytest.fixture
def rule_calls(monkeypatch):
    """Every ``(integrand, edges, tol, (value, abserr))`` the rate integral runs."""
    calls = []
    rule = analysis._kronrod_rule

    def spy(integrand, edges, tol):
        out = rule(integrand, edges, tol)
        calls.append((integrand, edges, tol, out))
        return out

    monkeypatch.setattr(analysis, "_kronrod_rule", spy)
    return calls


def _grid_params(si_db, k):
    """An analysis-grid point (24/23 dBm, the radio point of
    perfbench/reference.json)."""
    return AnalyticalParams.from_config(config_from_db(24, 23, float(si_db), k_u=k, k_d=k))


def _grid_oracle(alg, si_db, k):
    """The rate-integral oracle at an analysis-grid point."""
    params = _grid_params(si_db, k)
    cdf_dl = analysis.cdf_sinr_dl_a1 if alg == "a1" else analysis.cdf_sinr_dl_a2
    return avg_rate_integral(lambda x: analysis.cdf_sinr_ul(x, params),
                             lambda x: cdf_dl(x, params))


GRID = sorted((p["alg"], p["si_db"], p["k"]) for p in REFERENCE["points"]
              if p["set"] == "analysis-grid")

# Integrands on [0, 1] with an endpoint or interior singularity, or a narrow
# peak: QAGS reaches them by extrapolation, QAG by halving alone.
EXTRAPOLATED = {
    "inverse-sqrt": lambda t: 1.0 / np.sqrt(t),
    "log": lambda t: np.log(t),
    "cusp": lambda t: np.abs(t - 0.5) ** 0.3,
    "lorentzian": lambda t: 1e-3 / ((t - 0.3) ** 2 + 1e-6),
}


@needs_scipy
def test_grid_oracles_match_scipy(rule_calls):
    assert len(GRID) == 120
    for point in GRID:
        _grid_oracle(*point)
    assert len(rule_calls) == len(GRID)
    for point, (f, edges, tol, (value, abserr)) in zip(GRID, rule_calls):
        assert abserr <= tol, point
        want, want_err = scipy_quad(_scalar(f), edges[0], edges[-1], tol, points=edges[1:-1])
        assert abs(value - want) <= tol + want_err, point


def test_grid_integrals_take_one_probe_and_at_most_four_rounds(rounds):
    # The 120 analysis-grid oracles, then the 63 closed forms there that
    # reroute to the rate integral.
    for point in GRID:
        _grid_oracle(*point)
    assert len(rounds) == len(GRID)
    integrals = list(zip(GRID, rounds))
    for alg, si_db, k in GRID:
        closed = avg_rate_a1 if alg == "a1" else avg_rate_a2
        n_before = len(rounds)
        route = closed(_grid_params(si_db, k)).route
        assert len(rounds) == n_before + (route != "closed")
        integrals += [((alg, si_db, k, route), r) for r in rounds[n_before:]]
    assert len(integrals) == 120 + 63
    for point, (probes, n_rounds) in integrals:
        assert probes == 1 and n_rounds <= 4, point


@needs_scipy
@pytest.mark.parametrize("epsabs", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("name", EXTRAPOLATED)
def test_extrapolated_integrals_match_scipy(name, epsabs):
    f = EXTRAPOLATED[name]
    value, abserr = analysis._kronrod_rule(f, np.array([0.0, 1.0]), epsabs)
    assert abserr <= epsabs   # converged below the panel cap
    want, want_err = scipy_quad(_scalar(f), 0.0, 1.0, epsabs)
    assert want_err <= epsabs
    assert abs(value - want) <= epsabs + want_err


def test_rate_integral_reports_its_bound_when_the_limit_is_hit(monkeypatch, rule_calls):
    monkeypatch.setattr(analysis, "_MAX_PANELS", 20)
    with pytest.raises(QuadratureError) as err:
        _grid_oracle("a1", 80, 30)
    (_, _, tol, (_, abserr)), = rule_calls
    assert abserr > tol
    assert err.value.achieved == abserr / analysis.LN2
    assert analysis._RATE_TOL < err.value.achieved < math.inf
