"""The QAGS port against scipy's ``quad``, and the rate integral's failure path.

The port is a statement-for-statement translation of QUADPACK's dqagse, so
on any integrand it must return the bits that ``scipy.integrate.quad``
returns with ``epsrel=0`` and the same limit.  scipy is the reference
implementation; the comparisons skip unless it is the version the port was
checked against (scipy's QUADPACK may change between versions).
"""

import json
import math
import warnings
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import pytest

from fdsched import analysis, quadpack
from fdsched.analysis import AnalyticalParams, QuadratureError, avg_rate_integral
from fdsched.model import config_from_db

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())

CHECKED_WITH_SCIPY = "1.17.1"


def _scipy_version():
    try:
        return version("scipy")
    except PackageNotFoundError:
        return None


needs_reference_scipy = pytest.mark.skipif(
    _scipy_version() != CHECKED_WITH_SCIPY,
    reason=f"the port was checked against scipy {CHECKED_WITH_SCIPY}")


def scipy_quad(f, a, b, epsabs):
    from scipy import integrate  # here, so that the module imports without scipy

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=0.0, limit=quadpack.LIMIT)


@pytest.fixture
def qags_calls(monkeypatch):
    """Every ``(f, a, b, epsabs, (result, abserr))`` the rate integral runs."""
    calls = []
    qags = quadpack.qags

    def spy(f, a, b, epsabs):
        out = qags(f, a, b, epsabs)
        calls.append((f, a, b, epsabs, out))
        return out

    monkeypatch.setattr(quadpack, "qags", spy)
    return calls


def _grid_oracle(alg, si_db, k):
    """The rate-integral oracle at an analysis-grid point (24/23 dBm, the
    radio point of perfbench/reference.json)."""
    params = AnalyticalParams.from_config(
        config_from_db(24, 23, float(si_db), k_u=k, k_d=k))
    cdf_dl = analysis.cdf_sinr_dl_a1 if alg == "a1" else analysis.cdf_sinr_dl_a2
    return avg_rate_integral(lambda x: analysis.cdf_sinr_ul(x, params),
                             lambda x: cdf_dl(x, params))


GRID = sorted((p["alg"], p["si_db"], p["k"]) for p in REFERENCE["points"]
              if p["set"] == "analysis-grid")

# Integrands on [0, 1] whose integrals take dqagse's extrapolation path.
EXTRAPOLATED = {
    "inverse-sqrt": lambda t: 1.0 / math.sqrt(t),
    "log": lambda t: math.log(t),
    "cusp": lambda t: abs(t - 0.5) ** 0.3,
    "lorentzian": lambda t: 1e-3 / ((t - 0.3) ** 2 + 1e-6),
}


@needs_reference_scipy
def test_grid_oracles_match_scipy(qags_calls):
    assert len(GRID) == 120
    for point in GRID:
        _grid_oracle(*point)
    assert len(qags_calls) == len(GRID)
    for point, (f, a, b, epsabs, got) in zip(GRID, qags_calls):
        assert got == scipy_quad(f, a, b, epsabs), point


@needs_reference_scipy
@pytest.mark.parametrize("epsabs", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("name", EXTRAPOLATED)
def test_extrapolated_integrals_match_scipy(monkeypatch, name, epsabs):
    calls = [0, 0]
    steps = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg", lambda *args: steps.append(1) or qelg(*args))

    def counted(i):
        def f(t):
            calls[i] += 1
            return EXTRAPOLATED[name](t)
        return f

    got = quadpack.qags(counted(0), 0.0, 1.0, epsabs)
    assert steps   # the epsilon algorithm ran
    assert got == scipy_quad(counted(1), 0.0, 1.0, epsabs)
    assert calls[0] == calls[1]   # the same nodes


@needs_reference_scipy
@pytest.mark.parametrize("limit", [1, 2, 3, 10])
def test_limit_matches_scipy(monkeypatch, limit):
    monkeypatch.setattr(quadpack, "LIMIT", limit)
    f = EXTRAPOLATED["lorentzian"]
    assert quadpack.qags(f, 0.0, 1.0, 1e-12) == scipy_quad(f, 0.0, 1.0, 1e-12)


# Integrands that end in dqagse's round-off flags (ier = 2, ierro = 3), at
# the subdivision limit, or with the ordered error list cut short.
HARD = {
    "peaks": lambda t: (1e-4 / ((t - 0.1) ** 2 + 1e-8) + 1e-4 / ((t - 0.35) ** 2 + 1e-8)
                        + 1e-4 / ((t - 0.62) ** 2 + 1e-8) + 1e-4 / ((t - 0.9) ** 2 + 1e-8)),
    "inverse": lambda t: 1.0 / t if t else 0.0,
    "step": lambda t: 1.0 if t > 0.37 else 0.0,
    "sin-inverse": lambda t: math.sin(1.0 / t) if t else 0.0,
    "narrow-exp": lambda t: math.exp(-1e3 * abs(t)),
    "log-squared": lambda t: math.log(abs(t)) ** 2 / math.sqrt(abs(t)) if t else 0.0,
}


@needs_reference_scipy
@pytest.mark.parametrize("name, a, b, epsabs, limit", [
    ("peaks", -1.0, 2.0, 1e-15, 50),
    ("peaks", 0.0, 1.0, 1e-15, 500),
    ("peaks", 0.0, 1.0, 1e-8, 50),
    ("inverse", -1.0, 2.0, 1e-15, 50),
    ("step", -1.0, 2.0, 1e-15, 50),
    ("sin-inverse", -1.0, 2.0, 1e-15, 50),
    ("narrow-exp", -1.0, 2.0, 1e-300, 10),
    ("log-squared", 1.0, 0.0, 1e-15, 50),
])
def test_hard_integrals_match_scipy(monkeypatch, name, a, b, epsabs, limit):
    monkeypatch.setattr(quadpack, "LIMIT", limit)
    f = HARD[name]
    assert quadpack.qags(f, a, b, epsabs) == scipy_quad(f, a, b, epsabs)


def test_rate_integral_reports_its_bound_when_the_limit_is_hit(monkeypatch, qags_calls):
    monkeypatch.setattr(quadpack, "LIMIT", 3)
    with pytest.raises(QuadratureError) as err:
        _grid_oracle("a1", 80, 30)
    (_, _, _, epsabs, (_, abserr)), = qags_calls
    assert abserr > 2.0 * epsabs
    assert err.value.achieved == abserr / analysis.LN2
    assert err.value.achieved > analysis._RATE_TOL


def test_qags_needs_a_positive_tolerance():
    with pytest.raises(ValueError, match="epsabs"):
        quadpack.qags(math.exp, 0.0, 1.0, 0.0)
