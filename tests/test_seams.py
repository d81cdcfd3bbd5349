"""The tracing seams of perfbench/tracer.py still exist in the package, and
still see the calls of a small version of every benchmark workload, so a
refactor cannot silently drop per-layer metrics."""

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _expect_nonzero():
    """``EXPECT_NONZERO`` of perfbench/run.py, read without importing it."""
    tree = ast.parse((_PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "EXPECT_NONZERO" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no EXPECT_NONZERO")


@pytest.mark.parametrize("module, attribute, span", _tracer().SEAMS)
def test_seam_resolves_to_callable(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute, None)), span


def _fig4(fd, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert fd.cli.main(["simulate", "--preset", "fig4", "--workers", "1", "--trials", "256",
                            "--out", str(tmp_path / "fig4.csv")]) == 0


def _large_k(fd, tmp_path):
    config = fd.config_from_db(24.0, 23.0, 80.0, k_u=4, k_d=4)
    fd.sim.run_coupled(config, ["es-fdhd", "a2-opa"], 2 * 4096, 1, workers=2)


def _analysis_grid(fd, tmp_path):
    an = fd.analysis
    for k in (5, 48):  # the closed route, on xi_n, and the large-K reroute
        params = fd.AnalyticalParams.from_config(fd.config_from_db(24.0, 23.0, 80.0, k_u=k, k_d=k))
        an.avg_rate_a1(params)
        an.avg_rate_integral(lambda x: an.cdf_sinr_ul(x, params),
                             lambda x: an.cdf_sinr_dl_a1(x, params))


def _validate_quick(fd, tmp_path):
    assert fd.validate.run(quick=True, echo=None)[1]


_WORKLOADS = {"mc-fig4": _fig4, "mc-large-k": _large_k, "analysis-grid": _analysis_grid,
              "validate-quick": _validate_quick}


@pytest.mark.parametrize("workload, counters", sorted(_expect_nonzero().items()))
def test_tracer_sees_the_workload_calls(tmp_path, workload, counters):
    tracer = _tracer()
    modules = {name: importlib.import_module(name) for name, _, _ in tracer.SEAMS}
    fd = importlib.import_module("fdsched")
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        _WORKLOADS[workload](fd, tmp_path)
    finally:
        tr.uninstall()
    assert not tr.missing
    layer = tr.snapshot(wall_s=1.0)
    assert {name: layer.get(name, 0) for name in counters if not layer.get(name, 0) > 0} == {}
