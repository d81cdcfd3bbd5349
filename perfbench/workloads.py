"""The four benchmark workloads and the checks of their outputs.

Every workload drives fdsched through a public entry point, always looking
functions up on their module at call time so that the tracer's wrappers are
seen.  A pass returns ``(attempted, failed, fingerprint, extras)``: the
number of checked operations, how many of them failed (raised, or missed an
independent reference), a summary of the outputs that must be identical in
every pass of a run, since every pass repeats the same inputs, and timings
the workload takes itself.  ``threads`` is the number of threads a workload
computes on, and ``clock`` the clock it times its own figures with (worker.py
replaces it while calibration ticks run inside a pass).

References come from ``reference.json`` (mpmath, see gen_reference.py) and
from exact orderings of the model; fdsched's own oracle
(``avg_rate_integral``) and its CDFs never judge an output.
"""

import contextlib
import csv
import io
import json
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

CLOSED_REL_TOL = 1e-6     # closed form vs reference
MC_Z = 4.0                # Monte Carlo mean vs reference, in standard errors
ORDER_TOL = 1e-9          # exact orderings of coupled means

FIG4_TRIALS = 8 * 4096
FIG4_SCHEDULERS = ["a1", "a2", "a3", "a1-opa", "a2-opa", "a3-opa", "es-fdhd", "hd-tdd"]
FIG4_K = [2, 4, 6, 8, 10, 12, 15]
LARGE_K = 64
LARGE_K_SI_DB = 80.0
LARGE_K_TRIALS = 4 * 4096
LARGE_K_WORKERS = 2
VALIDATE_CRITERIA = [
    "special-functions", "theorem2-triangle", "theorem3-triangle", "binary-opa",
    "dominance-chain", "cdf-laws", "trend-reproductions", "asymptotic-trend", "determinism",
]


class Reference(NamedTuple):
    rates: dict    # {(set, alg, si_db, k): rate in bits/s/Hz}
    radio: dict    # the table's operating point, as config_from_db arguments


def load_reference():
    table = json.loads((HERE / "reference.json").read_text())
    radio = table["settings"]["radio"]
    return Reference(
        rates={(p["set"], p["alg"], p["si_db"], p["k"]): float(p["rate_bits"])
               for p in table["points"]},
        radio={"p0_dbm": float(radio["p0_dbm"]), "pu_dbm": float(radio["pu_dbm"]),
               "noise_figure_bs_db": float(radio["nf_bs_db"]),
               "noise_figure_mt_db": float(radio["nf_mt_db"]),
               "bandwidth_hz": float(radio["bandwidth_hz"])})


class Workload:
    threads = 1
    clock = staticmethod(time.perf_counter)


class McFig4(Workload):
    """`fdsched simulate --preset fig4 --workers 1`: 8 schedulers x K in 2..15."""

    name = "mc-fig4"

    def __init__(self, fd, ref, seed, workdir):
        self.cli = fd.cli
        self.ref = ref
        self.seed = seed
        self.out = workdir / "fig4.csv"
        self.work = FIG4_TRIALS * len(FIG4_SCHEDULERS) * len(FIG4_K)
        self._simulate(256, workdir / "warmup.csv")

    def _simulate(self, trials, out):
        argv = ["simulate", "--preset", "fig4", "--workers", "1", "--trials", str(trials),
                "--seed", str(self.seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run_pass(self):
        expected = len(FIG4_SCHEDULERS) * len(FIG4_K)
        try:
            rc = self._simulate(FIG4_TRIALS, self.out)
            text = self.out.read_text()
        except Exception as exc:  # a crash fails every row of the pass
            return expected, expected, f"raised {type(exc).__name__}", {}
        if rc != 0:
            return expected, expected, f"exit {rc}", {}
        rows = list(csv.DictReader(io.StringIO(text)))
        means = {(r["scheduler"], int(float(r["value"]))): r for r in rows}
        failed = 0
        for sched in FIG4_SCHEDULERS:
            for k in FIG4_K:
                row = means.get((sched, k))
                failed += row is None or not self._row_ok(row, means, sched, k)
        return expected, failed, text, {}

    def _row_ok(self, row, means, sched, k):
        mean = float(row["mean_sum_rate"])
        se = float(row["std_error"])
        if not (math.isfinite(mean) and mean > 0 and int(row["n_trials"]) == FIG4_TRIALS):
            return False
        top = means.get(("es-fdhd", k))
        if top is None or mean > float(top["mean_sum_rate"]) + ORDER_TOL:
            return False   # coupled draws: ES-FDHD dominates every scheduler
        if sched.endswith("-opa"):   # OPA never does worse than its fixed-power pair
            base = means.get((sched[:-4], k))
            if base is None or mean < float(base["mean_sum_rate"]) - ORDER_TOL:
                return False
        fd_fraction = float(row["fd_fraction"])
        if sched in ("a1", "a2", "a3") and fd_fraction != 1.0:
            return False
        if sched == "hd-tdd" and fd_fraction != 0.0:
            return False
        if sched in ("a1", "a2"):
            ref = self.ref.rates[("fig4", sched, 20, k)]
            return abs(mean - ref) <= MC_Z * se
        return True


class McLargeK(Workload):
    """run_coupled(['es-fdhd', 'a2-opa']) at K=64, 80 dB, two workers."""

    name = "mc-large-k"
    threads = LARGE_K_WORKERS

    def __init__(self, fd, ref, seed, workdir):
        self.fd = fd
        self.seed = seed
        self.config = fd.config_from_db(si_cancellation_db=LARGE_K_SI_DB, k_u=LARGE_K,
                                        k_d=LARGE_K, **ref.radio)
        self.hd_ul = ref.rates[("large-k", "hd-ul", None, LARGE_K)]
        self.hd_dl = ref.rates[("large-k", "hd-dl", None, LARGE_K)]
        self.work = LARGE_K_TRIALS * 2
        small = fd.config_from_db(si_cancellation_db=LARGE_K_SI_DB, k_u=4, k_d=4, **ref.radio)
        fd.sim.run_coupled(small, ["es-fdhd", "a2-opa"], 2 * 4096, seed, workers=LARGE_K_WORKERS)

    def run_pass(self):
        sim = self.fd.sim
        try:
            stats, arrays = sim.run_coupled(self.config, ["es-fdhd", "a2-opa"], LARGE_K_TRIALS,
                                            self.seed, workers=LARGE_K_WORKERS)
        except Exception as exc:  # includes the engine's own dominance error
            return 2, 2, f"raised {type(exc).__name__}", {}
        top, opa = stats[sim.Scheduler.ES_FDHD], stats[sim.Scheduler.A2_OPA]
        try:
            top_ok, opa_ok = self._check(top, arrays[sim.Scheduler.ES_FDHD],
                                         arrays[sim.Scheduler.A2_OPA])
        except KeyError:   # a per-trial array went missing: nothing to check against
            top_ok = opa_ok = False
        fingerprint = [top.mean_sum_rate, top.std_error, opa.mean_sum_rate, opa.std_error]
        return 2, (not top_ok) + (not opa_ok), fingerprint, {}

    def _check(self, top, a_top, a_opa):
        r_top = a_top["r_ul"] + a_top["r_dl"]
        r_opa = a_opa["r_ul"] + a_opa["r_dl"]
        if len(r_top) != LARGE_K_TRIALS or len(r_opa) != LARGE_K_TRIALS:
            return False, False
        # ES-FDHD lies between the better and the sum of the two best-user
        # half-duplex link rates, per realization and so in the mean.
        top_ok = (max(self.hd_ul, self.hd_dl) - MC_Z * top.std_error
                  <= top.mean_sum_rate
                  <= self.hd_ul + self.hd_dl + MC_Z * top.std_error)
        # A2 schedules the gain-max UL user, so the pair's HD-UL corner is the
        # best-user HD-UL rate: its mean must match the reference.  A2-OPA lies
        # per trial above both HD corners of its pair and below ES-FDHD.
        hd_ul = a_opa["pair_hd_ul"]
        hd_ul_se = float(hd_ul.std(ddof=1)) / math.sqrt(len(hd_ul))
        opa_ok = (abs(float(hd_ul.mean()) - self.hd_ul) <= MC_Z * hd_ul_se
                  and bool((r_opa <= r_top + ORDER_TOL).all())
                  and bool((r_opa >= hd_ul - ORDER_TOL).all())
                  and bool((r_opa >= a_opa["pair_hd_dl"] - ORDER_TOL).all()))
        return top_ok, opa_ok


class AnalysisGrid(Workload):
    """A1/A2 closed forms plus the rate-integral oracle, as `fdsched analyze`
    does, over SI {40..120} dB x K {1..48}; no Monte Carlo."""

    name = "analysis-grid"

    def __init__(self, fd, ref, seed, workdir):
        self.analysis = fd.analysis
        self.points = []
        for (group, alg, si_db, k), value in sorted(ref.rates.items(), key=str):
            if group != "analysis-grid":
                continue
            config = fd.config_from_db(si_cancellation_db=float(si_db), k_u=k, k_d=k, **ref.radio)
            params = fd.AnalyticalParams.from_config(config)
            self.points.append((alg, si_db, k, params, value))
        # Warm up on the first point in sorted order, before the seed fixes
        # the call order, so that set-up is the same for every seed.
        alg, _, _, params, _ = self.points[0]
        self._evaluate(alg, params)
        random.Random(seed).shuffle(self.points)
        self.work = 2 * len(self.points)

    def _evaluate(self, alg, params):
        """Closed form then oracle; returns (closed value or None, seconds)."""
        an = self.analysis
        closed_fn = an.avg_rate_a1 if alg == "a1" else an.avg_rate_a2
        start = self.clock()
        try:
            value = closed_fn(params).value
        except Exception:  # counted as a failed call, never an abort
            value = None
        seconds = self.clock() - start
        cdf_dl = an.cdf_sinr_dl_a1 if alg == "a1" else an.cdf_sinr_dl_a2
        with contextlib.suppress(Exception):
            an.avg_rate_integral(lambda x: an.cdf_sinr_ul(x, params), lambda x: cdf_dl(x, params))
        return value, seconds

    def run_pass(self):
        failed = 0
        values, latencies_ms = [], []
        for alg, si_db, k, params, ref in self.points:
            value, seconds = self._evaluate(alg, params)
            latencies_ms.append(1e3 * seconds)
            values.append(value)
            failed += value is None or not abs(value - ref) <= CLOSED_REL_TOL * ref
        return len(self.points), failed, values, {"closed_ms": latencies_ms}


class ValidateQuick(Workload):
    """validate.run(quick=True): the nine acceptance criteria at reduced size."""

    name = "validate-quick"

    def __init__(self, fd, ref, seed, workdir):
        self.validate = fd.validate
        self.work = len(VALIDATE_CRITERIA)
        self.validate.run(names=["asymptotic-trend"], quick=True, echo=None)

    def run_pass(self):
        try:
            results, _ = self.validate.run(quick=True, echo=None)
        except Exception as exc:
            n = len(VALIDATE_CRITERIA)
            return n, n, f"raised {type(exc).__name__}", {}
        names = [r.name for r in results]
        failed = sum(not r.passed for r in results) + len(set(VALIDATE_CRITERIA) - set(names))
        fingerprint = [(r.name, r.passed, r.detail) for r in results]
        return len(VALIDATE_CRITERIA), failed, fingerprint, {
            "criterion_s": {r.name: r.seconds for r in results}}


WORKLOADS = {w.name: w for w in (McFig4, McLargeK, AnalysisGrid, ValidateQuick)}
