"""fdsched benchmark: one workload per run, measured in fresh child processes.

    python3 perfbench/run.py --workload mc-fig4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from ``src/`` of the same checkout.

Each run starts ``SETUPS`` fresh child processes (worker.py) one after
another.  The first ``SETUPS - 1`` only import fdsched and warm up; the last
also measures, for ``--seconds``.  ``setup_s`` is the median set-up time,
from process start to ready, and ``wall_s`` the median pass time.

The host this runs on shares its cores, and its speed drifts by tens of
percent over seconds to minutes.  So a fixed calibration step
(``worker.cal_step``) is timed during set-up and during or between passes
(see worker.py), and every set-up and every pass is reported
at the reference speed: divided by the ``host_factor`` measured during it
or, where it was not sampled, over the run.  The raw times are printed in
the table.
The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Lines before it are a human-readable table and the environment stamp.

Exit status is 0 with a result, 1 when a child fails or a run exceeds its
time limit (no result is printed), 2 for bad arguments.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
RUN_LIMIT_S = 170.0         # a run that takes longer is killed and fails

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}

# Per-layer counts a workload must produce when its seam exists: a zero here
# means the tracer lost the calls (e.g. a wrapper on the wrong binding).
EXPECT_NONZERO = {
    "mc-fig4": ["sim.draw.blocks", "sim.evaluate.calls", "sim.reduce.calls", "cli.self_s"],
    "mc-large-k": ["sim.draw.blocks", "sim.evaluate.calls", "sim.parallel_eff"],
    "analysis-grid": ["analysis.closed.calls", "analysis.integral.calls", "analysis.cdf.calls",
                      "specfun.xi_n.calls"],
    "validate-quick": ["model.draw_realization.calls", "scheduling.select.calls",
                       "power.opa.calls", "analysis.closed.calls", "analysis.integral.calls",
                       "analysis.cdf.calls", "specfun.xi_n.calls", "sim.draw.blocks"],
}


class ChildFailed(Exception):
    pass


def _child_env(workdir):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["TMPDIR"] = str(workdir)   # validate's temporary files stay in the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)   # `git describe` looks no further up
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"             # numpy/scipy threads: the engine's pool is the only one
    return env


def _spawn(workdir, args, setup_only, deadline):
    """Start one worker; return (set-up seconds, set-up host_factor or None,
    worker's JSON or None).  The worker is killed if it is still running at
    ``deadline``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=_child_env(workdir))
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    word, _, setup = ready.partition(" ")
    if word != "READY" or code != 0:
        raise ChildFailed(f"{args.workload}: worker exited {code} "
                          f"({'after' if word == 'READY' else 'before'} set-up)")
    setup = json.loads(setup)
    setup_s -= setup.get("tick_s", 0.0)
    raw = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return setup_s, setup.get("factor"), raw


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def measure(args):
    """Run one workload; returns (result line dict, table rows, env)."""
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, sampled = [], []
    try:
        for i in range(SETUPS):
            setup_s, factor, raw = _spawn(workdir, args, i < SETUPS - 1, deadline)
            setups.append(setup_s)
            sampled.append(factor)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left when another run still uses it
            workdir.parent.rmdir()

    problems = list(raw["problems"])
    wall_s = statistics.median(raw["pass_s"])
    # Traced runs do not sample set-up: they use the bracket that follows it.
    setup_factors = [factor or worker.host_factor(raw["cal_s"][0]) for factor in sampled]
    e2e = {
        "setup_s": statistics.median(s / f for s, f in zip(setups, setup_factors)),
        "wall_s": statistics.median(p / f for p, f in zip(raw["pass_s"], raw["pass_factor"])),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }
    # Workload-specific figures, printed in the table (not every workload has them).
    info = {"passes": (len(raw["pass_s"]), "count"),
            "wall_raw_s": (wall_s, "s"),
            "setup_raw_s": (statistics.median(setups), "s"),
            "host_factor": (statistics.median(raw["pass_factor"]), "ratio"),
            "setup_host_factor": (statistics.median(setup_factors), "ratio"),
            "ticks_per_pass": (statistics.median(raw["ticks"]) if raw["ticks"] else 0, "count"),
            "failed_frac": (raw["failed"] / raw["attempted"], "frac")}
    if args.workload.startswith("mc-"):
        info["trials_per_s"] = (raw["work"] / wall_s, "1/s")
    closed_ms = [ms for extra in raw["extras"] for ms in extra.get("closed_ms", [])]
    if closed_ms:
        info["evals_per_s"] = (raw["work"] / wall_s, "1/s")
        info["closed_p50_ms"] = (_percentile(closed_ms, 50), "ms")
        info["closed_p90_ms"] = (_percentile(closed_ms, 90), "ms")
        info["closed_samples"] = (len(closed_ms), "count")

    if args.trace:
        layer, mismatched = tracer.merge_passes(raw["snapshots"])
        problems += [f"counter {name} differs between traced passes" for name in mismatched]
        traced_s = statistics.median(raw["traced_pass_s"])
        layer["trace.wall_s"] = traced_s
        layer["trace.untraced_wall_s"] = wall_s
        layer["trace.overhead_s"] = traced_s - wall_s
        layer["trace.overhead_frac"] = (traced_s - wall_s) / wall_s
        layer["analysis.closed.p50_ms"] = _percentile(closed_ms, 50) if closed_ms else 0.0
        layer["analysis.closed.p90_ms"] = _percentile(closed_ms, 90) if closed_ms else 0.0
        for name in workloads.VALIDATE_CRITERIA:
            per_pass = [extra["criterion_s"].get(name, 0.0)
                        for extra in raw["extras"] if "criterion_s" in extra]
            layer[f"validate.{name}.s"] = statistics.median(per_pass) if per_pass else 0.0
        for name in EXPECT_NONZERO[args.workload]:
            if name in layer and not layer[name] > 0:
                problems.append(f"per-layer {name} is zero on {args.workload}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layer.items())}
        info["missing"] = (len(raw["missing"]), "count")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for span in raw["missing"]:
        print(f"perfbench: seam for {span} not found or changed; its metrics are missing", file=sys.stderr)
    result = {"correct": not problems, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in info.items()]
    return result, rows, raw["env"]


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_frac", "_eff", "wall_share")):
        return "frac"
    if name.endswith("bytes") or name.endswith("bytes_max"):
        return "bytes"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    stamp = None
    try:
        for name in names:
            run_args = argparse.Namespace(**{**vars(args), "workload": name})
            result, rows, env = measure(run_args)
            stamp = dict(env, git_describe=git_describe())
            print(f"== {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
            for metric, value, unit in rows:
                print(f"   {metric:<34} {value:>16.6g} {unit}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, m in result["metrics"].items():
                combined["metrics"][prefix + metric] = m
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": stamp, "workload": args.workload, "seed": args.seed}))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
