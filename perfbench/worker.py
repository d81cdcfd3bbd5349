"""One benchmark child process: import fdsched, set up one workload, run it.

Started by run.py, one process per set-up sample, so that set-up time and
peak memory belong to this workload alone.  Prints ``READY`` once set-up
(import plus warm-up) is done; a set-up-only child exits there.  Otherwise
it repeats passes of the workload until ``--seconds`` have passed (at least
``MIN_PASSES``) and prints one JSON line with the raw measurements.

With ``--trace 1`` traced and untraced passes alternate, so that the
tracing overhead is the difference of two medians taken side by side.

The host's speed is measured with a fixed calibration step (``cal_step``,
about 5 ms) so that run.py can report times at a reference speed:

* a bracket, ``BRACKET_STEPS`` steps back to back, is timed when set-up is
  done and, unless the pass is sampled, after every pass; an unsampled pass
  is divided by the run's median bracket;
* a sampled set-up or pass runs one step every ``TICK_S``, from a timer
  signal (``Sampler``), so that the steps see the host as the pass saw it.
  The ticks' own time is taken off the set-up or pass.  In ``--trace 0``
  runs the set-up, from the import of fdsched on, is sampled, and so are the
  passes of workloads that compute on one thread: beside a pool of workers a
  tick would time our own load.  Traced runs are not sampled: a tick inside
  a traced pass would be charged to the spans.

A ``host_factor`` is a mean step time over ``STEP_REF_S``.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from numpy.random import default_rng   # imported here: a tick may run inside any later import

import tracer
import workloads

MIN_PASSES = 3
BRACKET_STEPS = 40
TICK_S = 0.05
MIN_TICKS = 5             # with fewer ticks, a sampled stretch falls back to the brackets
STEP_REF_S = 0.0045       # cal_step() at the reference speed: about its median on a 2-vCPU Xeon VM
FDSCHED_MODULES = sorted({mod for mod, _, _ in tracer.SEAMS})


def import_fdsched(root):
    """Import fdsched from ``<root>/src`` and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "fdsched" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fdsched sources under {src}")
    sys.path.insert(0, str(src))
    fd = importlib.import_module("fdsched")
    if src not in Path(fd.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fdsched imported from {fd.__file__}, not {src}")
    modules = {}
    for name in FDSCHED_MODULES:
        try:
            modules[name] = importlib.import_module(name)
        except ImportError:
            pass   # a removed module: its seams are reported missing
    return fd, modules


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


_CAL_X = np.linspace(0.01, 1.0, 1 << 15)
_CAL_T = np.empty_like(_CAL_X)


def cal_step():
    """Seconds taken by a fixed job that never touches fdsched: an
    interpreter loop, numpy passes over a small array and exponential draws,
    the kinds of work the workloads do.  It works in under 1 MB, so that it
    adds little to the peak memory of even the smallest workload."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(25_000):
        acc += math.sqrt(i) * 0.5
    x, t = _CAL_X.copy(), _CAL_T
    for _ in range(8):
        np.negative(x, out=t)
        np.exp(t, out=t)
        t *= x
        np.log1p(t, out=x)
        x += 0.01
    rng = default_rng(1)
    for _ in range(5):
        rng.standard_exponential((256, 64)).max(axis=1).sum()
    return time.perf_counter() - start


def bracket():
    """Mean time of ``BRACKET_STEPS`` steps back to back: the host's speed now."""
    return statistics.fmean(cal_step() for _ in range(BRACKET_STEPS))


def host_factor(step_s):
    """How much slower than the reference the host ran, from a mean step time."""
    return step_s / STEP_REF_S


class Sampler:
    """Runs ``cal_step`` every ``TICK_S`` while active, from SIGALRM.

    ``clock`` is ``perf_counter`` without the time spent in ticks, so that a
    pass, or a call timed inside it, is measured as if no tick had run."""

    def __init__(self):
        self.steps = []
        self.tick_s = 0.0

    def clock(self):
        return time.perf_counter() - self.tick_s

    def _tick(self, signum, frame):
        step = cal_step()
        self.steps.append(step)
        self.tick_s += step

    def start(self):
        self.steps = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self):
        """host_factor over the ticks since start(), or None if too few ran."""
        if len(self.steps) < MIN_TICKS:
            return None
        return host_factor(statistics.fmean(self.steps))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sampler = Sampler() if not args.trace else None
    if sampler is not None:
        sampler.start()
    try:
        fd, modules = import_fdsched(args.root)
        load = workloads.WORKLOADS[args.workload](fd, workloads.load_reference(), args.seed,
                                                  args.workdir)
    finally:
        if sampler is not None:
            sampler.stop()
    # run.py takes the ticks' time off the set-up it measures.
    setup = {"tick_s": sampler.tick_s, "factor": sampler.factor()} if sampler else {}
    print("READY " + json.dumps(setup), flush=True)
    if args.setup_only:
        return 0

    if load.threads > 1:
        sampler = None   # beside a pool of workers a tick would time our own load
    clock = load.clock = sampler.clock if sampler is not None else time.perf_counter
    passes = {False: [], True: []}   # traced? -> pass seconds
    factors = []                     # host_factor of each untraced pass, if sampled
    ticks = []                       # ticks in each sampled pass
    cal_s = [bracket()]
    extras, snapshots, problems = [], [], []
    missing = set()
    attempted = failed = 0
    first_fingerprint = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        tr = tracer.Tracer() if traced else None
        if tr is not None:
            tr.install(modules)
        if sampler is not None:
            sampler.start()
        start = clock()
        try:
            n, bad, fingerprint, extra = load.run_pass()
        finally:
            elapsed = clock() - start
            if sampler is not None:
                sampler.stop()
            if tr is not None:
                tr.uninstall()
        passes[traced].append(elapsed)
        factor = sampler.factor() if sampler is not None else None
        if factor is not None:
            ticks.append(len(sampler.steps))
        else:
            cal_s.append(bracket())
        if not traced:
            factors.append(factor)
        attempted += n
        failed += bad
        fingerprint = repr(fingerprint)
        if i == 0:
            first_fingerprint = fingerprint
        elif fingerprint != first_fingerprint:
            problems.append(f"pass {i} output differs from pass 0 on identical inputs")
        if tr is not None:
            snapshots.append(tr.snapshot(elapsed))
            missing |= tr.missing
        else:
            extras.append(extra)
        i += 1
        enough = len(passes[False]) >= MIN_PASSES and (
            not args.trace or len(passes[True]) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    # An unsampled pass is divided by the run's median bracket: over seven
    # mc-large-k runs, pairing each pass with the brackets around it spread the
    # run medians three times as much.
    run_factor = host_factor(statistics.median(cal_s))
    result = {
        "pass_s": passes[False],
        "pass_factor": [run_factor if f is None else f for f in factors],
        "traced_pass_s": passes[True],
        "cal_s": cal_s,
        "ticks": ticks,
        "attempted": attempted,
        "failed": failed,
        "work": load.work,
        "extras": extras,
        "snapshots": snapshots,
        "missing": sorted(missing),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
