"""Steadiness check of the benchmark: many seeds, spreads against bounds.

    python3 perfbench/steady.py --seeds 10                 # every workload
    python3 perfbench/steady.py --seeds 5 --workloads mc-large-k
    python3 perfbench/steady.py --seeds 10 --out a.json
    python3 perfbench/steady.py --seeds 10 --against a.json  # second set vs first

For every workload it runs run.py once per seed with the settings of
BENCHMARK.json and reports, per end-to-end metric, the spread of the runs:
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A spread must stay below the
metric's bound, and should stay below a third of it.  With ``--against``,
each median must also be no worse than the earlier set's by more than the
bound.

Unless ``--no-trace``, it then makes two traced runs per workload on two
seeds and requires every exact counter (call counts, bytes, ratios of
counts) to be identical in both and the runs to report correct.

Exit status 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = 1 / 3            # share of a bound a spread should stay below


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(sorted(workloads.WORKLOADS)))
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(1, 1 + args.seeds)
    earlier = json.loads(args.against.read_text()) if args.against else {}
    ok = True
    collected = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        collected[workload] = runs
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run reported correct=false")
            ok = False
        print(f"== {workload}: {len(runs)} runs, failed/attempted "
              f"{[(r['failed'], r['attempted']) for r in runs]}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            sp = spread(values)
            med = statistics.median(values)
            verdict = "ok"
            if sp > spec["bound"]:
                verdict = "OVER BOUND"
                ok = False
            elif sp > TARGET * spec["bound"]:
                verdict = "above target"
            line = (f"   {name:<12} median {med:<12.6g} spread {sp:7.4f} "
                    f"bound {spec['bound']:.3f}  {verdict}")
            if workload in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                line += f"  vs earlier {worse:+.4f}"
                if worse > spec["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
        if not args.no_trace:
            traced = [run_once(workload, s, seconds, 1) for s in list(seeds)[:2]]
            counters = [{k: m["value"] for k, m in r["metrics"].items() if tracer.is_exact(k)}
                        for r in traced]
            differ = sorted(k for k in counters[0] if counters[0][k] != counters[1].get(k))
            print(f"   traced: correct {[r['correct'] for r in traced]}, "
                  f"{len(counters[0])} exact counters, differing: {differ or 'none'}")
            ok &= not differ and all(r["correct"] for r in traced)
    if args.out:
        args.out.write_text(json.dumps(collected))
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
