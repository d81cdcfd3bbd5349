#!/usr/bin/env python3
"""Why mode switching matters: the FD-only crossover.

Sweeping the DL power upward (with the UL power tied to it in the dB
domain) under 80 dB of SI cancellation, the exhaustive FD-only scheduler
eventually loses to plain half-duplex TDD -- the self-interference grows
with the very power that is supposed to help.  The FD/HD-switching
scheduler never drops below the TDD baseline, because half-duplex corners
are inside its feasible set.

The same sweep is available from the command line as
``fdsched simulate --preset fig2``.
"""

from fdsched import run_sweep

BASE = {"pu_dbm_scale": 0.95, "si_cancellation_db": 80.0, "k_u": 5, "k_d": 5}
VALUES = tuple(float(v) for v in range(-20, 31, 5))
SCHEDULERS = ("es-fd", "es-fdhd", "hd-tdd")

curves = {sched: [] for sched in SCHEDULERS}
# One draw per sweep point, shared by all three schedulers.
for pt in run_sweep(BASE, "p0_dbm", VALUES, SCHEDULERS, n_trials=50_000, seed=43):
    curves[pt.scheduler.value].append(pt.stats.mean_sum_rate)

print("mean sum rate (bps/Hz) vs DL power, 80 dB SI cancellation, K=5")
print(f"{'p0 dBm':>8} {'es-fd':>10} {'es-fdhd':>10} {'hd-tdd':>10}   note")
for i, v in enumerate(VALUES):
    fd, fdhd, hd = curves["es-fd"][i], curves["es-fdhd"][i], curves["hd-tdd"][i]
    note = "FD-only below TDD" if fd < hd else ""
    print(f"{v:8.0f} {fd:10.3f} {fdhd:10.3f} {hd:10.3f}   {note}")

first = next((v for i, v in enumerate(VALUES) if curves["es-fd"][i] < curves["hd-tdd"][i]), None)
print(f"\nFD-only scheduling falls behind TDD from p0 = {first:.0f} dBm onward;")
print("the switching scheduler tracks or beats TDD at every point.")
