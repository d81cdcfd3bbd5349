#!/usr/bin/env python3
"""Three independent computation paths, one answer.

For the A1 and A2 selection rules the package carries closed-form average
sum rates over Rayleigh fading.  This script pits them against the two
oracles: adaptive quadrature of the rate integral built from the SINR
CDFs, and a million-trial Monte Carlo run.  One ``SystemConfig`` drives
all three.  It also shows the pole guard (p0 = pu for A2) and the
large-system scaling trend.
"""

import numpy as np

from fdsched import (
    SystemConfig,
    asymptotic_rate_a1,
    avg_rate_a1,
    avg_rate_a2,
    avg_rate_integral,
    cdf_sinr_dl_a1,
    cdf_sinr_dl_a2,
    cdf_sinr_ul,
    run_trials,
)

p = SystemConfig(p0_max=1.0, pu_max=0.8, sigma0_sq=1e-2, sigmaD_sq=1e-2,
                 si_gain=1e-8, k_u=5, k_d=5)

print("=== triangle check, K = 5 ===")
for name, closed_fn, cdf_dl, sched in [
    ("A1", avg_rate_a1, cdf_sinr_dl_a1, "a1"),
    ("A2", avg_rate_a2, cdf_sinr_dl_a2, "a2"),
]:
    closed = closed_fn(p).value
    quad = avg_rate_integral(lambda x: cdf_sinr_ul(x, p), lambda x: cdf_dl(x, p))
    mc = run_trials(p, sched, 1_000_000, seed=42)
    print(f"  {name}: closed = {closed:.6f}")
    print(f"      quadrature = {quad:.6f}   (|diff| = {abs(closed - quad):.2e})")
    print(f"      monte carlo = {mc.mean_sum_rate:.6f} +- {mc.std_error:.6f} "
          f"(z = {abs(closed - mc.mean_sum_rate) / mc.std_error:.2f})")

print("\n=== the removable pole at p0 = pu (A2) ===")
pole = SystemConfig(1.0, 1.0, 0.1, 0.1, 1e-3, 5, 5)
res = avg_rate_a2(pole)
quad = avg_rate_integral(lambda x: cdf_sinr_ul(x, pole), lambda x: cdf_sinr_dl_a2(x, pole))
print(f"  closed ({res.route}, flagged={res.flagged}) = {res.value:.8f}")
print(f"  quadrature oracle at the exact pole    = {quad:.8f}")

print("\n=== large-system scaling (si = 0, matched UL noise) ===")
print("  K      closed/quadrature   approximation   relative gap")
for k in (16, 64, 256, 1024):
    pk = SystemConfig(1.0, 0.01, 0.01, 1.0, 0.0, k, k)
    value = avg_rate_a1(pk).value
    approx = asymptotic_rate_a1(pk).bits
    print(f"  {k:5d}  {value:14.6f}  {approx:14.6f}   {abs(value - approx) / value:.4f}")
