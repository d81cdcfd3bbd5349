#!/usr/bin/env python3
"""From dB-domain radio parameters to instantaneous link rates.

Builds the standard small-cell operating point (24/23 dBm, 80 dB of
self-interference cancellation, noise figures 13/9 dB over 10 MHz), draws
one Rayleigh snapshot, and walks the SINR arithmetic for a hand-picked
user pair.
"""

import numpy as np

from fdsched import (
    Schedule,
    config_from_db,
    draw_realization,
    rates,
    sinr_dl,
    sinr_ul,
)

cfg = config_from_db(
    p0_dbm=24.0, pu_dbm=23.0, si_cancellation_db=80.0,
    noise_figure_bs_db=13.0, noise_figure_mt_db=9.0,
    bandwidth_hz=1e7, k_u=5, k_d=5,
)
print("=== operating point (linear mW) ===")
print(f"  P0 = {cfg.p0_max:.3f} mW   PU = {cfg.pu_max:.3f} mW")
print(f"  sigma0^2 = {cfg.sigma0_sq:.3e} mW   sigmaD^2 = {cfg.sigmaD_sq:.3e} mW")
print(f"  residual SI gain = {cfg.si_gain:.1e}  (so BS-side SI power at full P0 "
      f"is {cfg.p0_max * cfg.si_gain:.2e} mW, {cfg.p0_max * cfg.si_gain / cfg.sigma0_sq:.0f}x the noise)")

rng = np.random.default_rng(2024)
ch = draw_realization(cfg, rng)
print("\n=== one Rayleigh snapshot (unit-mean power gains) ===")
print("  g_ul =", np.array2string(ch.g_ul, precision=3))
print("  g_dl =", np.array2string(ch.g_dl, precision=3))

u, d = 2, 4
g_ul = sinr_ul(ch, u, cfg.p0_max, cfg.pu_max, cfg.sigma0_sq)
g_dl = sinr_dl(ch, d, u, cfg.p0_max, cfg.pu_max, cfg.sigmaD_sq)
print(f"\n=== pair (u={u}, d={d}) at full powers ===")
print(f"  UL SINR = {g_ul:.3e}   DL SINR = {g_dl:.3e}")
sched = Schedule(ul=u, dl=d, p0=cfg.p0_max, pu=cfg.pu_max)
out = rates(ch, sched, cfg)
print(f"  rates: UL {out.r_ul:.3f} + DL {out.r_dl:.3f} = {out.r_sum:.3f} bps/Hz")

print("\n=== the same pair with the uplink silenced (HD-DL corner) ===")
hd = Schedule(ul=None, dl=d, p0=cfg.p0_max, pu=0.0)
out_hd = rates(ch, hd, cfg)
print(f"  rates: UL {out_hd.r_ul:.3f} + DL {out_hd.r_dl:.3f} = {out_hd.r_sum:.3f} bps/Hz")
print(f"  (mode {hd.mode.value}, read off pu = 0: no inter-terminal interference, "
      "so the DL rate jumps)")
