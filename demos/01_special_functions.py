#!/usr/bin/env python3
"""Walk through the scalar kernel that powers every closed-form rate.

The star of the analytical layer is

    xi_n(x, y) = integral_0^inf e^{-x t} (t + y)^{-n} dt,

evaluated as y^{1-n} e^{xy} E_n(xy), with the scaled generalized
exponential integral e^z E_n(z) by continued fraction (z > 1) or series
(z <= 1); neither cancels.  This script shows the identity
xi_1(x,1) = -e^x Ei(-x), compares the kernel against direct quadrature of
the defining integral (the double-exponential rule behind ``fdsched
validate``), and evaluates it where a Gamma/Ei closed form would cancel.
"""

from math import fsum

import numpy as np

from fdsched import exp_integral_ei, xi_n
from fdsched.validate import _xi_reference

print("=== exponential integral on the negative axis ===")
for t in (0.1, 1.0, 10.0, 40.0):
    print(f"  Ei(-{t:5.1f}) = {exp_integral_ei(-t): .15e}")

print("\n=== xi_1(x, 1) equals -e^x Ei(-x) ===")
for x in (0.1, 1.0, 10.0):
    lhs = xi_n(1, x, 1.0)
    rhs = -np.exp(x) * exp_integral_ei(-x)
    print(f"  x={x:5.1f}: xi_1={lhs:.15f}   -e^x Ei(-x)={rhs:.15f}")

print("\n=== kernel vs direct quadrature ===")
for (n, x, y) in [(1, 1.0, 1.0), (3, 2.0, 0.5), (8, 0.3, 1.0), (15, 10.0, 10.0)]:
    ref = _xi_reference(n, x, y)
    got = xi_n(n, x, y)
    print(f"  n={n:2d} x={x:5.2f} y={y:5.2f}:  xi={got: .12e}  ref={ref: .12e}  "
          f"rel={abs(got - ref) / ref:.1e}")
print("  (at n=15, x=y=10 the Gamma/Ei closed form's alternating terms cancel")
print("   to garbage; the scaled E_n form has no terms to cancel)")

print("\n=== harmonic numbers approach log K + gamma from above ===")
for k in (16, 256, 4096):
    h_k = fsum(1.0 / j for j in range(1, k + 1))
    gap = h_k - (np.log(k) + 0.5772156649015329)
    print(f"  K={k:5d}: H_K - (log K + gamma) = {gap:.3e}")
