"""Generate perfbench/reference.json: A1/A2 average sum rates at high precision.

The table is what the benchmark judges fdsched's outputs against, so it is
computed here with mpmath alone, from the model's definitions, and never
imports fdsched.  Every average rate is a sum of ergodic link rates

    E[log2(1 + SINR)] = (1/ln 2) * integral_0^inf (1 - F(x)) / (1 + x) dx,

with these SINR laws (Rayleigh fading, every gain Exp(1)):

* UL, gain-max over K users:  F(x) = (1 - e^{-a x})^K,  a = (p0 si + s0) / pu.
* DL under A1 (gain-max DL user, one Exp(1) interferer):
  1 - F(x) = sum_k C(K,k) (-1)^{k+1} e^{-k al x} / (1 + k be x),
  al = sd / p0, be = pu / p0.
* DL under A2 (SINR-max DL user):  F(x) = (1 - e^{-al x} / (1 + be x))^K.

Each link rate is computed twice, by methods that share no numerical code,
and the two must agree to ``AGREE_REL``:

* UL and DL-A1: tanh-sinh quadrature of the integral, and the exact
  exponential-integral sum (e^c E1(c) terms) at raised precision.
* DL-A2: tanh-sinh quadrature of the product form, and the exact sum of
  generalized exponential integrals E_j at raised precision.

Run from the repository root:  python3 perfbench/gen_reference.py
(measured 102 s and 122 s on one core of a 2-vCPU Xeon VM).
"""

import json
import sys
import time
from pathlib import Path

import mpmath as mp

DPS = 40                 # working precision of the quadratures
AGREE_REL = 1e-30        # required agreement of the two methods
DIGITS_STORED = 34

# The operating point of fdsched's presets and of `fdsched analyze`:
# 24/23 dBm, noise figures 13 dB (BS) and 9 dB (terminals), 10 MHz.
RADIO = {"p0_dbm": 24, "pu_dbm": 23, "nf_bs_db": 13, "nf_mt_db": 9, "bandwidth_hz": 10_000_000}

ANALYSIS_SI_DB = [40, 60, 80, 100, 120]
ANALYSIS_K = [1, 2, 3, 5, 8, 10, 12, 15, 20, 30, 40, 48]
FIG4_SI_DB = 20
FIG4_K = [2, 4, 6, 8, 10, 12, 15]
LARGE_K = 64


def _dbm(v):
    return mp.power(10, mp.mpf(v) / 10)


def radio():
    def noise(nf_db):
        return mp.power(10, (mp.mpf(-174) + 10 * mp.log10(RADIO["bandwidth_hz"]) + nf_db) / 10)

    return {
        "p0": _dbm(RADIO["p0_dbm"]), "pu": _dbm(RADIO["pu_dbm"]),
        "s0": noise(RADIO["nf_bs_db"]), "sd": noise(RADIO["nf_mt_db"]),
    }


def _breakpoints(scale, k):
    """Geometric breakpoints (ratio e) covering where 1 - F(x) lives: from
    far below the SINR scale 1/scale to where K e^{-scale x} < 10^-(DPS+10)."""
    lo = mp.mpf("1e-6") / scale
    hi = (DPS + 10) * mp.log(10) / scale + mp.log(k) / scale
    pts = [mp.mpf(0), lo]
    while pts[-1] < hi:
        pts.append(pts[-1] * mp.e)
    return pts


def _quad(f, pts):
    return mp.quad(lambda x: f(x) / (1 + x), pts)


def _extra_dps(k):
    # An alternating binomial sum over K terms loses up to log10(2^K) digits.
    return DPS + int(k * 0.302) + 15


def max_gain_rate(a, k):
    """E[ln(1 + X / a)], X the max of k iid Exp(1); nats."""
    with mp.workdps(DPS + 10):
        a = mp.mpf(a)
        quad = _quad(lambda x: -mp.expm1(k * mp.log1p(-mp.exp(-a * x))), _breakpoints(a, k))
    with mp.workdps(_extra_dps(k)):
        a = mp.mpf(a)
        exact = mp.fsum(mp.binomial(k, j) * (-1) ** (j + 1) * mp.exp(j * a) * mp.e1(j * a)
                        for j in range(1, k + 1))
    return quad, exact


def dl_a1_rate(al, be, k):
    """E[ln(1 + SINR_DL)] under A1; nats."""
    with mp.workdps(_extra_dps(k)):
        al, be = mp.mpf(al), mp.mpf(be)
        terms = [(mp.binomial(k, j) * (-1) ** (j + 1), j * al, j * be) for j in range(1, k + 1)]
        quad = _quad(lambda x: mp.fsum(c * mp.exp(-s * x) / (1 + b * x) for c, s, b in terms),
                     _breakpoints(al, k))
        exact = mp.fsum(
            c / (1 - b) * (mp.exp(s) * mp.e1(s) - mp.exp(s / b) * mp.e1(s / b))
            for c, s, b in terms
        )
    return quad, exact


def dl_a2_rate(al, be, k):
    """E[ln(1 + SINR_DL)] under A2; nats.

    The exact form expands (1 - p)^K binomially and splits each
    e^{-m al x} / ((1 + be x)^m (1 + x)) into partial fractions in
    u = 1 + be x, which integrate to generalized exponential integrals E_j.
    """
    with mp.workdps(DPS + 10):
        al, be = mp.mpf(al), mp.mpf(be)
        quad = _quad(lambda x: -mp.expm1(k * mp.log1p(-mp.exp(-al * x) / (1 + be * x))),
                     _breakpoints(al, k))
    c0 = be - 1
    with mp.workdps(_extra_dps(k) + int(k * max(0.0, -float(mp.log10(abs(c0))))) + 5):
        al, be, c0 = mp.mpf(al), mp.mpf(be), mp.mpf(c0)

        def term(m):
            z = m * al / be
            parts = [(-1) ** (m - j) * c0 ** (-(m - j + 1)) * mp.expint(j, z)
                     for j in range(1, m + 1)]
            parts.append((-1) ** m * c0 ** (-m) * mp.exp(z * c0) * mp.e1(z * be))
            return mp.exp(z) * mp.fsum(parts)

        exact = mp.fsum(mp.binomial(k, m) * (-1) ** (m + 1) * term(m) for m in range(1, k + 1))
    return quad, exact


def _checked(name, pair, worst):
    a, b = pair
    rel = abs(a - b) / abs(b)
    if rel > AGREE_REL:
        sys.exit(f"{name}: methods disagree by {mp.nstr(rel, 3)} > {AGREE_REL}")
    worst[0] = max(worst[0], rel)
    return b


def main():
    mp.mp.dps = DPS
    start = time.time()
    r = radio()
    p0, pu, s0, sd = r["p0"], r["pu"], r["s0"], r["sd"]
    al, be = sd / p0, pu / p0
    worst = [mp.mpf(0)]
    ln2 = mp.log(2)
    ul, dl1, dl2 = {}, {}, {}

    def ul_rate(si_db, k):
        if (si_db, k) not in ul:
            si = mp.power(10, -mp.mpf(si_db) / 10)
            ul[si_db, k] = _checked(f"ul si={si_db} K={k}",
                                    max_gain_rate((p0 * si + s0) / pu, k), worst)
        return ul[si_db, k]

    def dl(alg, k):
        table, fn = (dl1, dl_a1_rate) if alg == "a1" else (dl2, dl_a2_rate)
        if k not in table:
            table[k] = _checked(f"dl-{alg} K={k}", fn(al, be, k), worst)
        return table[k]

    def entry(alg, si_db, k):
        value = (ul_rate(si_db, k) + dl(alg, k)) / ln2
        return {"alg": alg, "si_db": si_db, "k": k, "rate_bits": mp.nstr(value, DIGITS_STORED)}

    points = []
    for si_db in ANALYSIS_SI_DB:
        for k in ANALYSIS_K:
            for alg in ("a1", "a2"):
                points.append(dict(entry(alg, si_db, k), set="analysis-grid"))
    for k in FIG4_K:
        for alg in ("a1", "a2"):
            points.append(dict(entry(alg, FIG4_SI_DB, k), set="fig4"))
    # Best-user half-duplex link rates (no SI, no interferer) for the K=64 run.
    hd_ul = _checked("hd-ul", max_gain_rate(s0 / pu, LARGE_K), worst) / ln2
    hd_dl = _checked("hd-dl", max_gain_rate(sd / p0, LARGE_K), worst) / ln2
    for alg, v in (("hd-ul", hd_ul), ("hd-dl", hd_dl)):
        points.append({"alg": alg, "si_db": None, "k": LARGE_K,
                       "rate_bits": mp.nstr(v, DIGITS_STORED), "set": "large-k"})

    table = {
        "settings": {
            "generator": "perfbench/gen_reference.py",
            "mpmath": mp.__version__,
            "dps": DPS,
            "agree_rel": AGREE_REL,
            "worst_method_disagreement_rel": mp.nstr(worst[0], 3),
            "radio": RADIO,
            "units": "bits/s/Hz (sum of UL and DL ergodic rates)",
        },
        "points": points,
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(points)} points to {out} in {time.time() - start:.1f} s; "
          f"worst disagreement {table['settings']['worst_method_disagreement_rel']}")


if __name__ == "__main__":
    main()
