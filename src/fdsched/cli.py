"""Command-line front end: Monte Carlo sweeps, closed-form evaluation, and
the self-check suite.

Every run writes a machine-readable table (RFC-4180 CSV or JSON) plus a
``<out>.manifest.json`` sidecar holding the fully resolved settings, the
seed, tool version, timestamp, and git describe string.  Feeding a manifest
back through ``--config`` reproduces the output byte for byte; the CSV
itself contains no timestamps, so reruns with any ``--workers`` value
compare equal.

Exit codes: 0 success, 1 failed validation criteria, 2 flag validation
error, 3 internal numerical failure.
"""

import argparse
import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analysis, validate
from .analysis import AnalyticalParams
from .sim import Scheduler, SweepSpec, resolve_config, run_sweep


class FlagError(Exception):
    """A flag value that argparse's types cannot reject on their own."""


_SCHEDULER_CHOICES = [s.value for s in Scheduler]

_SIM_DEFAULTS = {
    "p0_dbm": 24.0,
    "pu_dbm": 23.0,
    "pu_dbm_scale": None,
    "si_db": 80.0,
    "nf_bs_db": 13.0,
    "nf_mt_db": 9.0,
    "bandwidth_hz": 1e7,
    "kd": 5,
    "ku": 5,
    "trials": 100_000,
    "seed": 0,
    "workers": None,  # resolved to the core count
    "format": "csv",
    "sweep_parameter": None,
    "sweep_values": None,
    "schedulers": None,
}

_PRESETS = {
    # DL-power sweep with the pu = 0.95*p0 dBm rule; fixed-power selectors
    # and baselines side by side.
    "fig2": {
        "sweep_parameter": "p0_dbm",
        "sweep_values": [float(v) for v in range(-20, 31, 5)],
        "pu_dbm_scale": 0.95,
        "si_db": 80.0,
        "kd": 5,
        "ku": 5,
        "schedulers": ["a1", "a2", "a3", "es-fd", "es-fdhd", "hd-tdd"],
    },
    # SI-cancellation sweep for the OPA-enhanced selectors and baselines.
    "fig3": {
        "sweep_parameter": "si_cancellation_db",
        "sweep_values": [float(v) for v in range(40, 121, 10)],
        "p0_dbm": 24.0,
        "pu_dbm": 23.0,
        "kd": 5,
        "ku": 5,
        "schedulers": ["a1-opa", "a2-opa", "a3-opa", "hd-tdd", "es-fdhd"],
    },
    # User-count sweep at weak SI cancellation.
    "fig4": {
        "sweep_parameter": "k_users",
        "sweep_values": [2, 4, 6, 8, 10, 12, 15],
        "si_db": 20.0,
        "p0_dbm": 24.0,
        "pu_dbm": 23.0,
        "schedulers": ["a1", "a2", "a3", "a1-opa", "a2-opa", "a3-opa", "es-fdhd", "hd-tdd"],
    },
}


def _fmt(value):
    """Serialize one cell: floats at 17 significant digits (round-trip
    exact), everything else as str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(path, rows, header, fmt):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [{k: row[k] for k in header} for row in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_manifest(out_path, command, resolved):
    manifest = {
        "tool": "fdsched",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_describe": _git_describe(),
        "resolved": resolved,
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _load_config_file(path):
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and isinstance(data.get("resolved"), dict):
        data = data["resolved"]
    if not isinstance(data, dict):
        raise FlagError(f"--config: {path} does not hold a settings object")
    return data


def _resolve(args, defaults, flag_keys):
    """Layer the settings: defaults < preset < config file < explicit flags."""
    settings = dict(defaults)
    preset = getattr(args, "preset", None)
    if preset:
        settings.update(_PRESETS[preset])
    if getattr(args, "config", None):
        file_settings = _load_config_file(args.config)
        unknown = set(file_settings) - set(defaults)
        if unknown:
            raise FlagError(f"--config: unknown keys {sorted(unknown)}")
        settings.update(file_settings)
    for key in flag_keys:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _base_config(settings):
    """The radio settings under the engine's names (``sim.resolve_config``)."""
    return {
        "p0_dbm": settings["p0_dbm"],
        "pu_dbm": settings["pu_dbm"],
        "pu_dbm_scale": settings.get("pu_dbm_scale"),
        "si_cancellation_db": settings["si_db"],
        "nf_bs_db": settings["nf_bs_db"],
        "nf_mt_db": settings["nf_mt_db"],
        "bandwidth_hz": settings["bandwidth_hz"],
        "k_u": settings["ku"],
        "k_d": settings["kd"],
    }


def cmd_simulate(args):
    settings = _resolve(args, _SIM_DEFAULTS, [
        "p0_dbm", "pu_dbm", "pu_dbm_scale", "si_db", "nf_bs_db", "nf_mt_db",
        "bandwidth_hz", "kd", "ku", "trials", "seed", "workers", "format",
    ])
    if args.scheduler:
        settings["schedulers"] = list(args.scheduler)
    if settings["schedulers"] is None:
        settings["schedulers"] = ["a2-opa"]
    if not settings["schedulers"]:
        raise FlagError("no schedulers to run")
    if settings["trials"] < 1:
        raise FlagError("--trials must be >= 1")
    if settings["workers"] is None:
        settings["workers"] = os.cpu_count() or 1
    if settings["workers"] < 1:
        raise FlagError("--workers must be >= 1")
    if settings["sweep_parameter"] is None:
        settings["sweep_parameter"] = "p0_dbm"
        settings["sweep_values"] = [settings["p0_dbm"]]

    header = ["value", "scheduler", "mean_sum_rate", "mean_ul_rate",
              "mean_dl_rate", "std_error", "fd_fraction", "n_trials"]
    try:  # SweepSpec checks every sweep point's config
        spec = SweepSpec(
            swept_parameter=settings["sweep_parameter"],
            values=tuple(settings["sweep_values"]),
            schedulers=tuple(settings["schedulers"]),
            base_config=_base_config(settings),
            n_trials=int(settings["trials"]),
            seed=int(settings["seed"]),
        )
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    rows = [{
        "value": float(point.value),
        "scheduler": point.scheduler.value,
        "mean_sum_rate": point.stats.mean_sum_rate,
        "mean_ul_rate": point.stats.mean_ul_rate,
        "mean_dl_rate": point.stats.mean_dl_rate,
        "std_error": point.stats.std_error,
        "fd_fraction": point.stats.fd_fraction,
        "n_trials": point.stats.n_trials,
    } for point in run_sweep(spec, workers=int(settings["workers"]))]
    out = args.out or f"simulate.{settings['format']}"
    _write_rows(out, rows, header, settings["format"])
    _write_manifest(out, "simulate", settings)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


_ANALYZE_KEYS = ("p0_dbm", "pu_dbm", "si_db", "nf_bs_db", "nf_mt_db", "bandwidth_hz",
                 "kd", "ku", "format")
_ANALYZE_DEFAULTS = {key: _SIM_DEFAULTS[key] for key in _ANALYZE_KEYS}


def cmd_analyze(args):
    settings = _resolve(args, _ANALYZE_DEFAULTS, _ANALYZE_KEYS)
    algs = list(args.alg or [])
    if not algs and not args.asymptotic:
        raise FlagError("nothing to analyze: pass --alg a1 / --alg a2 and/or --asymptotic")
    if args.k is not None:
        if args.k < 2:
            raise FlagError("--k must be >= 2")
        settings["kd"] = settings["ku"] = args.k
    try:
        params = AnalyticalParams.from_config(resolve_config(_base_config(settings)))
    except ValueError as exc:
        raise FlagError(str(exc)) from exc

    header = ["quantity", "value_bits", "value_nats", "oracle_bits", "abs_diff", "flagged"]
    rows = []

    def row(quantity, value_bits, value_nats="", oracle="", flagged=""):
        diff = abs(value_bits - oracle) if isinstance(oracle, float) else ""
        rows.append({
            "quantity": quantity, "value_bits": value_bits, "value_nats": value_nats,
            "oracle_bits": oracle, "abs_diff": diff, "flagged": flagged,
        })

    if algs:
        ul = analysis.avg_rate_ul_closed(params)
        ul_oracle = analysis.avg_rate_integral(
            lambda x: analysis.cdf_sinr_ul(x, params), analysis._degenerate_cdf)
        row("avg_rate_ul_closed", ul, oracle=ul_oracle, flagged=False)
    for alg in algs:
        fn = analysis.avg_rate_a1 if alg == "a1" else analysis.avg_rate_a2
        cdf = analysis.cdf_sinr_dl_a1 if alg == "a1" else analysis.cdf_sinr_dl_a2
        result = fn(params)
        oracle = analysis.avg_rate_integral(
            lambda x: analysis.cdf_sinr_ul(x, params), lambda x: cdf(x, params))
        row(f"avg_rate_{alg}", result.value, oracle=oracle, flagged=result.flagged)
    if args.asymptotic:
        asym = analysis.asymptotic_rate_a1(params)
        row("asymptotic_rate_a1", asym.bits, value_nats=asym.nats)

    out = args.out or f"analyze.{settings['format']}"
    _write_rows(out, rows, header, settings["format"])
    settings["algs"] = algs
    settings["asymptotic"] = bool(args.asymptotic)
    _write_manifest(out, "analyze", settings)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_validate(args):
    _, all_passed = validate.run(names=args.only or None, quick=args.quick)
    return 0 if all_passed else 1


def _add_common_radio_flags(p, with_scale):
    p.add_argument("--p0-dbm", dest="p0_dbm", type=float, help="BS (DL) max power in dBm")
    p.add_argument("--pu-dbm", dest="pu_dbm", type=float, help="UL terminal max power in dBm")
    if with_scale:
        p.add_argument("--pu-dbm-scale", dest="pu_dbm_scale", type=float,
                       help="set pu_dbm = SCALE * p0_dbm (dBm-domain rule)")
    p.add_argument("--si-db", dest="si_db", type=float, help="SI cancellation capability in dB")
    p.add_argument("--nf-bs-db", dest="nf_bs_db", type=float, help="BS noise figure in dB (default 13)")
    p.add_argument("--nf-mt-db", dest="nf_mt_db", type=float, help="DL terminal noise figure in dB (default 9)")
    p.add_argument("--bandwidth-hz", dest="bandwidth_hz", type=float, help="noise bandwidth in Hz (default 1e7)")
    p.add_argument("--kd", type=int, help="number of DL candidate terminals")
    p.add_argument("--ku", type=int, help="number of UL candidate terminals")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--out", help="output path (manifest written alongside)")
    p.add_argument("--config", help="JSON settings file (or a previous manifest); flags override it")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdsched",
        description="Full-duplex cellular scheduling, power allocation, and rate analysis",
    )
    parser.add_argument("--version", action="version", version=f"fdsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo runs and parameter sweeps")
    p_sim.add_argument("--preset", choices=sorted(_PRESETS),
                       help="named sweep: fig2 (DL power), fig3 (SI cancellation), fig4 (user count)")
    p_sim.add_argument("--scheduler", action="append", choices=_SCHEDULER_CHOICES,
                       help="scheduler to run (repeatable); presets define their own set")
    p_sim.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point (default 100000)")
    p_sim.add_argument("--seed", type=int, help="master seed (default 0)")
    p_sim.add_argument("--workers", type=int, help="parallel workers (default: core count)")
    _add_common_radio_flags(p_sim, with_scale=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="closed-form rates with quadrature oracles")
    p_an.add_argument("--alg", action="append", choices=("a1", "a2"),
                      help="closed form to evaluate (repeatable)")
    p_an.add_argument("--asymptotic", action="store_true",
                      help="also emit the large-system approximation (nats and bits)")
    p_an.add_argument("--k", type=int, help="set kd = ku = K (mostly for --asymptotic)")
    _add_common_radio_flags(p_an, with_scale=False)
    p_an.set_defaults(func=cmd_analyze)

    p_val = sub.add_parser("validate", help="run the acceptance criteria")
    p_val.add_argument("--quick", action="store_true", help="reduced-size suite (about a minute)")
    p_val.add_argument("--only", action="append",
                       choices=[name for name, _ in validate.CRITERIA],
                       help="run a subset of criteria (repeatable)")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
