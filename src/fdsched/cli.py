"""Command-line front end: Monte Carlo sweeps, closed-form evaluation, and
the self-check suite.

Every run writes a machine-readable table (RFC-4180 CSV or JSON) plus a
``<out>.manifest.json`` sidecar holding the fully resolved settings, the
seed, tool version, timestamp, and git describe string.  Feeding a manifest
back through ``--config`` reproduces the output byte for byte, for
``simulate`` and ``analyze`` alike; the CSV itself contains no timestamps,
so reruns with any ``--workers`` value compare equal.

Settings files and manifests use the flags' ``dest`` names, the keys of
:data:`model.RADIO_DEFAULTS` for the radio; manifests written under the
earlier short names (``si_db``, ``kd``, ...) still load.

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
from .model import RADIO_DEFAULTS, whole_number
from .sim import BASE_CONFIG_DEFAULTS, Scheduler, SweepSpec, resolve_config, run_sweep


class FlagError(Exception):
    """A flag value that argparse's types cannot reject on their own."""


_SCHEDULER_CHOICES = [s.value for s in Scheduler]

_SIM_DEFAULTS = {
    **BASE_CONFIG_DEFAULTS,
    "trials": 100_000,
    "seed": 0,
    "workers": None,  # resolved to the core count
    "format": "csv",
    "sweep_parameter": None,
    "sweep_values": None,
    "schedulers": ["a2-opa"],
}

_ALGS = ("a1", "a2")

_ANALYZE_DEFAULTS = {**RADIO_DEFAULTS, "format": "csv", "algs": [], "asymptotic": False}

# Keys of the settings files of earlier versions, by their names today.
_OLD_NAMES = {"si_db": "si_cancellation_db", "kd": "k_d", "ku": "k_u",
              "nf_bs_db": "noise_figure_bs_db", "nf_mt_db": "noise_figure_mt_db"}

# Each preset sets only what differs from the defaults above.
_PRESETS = {
    # DL-power sweep with the pu = 0.95*p0 dBm rule; fixed-power selectors
    # and baselines side by side.
    "fig2": {
        "sweep_parameter": "p0_dbm",
        "sweep_values": [float(v) for v in range(-20, 31, 5)],
        "pu_dbm_scale": 0.95,
        "schedulers": ["a1", "a2", "a3", "es-fd", "es-fdhd", "hd-tdd"],
    },
    # SI-cancellation sweep for the OPA-enhanced selectors and baselines.
    "fig3": {
        "sweep_parameter": "si_cancellation_db",
        "sweep_values": [float(v) for v in range(40, 121, 10)],
        "schedulers": ["a1-opa", "a2-opa", "a3-opa", "hd-tdd", "es-fdhd"],
    },
    # User-count sweep at weak SI cancellation.
    "fig4": {
        "sweep_parameter": "k_users",
        "sweep_values": [2, 4, 6, 8, 10, 12, 15],
        "si_cancellation_db": 20.0,
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
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise FlagError(f"--config: cannot read {path}: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("resolved"), dict):
        data = data["resolved"]
    if not isinstance(data, dict):
        raise FlagError(f"--config: {path} does not hold a settings object")
    settings = {}
    for key, value in data.items():
        key = _OLD_NAMES.get(key, key)
        if key in settings:
            raise FlagError(f"--config: {key} is set twice (under its old and its new name)")
        settings[key] = value
    return settings


def _resolve(args, defaults):
    """Layer the settings: defaults < preset < config file < explicit flags.
    Every flag that sets a key of ``defaults`` has that key as its ``dest``."""
    settings = dict(defaults)
    preset = getattr(args, "preset", None)
    if preset:
        settings.update(_PRESETS[preset])
    if args.config:
        file_settings = _load_config_file(args.config)
        unknown = set(file_settings) - set(defaults)
        if unknown:
            raise FlagError(f"--config: unknown keys {sorted(unknown)}")
        settings.update(file_settings)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def cmd_simulate(args):
    settings = _resolve(args, _SIM_DEFAULTS)
    if not settings["schedulers"]:
        raise FlagError("no schedulers to run")
    if settings["workers"] is None:
        settings["workers"] = os.cpu_count() or 1
    if settings["sweep_parameter"] is None:
        if settings["sweep_values"] is not None:
            raise FlagError("sweep_values needs a sweep_parameter")
        settings["sweep_parameter"] = "p0_dbm"
        settings["sweep_values"] = [settings["p0_dbm"]]

    header = ["value", "scheduler", "mean_sum_rate", "mean_ul_rate",
              "mean_dl_rate", "std_error", "fd_fraction", "n_trials"]
    try:  # SweepSpec checks the seed and every sweep point's config
        for key in ("trials", "workers"):
            if whole_number(key, settings[key]) < 1:
                raise FlagError(f"--{key} must be >= 1")
        spec = SweepSpec(
            swept_parameter=settings["sweep_parameter"],
            values=tuple(settings["sweep_values"] or ()),
            schedulers=tuple(settings["schedulers"]),
            base_config={key: settings[key] for key in BASE_CONFIG_DEFAULTS},
            n_trials=settings["trials"],
            seed=settings["seed"],
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
    } for point in run_sweep(spec, workers=settings["workers"])]
    out = args.out or f"simulate.{settings['format']}"
    _write_rows(out, rows, header, settings["format"])
    _write_manifest(out, "simulate", settings)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_analyze(args):
    settings = _resolve(args, _ANALYZE_DEFAULTS)
    algs = settings["algs"]
    if not algs and not settings["asymptotic"]:
        raise FlagError("nothing to analyze: pass --alg a1 / --alg a2 and/or --asymptotic")
    if not set(algs) <= set(_ALGS):
        raise FlagError(f"algs must be taken from {list(_ALGS)}, got {algs!r}")
    if args.k is not None:
        settings["k_d"] = settings["k_u"] = args.k
    radio = {key: settings[key] for key in RADIO_DEFAULTS}
    try:
        params = AnalyticalParams.from_config(resolve_config(radio))
        asym = analysis.asymptotic_rate_a1(params) if settings["asymptotic"] else None
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

    # The oracle is the adaptive integral over the scalar CDFs, not the
    # closed forms' own quadrature reroute, so it still checks rerouted rows.
    def oracle(cdf_dl):
        return analysis.avg_rate_integral(lambda x: analysis.cdf_sinr_ul(x, params),
                                          lambda x: cdf_dl(x, params))

    if algs:
        row("avg_rate_ul_closed", analysis.avg_rate_ul_closed(params),
            oracle=oracle(lambda x, p: 1.0), flagged=False)
    for alg in algs:
        fn = analysis.avg_rate_a1 if alg == "a1" else analysis.avg_rate_a2
        cdf_dl = analysis.cdf_sinr_dl_a1 if alg == "a1" else analysis.cdf_sinr_dl_a2
        result = fn(params)
        row(f"avg_rate_{alg}", result.value, oracle=oracle(cdf_dl), flagged=result.flagged)
    if asym is not None:
        row("asymptotic_rate_a1", asym.bits, value_nats=asym.nats)

    out = args.out or f"analyze.{settings['format']}"
    _write_rows(out, rows, header, settings["format"])
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
    p.add_argument("--si-db", dest="si_cancellation_db", type=float, help="SI cancellation capability in dB")
    p.add_argument("--nf-bs-db", dest="noise_figure_bs_db", type=float,
                   help=f"BS noise figure in dB (default {RADIO_DEFAULTS['noise_figure_bs_db']:g})")
    p.add_argument("--nf-mt-db", dest="noise_figure_mt_db", type=float,
                   help=f"DL terminal noise figure in dB (default {RADIO_DEFAULTS['noise_figure_mt_db']:g})")
    p.add_argument("--bandwidth-hz", dest="bandwidth_hz", type=float,
                   help=f"noise bandwidth in Hz (default {RADIO_DEFAULTS['bandwidth_hz']:g})")
    p.add_argument("--kd", dest="k_d", type=int, help="number of DL candidate terminals")
    p.add_argument("--ku", dest="k_u", type=int, help="number of UL candidate terminals")
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
    p_sim.add_argument("--scheduler", dest="schedulers", action="append", choices=_SCHEDULER_CHOICES,
                       help="scheduler to run (repeatable); presets define their own set")
    p_sim.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point (default 100000)")
    p_sim.add_argument("--seed", type=int, help="master seed (default 0)")
    p_sim.add_argument("--workers", type=int, help="parallel workers (default: core count)")
    _add_common_radio_flags(p_sim, with_scale=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="closed-form rates with quadrature oracles")
    p_an.add_argument("--alg", dest="algs", action="append", choices=_ALGS,
                      help="closed form to evaluate (repeatable)")
    p_an.add_argument("--asymptotic", action="store_true", default=None,
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
