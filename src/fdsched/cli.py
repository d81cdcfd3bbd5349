"""Command-line front end: Monte Carlo sweeps, closed-form evaluation, and
the self-check suite.

Every run writes a machine-readable table (RFC-4180 CSV or JSON) plus a
``<out>.manifest.json`` sidecar holding the fully resolved settings, the
seed, tool version, timestamp, and git describe string; an ``analyze``
manifest also maps each closed-form row's quantity to the route that
computed it (``routes``: ``ClosedFormRate.route``).  Feeding a manifest
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
import dataclasses
import functools
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analysis, validate
from .model import RADIO_DEFAULTS, whole_number
from .sim import BASE_CONFIG_DEFAULTS, Scheduler, resolve_config, run_sweep


class FlagError(Exception):
    """A flag value that argparse's types cannot reject on their own."""


_SCHEDULER_CHOICES = [s.value for s in Scheduler]

_SIM_DEFAULTS = {
    **BASE_CONFIG_DEFAULTS,
    "trials": 100_000,
    "seed": 0,
    "workers": None,  # resolved to the available CPUs
    "format": "csv",
    "sweep_parameter": None,
    "sweep_values": None,
    "schedulers": ["a2-opa"],
}

_ALGS = ("a1", "a2")
_FORMATS = ("csv", "json")

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


@functools.cache  # git runs once a process: validate's determinism check makes 3 simulate calls a pass
def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or one slower than the timeout
        pass
    return "unknown"


def _emit(args, command, rows, header, settings, **extra):
    """The one writer of output: the ``header`` columns of ``rows`` as CSV or
    JSON to ``--out`` (default ``<command>.<format>``), then its manifest
    ``<out>.manifest.json``, with the ``extra`` keys beside ``resolved``."""
    out = args.out or f"{command}.{settings['format']}"
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    if settings["format"] == "json":
        payload = [{k: row[k] for k in header} for row in rows]
        Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in header])
    manifest = {
        "tool": "fdsched",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_describe": _git_describe(),
        "resolved": settings,
        **extra,
    }
    Path(out + ".manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


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
    if settings["format"] not in _FORMATS:
        raise FlagError(f"format must be one of {list(_FORMATS)}, got {settings['format']!r}")
    return settings


# The flags, by dest, that each sweep parameter sets on every point.
_SWEPT_FLAGS = {"p0_dbm": {"p0_dbm": "--p0-dbm"},
                "si_cancellation_db": {"si_cancellation_db": "--si-db"},
                "k_users": {"k_u": "--ku", "k_d": "--kd"}}


def _refuse_overridden_flags(args, settings):
    """Refuse a command-line flag whose value the sweep or the pu_dbm_scale
    rule replaces: the run would ignore it and its manifest record it.
    Values from a preset or a settings file stay allowed, since a manifest
    holds every key."""
    # Compared, not looked up: a settings file may hold an unhashable value.
    flags = next((dests for parameter, dests in _SWEPT_FLAGS.items()
                  if settings["sweep_parameter"] == parameter), {})
    for dest, flag in flags.items():
        if getattr(args, dest) is not None:
            raise FlagError(f"{flag} has no effect: the sweep over {settings['sweep_parameter']} sets it")
    if args.pu_dbm is not None and settings["pu_dbm_scale"] is not None:
        raise FlagError("--pu-dbm has no effect: pu_dbm_scale sets pu_dbm = pu_dbm_scale * p0_dbm")


def _available_cpus():
    """The CPUs this process may run on: its affinity mask where the OS keeps
    one (``taskset`` narrows it below the machine's count), else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(args):
    settings = _resolve(args, _SIM_DEFAULTS)
    if not settings["schedulers"]:
        raise FlagError("no schedulers to run")
    _refuse_overridden_flags(args, settings)
    if settings["workers"] is None:
        settings["workers"] = _available_cpus()
    if settings["sweep_parameter"] is None:
        if settings["sweep_values"] is not None:
            raise FlagError("sweep_values needs a sweep_parameter")
        settings["sweep_parameter"] = "p0_dbm"
        settings["sweep_values"] = [settings["p0_dbm"]]

    header = ["value", "scheduler", "mean_sum_rate", "mean_ul_rate",
              "mean_dl_rate", "std_error", "fd_fraction", "n_trials"]
    try:  # run_sweep checks the rest before its first draw
        for key in ("trials", "workers"):
            if whole_number(key, settings[key]) < 1:
                raise FlagError(f"--{key} must be >= 1")
        points = run_sweep({key: settings[key] for key in BASE_CONFIG_DEFAULTS},
                           settings["sweep_parameter"], settings["sweep_values"] or (),
                           settings["schedulers"], settings["trials"], settings["seed"],
                           settings["workers"])
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    rows = [{"value": float(point.value), "scheduler": point.scheduler.value,
             **dataclasses.asdict(point.stats)} for point in points]
    return _emit(args, "simulate", rows, header, settings)


def cmd_analyze(args):
    settings = _resolve(args, _ANALYZE_DEFAULTS)
    algs = settings["algs"]
    if not isinstance(settings["asymptotic"], bool):
        raise FlagError(f"asymptotic must be true or false, got {settings['asymptotic']!r}")
    if not algs and not settings["asymptotic"]:
        raise FlagError("nothing to analyze: pass --alg a1 / --alg a2 and/or --asymptotic")
    if not isinstance(algs, list) or not all(alg in _ALGS for alg in algs):
        raise FlagError(f"algs must be taken from {list(_ALGS)}, got {algs!r}")
    if args.k is not None:
        if args.k_u is not None or args.k_d is not None:
            raise FlagError("--k sets both user counts, so it cannot be combined with --ku or --kd")
        settings["k_d"] = settings["k_u"] = args.k
    try:
        params = resolve_config({key: settings[key] for key in RADIO_DEFAULTS})
        asym = analysis.asymptotic_rate_a1(params) if settings["asymptotic"] else None
    except ValueError as exc:
        raise FlagError(str(exc)) from exc

    header = ["quantity", "value_bits", "value_nats", "oracle_bits", "abs_diff", "flagged"]
    rows, routes = [], {}  # routes: each closed-form row's ClosedFormRate.route, for the manifest
    # (quantity, DL CDF); each quantity names its closed form on analysis, looked up when run.
    closed = [("avg_rate_ul_closed", lambda x, p: 1.0)] if algs else []
    closed += [(f"avg_rate_{alg}", getattr(analysis, f"cdf_sinr_dl_{alg}")) for alg in algs]
    for quantity, cdf_dl in closed:
        result = getattr(analysis, quantity)(params)
        # The oracle integrates the public CDFs, not the survival laws the closed
        # forms reroute to; sharing only their rule, it still checks rerouted rows.
        oracle = analysis.avg_rate_integral(lambda x: analysis.cdf_sinr_ul(x, params),
                                            lambda x: cdf_dl(x, params))
        rows.append(dict(zip(header, (quantity, result.value, "", oracle,
                                      abs(result.value - oracle), result.flagged))))
        routes[quantity] = result.route
    if asym is not None:
        rows.append(dict(zip(header, ("asymptotic_rate_a1", asym.bits, asym.nats, "", "", ""))))

    return _emit(args, "analyze", rows, header, settings, routes=routes)


def cmd_validate(args):
    workers = _available_cpus() if args.workers is None else args.workers
    if workers < 1:
        raise FlagError("--workers must be >= 1")
    _, all_passed = validate.run(names=args.only or None, quick=args.quick, workers=workers)
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
    p.add_argument("--format", choices=_FORMATS, help="output format (default csv)")
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
    p_sim.add_argument("--workers", type=int,
                       help="parallel workers (default: the CPUs this process may run on)")
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
    p_val.add_argument("--quick", action="store_true", help="reduced-size suite (about 1 s)")
    p_val.add_argument("--only", action="append",
                       choices=[name for name, _ in validate.CRITERIA],
                       help="run a subset of criteria (repeatable)")
    p_val.add_argument("--workers", type=int,
                       help="threads of the Monte Carlo criteria (default: the CPUs this process "
                            "may run on); no detail string depends on it")
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
