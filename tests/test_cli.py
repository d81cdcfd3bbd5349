"""Command-line front end: flags, presets, output formats, manifests."""

import csv
import functools
import json
import math
import os
import subprocess
import sys

import pytest

from fdsched import analysis, cli, specfun, validate
from fdsched.sim import derived_trial_seed, resolve_config, run_trials


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_single_run_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = run_cli([
            "simulate", "--scheduler", "a1", "--trials", "2000", "--seed", "9",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["scheduler"] == "a1"
        assert row["n_trials"] == "2000"
        assert float(row["fd_fraction"]) == 1.0
        assert float(row["mean_sum_rate"]) == pytest.approx(
            float(row["mean_ul_rate"]) + float(row["mean_dl_rate"]), abs=1e-12
        )
        # RFC 4180 line endings and round-trip-exact floats.
        raw = out.read_bytes()
        assert b"\r\n" in raw
        assert repr(float(row["mean_sum_rate"])) is not None

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["simulate", "--scheduler", "hd-tdd", "--trials", "500", "--out", str(out)])
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["tool"] == "fdsched"
        assert manifest["command"] == "simulate"
        assert manifest["resolved"]["trials"] == 500
        assert manifest["resolved"]["seed"] == 0
        assert manifest["resolved"]["schedulers"] == ["hd-tdd"]
        assert "timestamp" in manifest and "git_describe" in manifest

    def test_slow_git_still_writes_manifest(self, tmp_path, monkeypatch):
        def timeout(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
        monkeypatch.setattr(cli.subprocess, "run", timeout)
        # As in a fresh process: no earlier answer of git is kept.
        monkeypatch.setattr(cli, "_git_describe", functools.cache(cli._git_describe.__wrapped__))
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--scheduler", "a1", "--trials", "10", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["git_describe"] == "unknown"

    def test_git_describe_runs_once_per_process(self, tmp_path, monkeypatch):
        calls, real_run = [], subprocess.run

        def counted(cmd, **kwargs):
            calls.append(cmd)
            return real_run(cmd, **kwargs)
        monkeypatch.setattr(cli.subprocess, "run", counted)
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            assert run_cli(["simulate", "--scheduler", "a1", "--trials", "10", "--out", str(out)]) == 0
            assert "git_describe" in json.loads((tmp_path / f"run{i}.csv.manifest.json").read_text())
        # The first simulate of the process may spawn git; no later one does.
        assert len(calls) <= 1

    def test_default_trials_echoed(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["simulate", "--scheduler", "hd-tdd", "--kd", "2", "--ku", "2",
                 "--out", str(out)])
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["resolved"]["trials"] == 100_000
        assert read_csv(out)[0]["n_trials"] == "100000"

    def test_workers_do_not_change_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["simulate", "--scheduler", "a3-opa", "--trials", "5000", "--seed", "2"]
        run_cli(base + ["--workers", "1", "--out", str(a)])
        run_cli(base + ["--workers", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_reload_reproduces(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["simulate", "--scheduler", "a2-opa", "--trials", "3000",
                 "--seed", "4", "--out", str(a)])
        rc = run_cli(["simulate", "--config", str(a) + ".manifest.json", "--out", str(b)])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preset_fig3(self, tmp_path):
        out = tmp_path / "fig3.csv"
        rc = run_cli(["simulate", "--preset", "fig3", "--trials", "200",
                      "--seed", "7", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        values = sorted({float(r["value"]) for r in rows})
        assert values == [float(v) for v in range(40, 121, 10)]
        schedulers = {r["scheduler"] for r in rows}
        assert schedulers == {"a1-opa", "a2-opa", "a3-opa", "hd-tdd", "es-fdhd"}
        manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
        assert manifest["resolved"]["p0_dbm"] == 24.0
        assert manifest["resolved"]["pu_dbm"] == 23.0

    def test_preset_fig2_uses_scale_rule(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = run_cli(["simulate", "--preset", "fig2", "--trials", "100", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
        assert manifest["resolved"]["pu_dbm_scale"] == 0.95
        assert manifest["resolved"]["sweep_parameter"] == "p0_dbm"

    def test_preset_fig4_sweeps_users(self, tmp_path):
        out = tmp_path / "fig4.csv"
        rc = run_cli(["simulate", "--preset", "fig4", "--trials", "100",
                      "--scheduler", "a2-opa", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "fig4.csv.manifest.json").read_text())
        assert manifest["resolved"]["si_cancellation_db"] == 20.0
        assert manifest["resolved"]["sweep_parameter"] == "k_users"
        assert {r["scheduler"] for r in read_csv(out)} == {"a2-opa"}

    def test_preset_fig4_equals_per_scheduler_runs(self, tmp_path):
        # One shared-draw sweep writes the same bytes as running every
        # scheduler on its own, scheduler-major.
        out = tmp_path / "fig4.csv"
        rc = run_cli(["simulate", "--preset", "fig4", "--trials", "5000", "--seed", "3",
                      "--workers", "2", "--out", str(out)])
        assert rc == 0
        preset = cli._PRESETS["fig4"]
        lines = [",".join(["value", "scheduler", "mean_sum_rate", "mean_ul_rate",
                           "mean_dl_rate", "std_error", "fd_fraction", "n_trials"])]
        for sched in preset["schedulers"]:
            for i, k in enumerate(preset["sweep_values"]):
                config = resolve_config({"si_cancellation_db": 20.0}, "k_users", k)
                s = run_trials(config, sched, 5000, derived_trial_seed(3, i))
                lines.append(",".join(cli._fmt(v) for v in (
                    float(k), sched, s.mean_sum_rate, s.mean_ul_rate, s.mean_dl_rate,
                    s.std_error, s.fd_fraction, s.n_trials)))
        assert out.read_bytes().decode() == "".join(line + "\r\n" for line in lines)

    def test_empty_scheduler_list_exits_2(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"schedulers": []}))
        rc = run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "no schedulers" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        ({"sweep_parameter": "k_users", "sweep_values": [2.5, 3.7]}, "whole number"),
        ({"kd": 4.9}, "whole number"),
        ({"trials": 2.5}, "trials must be a whole number"),
        ({"seed": 1.7}, "seed must be a whole number"),
        ({"workers": 1.5}, "workers must be a whole number"),
        ({"trials": "100"}, "trials must be a whole number"),
        ({"sweep_parameter": "si_cancellation_db"}, "values must be non-empty"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"sweep_values": [10, 20, 30]}, "sweep_values needs a sweep_parameter"),
        ({"p0_dbm": -4000.0}, "needs positive p0_max and pu_max"),
        ({"pu_dbm": -4000.0, "schedulers": ["es-fdhd"]}, "needs positive p0_max and pu_max"),
        ({"pu_dbm_scale": 1000.0}, "pu_dbm is too large"),
        ({"p0_dbm": 10**400}, "p0_dbm is too large"),
        ({"sweep_parameter": "p0_dbm", "sweep_values": [10**400]}, "p0_dbm is too large"),
        ({"pu_dbm_scale": 10**400}, "pu_dbm_scale is too large"),
    ], ids=[f"settings{i}" for i in range(15)])
    def test_fractional_user_count_exits_2(self, tmp_path, capsys, settings, message):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        if "trials" not in settings:
            argv += ["--trials", "10"]
        rc = run_cli(argv)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_power_hd_tdd_exits_2(self, tmp_path, capsys):
        # -4000 dBm underflows to 0 mW, a dead DL that no scheduler is given.
        out = tmp_path / "x.csv"
        rc = run_cli(["simulate", "--scheduler", "hd-tdd", "--p0-dbm", "-4000", "--trials", "10",
                      "--out", str(out)])
        assert rc == 2
        assert "needs positive p0_max and pu_max" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_float_user_counts_still_load(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"kd": 3.0, "ku": 2.0, "sweep_parameter": "k_users",
                                      "sweep_values": [2.0, 3.0]}))
        out = tmp_path / "x.csv"
        rc = run_cli(["simulate", "--config", str(config), "--scheduler", "a1",
                      "--trials", "10", "--out", str(out)])
        assert rc == 0
        assert [r["value"] for r in read_csv(out)] == ["2", "3"]

    def test_whole_float_run_settings_load(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"trials": 10.0, "seed": 3.0, "workers": 1.0}))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert run_cli(["simulate", "--trials", "10", "--seed", "3", "--workers", "1",
                        "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("settings, message", [
        ({"trials": True, "seed": False}, "trials must be a whole number, got True"),
        ({"trials": 10, "seed": False}, "seed must be a whole number, got False"),
        ({"trials": 10, "workers": True}, "workers must be a whole number, got True"),
        ({"k_u": True, "k_d": True, "trials": 10}, "k_u must be a whole number, got True"),
        ({"kd": False, "trials": 10}, "k_d must be a whole number, got False"),
    ], ids=["trials-seed", "seed", "workers", "k_u-k_d", "old-kd"])
    def test_booleans_are_not_counts(self, tmp_path, capsys, settings, message):
        # JSON true/false would otherwise pass as the integers 1 and 0.
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "x.csv"
        assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_old_setting_names_load(self, tmp_path):
        old = {"si_db": 60.0, "kd": 3, "ku": 4, "nf_bs_db": 10.0, "nf_mt_db": 7.0}
        new = {"si_cancellation_db": 60.0, "k_d": 3, "k_u": 4, "noise_figure_bs_db": 10.0,
               "noise_figure_mt_db": 7.0}
        outs = []
        for name, settings in (("old", old), ("new", new)):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(dict(settings, trials=500, seed=2)))
            outs.append(tmp_path / f"{name}.csv")
            assert run_cli(["simulate", "--config", str(config), "--scheduler", "es-fdhd",
                            "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_setting_under_old_and_new_name_exits_2(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"kd": 3, "k_d": 3}))
        rc = run_cli(["simulate", "--config", str(config), "--trials", "10",
                      "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "k_d is set twice" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"{bad", b"\xff\xfe"],
                             ids=["missing", "malformed", "not-utf8"])
    def test_unreadable_settings_file_exits_2(self, tmp_path, capsys, content):
        config = tmp_path / "settings.json"
        if content is not None:
            config.write_bytes(content)
        for command in (["simulate", "--trials", "10"], ["analyze", "--alg", "a1"]):
            rc = run_cli(command + ["--config", str(config), "--out", str(tmp_path / "x.csv")])
            assert rc == 2
            assert f"cannot read {config}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli(["simulate", "--scheduler", "a1", "--trials", "300",
                 "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        assert isinstance(rows, list) and rows[0]["scheduler"] == "a1"

    @pytest.mark.parametrize("flags, message", [
        (["--preset", "fig3", "--si-db", "50"], "--si-db has no effect: the sweep over si_cancellation_db"),
        (["--preset", "fig2", "--p0-dbm", "5"], "--p0-dbm has no effect: the sweep over p0_dbm"),
        (["--preset", "fig4", "--ku", "7"], "--ku has no effect: the sweep over k_users"),
        (["--preset", "fig4", "--kd", "7"], "--kd has no effect: the sweep over k_users"),
        (["--preset", "fig2", "--pu-dbm", "10"], "--pu-dbm has no effect: pu_dbm_scale sets pu_dbm"),
        (["--pu-dbm-scale", "0.9", "--pu-dbm", "10"], "--pu-dbm has no effect: pu_dbm_scale sets pu_dbm"),
    ], ids=["fig3-si", "fig2-p0", "fig4-ku", "fig4-kd", "fig2-pu", "scale-pu"])
    def test_flag_the_run_overrides_exits_2(self, tmp_path, capsys, flags, message):
        # Each used to run the plain preset and record the unused value.
        out = tmp_path / "x.csv"
        assert run_cli(["simulate", *flags, "--trials", "10", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overridden_values_from_a_settings_file_still_load(self, tmp_path):
        # A manifest holds every key, so a file may set what the sweep replaces;
        # a DL power flag without a sweep is the one-point sweep's value.
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"si_cancellation_db": 50.0, "pu_dbm": 10.0}))
        for flags in (["--preset", "fig3", "--config", str(config)],
                      ["--preset", "fig2", "--config", str(config)], ["--p0-dbm", "5"]):
            assert run_cli(["simulate", *flags, "--trials", "10", "--workers", "1",
                            "--out", str(tmp_path / "x.csv")]) == 0
        assert [row["value"] for row in read_csv(tmp_path / "x.csv")] == ["5"]

    def test_bad_flag_value_exits_2(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--scheduler", "a1", "--trials", "0",
                      "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err

    def test_unknown_scheduler_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--scheduler", "bogus", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, settings, message", [
    ("simulate", {"si_cancellation_db": "80"}, "si_cancellation_db must be a number, got '80'"),
    ("simulate", {"bandwidth_hz": "1e7"}, "bandwidth_hz must be a number, got '1e7'"),
    ("simulate", {"p0_dbm": None}, "p0_dbm must be a number, got None"),
    ("simulate", {"p0_dbm": True}, "p0_dbm must be a number, got True"),
    ("simulate", {"pu_dbm_scale": "0.95"}, "pu_dbm_scale must be a number, got '0.95'"),
    ("simulate", {"sweep_parameter": "p0_dbm", "sweep_values": 5}, "values must be a sequence, got 5"),
    ("simulate", {"sweep_parameter": "p0_dbm", "sweep_values": [1, "a"]},
     "p0_dbm must be a number, got 'a'"),
    ("simulate", {"schedulers": 5}, "schedulers must be a sequence of names, got 5"),
    ("analyze", {"p0_dbm": "24", "algs": ["a1"]}, "p0_dbm must be a number, got '24'"),
    ("analyze", {"algs": 5}, "algs must be taken from ['a1', 'a2'], got 5"),
    ("analyze", {"algs": ["a1"], "asymptotic": "false"}, "asymptotic must be true or false"),
], ids=["si-str", "bandwidth-str", "p0-null", "p0-true", "scale-str", "sweep-values-int",
        "sweep-value-str", "schedulers-int", "analyze-p0-str", "analyze-algs-int",
        "analyze-asymptotic-str"])
def test_mistyped_setting_exits_2(tmp_path, capsys, command, settings, message):
    # Each of these used to crash with a TypeError, or to run on a wrong value.
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "x.csv"
    assert run_cli([command, "--config", str(config), "--out", str(out)]
                   + (["--trials", "10"] if command == "simulate" else [])) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--trials", "10"], ["analyze", "--alg", "a1"]])
def test_format_from_a_settings_file_is_checked(tmp_path, capsys, monkeypatch, command):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"format": "xml"}))
    monkeypatch.chdir(tmp_path)  # where the default output would go
    assert run_cli(command + ["--config", str(config)]) == 2
    assert "format must be one of ['csv', 'json'], got 'xml'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["settings.json"]


@pytest.mark.parametrize("content, message", [
    ([{"trials": 10}], "does not hold a settings object"),
    ({"trials": 10, "bogus": 1}, "--config: unknown keys ['bogus']"),
], ids=["list", "unknown-key"])
def test_settings_file_shape_exits_2(tmp_path, capsys, content, message):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(content))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("closed_form", ["avg_rate_a1", "avg_rate_a2", "avg_rate_ul_closed"])
def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, closed_form):
    # analyze looks each closed form up on analysis when it runs, so the
    # patched one is the one called.
    def fail(params):
        raise analysis.QuadratureError("forced failure", achieved=1.0)

    monkeypatch.setattr(analysis, closed_form, fail)
    out = tmp_path / "x.csv"
    assert run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--out", str(out)]) == 3
    assert "numerical failure: forced failure" in capsys.readouterr().err
    assert not out.exists()


class TestAnalyze:
    def test_closed_forms_against_oracle_columns(self, tmp_path):
        out = tmp_path / "an.csv"
        rc = run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--kd", "5",
                      "--ku", "5", "--out", str(out)])
        assert rc == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        assert set(rows) == {"avg_rate_ul_closed", "avg_rate_a1", "avg_rate_a2"}
        for row in rows.values():
            rel = float(row["abs_diff"]) / float(row["oracle_bits"])
            assert rel <= 1e-6

    def test_low_power_point_converges(self, tmp_path):
        # The rate integral once cut this point's tail too early and raised
        # (exit 3); both oracles now agree with the closed forms.
        out = tmp_path / "an.csv"
        rc = run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--p0-dbm", "20", "--pu-dbm", "15",
                      "--ku", "3", "--kd", "4", "--si-db", "70", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [r["quantity"] for r in rows] == [
            "avg_rate_ul_closed", "avg_rate_a1", "avg_rate_a2"]
        assert all(float(r["abs_diff"]) <= 1e-9 for r in rows)

    def test_oracle_is_the_adaptive_integral_at_rerouted_points(self, tmp_path):
        # At K = 30 both closed forms reroute to the rate integral of the
        # survival laws, so an oracle computed from those same laws would
        # read abs_diff = 0 and check nothing; the column must come from
        # avg_rate_integral over the public CDFs.
        out = tmp_path / "an.csv"
        assert run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--k", "30",
                        "--out", str(out)]) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        params = analysis.AnalyticalParams.from_config(resolve_config({"k_u": 30, "k_d": 30}))
        cdfs = {"avg_rate_ul_closed": lambda x, p: 1.0,
                "avg_rate_a1": analysis.cdf_sinr_dl_a1,
                "avg_rate_a2": analysis.cdf_sinr_dl_a2}
        assert set(rows) == set(cdfs)
        for quantity, cdf_dl in cdfs.items():
            expected = analysis.avg_rate_integral(lambda x: analysis.cdf_sinr_ul(x, params),
                                                  lambda x: cdf_dl(x, params))
            assert float(rows[quantity]["oracle_bits"]) == expected
            assert float(rows[quantity]["abs_diff"]) <= 1e-9

    def test_low_snr_rerouted_rows_match_the_oracle(self, tmp_path):
        # At -150 dBm every link's mass lies below t ~ 1e-5, where the
        # reroute once put no node and read 0 bits against an oracle of
        # 8.1e-6 to 2.8e-5 bits.
        out = tmp_path / "an.csv"
        assert run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--k", "48", "--p0-dbm", "-150",
                        "--pu-dbm", "-150", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(float(r["oracle_bits"]) > 1e-6 for r in rows)
        assert all(float(r["abs_diff"]) <= 1e-12 for r in rows)

    def test_oracle_catches_a_wrong_survival_law(self, tmp_path, monkeypatch):
        # The reroute and the oracle share one quadrature rule, so the
        # oracle checks the reroute only through its independent CDFs: a
        # survival law off by a relative 1e-6 must show in abs_diff.
        sf_dl_a2 = analysis._sf_dl_a2
        monkeypatch.setattr(analysis, "_sf_dl_a2", lambda x, p: sf_dl_a2(x, p) * (1.0 + 1e-6))
        out = tmp_path / "an.csv"
        assert run_cli(["analyze", "--alg", "a2", "--k", "48", "--out", str(out)]) == 0
        row = {r["quantity"]: r for r in read_csv(out)}["avg_rate_a2"]
        assert float(row["abs_diff"]) > 1e-7

    def test_manifest_routes_cover_every_closed_row(self, tmp_path):
        # At K = 41 every closed form is past its user-count limit; the
        # asymptotic row has no route.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["analyze", "--alg", "a2", "--alg", "a1", "--asymptotic", "--k", "41",
                        "--out", str(a)]) == 0
        quantities = [r["quantity"] for r in read_csv(a)]
        assert quantities == ["avg_rate_ul_closed", "avg_rate_a2", "avg_rate_a1",
                              "asymptotic_rate_a1"]
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["routes"] == dict.fromkeys(quantities[:3], "quadrature:large-k")
        assert run_cli(["analyze", "--config", str(a) + ".manifest.json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vanishing_ul_power_converges(self, tmp_path):
        # At -300 dBm the UL form's xi_1 argument is ~1.3e25, where the
        # continued fraction's factors stay one ulp from 1; it used to
        # raise "stalled" (exit 3).
        out = tmp_path / "an.csv"
        assert run_cli(["analyze", "--alg", "a1", "--pu-dbm", "-300", "--out", str(out)]) == 0
        rows = {r["quantity"]: r for r in read_csv(out)}
        assert float(rows["avg_rate_ul_closed"]["value_bits"]) < 1e-20
        assert float(rows["avg_rate_a1"]["abs_diff"]) <= 1e-9

    def test_manifest_names_the_rows_an_oracle_of_0_cannot_check(self, tmp_path):
        # At -300 dBm all the UL link's mass lies below the rate integral's
        # first breakpoint, so its oracle reads exactly 0 against 1.3e-24
        # bits; the manifest says so, and the data file and its reload do not.
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run_cli(["analyze", "--alg", "a1", "--pu-dbm", "-300", "--out", str(a)]) == 0
        rows = {r["quantity"]: r for r in read_csv(a)}
        assert float(rows["avg_rate_ul_closed"]["oracle_bits"]) == 0.0
        assert float(rows["avg_rate_ul_closed"]["value_bits"]) > 0.0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["oracle_zero"] == ["avg_rate_ul_closed"]
        assert "oracle_zero" not in manifest["resolved"] and "oracle_zero" not in a.read_text()
        assert run_cli(["analyze", "--config", str(a) + ".manifest.json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads((tmp_path / "b.csv.manifest.json").read_text())["oracle_zero"] == ["avg_rate_ul_closed"]
        # The default point: every oracle is positive.
        assert run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--out", str(c)]) == 0
        assert all(float(r["oracle_bits"]) > 0.0 for r in read_csv(c))
        assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["oracle_zero"] == []

    def test_pole_point_flagged(self, tmp_path):
        out = tmp_path / "an.csv"
        rc = run_cli(["analyze", "--alg", "a2", "--p0-dbm", "10", "--pu-dbm", "10",
                      "--out", str(out)])
        assert rc == 0
        row = {r["quantity"]: r for r in read_csv(out)}["avg_rate_a2"]
        assert row["flagged"] == "true"
        assert float(row["abs_diff"]) <= 1e-9

    def test_asymptotic_dual_emission(self, tmp_path):
        out = tmp_path / "asym.csv"
        rc = run_cli(["analyze", "--asymptotic", "--k", "1024", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["quantity"] == "asymptotic_rate_a1"
        nats = float(row["value_nats"])
        bits = float(row["value_bits"])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("flags,message", [
        (["--si-db", "-5"], "si_cancellation_db"),
        (["--bandwidth-hz", "0"], "bandwidth_hz"),
        (["--p0-dbm", "4000"], "p0_dbm is too large"),
        (["--pu-dbm", "4000"], "pu_dbm is too large"),
        (["--nf-bs-db", "4000"], "noise_figure_bs_db is too large"),
        (["--nf-mt-db", "4000"], "noise_figure_mt_db is too large"),
    ])
    def test_rejects_what_simulate_rejects(self, tmp_path, capsys, flags, message):
        for command in (["analyze", "--alg", "a1"], ["simulate", "--trials", "10"]):
            rc = run_cli(command + flags + ["--out", str(tmp_path / "x.csv")])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_fractional_user_count_exits_2(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"kd": 4.9}))
        rc = run_cli(["analyze", "--alg", "a1", "--config", str(config),
                      "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "whole number" in capsys.readouterr().err

    def test_manifest_reload_reproduces(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["analyze", "--alg", "a1", "--asymptotic", "--kd", "3", "--ku", "3",
                        "--out", str(a)]) == 0
        rc = run_cli(["analyze", "--config", str(a) + ".manifest.json", "--out", str(b)])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_csv(b)) == 3

    def test_manifest_records_each_closed_form_route(self, tmp_path):
        # At K = 10 the A2 form's alternating sum cancels past the reroute's
        # tolerance, so its row comes from the rate integral; the UL and A1
        # rows stay closed.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["analyze", "--alg", "a1", "--alg", "a2", "--k", "10", "--out", str(a)]) == 0
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["routes"] == {"avg_rate_ul_closed": "closed", "avg_rate_a1": "closed",
                                      "avg_rate_a2": "quadrature:cancellation"}
        assert "routes" not in manifest["resolved"]
        assert run_cli(["analyze", "--config", str(a) + ".manifest.json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_alg_in_settings_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"algs": ["a3"]}))
        rc = run_cli(["analyze", "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "algs must be taken from" in capsys.readouterr().err

    def test_nothing_requested_exits_2(self, capsys):
        assert run_cli(["analyze"]) == 2
        assert "--alg" in capsys.readouterr().err

    def test_k_sets_both_user_counts_down_to_1(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["analyze", "--alg", "a1", "--k", "1", "--out", str(a)]) == 0
        assert run_cli(["analyze", "--alg", "a1", "--kd", "1", "--ku", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags", [["--kd", "7"], ["--ku", "7"], ["--ku", "5", "--kd", "7"]])
    def test_k_with_ku_or_kd_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        assert run_cli(["analyze", "--alg", "a1", "--k", "5", *flags, "--out", str(out)]) == 2
        assert "--k sets both user counts, so it cannot be combined with --ku or --kd" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_k_overrides_a_settings_file(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"k_d": 7}))
        out = tmp_path / "x.csv"
        assert run_cli(["analyze", "--alg", "a1", "--config", str(config), "--k", "3",
                        "--out", str(out)]) == 0
        resolved = json.loads((tmp_path / "x.csv.manifest.json").read_text())["resolved"]
        assert resolved["k_u"] == resolved["k_d"] == 3

    @pytest.mark.parametrize("flags", [["--kd", "1"], ["--k", "1"]])
    def test_asymptotic_single_user_exits_2(self, tmp_path, capsys, flags):
        rc = run_cli(["analyze", "--asymptotic", *flags, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "k_u >= 2 and k_d >= 2" in capsys.readouterr().err


@pytest.fixture
def validate_calls(monkeypatch):
    """The keyword arguments of every ``validate.run`` call, which runs
    nothing and reports every criterion passed."""
    calls = []

    def run(**kwargs):
        calls.append(kwargs)
        return [], True

    monkeypatch.setattr(validate, "run", run)
    return calls


class TestValidateCommand:
    def test_subset_passes(self, capsys):
        rc = run_cli(["validate", "--quick", "--only", "special-functions",
                      "--only", "asymptotic-trend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS  special-functions" in out
        assert "PASS  asymptotic-trend" in out

    def test_corrupted_kernel_fails_named_criterion(self, capsys, monkeypatch):
        monkeypatch.setattr(specfun, "xi_n", lambda n, x, y: 1.0)
        rc = run_cli(["validate", "--quick", "--only", "special-functions"])
        assert rc == 1
        assert "FAIL  special-functions" in capsys.readouterr().out

    def test_workers_below_one_exit_2(self, capsys, validate_calls):
        assert run_cli(["validate", "--quick", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert validate_calls == []

    def test_workers_reach_the_criteria(self, validate_calls):
        assert run_cli(["validate", "--quick", "--only", "cdf-laws", "--workers", "2"]) == 0
        assert validate_calls == [{"names": ["cdf-laws"], "quick": True, "workers": 2}]

    def test_module_entrypoint_runs(self):
        # The child finds the package where this process found it.
        package = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fdsched", "--version"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "fdsched" in proc.stdout


class TestDefaultWorkers:
    """Without --workers, simulate and validate run on the CPUs the process
    may use, which an affinity mask (``taskset``) narrows below the count."""

    @pytest.fixture(autouse=True)
    def one_cpu_of_eight(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_simulate(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--scheduler", "a1", "--trials", "10", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["resolved"]["workers"] == 1

    def test_validate(self, validate_calls):
        assert run_cli(["validate", "--quick"]) == 0
        assert validate_calls[0]["workers"] == 1

    @pytest.mark.parametrize("count, expected", [(8, 8), (None, 1)])
    def test_without_an_affinity_mask_the_cpu_count(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert cli._available_cpus() == expected
