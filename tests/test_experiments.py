import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from qmbh_lab import cli, experiments
from qmbh_lab.constants import RatioCheck

REGISTERED_IDS = [
    "constants-report", "bohm-vortex", "ring-model", "hopping-dispersion",
    "emergent-mass", "dispersion-vs-relativity", "zbw", "neg-energy-scan",
    "kn-horizon", "kn-fields", "metric-slice", "shell-spin",
    "charge-confinement",
]


class TestRegistry:
    def test_registered_ids(self):
        assert list(experiments.EXPERIMENTS) == REGISTERED_IDS

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment id"):
            experiments.ExperimentSpec("kn-wormhole", {}, "out")

    def test_unknown_parameter_rejected(self, tmp_path):
        spec = experiments.ExperimentSpec("kn-horizon", {"speed": "11"}, tmp_path)
        report = experiments.run(spec)
        assert report.status == "fail"
        assert "unknown parameter" in report.error

    def test_invalid_parameter_value_rejected(self, tmp_path):
        spec = experiments.ExperimentSpec("zbw", {"sigma": "wide"}, tmp_path)
        report = experiments.run(spec)
        assert report.status == "fail"
        assert "invalid value" in report.error

    @pytest.mark.parametrize("exp_id, key, raw", [
        ("zbw", "sigma", "nan"),
        ("metric-slice", "lam", "inf"),
        ("zbw", "sigma", float("nan")),
        ("metric-slice", "lam", float("-inf")),
    ])
    def test_non_finite_value_rejected(self, tmp_path, exp_id, key, raw):
        report = experiments.run(experiments.ExperimentSpec(exp_id, {key: raw},
                                                            tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert f"ValueError: non-finite value {raw!r} for parameter {key!r}" \
            in report.error

    @pytest.mark.parametrize("widths", [
        "1:2",            # no 100
        "0.5:2:100",      # no 1
        "1:100:5",        # not increasing
        "1:1:100",        # repeated entry
        "-1:1:100",       # non-positive
        "1:nan:100",      # non-finite
        "1:inf:100",
        "1:wide:100",
    ])
    def test_scan_widths_rejected(self, tmp_path, widths):
        report = experiments.run(experiments.ExperimentSpec(
            "neg-energy-scan", {"widths": widths}, tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert report.error.startswith("neg-energy-scan: ValueError:")
        assert "'widths'" in report.error
        assert not (tmp_path / "neg_energy.csv").exists()

    @pytest.mark.parametrize("key, raw", [
        ("sigma", "0"),
        ("sigma", "-1"),
        ("periods", "0"),
        ("periods", "0.001"),
        ("periods", "4"),        # averaging window = a quarter of the trace
        ("samples", "3"),
        ("samples", "15"),
        ("omega_tol", "0"),
        ("omega_tol", "-1"),
        ("suppress_factor", "0"),
        ("suppress_factor", "-2"),
    ])
    def test_zbw_domain_rejected(self, tmp_path, key, raw):
        report = experiments.run(experiments.ExperimentSpec("zbw", {key: raw},
                                                            tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert report.error.startswith(f"zbw: ValueError: parameter {key!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_quark_mass_domain_rejected(self, tmp_path, raw):
        report = experiments.run(experiments.ExperimentSpec(
            "charge-confinement", {"quark_mass_gev": raw}, tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert report.error.startswith(
            "charge-confinement: ValueError: parameter 'quark_mass_gev'")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("exp_id, key, raw", [
        ("hopping-dispersion", "sites", "8"),
        ("hopping-dispersion", "sites", "64"),
        ("hopping-dispersion", "sites", "100000000"),  # rejected before allocating
        ("hopping-dispersion", "b", "1e-300"),
        ("emergent-mass", "sites", "16"),
        ("emergent-mass", "b", "1e-300"),
        ("dispersion-vs-relativity", "p_max_frac", "-1"),
        ("zbw", "sigma", "1e-300"),
        ("charge-confinement", "quark_mass_gev", "1e-300"),
        ("kn-fields", "r", "0"),
        ("shell-spin", "ring_elements", "2"),
        ("metric-slice", "a", "-1"),
        ("metric-slice", "eps", "-1"),
        ("metric-slice", "lam", "0"),
    ] + [(exp_id, "particle", "neutrino") for exp_id in [
        "constants-report", "ring-model", "kn-horizon", "kn-fields", "shell-spin",
        "charge-confinement"]])
    def test_value_outside_domain_rejected(self, tmp_path, exp_id, key, raw):
        report = experiments.run(experiments.ExperimentSpec(exp_id, {key: raw},
                                                            tmp_path))
        assert report.error.startswith(f"{exp_id}: ValueError: parameter {key!r}")
        assert report.claims == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("exp_id", REGISTERED_IDS)
    def test_defaults_lie_in_their_domains(self, exp_id):
        exp = experiments.EXPERIMENTS[exp_id]
        for key, p in exp.params.items():
            if p.choices is None and p.lo is None:
                experiments._scan_widths(p.default)
            else:
                assert p.contains(p.default), key
        assert experiments.resolve_parameters(exp, {}) == {
            key: p.default for key, p in exp.params.items()}

    def test_particle_domain_is_the_massive_catalog(self):
        assert experiments.MASSIVE == ("electron", "proton", "muon", "charm")

    def test_zbw_periods_above_window_bound_passes(self, tmp_path):
        report = experiments.run(experiments.ExperimentSpec("zbw", {"periods": "4.5"},
                                                            tmp_path))
        assert report.status == "pass", report.error


class TestRun:
    def test_constants_report_has_six_passing_claims(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("constants-report", {}, tmp_path))
        assert report.status == "pass"
        assert len(report.claims) == 6
        assert all(c.passed for c in report.claims)

    def test_kn_horizon_naked_claim(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("kn-horizon", {"particle": "electron"},
                                       tmp_path))
        assert report.status == "pass"
        by_id = {c.id: c for c in report.claims}
        assert by_id["naked-flag"].passed

    def test_report_file_written(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("ring-model", {}, tmp_path))
        on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert experiments.ExperimentReport.from_dict(on_disk) == report
        assert not list(tmp_path.glob("*.tmp"))

    def test_zbw_tables_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ra = experiments.run(experiments.ExperimentSpec("zbw", {"sigma": "10"}, a))
        rb = experiments.run(experiments.ExperimentSpec("zbw", {"sigma": "10"}, b))
        assert ra.status == rb.status == "pass"
        assert ra.tables == rb.tables
        for name in ra.tables:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_failed_runner_writes_only_report(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("averaging failed")

        # zbw has computed its trace and fit by the time it averages them
        monkeypatch.setattr(experiments.dirac, "time_average", fail)
        report = experiments.run(experiments.ExperimentSpec("zbw", {}, tmp_path))
        assert report.error == "zbw: RuntimeError: averaging failed"
        assert report.tables == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_rerun_clears_previous_tables(self, tmp_path):
        first = experiments.run(experiments.ExperimentSpec("zbw", {}, tmp_path))
        assert first.status == "pass" and len(first.tables) == 3
        second = experiments.run(experiments.ExperimentSpec("zbw", {"periods": "4"},
                                                            tmp_path))
        assert second.error.startswith("zbw: ValueError: parameter 'periods'")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_clear_deletes_only_listed_regular_files(self, tmp_path):
        outdir = tmp_path / "exp"
        (outdir / "sub").mkdir(parents=True)
        for path in [tmp_path / "outside.csv", outdir / "listed.csv",
                     outdir / "unlisted.csv", outdir / "sub" / "inner.csv"]:
            path.write_text("x\n", encoding="utf-8")
        (outdir / "link.csv").symlink_to(tmp_path / "outside.csv")
        listed = ["listed.csv", "../outside.csv", "sub/inner.csv", "sub", "link.csv",
                  "report.json", "..", "", 7]
        (outdir / "report.json").write_text(json.dumps({"tables": listed}),
                                            encoding="utf-8")
        report = experiments.run(experiments.ExperimentSpec(
            "metric-slice", {"lam": "inf"}, outdir))
        assert report.status == "fail"
        assert sorted(p.name for p in outdir.iterdir()) == [
            "link.csv", "report.json", "sub", "unlisted.csv"]
        assert (outdir / "link.csv").is_symlink()
        assert (outdir / "sub" / "inner.csv").exists()
        assert (tmp_path / "outside.csv").exists()

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"tables": "abc"}'])
    def test_unreadable_previous_report_is_ignored(self, tmp_path, text):
        (tmp_path / "report.json").write_text(text, encoding="utf-8")
        (tmp_path / "a").write_text("x\n", encoding="utf-8")
        experiments.run(experiments.ExperimentSpec("metric-slice", {"lam": "inf"},
                                                   tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "report.json"]

    def test_report_round_trip(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("metric-slice", {}, tmp_path))
        assert experiments.ExperimentReport.from_dict(report.to_dict()) == report


class TestBohmVortex:
    def test_small_grid_rejected(self, tmp_path):
        report = experiments.run(experiments.ExperimentSpec(
            "bohm-vortex", {"grid": "64"}, tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert report.error.startswith("bohm-vortex: ValueError: parameter 'grid'")
        assert not (tmp_path / "vortex_R.grid").exists()

    @pytest.mark.parametrize("key, raw", [
        ("grid", "200"),
        ("grid", "4096"),
        ("dx", "0"),
        ("dx", "-0.1"),
        ("profile_tol", "0"),
        ("profile_tol", "-1"),
    ])
    def test_domain_rejected(self, tmp_path, key, raw):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = experiments.run(experiments.ExperimentSpec(
                "bohm-vortex", {key: raw}, tmp_path))
        assert report.status == "fail"
        assert report.claims == []
        assert report.error.startswith(
            f"bohm-vortex: ValueError: parameter {key!r}")
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_smallest_grid_passes(self, tmp_path):
        report = experiments.run(experiments.ExperimentSpec(
            "bohm-vortex", {"grid": "128"}, tmp_path))
        assert report.status == "pass", report.error


class TestRunAll:
    def test_empty_filter_runs_nothing(self, tmp_path):
        reports, failures = experiments.run_all(tmp_path, only=[])
        assert reports == []
        assert failures == 0

    def test_unknown_filter_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment ids"):
            experiments.run_all(tmp_path, only=["kn-wormhole"])

    def test_forced_failure_is_counted_and_run_continues(self, tmp_path):
        reports, failures = experiments.run_all(
            tmp_path, overrides={"zbw.omega_tol": "1e-6"},
            only=["zbw", "kn-horizon"])
        assert len(reports) == 2
        assert failures == 1
        by_id = {r.id: r for r in reports}
        assert by_id["zbw"].status == "fail"
        assert by_id["zbw"].error == ""  # a failed claim, not an error
        assert by_id["kn-horizon"].status == "pass"

    @pytest.mark.parametrize("key", ["zbx.sigma", "zbw.", ".sigma", "zbw", "zbw.sigmaa"])
    def test_unregistered_override_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match=f"override {key!r}"):
            experiments.run_all(tmp_path, overrides={key: "5"}, only=["ring-model"])
        assert not (tmp_path / "ring-model").exists()

    def test_directories_hold_exactly_their_tables(self, tmp_path):
        reports, failures = experiments.run_all(tmp_path)
        assert failures == 0
        for r in reports:
            on_disk = sorted(p.name for p in (tmp_path / r.id).iterdir())
            assert on_disk == sorted(r.tables + ["report.json"]), r.id

    def test_summary_lines(self, tmp_path):
        reports, _ = experiments.run_all(tmp_path, only=["ring-model"])
        lines = experiments.summary_lines(reports)
        assert lines[0] == "id,claims_passed,claims_total,status"
        assert lines[1] == "ring-model,5,5,pass"


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nzbw.sigma = 5.0\nonly = zbw , kn-horizon\n\n",
                       encoding="utf-8")
        pairs = experiments.parse_config(cfg)
        assert pairs == {"zbw.sigma": "5.0", "only": "zbw , kn-horizon"}

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("zbw.sigma = 5.0\n# again\nzbw.sigma = 6.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"dup\.cfg:3: duplicate key 'zbw\.sigma'"):
            experiments.parse_config(cfg)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zbw.sigma 5.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            experiments.parse_config(cfg)


class TestFloatSerialization:
    def test_seventeen_digit_round_trip(self):
        values = [1.0 / 3.0, 2.7922617883448746, 1.3411804973331125e-09,
                  6.764774332023642e-56, -0.4999999950000000]
        for v in values:
            assert float(experiments.fmt(v)) == v


class TestCli:
    def test_list(self):
        result = CliRunner().invoke(cli.main, ["list"])
        assert result.exit_code == 0
        for exp_id in REGISTERED_IDS:
            assert exp_id in result.output

    def test_run_single(self, tmp_path):
        result = CliRunner().invoke(
            cli.main, ["run", "kn-horizon", "--out", str(tmp_path),
                       "--particle", "electron"])
        assert result.exit_code == 0
        assert "kn-horizon: pass" in result.output
        assert (tmp_path / "kn-horizon" / "horizons.csv").exists()

    def test_import_loads_no_scipy(self):
        # a stray scipy import would put its import time back on every run
        code = ("import sys, qmbh_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_run_unknown_id(self, tmp_path):
        result = CliRunner().invoke(cli.main, ["run", "nope", "--out", str(tmp_path)])
        assert result.exit_code != 0

    def test_run_all_with_config(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only = ring-model, metric-slice\n", encoding="utf-8")
        result = CliRunner().invoke(
            cli.main, ["run-all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        assert "ring-model,5,5,pass" in result.output

    def test_run_all_exit_code_counts_failures(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only = zbw\nzbw.omega_tol = 1e-6\n", encoding="utf-8")
        result = CliRunner().invoke(
            cli.main, ["run-all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("text, key", [
        ("zbx.sigma = 5\n", "zbx.sigma"),
        ("zbw.sigmaa = 5\n", "zbw.sigmaa"),
        ("zbw.sigma = 5\nzbw.sigma = 6\n", "zbw.sigma"),
        ("zbw.sigma 5\n", "zbw.sigma"),
        ("only = ring-model, kn-wormhole\n", "kn-wormhole"),
    ], ids=["typo-prefix", "typo-parameter", "duplicate-key", "malformed-line",
            "unknown-only-id"])
    def test_run_all_bad_config_is_usage_error(self, tmp_path, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(
            cli.main, ["run-all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert key in result.output
        assert not (tmp_path / "o").exists()

    def test_run_all_empty_filter_warns(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only =\n", encoding="utf-8")
        result = CliRunner().invoke(
            cli.main, ["run-all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        assert "zero experiments" in result.output

    def test_out_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env-out"))
        result = CliRunner().invoke(cli.main, ["run", "metric-slice"])
        assert result.exit_code == 0
        assert (tmp_path / "env-out" / "metric-slice" / "report.json").exists()

    def test_report_command(self, tmp_path):
        out = tmp_path / "o"
        experiments.run_all(out, only=["ring-model", "kn-horizon"])
        result = CliRunner().invoke(cli.main, ["report", str(out)])
        assert result.exit_code == 0
        assert "kn-horizon,6,6,pass" in result.output
        assert "ring-model,5,5,pass" in result.output
