import json

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

    def test_report_round_trip(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("metric-slice", {}, tmp_path))
        assert experiments.ExperimentReport.from_dict(report.to_dict()) == report


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
            tmp_path, overrides={"zbw.omega_tol": "0"},
            only=["zbw", "kn-horizon"])
        assert len(reports) == 2
        assert failures == 1
        by_id = {r.id: r for r in reports}
        assert by_id["zbw"].status == "fail"
        assert by_id["kn-horizon"].status == "pass"

    @pytest.mark.parametrize("key", ["zbx.sigma", "zbw.", ".sigma", "zbw"])
    def test_unregistered_override_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match=f"override {key!r}"):
            experiments.run_all(tmp_path, overrides={key: "5"}, only=["ring-model"])
        assert not (tmp_path / "ring-model").exists()

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
        cfg.write_text("only = zbw\nzbw.omega_tol = 0\n", encoding="utf-8")
        result = CliRunner().invoke(
            cli.main, ["run-all", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

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
