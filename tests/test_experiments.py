import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qmbh_lab import cli, dirac, experiments
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS, RatioCheck

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

    @pytest.mark.parametrize("raw", [128.9, 128.5, float("inf"), float("nan")])
    def test_non_integral_float_for_int_rejected(self, raw):
        exp = experiments.EXPERIMENTS["hopping-dispersion"]
        with pytest.raises(ValueError, match="'sites'"):
            experiments.resolve_parameters(exp, {"sites": raw})

    def test_integral_float_for_int_accepted(self):
        params = experiments.resolve_parameters(
            experiments.EXPERIMENTS["hopping-dispersion"], {"sites": 128.0})
        assert params["sites"] == 128 and type(params["sites"]) is int

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

    @pytest.mark.parametrize("raw", ["0.065", "1.95"])
    def test_quark_mass_domain_ends_pass(self, tmp_path, raw):
        report = experiments.run(experiments.ExperimentSpec(
            "charge-confinement", {"quark_mass_gev": raw}, tmp_path))
        assert report.status == "pass", report.error

    @pytest.mark.parametrize("exp_id, key, inside, outside, given", [
        # sphere-spin-pi-eighth-hbar (1e-4) fails at 16 shell elements
        *[("shell-spin", "sphere_elements", "400", "399", {"particle": particle})
          for particle in experiments.MASSIVE],
        # small-p-deviation (1.5e-5) fails at 0.11
        ("dispersion-vs-relativity", "p_max_frac", "0.1", "0.11", {}),
    ])
    def test_claim_domain_ends(self, tmp_path, exp_id, key, inside, outside, given):
        report = experiments.run(experiments.ExperimentSpec(
            exp_id, {**given, key: outside}, tmp_path / "out"))
        assert report.error.startswith(f"{exp_id}: ValueError: parameter {key!r}")
        assert report.claims == []
        report = experiments.run(experiments.ExperimentSpec(
            exp_id, {**given, key: inside}, tmp_path / "in"))
        assert report.status == "pass", report.error

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
        # confinement-ratio-scale (8 m^2 within 1.5 decades of 1) fails there
        ("charge-confinement", "quark_mass_gev", "0.06"),
        ("charge-confinement", "quark_mass_gev", "2.0"),
        ("kn-fields", "r", "0"),
        ("shell-spin", "ring_elements", "2"),
        ("metric-slice", "a", "-1"),
        ("metric-slice", "eps", "-1"),
        ("metric-slice", "lam", "0"),
    ] + [(exp_id, "particle", "neutrino") for exp_id in [
        "constants-report", "ring-model", "kn-horizon", "kn-fields", "shell-spin",
        "charge-confinement"]] + [
        # their references are electron numbers
        (exp_id, "particle", "proton") for exp_id in [
            "constants-report", "charge-confinement"]])
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

    @pytest.mark.parametrize("periods", [16.0, 64.0, 25.3])
    def test_zbw_sample_density_rule(self, tmp_path, periods):
        # the Compton-time window overshoots by up to 2 dt; from 20 samples
        # per period on time-average-suppression holds
        least = math.ceil(20 * periods)
        report = experiments.run(experiments.ExperimentSpec(
            "zbw", {"periods": periods, "samples": least}, tmp_path / "ok"))
        assert report.status == "pass", report.error
        report = experiments.run(experiments.ExperimentSpec(
            "zbw", {"periods": periods, "samples": least - 1}, tmp_path / "bad"))
        assert report.error.startswith("zbw: ValueError: parameter 'samples'")
        assert report.claims == []

    def test_zbw_sample_density_rule_is_usage_error(self, tmp_path):
        CliRunner().invoke(cli.main, ["run", "zbw", "--out", str(tmp_path)])
        outdir = tmp_path / "zbw"
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        assert len(before) == 4
        result = CliRunner().invoke(cli.main, ["run", "zbw", "--periods", "16",
                                               "--samples", "319", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "'samples'" in result.output
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before


class TestRingModel:
    """ring-model runs on lin_gravity's luminal ring."""

    RING_CLAIMS = ["ring-radius-n1", "ring-energy", "ring-radius-doubling",
                   "ring-energy-quadrature", "ring-action-quadrature"]

    @pytest.mark.parametrize(
        "particle", experiments.EXPERIMENTS["ring-model"].params["particle"].choices)
    def test_claims_pass_and_rows_are_closed_forms(self, tmp_path, particle):
        report = experiments.run(experiments.ExperimentSpec(
            "ring-model", {"particle": particle}, tmp_path))
        assert report.status == "pass", report.error
        assert [c.id for c in report.claims] == self.RING_CLAIMS
        # oracle: winding n has radius n hbar / (2 m c) and energy m c^2
        m = BUILTIN_PARTICLES[particle].mass
        lines = (tmp_path / "ring.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "winding,mass_g,radius_cm,energy_erg"
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert rows == [[n, m, n * CGS.hbar / (2 * m * CGS.c), m * CGS.c**2]
                        for n in (1, 2)]

    def test_electron_radius(self, tmp_path):
        experiments.run(experiments.ExperimentSpec("ring-model", {}, tmp_path))
        lines = (tmp_path / "ring.csv").read_text(encoding="utf-8").splitlines()
        radius = float(lines[1].split(",")[2])
        assert radius == pytest.approx(1.930796338621417e-11, rel=1e-12)


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

    @pytest.mark.parametrize("fresh", [True, False])
    def test_report_json_holds_one_claim_per_line(self, tmp_path, fresh):
        outdir = tmp_path / "missing-parent" / "zbw" if fresh else tmp_path
        if not fresh:
            experiments.run(experiments.ExperimentSpec("zbw", {}, outdir))
        report = experiments.run(experiments.ExperimentSpec("zbw", {}, outdir))
        text = (outdir / "report.json").read_text(encoding="utf-8")
        assert json.loads(text) == report.to_dict()
        lines = text.splitlines()
        assert len(lines) == len(report.claims) + 2
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == [
            c.to_dict() for c in report.claims]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            report.tables + ["report.json"])
        assert not list(outdir.glob("*.tmp"))

    def test_report_json_without_claims(self, tmp_path):
        report = experiments.run(experiments.ExperimentSpec(
            "metric-slice", {"lam": "inf"}, tmp_path))
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert report.claims == [] and json.loads(text) == report.to_dict()


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

    def test_runner_peak_memory(self):
        # the continuity and Q stages run on 1-D factors and the vortex stage
        # holds only its real R and S and takes v on the central box: 1.94
        # complex n x n grids are alive at once at grid 256 (2.5 when the
        # vortex was built as a complex state, 6.6 when the three evolved
        # states were 2-D)
        params = experiments.resolve_parameters(
            experiments.EXPERIMENTS["bohm-vortex"], {})
        experiments._run_bohm_vortex(params)  # warm-up: FFT plan caches
        tracemalloc.start()
        try:
            experiments._run_bohm_vortex(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * params["grid"] ** 2 * 16

    def test_smallest_grid_passes(self, tmp_path):
        report = experiments.run(experiments.ExperimentSpec(
            "bohm-vortex", {"grid": "128"}, tmp_path))
        assert report.status == "pass", report.error


class TestNegEnergyScan:
    # the batched weights repeat build_gaussian's and energy_fractions'
    # floating-point operations, so they are equal, not close

    @staticmethod
    def per_width(widths):
        splits = [dirac.energy_fractions(dirac.build_gaussian(
            sigma_x=w, x0=0.0, p0=0.0, seed=(1, 0))) for w in widths]
        return [s.w_minus for s in splits], [s.w_plus for s in splits]

    def test_default_widths_match_per_width_packets(self):
        widths = experiments._scan_widths(
            experiments.EXPERIMENTS["neg-energy-scan"].params["widths"].default)
        w_minus, w_plus = experiments._branch_weights(widths)
        assert (w_minus.tolist(), w_plus.tolist()) == self.per_width(widths)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(0.01, 1e4), max_size=62))
    def test_width_lists_match_per_width_packets(self, drawn):
        widths = sorted(set(drawn) | {1.0, 100.0})
        assert experiments._scan_widths(":".join(map(repr, widths))) == widths
        w_minus, w_plus = experiments._branch_weights(widths)
        assert (w_minus.tolist(), w_plus.tolist()) == self.per_width(widths)


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

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.integers(1, 6).flatmap(lambda cols: hnp.arrays(
        np.float64, st.tuples(st.integers(0, 50), st.just(cols)),
        elements=st.one_of(st.floats(allow_nan=False), st.sampled_from(
            [-0.0, 5e-324, -2.2250738585072e-308, 1.7e308, -1.7e308, 3.0, -1e16])))))
    def test_array_path_matches_cell_path(self, rows):
        # -0.0, subnormals, near-overflow and integral floats included
        with tempfile.TemporaryDirectory() as tmp:
            header = [f"c{i}" for i in range(rows.shape[1])]
            experiments.write_table(Path(tmp) / "a.csv", header, rows)
            experiments.write_table(Path(tmp) / "b.csv", header, rows.tolist())
            assert (Path(tmp) / "a.csv").read_bytes() == (Path(tmp) / "b.csv").read_bytes()

    def test_integer_array_matches_cell_path(self, tmp_path):
        rows = np.array([[0, -3], [2**53 + 1, 7]])
        experiments.write_table(tmp_path / "a.csv", ["i", "j"], rows)
        experiments.write_table(tmp_path / "b.csv", ["i", "j"], rows.tolist())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("rows", [
        np.zeros((3, 2)), np.zeros((3, 4)), np.zeros(3),
        [[1.0, 2.0, 3.0], [1.0, 2.0]], [["a", 1.0, 2.0, 3.0]], [[]]])
    def test_malformed_table_rejected(self, tmp_path, rows):
        with pytest.raises(ValueError, match="odd.csv"):
            experiments.write_table(tmp_path / "odd.csv", ["a", "b", "c"], rows)
        assert not list(tmp_path.iterdir())


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

    def test_run_unknown_parameter_is_usage_error(self, tmp_path):
        # an unknown name, an out-of-domain value and a repeated flag all exit
        # 2 before the previous run's tables are cleared
        CliRunner().invoke(cli.main, ["run", "metric-slice", "--out", str(tmp_path)])
        outdir = tmp_path / "metric-slice"
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        assert {"slices.csv", "report.json"} <= set(before)
        for flags, name in [(["--lamm", "0.4"], "'lamm'"), (["--lam", "5"], "'lam'"),
                            (["--lam", "0.3", "--lam", "0.5"], "'lam'")]:
            result = CliRunner().invoke(
                cli.main, ["run", "metric-slice", *flags, "--out", str(tmp_path)])
            assert result.exit_code == 2, flags
            assert name in result.output
            assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before

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

    @pytest.mark.parametrize("damage, error", [
        (lambda text: text[:len(text) // 2], "JSONDecodeError"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "claims"}), "KeyError"),
    ], ids=["truncated", "missing-claims"])
    def test_report_command_names_a_bad_record(self, tmp_path, damage, error):
        out = tmp_path / "o"
        experiments.run_all(out, only=["ring-model", "kn-horizon"])
        bad = out / "kn-horizon" / "report.json"
        bad.write_text(damage(bad.read_text(encoding="utf-8")), encoding="utf-8")
        result = CliRunner().invoke(cli.main, ["report", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and str(bad) in lines[0] and error in lines[0]
