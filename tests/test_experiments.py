import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import cli, dirac, experiments
from qmbh_lab.constants import BUILTIN_PARTICLES, CGS, RatioCheck

REGISTERED_IDS = [
    "constants-report", "bohm-vortex", "ring-model", "hopping-dispersion",
    "emergent-mass", "dispersion-vs-relativity", "zbw", "neg-energy-scan",
    "kn-horizon", "kn-fields", "metric-slice", "shell-spin",
    "charge-confinement",
]



def qmbh(capsys, *argv):
    """`qmbh *argv` in this process: (exit status, stdout, stderr)."""
    with pytest.raises(SystemExit) as stop:
        cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return stop.value.code, out, err


# every claim of the default run-all, in registry order
DEFAULT_CLAIM_IDS = {
    "constants-report": ["hbar-c-over-e2", "charge-to-gravity-magnitude"],
    "bohm-vortex": ["unit-winding-m-gamma-over-h", "loop-independence-spread",
                    "half-winding-m-gamma-over-half-h", "velocity-profile-deviation",
                    "continuity-residual", "stationary-q-constancy-std"],
    "ring-model": ["ring-energy-quadrature", "ring-action-quadrature"],
    "hopping-dispersion": ["effective-mass-fit", "dispersion-symmetry"],
    "emergent-mass": ["windowed-m0-open-unit-interval", "monotone-iterates"],
    "dispersion-vs-relativity": ["dispersion-vs-relativity"],
    "zbw": ["zbw-frequency", "zbw-amplitude", "time-average-suppression",
            "pure-branch-amplitude", "velocity-oscillation-frequency"],
    "neg-energy-scan": ["monotone-in-width", "compton-width-fraction",
                        "wide-packet-fraction", "pure-branch-fraction"],
    "kn-horizon": ["naked-horizon-imag", "naked-horizon-real", "root-product"],
    "kn-fields": ["equatorial-dipole-field", "polar-dipole-field",
                  "potential-power-law", "charge-field-power-law", "dipole-power-law",
                  "g-factor", "divergence-free-dipole"],
    "metric-slice": ["corotating-dt2-coefficient", "corotating-dr2-coefficient",
                     "null-slice-dt2"],
    "shell-spin": ["sphere-spin-pi-eighth-hbar", "far-potential-monopole"],
    "charge-confinement": ["trace-potential-quadrature-vs-closed-form",
                           "mass-charge-cgs-ratio", "implied-charge-vs-elementary",
                           "trace-potential-slope", "trace-coefficient-consistency",
                           "confinement-coefficient-ratio", "confinement-ratio-scale"],
}

# every settable parameter, as "experiment.param" in registry order
SETTABLE_PARAMETERS = [
    "bohm-vortex.grid", "ring-model.particle", "hopping-dispersion.sites",
    "emergent-mass.sites", "dispersion-vs-relativity.p_max_frac", "zbw.sigma",
    "zbw.periods", "zbw.samples", "zbw.omega_tol", "kn-horizon.particle",
    "kn-fields.particle", "kn-fields.r", "shell-spin.particle",
    "shell-spin.sphere_elements", "charge-confinement.quark_mass_gev",
]


class TestRegistry:
    def test_registered_ids(self):
        assert list(experiments.EXPERIMENTS) == REGISTERED_IDS

    def test_settable_parameters(self):
        # a parameter added or dropped by accident shows here by name
        assert [f"{exp.id}.{key}" for exp in experiments.EXPERIMENTS.values()
                for key in exp.params] == SETTABLE_PARAMETERS

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
        ("kn-fields", "r", "inf"),
        ("zbw", "sigma", float("nan")),
        ("kn-fields", "r", float("-inf")),
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
          for particle in experiments.PARTICLE.choices],
        # dispersion-vs-relativity's Taylor-order bound is a small-p one
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
        ("emergent-mass", "sites", "16"),
        ("dispersion-vs-relativity", "p_max_frac", "-1"),
        ("zbw", "sigma", "1e-300"),
        ("charge-confinement", "quark_mass_gev", "1e-300"),
        # confinement-ratio-scale (8 m^2 within 1.5 decades of 1) fails there
        ("charge-confinement", "quark_mass_gev", "0.06"),
        ("charge-confinement", "quark_mass_gev", "2.0"),
        ("kn-fields", "r", "0"),
    ] + [(exp_id, "particle", "neutrino") for exp_id in [
        "ring-model", "kn-horizon", "kn-fields", "shell-spin"]])
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
            assert p.contains(p.default), key
        assert experiments.resolve_parameters(exp, {}) == {
            key: p.default for key, p in exp.params.items()}

    # constants, not parameters: metric-slice's references hold on its one
    # slice only, two experiments compare with electron numbers, the chain's
    # spacing, diagonal and hopping set only the units of the mass
    # experiments' dimensionless claims, the luminal ring's element sums are
    # exact, the scan's widths other than 1 and 100 set only table rows, and
    # two bounds are written at their claims
    @pytest.mark.parametrize("exp_id, key, raw", [
        ("metric-slice", "a", "-1"), ("metric-slice", "eps", "-1"),
        ("metric-slice", "lam", "0"), ("metric-slice", "lam", "0.5"),
        ("hopping-dispersion", "b", "1e-300"), ("hopping-dispersion", "e0", "1.4"),
        ("hopping-dispersion", "a", "0.7"),
        ("emergent-mass", "b", "1e-300"), ("emergent-mass", "a", "0.9"),
        ("dispersion-vs-relativity", "sites", "512"),
        ("dispersion-vs-relativity", "b", "0.25"),
        ("dispersion-vs-relativity", "a", "0.9"),
        ("shell-spin", "ring_elements", "1024"),
        ("charge-confinement", "elements", "1024"),
        ("neg-energy-scan", "widths", "0.5:1:2:5:10:100"),
        ("bohm-vortex", "profile_tol", "0.02"), ("zbw", "suppress_factor", "10"),
        *[(exp_id, "particle", name) for exp_id in ["constants-report",
                                                    "charge-confinement"]
          for name in ["neutrino", "proton", "electron"]]])
    def test_constant_rejected(self, tmp_path, exp_id, key, raw):
        report = experiments.run(experiments.ExperimentSpec(exp_id, {key: raw},
                                                            tmp_path))
        assert report.error == (f"{exp_id}: ValueError: unknown parameter {key!r} "
                                f"for experiment {exp_id!r}")
        assert report.claims == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_particle_domain_is_the_massive_catalog(self):
        assert experiments.PARTICLE.choices == ("electron", "proton", "muon", "charm")

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

    def test_zbw_sample_density_rule_is_usage_error(self, tmp_path, capsys):
        qmbh(capsys, "run", "zbw", "--out", tmp_path)
        outdir = tmp_path / "zbw"
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        assert len(before) == 4
        status, _, err = qmbh(capsys, "run", "zbw", "--periods", "16",
                              "--samples", "319", "--out", tmp_path)
        assert status == 2
        assert "'samples'" in err
        assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before


class TestRingModel:
    """ring-model runs on lin_gravity's luminal ring."""

    RING_CLAIMS = ["ring-energy-quadrature", "ring-action-quadrature"]

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


class TestNoLapack:
    def test_every_experiment_passes_without_lapack_solvers(self, tmp_path, monkeypatch):
        # each fit is a closed-form solve, and the chain spectrum is a DFT
        def forbidden(*args, **kwargs):
            raise AssertionError("a LAPACK solver or eigensolver call")

        monkeypatch.setattr(np, "polyfit", forbidden)
        for name in ("lstsq", "solve", "qr", "pinv", "inv", "svd",
                     "eigvalsh", "eigh", "eig", "eigvals", "cholesky", "det"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        specs = [(exp_id, {}) for exp_id in experiments.EXPERIMENTS]
        specs += [(exp_id, {"particle": p})
                  for exp_id in ("shell-spin", "kn-fields", "kn-horizon", "ring-model")
                  for p in experiments.PARTICLE.choices]
        specs += [("emergent-mass", {"sites": n}) for n in experiments.SITES]
        for i, (exp_id, params) in enumerate(specs):
            report = experiments.run(experiments.ExperimentSpec(exp_id, params,
                                                                tmp_path / str(i)))
            assert report.status == "pass", (exp_id, params, report.error)


class TestRun:
    def test_constants_report_has_two_passing_claims(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("constants-report", {}, tmp_path))
        assert report.status == "pass"
        assert len(report.claims) == 2
        assert all(c.passed for c in report.claims)

    def test_kn_horizon_naked_claim(self, tmp_path):
        report = experiments.run(
            experiments.ExperimentSpec("kn-horizon", {"particle": "electron"},
                                       tmp_path))
        assert report.status == "pass"
        by_id = {c.id: c for c in report.claims}
        assert by_id["naked-horizon-imag"].passed

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

    def test_raising_runner_keeps_previous_output(self, tmp_path, monkeypatch):
        first = experiments.run(experiments.ExperimentSpec("zbw", {}, tmp_path))
        assert first.status == "pass" and len(first.tables) == 3
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def fail(*args, **kwargs):
            raise RuntimeError("averaging failed")

        monkeypatch.setattr(experiments.dirac, "time_average", fail)
        second = experiments.run(experiments.ExperimentSpec("zbw", {}, tmp_path))
        assert second.error == "zbw: RuntimeError: averaging failed"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fresh", [True, False])
    def test_malformed_table_writes_no_table(self, tmp_path, monkeypatch, fresh):
        if not fresh:
            experiments.run(experiments.ExperimentSpec("ring-model", {}, tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        exp = experiments.EXPERIMENTS["ring-model"]

        def runner(params):
            claims, _ = exp.runner(params)
            return claims, {"good.csv": (["a"], [[1.0]]),
                            "odd.csv": (["a"], [[1.0, 2.0]])}

        monkeypatch.setitem(experiments.EXPERIMENTS, "ring-model",
                            replace(exp, runner=runner))
        report = experiments.run(experiments.ExperimentSpec("ring-model", {}, tmp_path))
        assert report.status == "fail" and report.tables == []
        assert report.error.startswith("ring-model: ValueError: table odd.csv:")
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if fresh:
            assert list(after) == ["report.json"]
        else:
            assert after == before

    # zbw's rule and an unknown name; a value outside its domain goes
    # through TestRunAll::test_rejected_value_leaves_previous_output
    @pytest.mark.parametrize("params", [{"periods": "16", "samples": "319"},
                                        {"sigmaa": "5"}])
    def test_rejected_value_keeps_previous_output(self, tmp_path, params):
        experiments.run(experiments.ExperimentSpec("zbw", {}, tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(before) == 4
        report = experiments.run(experiments.ExperimentSpec("zbw", params, tmp_path))
        assert report.status == "fail" and report.claims == []
        assert report.error.startswith("zbw: ValueError:")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
        report = experiments.run(experiments.ExperimentSpec("kn-fields", {}, outdir))
        assert report.status == "pass"
        assert sorted(p.name for p in outdir.iterdir()) == [
            "far_fields.csv", "link.csv", "report.json", "sub", "unlisted.csv"]
        assert (outdir / "link.csv").is_symlink()
        assert (outdir / "sub" / "inner.csv").exists()
        assert (tmp_path / "outside.csv").exists()

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '{"tables": "abc"}'])
    def test_unreadable_previous_report_is_ignored(self, tmp_path, text):
        (tmp_path / "report.json").write_text(text, encoding="utf-8")
        (tmp_path / "a").write_text("x\n", encoding="utf-8")
        experiments.run(experiments.ExperimentSpec("kn-fields", {}, tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a", "far_fields.csv", "report.json"]

    @pytest.mark.parametrize("where, error", [("parent", "NotADirectoryError"),
                                              ("report", "IsADirectoryError")])
    def test_write_failure_is_recorded(self, tmp_path, where, error):
        # an OSError while making or writing the directory fails this one
        # experiment, as a runner's exception does, and is not raised; the
        # files written before it are removed
        if where == "parent":
            (tmp_path / "afile").write_bytes(b"")
            outdir = tmp_path / "afile" / "kn-fields"
        else:
            (tmp_path / "report.json" / "x").mkdir(parents=True)
            outdir = tmp_path
        report = experiments.run(experiments.ExperimentSpec("kn-fields", {}, outdir))
        assert report.status == "fail"
        assert report.error.startswith(f"kn-fields: {error}")
        assert [c.id for c in report.claims] == DEFAULT_CLAIM_IDS["kn-fields"]
        assert [p.name for p in tmp_path.iterdir()] == (
            ["afile"] if where == "parent" else ["report.json"])
        if where == "report":
            assert [p.name for p in (tmp_path / "report.json").iterdir()] == ["x"]

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
            "kn-fields", {"r": "inf"}, tmp_path))
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert report.claims == [] and json.loads(text) == report.to_dict()


class TestBohmVortex:
    @pytest.mark.parametrize("key, raw", [
        ("grid", "64"),
        ("grid", "200"),
        ("grid", "4096"),
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
        # the stages stream blocks of rows: at grid 256 the continuity
        # stage's blocks set the peak, 0.53 MiB (1.28 MiB when it held two
        # real n x n grids)
        params = experiments.resolve_parameters(
            experiments.EXPERIMENTS["bohm-vortex"], {})
        experiments._run_bohm_vortex(params)  # warm-up: FFT plan caches
        tracemalloc.start()
        try:
            experiments._run_bohm_vortex(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_rerun_clears_an_older_snapshot(self, tmp_path):
        # a directory written when bohm-vortex also wrote its R snapshot: the
        # rerun deletes the tables its report.json lists
        spec = experiments.ExperimentSpec("bohm-vortex", {"grid": "128"}, tmp_path)
        experiments.run(spec)
        record = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        record["tables"] += ["vortex_R.grid", "vortex_R.grid.txt"]
        (tmp_path / "report.json").write_text(json.dumps(record), encoding="utf-8")
        for name in ("vortex_R.grid", "vortex_R.grid.txt"):
            (tmp_path / name).write_bytes(b"snapshot")
        assert experiments.run(spec).status == "pass"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["circulation.csv",
                                                              "report.json"]

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
        w_minus, w_plus = experiments._branch_weights(experiments.SCAN_WIDTHS)
        assert (w_minus.tolist(), w_plus.tolist()) == self.per_width(
            experiments.SCAN_WIDTHS)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.floats(0.01, 1e4), max_size=62))
    def test_width_lists_match_per_width_packets(self, drawn):
        widths = sorted(set(drawn) | {1.0, 100.0})
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

    def test_rejected_value_leaves_previous_output(self, tmp_path):
        # through the Python API too: a value outside its domain is recorded
        # as a failure and the previous run's files stay as they were
        experiments.run_all(tmp_path, only=["zbw"])
        before = {p.name: p.read_bytes() for p in (tmp_path / "zbw").iterdir()}
        reports, failures = experiments.run_all(tmp_path, overrides={"zbw.sigma": "0"},
                                                only=["zbw"])
        assert failures == 1
        assert reports[0].error.startswith("zbw: ValueError: parameter 'sigma'")
        assert {p.name: p.read_bytes() for p in (tmp_path / "zbw").iterdir()} == before

    @pytest.mark.parametrize("key", ["zbx.sigma", "zbw.", ".sigma", "zbw", "zbw.sigmaa"])
    def test_unregistered_override_rejected(self, tmp_path, key):
        with pytest.raises(ValueError, match=f"override {key!r}"):
            experiments.run_all(tmp_path, overrides={key: "5"}, only=["ring-model"])
        assert not (tmp_path / "ring-model").exists()

    def test_default_claim_ids(self, tmp_path):
        # a claim dropped or renamed by accident shows here by name
        reports, failures = experiments.run_all(tmp_path)
        assert failures == 0
        assert [(r.id, [c.id for c in r.claims]) for r in reports] == list(
            DEFAULT_CLAIM_IDS.items())

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
        assert lines[1] == "ring-model,2,2,pass"


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

    def test_not_utf8_names_the_file(self, tmp_path):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError) as info:
            experiments.parse_config(cfg)
        assert str(info.value).startswith(f"{cfg}: ")


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
        header = [f"c{i}" for i in range(rows.shape[1])]
        assert (experiments.format_table("a.csv", header, rows)
                == experiments.format_table("a.csv", header, rows.tolist()))

    def test_integer_array_matches_cell_path(self):
        rows = np.array([[0, -3], [2**53 + 1, 7]])
        assert (experiments.format_table("a.csv", ["i", "j"], rows)
                == experiments.format_table("a.csv", ["i", "j"], rows.tolist()))

    @pytest.mark.parametrize("rows", [
        np.zeros((3, 2)), np.zeros((3, 4)), np.zeros(3),
        [[1.0, 2.0, 3.0], [1.0, 2.0]], [["a", 1.0, 2.0, 3.0]], [[]]])
    def test_malformed_table_rejected(self, rows):
        with pytest.raises(ValueError, match="odd.csv"):
            experiments.format_table("odd.csv", ["a", "b", "c"], rows)


# argv tokens for the CLI fuzz test. Free text holds no "/" and is never "..",
# so no run writes outside the example's own directory
CLI_COMMANDS = ["list", "run", "run-all", "report"]
CLI_TOKENS = st.one_of(
    st.sampled_from(CLI_COMMANDS + ["--out", "--config", "-h", "--", "", "."]),
    st.sampled_from(REGISTERED_IDS),
    st.sampled_from(sorted({f"--{name}" for exp in experiments.EXPERIMENTS.values()
                            for name in exp.params})),
    st.text(st.characters(blacklist_characters="/"), max_size=6).filter(
        lambda t: t != ".."),
)


class TestCli:
    @settings(max_examples=80, deadline=None)
    @given(command=st.sampled_from(CLI_COMMANDS + [None]),
           rest=st.lists(CLI_TOKENS, max_size=5))
    def test_any_argv_exits_0_1_or_2(self, command, rest):
        argv = [command, *rest] if command else rest
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    with pytest.raises(SystemExit) as stop:
                        cli.main(argv)
            finally:
                os.chdir(cwd)
        assert stop.value.code in (0, 1, 2), argv

    def test_list(self, capsys):
        status, out, _ = qmbh(capsys, "list")
        assert status == 0
        for exp_id in REGISTERED_IDS:
            assert exp_id in out

    def test_run_single(self, tmp_path, capsys):
        status, out, _ = qmbh(capsys, "run", "kn-horizon", "--out", tmp_path,
                              "--particle", "electron")
        assert status == 0
        assert "kn-horizon: pass" in out
        assert (tmp_path / "kn-horizon" / "horizons.csv").exists()

    @staticmethod
    def fresh_import(code):
        """stdout of `import qmbh_lab.cli` then `code` in a new interpreter."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", "import sys, qmbh_lab.cli\n" + code],
                              env=env, check=True, capture_output=True, text=True).stdout

    def test_import_loads_no_scipy(self):
        # a stray scipy import would put its import time back on every run
        out = self.fresh_import(
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_import_loads_no_click_and_one_dataclass(self):
        # the CLI is argparse; the records are NamedTuples or plain classes,
        # which generate no code at import, where each dataclass execs about
        # five generated methods. Experiment stays a dataclass only because
        # perfbench's tracer swaps its runners with dataclasses.replace.
        out = self.fresh_import(
            "import dataclasses\n"
            "print('click' in sys.modules)\n"
            "print(sorted({f'{v.__module__}.{v.__qualname__}'\n"
            "              for name, m in list(sys.modules.items())\n"
            "              if name.split('.')[0] == 'qmbh_lab'\n"
            "              for v in vars(m).values()\n"
            "              if isinstance(v, type) and dataclasses.is_dataclass(v)}))")
        assert out.splitlines() == ["False", "['qmbh_lab.experiments.Experiment']"]

    def test_run_unknown_id(self, tmp_path, capsys):
        status, _, _ = qmbh(capsys, "run", "nope", "--out", tmp_path)
        assert status != 0

    def test_run_unknown_parameter_is_usage_error(self, tmp_path, capsys):
        # an unknown name, an out-of-domain value and a repeated flag all exit
        # 2 before the previous run's tables are cleared
        qmbh(capsys, "run", "kn-fields", "--out", tmp_path)
        outdir = tmp_path / "kn-fields"
        before = {f.name: f.read_bytes() for f in outdir.iterdir()}
        assert {"far_fields.csv", "report.json"} <= set(before)
        for flags, name in [(["--rr", "2"], "'rr'"), (["--r", "0"], "'r'"),
                            (["--r", "2", "--r", "3"], "'r'")]:
            status, _, err = qmbh(capsys, "run", "kn-fields", *flags, "--out", tmp_path)
            assert status == 2, flags
            assert name in err
            assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before

    def test_run_all_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only = ring-model, metric-slice\n", encoding="utf-8")
        status, out, _ = qmbh(capsys, "run-all", "--config", cfg, "--out", tmp_path / "o")
        assert status == 0
        assert "ring-model,2,2,pass" in out

    def test_run_all_exit_code_counts_failures(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only = zbw\nzbw.omega_tol = 1e-6\n", encoding="utf-8")
        status, _, _ = qmbh(capsys, "run-all", "--config", cfg, "--out", tmp_path / "o")
        assert status == 1

    @pytest.mark.parametrize("text, key", [
        ("zbx.sigma = 5\n", "zbx.sigma"),
        ("zbw.sigmaa = 5\n", "zbw.sigmaa"),
        ("zbw.sigma = 5\nzbw.sigma = 6\n", "zbw.sigma"),
        ("zbw.sigma 5\n", "zbw.sigma"),
        ("only = ring-model, kn-wormhole\n", "kn-wormhole"),
        ("out = /tmp/x\n", "out"),
    ], ids=["typo-prefix", "typo-parameter", "duplicate-key", "malformed-line",
            "unknown-only-id", "out-key"])
    def test_run_all_bad_config_is_usage_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        status, _, err = qmbh(capsys, "run-all", "--config", cfg, "--out", tmp_path / "o")
        assert status == 2
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("zbw.sigma = 0\n", "zbw: parameter 'sigma'"),
        ("only = ring-model\nkn-fields.r = 0\n", "kn-fields: parameter 'r'"),
    ], ids=["selected", "outside-only"])
    def test_run_all_bad_value_leaves_previous_output(self, tmp_path, capsys, text,
                                                      message):
        # every override is checked before any directory is touched, also one
        # for an experiment that `only` leaves out
        out = tmp_path / "o"
        assert qmbh(capsys, "run-all", "--out", out)[0] == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        status, _, err = qmbh(capsys, "run-all", "--config", cfg, "--out", out)
        assert status == 2
        assert message in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("exp_id, key, raw", [
        ("metric-slice", "lam", "0.5"), ("constants-report", "particle", "electron"),
        ("hopping-dispersion", "e0", "1.4"),
        ("dispersion-vs-relativity", "sites", "512"),
        ("shell-spin", "ring_elements", "1024"),
        ("charge-confinement", "elements", "1024"),
        ("neg-energy-scan", "widths", "0.5:1:2:5:10:100"),
        ("bohm-vortex", "profile_tol", "0.02"), ("zbw", "suppress_factor", "10")])
    def test_constant_is_usage_error(self, tmp_path, capsys, exp_id, key, raw):
        out = tmp_path / "o"
        status, _, err = qmbh(capsys, "run", exp_id, f"--{key}", raw, "--out", out)
        assert status == 2
        assert f"unknown parameter {key!r}" in err
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{exp_id}.{key} = {raw}\n", encoding="utf-8")
        status, _, err = qmbh(capsys, "run-all", "--config", cfg, "--out", out)
        assert status == 2
        assert f"override '{exp_id}.{key}'" in err
        assert not out.exists()

    def test_run_all_empty_filter_warns(self, tmp_path, capsys):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only =\n", encoding="utf-8")
        status, _, err = qmbh(capsys, "run-all", "--config", cfg, "--out", tmp_path / "o")
        assert status == 0
        assert "zero experiments" in err

    def test_run_is_run_all_of_one(self, tmp_path, capsys):
        status, _, _ = qmbh(capsys, "run", "zbw", "--sigma", "5", "--out", tmp_path / "one")
        assert status == 0
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("only = zbw\nzbw.sigma = 5\n", encoding="utf-8")
        status, _, _ = qmbh(capsys, "run-all", "--config", cfg, "--out", tmp_path / "all")
        assert status == 0
        tables = [{p.name: p.read_bytes() for p in (tmp_path / root / "zbw").iterdir()
                   if p.name != "report.json"} for root in ("one", "all")]
        assert tables[0] and tables[0] == tables[1]

    @pytest.mark.parametrize("config", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, config):
        status, out, err = qmbh(capsys, "run-all", "--config", tmp_path / config,
                                "--out", tmp_path / "o")
        assert status == 2
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_fails_each_experiment(self, tmp_path, capsys):
        # the OSError from making each directory is that experiment's error,
        # and run-all goes on to the next
        afile = tmp_path / "afile"
        afile.write_bytes(b"")
        status, out, _ = qmbh(capsys, "run", "ring-model", "--out", afile)
        assert status == 1
        assert "error: ring-model: NotADirectoryError" in out
        assert out.endswith("ring-model: fail\n")
        cfg = tmp_path / "two.cfg"
        cfg.write_text("only = kn-horizon, ring-model\n", encoding="utf-8")
        status, out, _ = qmbh(capsys, "run-all", "--config", cfg, "--out", afile)
        assert status == 2
        assert out.splitlines()[1:] == ["ring-model,2,2,fail", "kn-horizon,3,3,fail"]
        assert afile.read_bytes() == b""

    @pytest.mark.parametrize("command", [["run", "ring-model"], ["run-all"]],
                             ids=["run", "run-all"])
    def test_empty_out_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        status, out, err = qmbh(capsys, *command, "--out", "")
        assert status == 2
        assert out == "" and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "o"
        experiments.run_all(out, only=["ring-model", "kn-horizon"])
        status, stdout, _ = qmbh(capsys, "report", out)
        assert status == 0
        assert "kn-horizon,3,3,pass" in stdout
        assert "ring-model,2,2,pass" in stdout

    @pytest.mark.parametrize("damage, error", [
        (lambda text: text[:len(text) // 2], "JSONDecodeError"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "claims"}), "KeyError"),
    ], ids=["truncated", "missing-claims"])
    def test_report_command_names_a_bad_record(self, tmp_path, capsys, damage, error):
        out = tmp_path / "o"
        experiments.run_all(out, only=["ring-model", "kn-horizon"])
        bad = out / "kn-horizon" / "report.json"
        bad.write_text(damage(bad.read_text(encoding="utf-8")), encoding="utf-8")
        status, stdout, err = qmbh(capsys, "report", out)
        assert status == 1
        lines = (stdout + err).splitlines()
        assert len(lines) == 1 and str(bad) in lines[0] and error in lines[0]
