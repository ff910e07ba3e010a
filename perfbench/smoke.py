"""Smoke test of the benchmark itself, with a tiny pass count (about a minute).

Run from anywhere:  python3 -m pytest -q perfbench/smoke.py
             or:    python3 perfbench/smoke.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import PARTICLES, WORKLOADS, make_config  # noqa: E402


def _one_worker(workload, trace):
    """A single worker: cold pass plus one warm pass."""
    return run.Run(ROOT, workload, seed=1, seconds=0).worker(trace, budget_s=0.0)


def test_seed_fixes_the_config():
    for workload in WORKLOADS:
        for seed in range(20):
            assert make_config(workload, seed) == make_config(workload, seed)
    harness = {make_config("harness", seed).split("\n", 1)[1] for seed in range(20)}
    assert len(harness) > 1, "the harness seed must change the generated input"
    for text in harness:
        for line in text.splitlines():
            if ".particle =" in line:
                assert line.split("=")[1].strip() in PARTICLES


def test_untraced_workers_run_unwrapped_functions():
    plain = _one_worker("harness", trace=False)
    traced = _one_worker("harness", trace=True)
    assert plain["wrapped"] == []
    assert "qmbh_lab.bohm.evolve" in traced["wrapped"]
    assert "experiments.runner.metric-slice" in traced["wrapped"]
    assert plain["failed"] == traced["failed"] == 0


def test_known_failing_input_raises_failed_frac():
    record = run.measure(ROOT, "harness", 1, 0.5, False, ["metric-slice.lam = inf"])
    summary = record["summary"]
    assert summary["failed"] > 0 and not summary["correct"]
    assert any("metric-slice" in f for f in record["failures"])
    clean = run.measure(ROOT, "harness", 1, 0.5, False)["summary"]
    assert clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0


def test_counts_repeat_exactly_across_traced_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # report.json records runtime_seconds, so its size varies by a few bytes
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and m["name"] != "experiments.report_json_bytes"]
    for workload in WORKLOADS:
        first, second = (_one_worker(workload, trace=True) for _ in range(2))
        for result in (first, second):
            assert result["failed"] == 0 and result.get("hook_errors") == 0
        layers = [first["layers"][0], first["layers"][1], second["layers"][1]]
        for name in counts:
            values = {m.get(name, 0) for m in layers}
            assert len(values) == 1, f"{workload}: {name} varies: {values}"
    assert first["import_modules"] == second["import_modules"]


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
