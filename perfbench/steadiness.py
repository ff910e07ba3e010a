"""Steadiness mode: run the whole benchmark twice and compare the two sets.

Usage (from the repository root):

    python3 perfbench/steadiness.py

Each of the two sets runs `perfbench/run.py --trace 0` once per seed and
workload, ten seeds per set (seeds differ between sets), interleaving
workloads so a slow stretch of the machine hits all of them. For every
end-to-end metric and workload it prints each set's median, its quartile
spread (Q3 - Q1) / median as `statistics.quantiles(values, n=4)` gives them,
and whether the two medians agree within the metric's bound, in either
direction. A spread above the bound, or medians further apart than the
bound, fails the verdict; a spread above a third of the bound is flagged.
Raw values go to .perfbench-work/steadiness.json.
"""

import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect:\n{proc.stdout}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills the running benchmark
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    values = [{w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
              for _ in range(SETS)]
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1000 * (s + 1) + i
            for w in workloads:
                result = run_once(w, seed, seconds)
                for name, metric in result["metrics"].items():
                    values[s][w][name].append(metric["value"])
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    Path(".perfbench-work").mkdir(exist_ok=True)
    Path(".perfbench-work/steadiness.json").write_text(json.dumps(values), encoding="utf-8")
    steady = True
    print(f"{'workload':<9} {'metric':<14} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}"
                     for s in range(SETS)) + "  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, verdict = [], []
            for s in range(SETS):
                v = values[s][w][name]
                sp = spread(v)
                cols.append(f"{statistics.median(v):>11.5g} {sp:>8.3f}")
                if sp > bound:
                    verdict.append(f"spread{s + 1}>bound")
                elif sp > bound / 3:
                    verdict.append(f"spread{s + 1}>bound/3")
            first, second = (statistics.median(values[s][w][name]) for s in range(SETS))
            change = abs(second - first) / first
            if change > bound:
                verdict.append(f"medians differ by {change:.3f}")
            steady = steady and all(v.endswith("bound/3") for v in verdict)
            print(f"{w:<9} {name:<14} {bound:>6.3f} " + " ".join(cols) + "  "
                  + (", ".join(verdict) or "ok"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
