"""qmbh-lab benchmark: one seeded workload, fresh workers, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 60 --trace 0

Load model: closed loop, one client, one worker process at a time. Each
worker imports the package (`setup_s`), runs one cold pass (`cold_wall_s`)
and then warm passes (`wall_s`, `cpu_s`) of `qmbh run-all` through the public
CLI entry point, with BLAS pinned to one thread. `--trace 0` prints the
end-to-end metrics; `--trace 1` alternates untraced and traced workers and
prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
experiment runs, so failed/attempted is `failed_frac`.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_config  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_PROBES = 3          # extra import-only workers per run, for setup_s
MAX_WARM = 2000            # cap on warm passes per worker
MAX_TRACED_WARM = 100      # traced workers keep every span in memory
HARD_LIMIT_S = 170.0       # a run ends, one way or another, before this


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def high_percentile(values):
    """(level, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None, None
    level = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return level, ordered[max(math.ceil(level * n / 100) - 1, 0)]


def summarize(values):
    level, value = high_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "high_percentile": level, "high_value": value}


def _stop(proc):
    proc.kill()
    proc.communicate()


class Run:
    def __init__(self, root, workload, seed, seconds, extra_config=()):
        self.root = root
        self.workload = workload
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.work = root / ".perfbench-work" / workload
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.config = self.work / "workload.cfg"
        self.config.write_text(make_config(workload, seed, extra_config), encoding="utf-8")
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.spawned = 0

    def _timeout(self):
        return max(self.start + HARD_LIMIT_S - time.perf_counter(), 1.0)

    def spawn(self, args):
        """Start a worker; returns (process, spawn-to-ready seconds)."""
        self.spawned += 1
        err = open(self.work / f"worker-{self.spawned}.err", "w", encoding="utf-8")
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        err.close()
        try:
            line = proc.stdout.readline()
        except BaseException:
            _stop(proc)
            raise
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            self.finish(proc)
            raise BenchError(f"worker failed to import qmbh_lab.cli; see {err.name}")
        return proc, ready

    def finish(self, proc):
        try:
            proc.communicate(timeout=self._timeout())
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise BenchError("worker overran the run's time limit") from None
        except BaseException:
            _stop(proc)
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker exited with status {proc.returncode}; "
                             f"see {self.work}/worker-{self.spawned}.err")

    def probe(self):
        proc, ready = self.spawn(["--import-only"])
        self.finish(proc)
        return ready

    def worker(self, trace, budget_s, fill=False):
        k = self.spawned + 1
        job = {"config": str(self.config), "out": str(self.work / f"out-{k}"),
               "expected": list(WORKLOADS[self.workload]), "trace": trace,
               "readback": self.workload == "harness", "budget_s": budget_s,
               "fill": fill,
               "max_warm": MAX_TRACED_WARM if trace else MAX_WARM,
               "result": str(self.work / f"result-{k}.json"),
               "spans": str(self.work / f"spans-{k}.json")}
        job_path = self.work / f"job-{k}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc, ready = self.spawn([str(job_path)])
        self.finish(proc)
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["setup_s"] = ready
        result["trace"] = trace
        return result

    def workers(self, traced_pattern, probes):
        """Full workers in turn until the deadline, `probes` import probes between them.

        A worker spends about as long on warm passes as on its import and
        cold pass, so cheap workloads get many fresh workers and cold
        samples; a worker that cannot fit twice more takes all the time
        left. Runs at least one worker per pattern entry.
        """
        results, setup = [], []
        last = 0.0
        while True:
            if len(setup) < probes:
                setup.append(self.probe())
            remaining = self.deadline - time.perf_counter()
            if len(results) >= len(traced_pattern) and remaining < last:
                return results, setup
            t0 = time.perf_counter()
            trace = traced_pattern[len(results) % len(traced_pattern)]
            results.append(self.worker(trace, max(remaining, 0.0), fill=remaining < 2 * last))
            last = time.perf_counter() - t0


def cross_worker_failures(results):
    """Experiment runs whose first-pass output differs between workers."""
    first = results[0]["reference"]
    failures = []
    for k, result in enumerate(results[1:], start=2):
        for exp_id, fingerprint in result["reference"].items():
            if exp_id in first and fingerprint != first[exp_id]:
                failures.append(f"worker {k}: {exp_id}: output differs from worker 1")
    return failures


def end_to_end(results, setup):
    warm = [p for r in results for p in r["passes"][1:]]
    return {
        "setup_s": summarize(setup),
        "cold_wall_s": summarize([r["passes"][0]["wall_s"] for r in results]),
        "wall_s": summarize([p["wall_s"] for p in warm]),
        "cpu_s": summarize([p["cpu_s"] for p in warm]),
        "peak_rss_mib": summarize([r["peak_rss_mib"] for r in results]),
    }


def per_layer(results, wanted):
    """Medians over traced warm passes; a listed layer function that this
    workload never calls reads 0."""
    traced = [r for r in results if r["trace"]]
    plain = [r for r in results if not r["trace"]]
    warm_layers = [layers for r in traced for layers in r["layers"][1:]]
    out = {"cli.import_s": summarize([r["import_s"] for r in results]),
           "cli.import_modules": summarize([r["import_modules"] for r in results]),
           "hopping.eigvalsh.first_call_s": summarize(
               [r["eigvalsh_first_call_s"] for r in traced])}
    traced_wall = statistics.median(p["wall_s"] for r in traced for p in r["passes"][1:])
    plain_wall = statistics.median(p["wall_s"] for r in plain for p in r["passes"][1:])
    out["trace.overhead_frac"] = summarize([(traced_wall - plain_wall) / plain_wall])
    for name in set(wanted).union(*warm_layers) - set(out):
        out[name] = summarize([layers.get(name, 0) for layers in warm_layers])
    return out


def git_commit(root):
    """Commit id read from .git when the checkout has one (git is not run)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _read(path, default="unknown"):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return default


def machine_record(root, work):
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") in ("Unified", "Data"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    fs_type, best = "unknown", ""
    target = str(work.resolve())
    for line in _read("/proc/self/mountinfo", "").splitlines():
        fields = line.split()
        mount = fields[4]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                and len(mount) >= len(best):
            best, fs_type = mount, fields[fields.index("-") + 1]
    return {"git_commit": git_commit(root), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches, "output_fs": fs_type, "blas_threads_set": BLAS_ENV}


def measure(root, workload, seed, seconds, trace, extra_config=()):
    """Run one benchmark measurement; returns the full result record."""
    if not (root / "src" / "qmbh_lab" / "cli.py").is_file():
        raise BenchError(f"no qmbh_lab sources under {root / 'src'}")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(root, workload, seed, seconds, extra_config)
    run.probe()   # first import of a checkout compiles bytecode; not a sample
    if trace:
        results, _ = run.workers([False, True], probes=0)
        wanted = spec["per_layer"]
        metrics = per_layer(results, [m["name"] for m in wanted])
    else:
        results, setup = run.workers([False], probes=IMPORT_PROBES)
        setup += [r["setup_s"] for r in results]
        metrics, wanted = end_to_end(results, setup), spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")

    mismatches = cross_worker_failures(results)
    failures = [f for r in results for f in r["failures"]] + mismatches
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + len(mismatches)
    untraced_wrapped = [w for r in results if not r["trace"] for w in r["wrapped"]]
    if untraced_wrapped:
        failures.append(f"untraced worker ran wrapped functions: {untraced_wrapped[:5]}")
    if trace and not all(r["wrapped"] for r in results if r["trace"]):
        failures.append("traced worker wrapped nothing")
    hook_errors = sum(r.get("hook_errors", 0) for r in results)
    if hook_errors:
        failures.append(f"{hook_errors} tracing counters failed")
    correct = failed == 0 and not failures
    env = dict(machine_record(root, run.work), seed=seed, workload=workload,
               **results[0]["env"])
    return {
        "summary": {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": {m["name"]: {"value": metrics[m["name"]]["median"],
                                            "unit": m["unit"]} for m in wanted}},
        "detail": {m["name"]: dict(metrics[m["name"]], unit=m["unit"]) for m in wanted},
        "failures": failures[:20],
        "env": env,
        "workers": len(results),
        "elapsed_s": time.perf_counter() - run.start,
    }


def report(record, out):
    """Human-readable lines, then the one-line JSON result last."""
    summary = record["summary"]
    print(f"env {json.dumps(record['env'], sort_keys=True)}", file=out)
    for name, d in record["detail"].items():
        tail = f"  p{d['high_percentile']}={d['high_value']:.6g}" \
            if d["high_percentile"] is not None else ""
        print(f"{name:<48} {d['median']:>14.6g} {d['unit']:<14} "
              f"(median of {d['n']}){tail}", file=out)
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    print(f"{'failed_frac':<48} {frac:>14.6g} {'ratio':<14} "
          f"({summary['failed']} of {summary['attempted']} experiment runs)", file=out)
    for failure in record["failures"]:
        print(f"failure: {failure}", file=out)
    print(json.dumps(summary), file=out)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    # SIGTERM unwinds like an exception, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    (root / ".perfbench-work" / args.workload / "result.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    report(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
