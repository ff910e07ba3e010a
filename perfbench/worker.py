"""One fresh benchmark worker: import, one cold pass, warm passes, output checks.

Usage: python3 perfbench/worker.py JOB.json   (run.py writes the job file)
       python3 perfbench/worker.py --import-only

The first thing the worker does is import `qmbh_lab.cli` (which builds the
experiment registry) and print `ready`; run.py times spawn-to-ready as
`setup_s`. Each pass calls the public entry point
`cli.main(["run-all", "--config", CFG, "--out", DIR], standalone_mode=False)`
and is timed around that call (plus, for the harness workload, the
`qmbh report` read-back). Output checks run after the timer stops.
"""

import sys
import time

_T0 = time.perf_counter()
_MODULES0 = len(sys.modules)
from qmbh_lab import cli  # noqa: E402  (the import is the measured set-up)

IMPORT_S = time.perf_counter() - _T0
IMPORT_MODULES = len(sys.modules) - _MODULES0
sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402


def read_back(out):
    """What `qmbh report DIR` does: parse every report.json, build the summary."""
    reports = [cli.ExperimentReport.from_dict(json.loads(p.read_text(encoding="utf-8")))
               for p in sorted(Path(out).glob("*/report.json"))]
    return cli.summary_lines(reports)


def run_pass(config, out, readback, read_back_fn):
    """Time one `run-all` pass; returns (wall, cpu, exit code, stdout, read-back)."""
    if out.exists():
        shutil.rmtree(out)
    buf = io.StringIO()
    lines = None
    code = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(["run-all", "--config", str(config), "--out", str(out)],
                     standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crashed pass is a failed pass, never a dropped one
        code = f"{type(exc).__name__}: {exc}"
    if readback and code == 0:
        try:
            lines = read_back_fn(out)
        except Exception as exc:  # an unreadable report fails the check below
            lines = ["", f"read-back raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return wall, cpu, code, buf.getvalue(), lines


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _inspect_report(out, exp_id):
    """(failure reason or None, fingerprint) for one experiment's output."""
    try:
        d = json.loads((out / exp_id / "report.json").read_text(encoding="utf-8"))
        claims = d["claims"]
        if d["status"] != "pass":
            return f"status {d['status']!r}", None
        if d.get("error"):
            return f"error {d['error']!r}", None
        if not claims or not all(c["passed"] for c in claims):
            return "a claim failed", None
        tables = {name: _sha256(out / exp_id / name)
                  for name in d["tables"] if name.endswith(".csv")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None
    return None, {"claims": [c["id"] for c in claims], "tables": tables}


def check_pass(out, code, stdout, lines, expected, reference):
    """Failure reasons by experiment id; fills `reference` on the first pass."""
    failures = {}
    if not isinstance(code, int):
        return {exp_id: f"pass raised {code}" for exp_id in expected}
    summary = {}
    summary_rows = [r for r in stdout.splitlines()[1:] if r.count(",") == 3]
    for row in summary_rows:
        exp_id, passed, total, status = row.split(",")
        summary[exp_id] = (passed, total, status)
    for exp_id in expected:
        row = summary.get(exp_id)
        if row is None:
            failures[exp_id] = "missing from the summary"
            continue
        if row[2] != "pass" or row[0] != row[1]:
            failures[exp_id] = f"summary row {','.join(row)}"
            continue
        reason, fingerprint = _inspect_report(out, exp_id)
        if reason is None:
            if exp_id not in reference:
                reference[exp_id] = fingerprint
            elif fingerprint != reference[exp_id]:
                reason = "claims or CSV tables differ from the worker's first pass"
        if reason is not None:
            failures[exp_id] = reason
    if code != 0 and not failures:
        failures["run-all"] = f"exit status {code} with every experiment passing"
    if lines is not None and sorted(lines[1:]) != sorted(summary_rows):
        failures["report"] = "read-back summary differs from the run-all summary"
    return failures


def blas_record():
    """BLAS build info and the thread counts the loaded OpenBLAS libraries report."""
    import numpy
    import scipy

    record = {"numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": platform.python_version()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        record["blas"] = "unknown"
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    record["blas_threads_reported"] = threads
    return record


def main(job):
    t_ready = time.perf_counter()
    out = Path(job["out"])
    expected = job["expected"]
    tracer = None
    read_back_fn = read_back
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        read_back_fn = tracer.wrap("experiments.report_read", read_back)
    reference = {}
    result = {"import_s": IMPORT_S, "import_modules": IMPORT_MODULES,
              "passes": [], "attempted": 0, "failed": 0, "failures": []}

    def one_pass(index):
        if tracer is not None:
            tracer.pass_id = index
        wall, cpu, code, stdout, lines = run_pass(job["config"], out, job["readback"],
                                                  read_back_fn)
        failures = check_pass(out, code, stdout, lines, expected, reference)
        result["passes"].append({"wall_s": wall, "cpu_s": cpu})
        result["attempted"] += len(expected)
        result["failed"] += min(len(failures), len(expected))
        result["failures"] += [f"pass {index}: {k}: {v}" for k, v in failures.items()]

    one_pass(0)
    deadline = t_ready + job["budget_s"]
    if not job["fill"]:  # warm passes for about as long as import plus cold pass
        deadline = min(deadline, time.perf_counter() + IMPORT_S + result["passes"][0]["wall_s"])
    for index in range(1, job["max_warm"] + 1):
        start = time.perf_counter()
        one_pass(index)
        if 2 * time.perf_counter() - start > deadline:  # the next pass would overrun
            break
    if out.exists():
        shutil.rmtree(out)

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["reference"] = reference
    result["env"] = blas_record()
    if tracer is not None:
        result["layers"] = [tracing.pass_metrics(tracer, i)
                            for i in range(len(result["passes"]))]
        result["eigvalsh_first_call_s"] = tracing.first_call_seconds(
            tracer, "hopping.eigvalsh")
        result["hook_errors"] = sum(c.get("trace.hook_errors", 0)
                                    for c in tracer.counts.values())
        Path(job["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    result["wrapped"] = wrapped_names()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


def wrapped_names():
    """Layer functions currently replaced by a tracing wrapper (none when untraced)."""
    import numpy
    import scipy.linalg
    from tracing import ORIGINAL

    modules = [m for n, m in sys.modules.items()
               if n == "qmbh_lab" or n.startswith("qmbh_lab.")]
    modules += [numpy.fft, numpy.linalg, scipy.linalg]
    found = {f"{m.__name__}.{attr}" for m in modules for attr, value in vars(m).items()
             if callable(value) and hasattr(value, ORIGINAL)}
    found |= {f"experiments.runner.{i}" for i, e in cli.EXPERIMENTS.items()
              if hasattr(e.runner, ORIGINAL)}
    return sorted(found)


if __name__ == "__main__":
    if sys.argv[1:] != ["--import-only"]:
        main(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
