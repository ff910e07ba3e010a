"""Layer spans and counters for the traced worker.

`install` replaces module attributes of qmbh_lab (and the few NumPy/SciPy
kernels it calls) with wrappers that record a span per call: name, start,
end, parent span and pass id. Spans stay in memory; the worker writes them
out when it ends. Only the traced worker calls `install`; untraced workers
run the package exactly as imported.

Counts marked "computed" are derived from call arguments (grid sizes, step
counts, element counts), not measured.
"""

import functools
import inspect
import os
import sys
import time
from dataclasses import replace

import numpy as np
import scipy.linalg

ORIGINAL = "__perfbench_original__"

# Public functions timed per layer. Missing attributes are skipped, so a
# later change that deletes one of them reads as zero calls, not a crash.
TARGETS = {
    "experiments": ("run", "resolve_parameters", "write_table", "atomic_write_text"),
    "bohm": ("evolve", "decompose", "continuity_residual", "quantum_potential",
             "save_field", "ring_model"),
    "dirac": ("evolved", "mean_position", "mean_velocity", "mean_position_trace",
              "velocity_trace", "fit_trace", "energy_fractions"),
    "hopping": ("self_consistent_mass", "ground_state", "dispersion"),
    "lin_gravity": ("spin_integral", "far_potential", "shell_trace_a0",
                    "charge_estimate", "mass_integral"),
    "kerr_newman": ("far_fields", "div_b_residual", "horizons", "metric_slice"),
    "constants": None,  # every public function of the module
}

# Bytes one free split-step touches per grid point: fft2 read+write, the
# kinetic-phase multiply (two reads, one write), ifft2 read+write, complex128.
SPLIT_STEP_BYTES_PER_POINT = 7 * 16


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, pass id]
        self.stack = []
        self.counts = {}       # pass id -> {counter: value}
        self.pass_id = 0

    def add(self, name, value=1):
        counts = self.counts.setdefault(self.pass_id, {})
        counts[name] = counts.get(name, 0) + value

    def inside(self, prefix):
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, name, fn, on_return=None):
        tracer = self
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                      tracer.pass_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    on_return(tracer, bound.arguments, result)
                except Exception:  # a counter must never fail the traced call
                    tracer.add("trace.hook_errors")
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def count_only(self, name, fn, prefix):
        """Count calls to `fn` made while a span starting with `prefix` is open."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.inside(prefix):
                tracer.add(name)
            return fn(*args, **kwargs)

        setattr(wrapper, ORIGINAL, fn)
        return wrapper


def _on_evolve(tracer, a, result):
    n = a["grid"].n
    steps = int(a["steps"])
    tracer.add("bohm.evolve.steps", steps)
    tracer.add("bohm.evolve.states", len(result) if isinstance(result, (list, tuple)) else 1)
    tracer.add("bohm.evolve.fft_points", 2 * steps * n * n)
    tracer.add("bohm.evolve.bytes_computed", SPLIT_STEP_BYTES_PER_POINT * steps * n * n)


def _on_evolved(tracer, a, result):
    tracer.add("dirac.evolved.mode_updates", int(a["packet"].k.size))


def _on_self_consistent_mass(tracer, a, result):
    tracer.add("hopping.self_consistent_mass.iterations", int(result[0].iterations))


def _on_atomic_write(tracer, a, result):
    name = os.path.basename(os.fspath(a["path"]))
    size = len(a["text"].encode("utf-8"))
    if name.endswith(".csv"):
        tracer.add("experiments.table_bytes", size)
    elif name == "report.json":
        tracer.add("experiments.report_json_bytes", size)


def _on_lu_factor(tracer, a, result):
    n = np.shape(a["a"])[0]
    tracer.add("hopping.lu_factor.flops", 2 * n**3 // 3)


def _elements(factor_arg=None):
    def hook(tracer, a, result):
        terms = a["s"].n_elements
        if factor_arg is not None:
            terms *= np.size(a[factor_arg])
        tracer.add("lin_gravity.element_terms", int(terms))
    return hook


HOOKS = {
    "experiments.atomic_write_text": _on_atomic_write,
    "bohm.evolve": _on_evolve,
    "dirac.evolved": _on_evolved,
    "hopping.self_consistent_mass": _on_self_consistent_mass,
    "lin_gravity.spin_integral": _elements(),
    "lin_gravity.far_potential": _elements(),
    "lin_gravity.mass_integral": _elements(),
    "lin_gravity.charge_estimate": _elements(),
    "lin_gravity.shell_trace_a0": _elements("r_values"),
}


def _replace_everywhere(original, wrapper):
    """Point every qmbh_lab module attribute bound to `original` at `wrapper`,
    so `from .module import name` copies are traced as well."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "qmbh_lab" or mod_name.startswith("qmbh_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every traced layer function; returns the names wrapped."""
    from qmbh_lab import experiments

    wrapped = []
    for layer, names in TARGETS.items():
        module = sys.modules[f"qmbh_lab.{layer}"]
        if names is None:
            names = [n for n, v in vars(module).items()
                     if inspect.isfunction(v) and v.__module__ == module.__name__
                     and not n.startswith("_")]
        for attr in names:
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = f"{layer}.{attr}"
            _replace_everywhere(original, tracer.wrap(name, original, HOOKS.get(name)))
            wrapped.append(name)
    for exp_id, exp in list(experiments.EXPERIMENTS.items()):
        name = f"experiments.runner.{exp_id}"
        experiments.EXPERIMENTS[exp_id] = replace(exp, runner=tracer.wrap(name, exp.runner))
        wrapped.append(name)

    kernels = [
        (np.fft, "fft2", tracer.count_only("bohm.fft2.calls", np.fft.fft2, "bohm.")),
        (scipy.linalg, "lu_factor",
         tracer.wrap("hopping.lu_factor", scipy.linalg.lu_factor, _on_lu_factor)),
        (scipy.linalg, "lu_solve",
         tracer.count_only("hopping.lu_solve.calls", scipy.linalg.lu_solve, "hopping.")),
        (np.linalg, "eigvalsh", tracer.wrap("hopping.eigvalsh", np.linalg.eigvalsh)),
    ]
    for owner, attr, wrapper in kernels:
        setattr(owner, attr, wrapper)
        wrapped.append(f"{owner.__name__}.{attr}")
    return wrapped


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(tracer, pass_id):
    """Per-layer metrics of one pass: `<span>.s` and `<span>.calls` for every
    span name, every counter, and the few ratios derived from them."""
    time_by, calls_by = {}, {}
    spans = tracer.spans
    for record in spans:
        name, start, end, parent, pid = record
        if pid != pass_id:
            continue
        calls_by[name] = calls_by.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        outer_same, outer_layer = True, True
        while parent >= 0:
            pname = spans[parent][0]
            outer_same = outer_same and pname != name
            outer_layer = outer_layer and not pname.startswith(layer + ".")
            parent = spans[parent][3]
        if outer_same:
            time_by[name] = time_by.get(name, 0.0) + (end - start)
        if layer == "constants" and outer_layer:  # gives `constants.s`
            time_by["constants"] = time_by.get("constants", 0.0) + (end - start)
    counts = tracer.counts.get(pass_id, {})

    m = {f"{name}.s": t for name, t in time_by.items()}
    m.update({f"{name}.calls": n for name, n in calls_by.items()})
    m.update(counts)
    runners = sum(t for name, t in time_by.items() if name.startswith("experiments.runner."))
    m["experiments.run.overhead_s"] = time_by.get("experiments.run", 0.0) - runners
    m["bohm.steps_per_state"] = _ratio(counts.get("bohm.evolve.steps", 0),
                                       counts.get("bohm.evolve.states", 0))
    m["dirac.evolved_per_trace"] = _ratio(
        calls_by.get("dirac.evolved", 0),
        calls_by.get("dirac.mean_position_trace", 0) + calls_by.get("dirac.velocity_trace", 0))
    m["hopping.lu_factors_per_mass"] = _ratio(calls_by.get("hopping.lu_factor", 0),
                                              calls_by.get("hopping.self_consistent_mass", 0))
    return m


def first_call_seconds(tracer, name):
    for record in tracer.spans:
        if record[0] == name:
            return record[2] - record[1]
    return 0.0
