"""Seeded workload inputs: the `qmbh run-all` config file each worker runs.

The seed belongs to the benchmark; the program only ever sees the generated
config text. The same (workload, seed) pair always yields the same text.
"""

import random

# Registry order at the commit that defined the benchmark. A run that drops
# one of these ids shows up as a failed experiment run.
SUITE = (
    "constants-report", "bohm-vortex", "ring-model", "hopping-dispersion",
    "emergent-mass", "dispersion-vs-relativity", "zbw", "neg-energy-scan",
    "kn-horizon", "kn-fields", "metric-slice", "shell-spin", "charge-confinement",
)
HARNESS = ("constants-report", "ring-model", "neg-energy-scan", "kn-horizon",
           "kn-fields", "metric-slice", "shell-spin", "charge-confinement")

# Experiments whose claims hold for every particle below; constants-report and
# charge-confinement make electron-specific claims and keep their default.
PARTICLE_EXPERIMENTS = ("ring-model", "kn-horizon", "kn-fields", "shell-spin")
PARTICLES = ("electron", "proton", "muon", "charm")

# Workload name -> the ids it must report, in registry order.
WORKLOADS = {"suite": SUITE, "harness": HARNESS}


def make_config(workload, seed, extra=()):
    """Config text for `qmbh run-all --config`; `extra` appends raw lines."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    lines = [f"# perfbench workload {workload}, seed {seed}"]
    if workload == "harness":
        rng = random.Random(f"harness:{seed}")
        order = list(HARNESS)
        rng.shuffle(order)
        # run-all executes in registry order; the shuffled list is still the
        # seeded input, so a harness that honours it is measured on it.
        lines.append("only = " + ", ".join(order))
        for exp_id in PARTICLE_EXPERIMENTS:
            lines.append(f"{exp_id}.particle = {rng.choice(PARTICLES)}")
    lines.extend(extra)
    return "\n".join(lines) + "\n"
