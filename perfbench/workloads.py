"""Which instances each workload runs, and through which solver chain.

Pure data, so that a cold set-up can be timed without importing it through
optrans.  The reason for each workload, and the layers it loads, is recorded
in BENCHMARK.json.  The workload seed only orders the instances (and the
check chain's independent structure tests): preset parameters stay at their
defaults, so every instance keeps the verdicts and oracle answers its preset
documents, and the simplex iteration counts stay comparable across seeds.

The four parts are the problem sets the benchmark is about; each workload
runs two of them.  Wall time on a shared 2-CPU host moves by ~20% from one
20 s run to the next, and within the benchmark's time budget only two
workloads can measure ~30 s or more per run.  Reports give each part its own
line.
"""

from __future__ import annotations

import random

# Listed rather than taken from optrans.presets.preset_ids(), so that a preset
# added later does not silently change the workload.
CATALOG = (
    "affiliated",
    "contest",
    "example_c1",
    "example_c2",
    "example_c3",
    "gerrymander",
    "linear",
    "linear_receiver",
    "option_pricing",
    "quantile",
    "rayo_segal",
    "stress_test",
    "translation_receiver",
    "translation_sender",
)

# The check chain's tests that depend on nothing but the problem.
CHECK_STEPS = ("assumptions", "twist", "sdpd", "full_disclosure", "nad_condition")

# part -> (chain, ((preset id, grid n), ...)): chain 'solve' is the certify
# command plus the solve command's artifacts, 'check' and 'nad' the commands
# of those names.
PARTS = {
    "solve_large": ("solve", (("example_c3", 201), ("contest", 201))),
    "solve_catalog": ("solve", tuple((pid, 101) for pid in CATALOG)),
    "check_n201": ("check", (("example_c1", 201),)),
    # the presets whose check_nad_condition holds; 'affiliated' (where it
    # fails) is kept out because solve_nad on it ran past 90 s without returning
    "nad_n101": (
        "nad",
        tuple((pid, 101) for pid in ("example_c1", "contest", "translation_sender", "option_pricing", "example_c2")),
    ),
}

WORKLOADS = {
    "solve": ("solve_large", "solve_catalog"),
    "check_nad": ("check_n201", "nad_n101"),
}


def instances(name: str) -> tuple:
    """(part, chain, preset id, grid n) for every instance of a workload."""
    return tuple(
        (part, PARTS[part][0], pid, n) for part in WORKLOADS[name] for pid, n in PARTS[part][1]
    )


def plan(name: str, seed: int) -> tuple[tuple, tuple]:
    """The workload's instances in seeded order, and the seeded order of the
    check chain's independent tests."""
    rng = random.Random(seed)
    order = list(instances(name))
    rng.shuffle(order)
    steps = list(CHECK_STEPS)
    rng.shuffle(steps)
    return tuple(order), tuple(steps)
