"""Benchmark of the optrans solver chains: checked answers, end to end and per layer.

From the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One client runs a closed loop in one process: each instance starts only
after the previous one is finished and checked.  A run repeats passes over
the workload's instances while the next pass is likely to end within
--seconds (at least one pass) and reports medians over its passes.

--trace 0 reports the end-to-end metrics, with tracing off:
  run_s          wall time of one checked pass
  cpu_s          process CPU time (user + sys, all threads) of the same pass
  setup_s        cold set-up, i.e. importing optrans and building the
                 workload's problems: median of SETUP_REPEATS fresh interpreters
  peak_rss_mb    peak resident memory of this process up to the end of the
                 first pass
  verified_frac  instances that passed every check / instances attempted
--trace 1 spends half of --seconds on untraced passes and half on traced
ones (at least one each), and reports the per-layer metrics: busy seconds
inside each layer call (``*_s``), counters, the part of run_s no layer span
covers, and traced minus untraced run_s.

Every instance is checked outside its timed region: LP objective against
scipy's HiGHS, duality gap, structure verdicts and assumption flags against
the preset, pairing solution against the LP and the preset's closed form,
and artifacts read back exactly.  A raised exception or a failed check marks
the instance failed and never aborts the pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cold set-ups per run, half before the passes and half after, so that their
# median spans the run rather than one moment of the host's load.
SETUP_REPEATS = 6
# Relative objective gap |ours - HiGHS| / max(1, |HiGHS|) an LP may show.
ORACLE_TOL = 1e-7
# HiGHS's interior point method with crossover: its dual simplex (what
# method="highs" picks) takes ~20 s on example_c3 at n=201, this ~1 s.
ORACLE_METHOD = "highs-ipm"

# Layer calls timed by the chains, each reported as "<span>_s"; the set-up's
# presets.preset span is reported on its own.
SPANS = (
    "lp.build_lp",
    "lp.solve_primal",
    "lp.solve_dual",
    "lp.contact_set",
    "lp.verify_cs",
    "model.check_assumptions",
    "structure.check_twist",
    "structure.check_full_disclosure",
    "structure.check_nad_condition",
    "structure.check_sdpd",
    "structure.classify",
    "nad.solve_nad",
    "nad.verify_against_lp",
    "cli.write_artifacts",
)
COUNTERS = (
    "lp.mass_variables",
    "lp.rows",
    "simplex.iterations",
    "simplex.dropped_rows",
    "lp.dual_degenerate",
    "lp.contact_pairs",
    "structure.verdict_mismatches",
    "structure.snap_discounted",
    "nad.flagged",
)
WORST = ("lp.objective_rel_err_max", "lp.duality_gap_max", "nad.terminal_residual_max")


@dataclass
class Record:
    """One instance in one pass."""

    part: str
    key: str
    wall: float
    cpu: float
    busy: dict  # span -> seconds
    calls: dict  # span -> evaluator calls made inside it
    checked: object  # chains.Checked


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(name: str, repeats: int) -> list:
    """Cold set-up times, one per fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(instances, steps, tracer, out) -> list:
    from chains import CHAINS, Checked

    records = []
    for inst in instances:
        chain, check = CHAINS[inst.chain]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            res = chain(tracer, inst, out, steps)
        except Exception as exc:  # a failed instance is counted, never aborts the pass
            res = exc
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        busy, calls = tracer.take()
        if isinstance(res, Exception):
            checked = Checked()
            checked.fail(f"raised {type(res).__name__}: {res}")
        else:
            try:
                checked = check(inst, res, out)
            except Exception as exc:  # a check that cannot run is a failed check
                traceback.print_exc()
                checked = Checked()
                checked.fail(f"check raised {type(exc).__name__}: {exc}")
        records.append(Record(inst.part, inst.key, wall, cpu, busy, calls, checked))
    return records


def measure(seconds: float, **pass_args) -> tuple[list, float]:
    """Passes until the next one would likely end past ``seconds`` (at least
    one), and the process's peak RSS in MB once the first pass is done, which
    does not depend on how many passes fit."""
    passes = []
    have_lp = set()
    start = time.perf_counter()
    while True:
        passes.append(run_pass(**pass_args))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for r in passes[-1]:  # the oracle needs each instance's LP once
            if r.key in have_lp:
                r.checked.lp_data = None
            elif r.checked.lp_data is not None:
                have_lp.add(r.key)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, peak_rss_mb


def apply_oracle(records) -> None:
    """Check every LP objective against HiGHS, solved once per instance."""
    from scipy.optimize import linprog

    refs = {}
    for r in records:
        ck = r.checked
        if ck.objective is None:
            continue
        if r.key not in refs:
            A, b, c = ck.lp_data
            sol = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method=ORACLE_METHOD)
            refs[r.key] = -sol.fun if sol.status == 0 else None
        ref = refs[r.key]
        if ref is None:
            ck.fail("HiGHS found no optimum")
            continue
        rel = abs(ck.objective - ref) / max(1.0, abs(ref))
        ck.note_worst("lp.objective_rel_err_max", rel)
        if not rel <= ORACLE_TOL:
            ck.fail(f"objective {ck.objective!r} off HiGHS's {ref!r} by {rel:.3e} relative")


def totals(records) -> tuple[Counter, dict, Counter, Counter]:
    counts, worst, busy, calls = Counter(), {}, Counter(), Counter()
    for r in records:
        counts.update(r.checked.counts)
        busy.update(r.busy)
        calls.update(r.calls)
        for k, v in r.checked.worst.items():
            worst[k] = max(worst.get(k, 0.0), v)
    return counts, worst, busy, calls


def pass_seconds(p) -> float:
    return sum(r.wall for r in p)


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict:
    records = [r for p in passes for r in p]
    return {
        "run_s": statistics.median(pass_seconds(p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "verified_frac": sum(not r.checked.failures for r in records) / len(records),
    }


def per_layer(untraced, traced, preset_s: float) -> dict:
    m = {"presets.preset_s": preset_s}
    busy = [totals(p)[2] for p in traced]
    for span in SPANS:
        m[f"{span}_s"] = statistics.median(b[span] for b in busy)
    counts, worst, _, calls = totals(traced[0])
    for name in COUNTERS:
        m[name] = counts[name]
    for name in WORST:
        m[name] = worst.get(name, 0.0)
    iters = counts["simplex.iterations"]
    m["simplex.us_per_iteration"] = 1e6 * m["lp.solve_primal_s"] / iters if iters else 0.0
    m["model.evaluator_calls"] = sum(calls.values())
    m["nad.evaluator_calls"] = calls["nad.solve_nad"]
    traced_s = statistics.median(pass_seconds(p) for p in traced)
    m["bench.unattributed_s"] = statistics.median(pass_seconds(p) - sum(b.values()) for p, b in zip(traced, busy))
    m["bench.tracing_overhead_s"] = traced_s - statistics.median(pass_seconds(p) for p in untraced)
    return m


def nondeterminism(untraced, traced) -> list:
    """Counters that differ between passes of the same instances."""
    problems = []
    first = totals(untraced[0])[0]
    for i, p in enumerate(untraced[1:] + traced, start=1):
        if totals(p)[0] != first:
            problems.append(f"pass {i} counters differ from pass 0")
    calls = [totals(p)[3] for p in traced]
    if any(c != calls[0] for c in calls):
        problems.append("evaluator calls differ between traced passes")
    return problems


def declared(section: str, values: dict) -> dict:
    """Values in BENCHMARK.json's order and units; every metric, no other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise KeyError(f"{section}: measured {sorted(values)} but declared {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_workload(args) -> int:
    specs, steps = plan(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(args.workload, SETUP_REPEATS // 2)

    import chains
    import optrans
    from stamp import stamp
    from tracing import NullTracer, Tracer

    if Path(optrans.__file__).resolve().parent != SRC / "optrans":
        print(f"perfbench: imported optrans from {optrans.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    instances = chains.build_instances(specs, tracer)
    preset_s = tracer.take()[0].get("presets.preset", 0.0)

    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as tmp:
        common = dict(instances=instances, steps=steps, out=Path(tmp))
        # a traced run splits its time between untraced and traced passes
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced, peak_rss_mb = measure(seconds, tracer=NullTracer(), **common)
        traced = []
        if args.trace:
            for inst in instances:
                tracer.count_evaluators(inst.problem)
            traced, _ = measure(seconds, tracer=tracer, **common)
    if not args.trace:
        setup += measure_setup(args.workload, SETUP_REPEATS - len(setup))

    records = [r for p in untraced + traced for r in p]
    apply_oracle(records)
    failed = [r for r in records if r.checked.failures]
    problems = nondeterminism(untraced, traced)
    if args.trace:
        metrics = declared("per_layer", per_layer(untraced, traced, preset_s))
    else:
        metrics = declared("end_to_end", end_to_end(untraced, statistics.median(setup), peak_rss_mb))

    shown = traced or untraced
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(instances)} instances x {len(shown)} {'traced ' if args.trace else ''}pass(es); "
        "closed loop, 1 client, 1 process"
    )
    print(f"  order: {', '.join(i.key for i in instances)}")
    print(f"  pass seconds: {', '.join(f'{pass_seconds(p):.3f}' for p in shown)}")
    for name, m in metrics.items():
        print(f"  {name:34s} {_fmt(m['value'])} {m['unit']}")
    print(f"  failed_frac {len(failed)}/{len(records)} instances attempted = {len(failed) / len(records):.6g}")
    for part in WORKLOADS[args.workload]:
        recs = [r for p in shown for r in p if r.part == part]
        wall = statistics.median(sum(r.wall for r in p if r.part == part) for p in shown)
        cpu = statistics.median(sum(r.cpu for r in p if r.part == part) for p in shown)
        print(
            f"  part {part}: run_s {wall:.6g} s, cpu_s {cpu:.6g} s, "
            f"failed_frac {sum(bool(r.checked.failures) for r in recs)}/{len(recs)}"
        )
    print("  waiting: 0 s by construction; no layer queues work for another")
    if args.trace:
        for r in traced[0]:
            spans = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(r.busy.items(), key=lambda kv: -kv[1]))
            print(
                f"  {r.key}: {r.wall:.3f} s, simplex.iterations={r.checked.counts['simplex.iterations']}, "
                f"evaluator_calls={dict(r.calls)}; {spans}"
            )
    for r in failed:
        print(f"perfbench: FAILED {r.key}: {'; '.join(r.checked.failures)}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: NONDETERMINISTIC {p}", file=sys.stderr)
    print("stamp " + json.dumps(stamp(ROOT), sort_keys=True))
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print one table."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"\n{'workload':14s} {'metric':34s} value")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:14s} {metric:34s} {_fmt(m['value'])} {m['unit']}")
        print(f"{name:14s} {'failed_frac':34s} {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optrans" / "__init__.py").is_file():
        print(f"perfbench: no optrans source at {SRC / 'optrans'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
