"""tautilt benchmark: seeded closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 50 --trace 0

One job runs at a time in one process (``cli`` runs one tautilt process at a
time).  A run repeats whole cycles of its workload's jobs and starts another
cycle only while the previous cycle's length still fits in ``--seconds`` (or
while fewer than TAIL_SAMPLES jobs lie beyond the tail percentile), so every
run times the same mix of inputs.  ``--trace 0`` prints the end-to-end
metrics.  Their times are scaled to a reference host speed that a fixed loop
measures while each job runs (calibrate.py), and the unscaled figures are
printed above them.  ``--trace 1`` runs the first cycle once untraced and
once under the span tracer and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
from spans import MEMO_NAMESPACES, Tracer, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"

# latency_tail_s is the wall time at this percentile; a run goes on until at
# least TAIL_SAMPLES jobs lie beyond it
TAIL_PERCENTILE = 70
TAIL_SAMPLES = 10
IMPORT_SAMPLES = 3
SETUP_EVERY = 5


def median_wall(argv, env) -> float:
    walls = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def setup_probe(args) -> float:
    """Time from the start of a fresh interpreter to the point where its first
    job would start (imports plus input generation).  perf_counter is
    CLOCK_MONOTONIC, so the child's reading is comparable."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def measure_imports() -> dict:
    """Import cost of the CLI in fresh interpreters, net of a bare start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = median_wall([sys.executable, "-c", "pass"], env)
    full = median_wall([sys.executable, "-c", "import tautilt.cli"], env)
    sympy = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tautilt.cli"],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                             timeout=120)
        # "import time: self [us] | cumulative | imported package"
        match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*sympy$", out.stderr, re.M)
        sympy.append(int(match.group(1)) / 1e6 if match else 0.0)
    return {"cli.import_s": full - bare, "cli.import_sympy_s": statistics.median(sympy)}


def run_job(wl, job, tracer=None, spans_path=None, probe=None):
    """Time one job, then check its answer outside the timed region.
    Returns (wall seconds, list of check failures).  With ``probe`` the
    reference loop is sampled while the job runs (see calibrate.py)."""
    gc.collect()
    in_process = tracer is not None and spans_path is None
    if in_process:
        tracer.install()
    if probe is not None:
        probe.begin()
    t0 = time.perf_counter()
    try:
        try:
            result = wl.run(job) if spans_path is None else wl.run(job, spans_path)
        finally:
            if probe is not None:
                probe.end()  # before the clock stops, so every pass falls inside the wall
            wall = time.perf_counter() - t0
            if in_process:
                tracer.uninstall()
                tracer.end_job()
    except Exception as exc:  # a job that raises counts as failed; keep going
        traceback.print_exc(file=sys.stderr)
        return wall, [f"{job.label}: raised {exc!r}"]
    try:
        errors = wl.check(job, result)
    except Exception as exc:  # a check that cannot run counts as a failed check
        traceback.print_exc(file=sys.stderr)
        errors = [f"{job.label}: check raised {exc!r}"]
    print(f"  {job.label:24s} {wall:8.3f} s{'  CHECK FAILED' if errors else ''}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return wall, errors


def tail_samples(jobs: int) -> int:
    """Jobs beyond the tail percentile in a run of ``jobs`` jobs: the sorted
    walls past position p * (jobs - 1), where the inclusive quantile sits."""
    return (jobs - 1) - TAIL_PERCENTILE * (jobs - 1) // 100


def timed_loop(args, wl) -> tuple:
    """Whole cycles, closed loop, with the speed probe sampling every job.
    After every SETUP_EVERY jobs one fresh interpreter measures set-up, so the
    set-up samples spread over the whole run; that time is not counted against
    ``--seconds``.  Returns one list of (scaled wall, errors) per cycle, the
    unscaled walls, the scaled and unscaled set-up samples and the reference
    samples taken during jobs."""
    cycles, raw, setups, raw_setups, references = [], [], [], [], []
    probe = calibrate.SpeedProbe()
    deadline = time.perf_counter() + args.seconds
    jobs = 0
    try:
        while True:
            t_cycle = time.perf_counter()
            probes_s = 0.0
            records = []
            for job in wl.cycle(len(cycles)):
                wall, errors = run_job(wl, job, probe=probe)
                samples = probe.samples
                references += samples
                # the passes after the first ran inside the wall, on the CPU
                # the job (or its child) needed
                own = wall - sum(samples[1:])
                raw.append(own)
                records.append((own * calibrate.scale(samples), errors))
                jobs += 1
                if jobs % SETUP_EVERY == 0:
                    t_probe = time.perf_counter()
                    probe.begin()
                    setup = setup_probe(args)
                    samples = probe.end()
                    setup -= sum(samples[1:])
                    setups.append(setup * calibrate.scale(samples))
                    raw_setups.append(setup)
                    probes_s += time.perf_counter() - t_probe
            cycles.append(records)
            deadline += probes_s
            now = time.perf_counter()
            if now + (now - t_cycle - probes_s) > deadline and tail_samples(jobs) >= TAIL_SAMPLES:
                return cycles, raw, setups, raw_setups, references
    finally:
        probe.close()


def end_to_end(args, wl) -> tuple:
    cycles, raw, setups, raw_setups, references = timed_loop(args, wl)
    records = [r for cycle in cycles for r in cycle]
    walls = [w for w, _ in records]
    ok = sum(1 for _, errors in records if not errors)
    # each job and each set-up sample is scaled by the passes taken while it ran
    run_scale = calibrate.scale(references)
    if args.workload == "cli":
        peak_kb = wl.peak_kb  # largest tautilt child, not the set-up probes
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    metrics = {
        "jobs_per_s": (ok / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "checked_share": (ok / len(records), "share"),
    }
    raw_tail = statistics.quantiles(raw, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    print(f"{args.workload}: {len(cycles)} cycles, {len(records)} jobs, "
          f"tail = p{TAIL_PERCENTILE} with {tail_samples(len(records))} jobs beyond it, "
          f"{len(setups)} set-up samples, {len(references)} reference samples", file=sys.stderr)
    print(f"unscaled: {ok / sum(raw):.6g} jobs/s, p50 {statistics.median(raw):.6g} s, "
          f"p{TAIL_PERCENTILE} {raw_tail:.6g} s, set-up {statistics.median(raw_setups):.6g} s; "
          f"run scale {run_scale:.6g} (mean pass {statistics.mean(references):.6g} s, "
          f"reference {calibrate.REFERENCE_S} s)")
    return records, metrics


def traced(args, wl) -> tuple:
    imports = measure_imports()
    tracer = Tracer()
    records = []
    walls = {False: 0.0, True: 0.0}
    cache_queries = cache_hits = 0
    WORK.mkdir(exist_ok=True)
    child_spans = WORK / f"child-{os.getpid()}.pickle"
    for i, job in enumerate(wl.cycle(0)):
        # alternate which copy runs first, so warm-up favours neither
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if args.workload == "cli" and is_traced:
                existed = any(wl.cache_dir(job, True).glob("*.json"))
                child_spans.unlink(missing_ok=True)
                wall, errors = run_job(wl, job, tracer, child_spans)
                if not child_spans.exists():
                    errors = errors + [f"{job.label}: the traced child wrote no spans"]
                elif tracer.merge(child_spans, tracer.job).get("cli.cache.load"):
                    cache_queries += 1
                    cache_hits += existed
                tracer.job += 1
            else:
                wall, errors = run_job(wl, job, tracer if is_traced else None)
            walls[is_traced] += wall
            records.append((wall, errors))
    child_spans.unlink(missing_ok=True)
    spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.pickle"
    tracer.dump(spans_out)
    s = summarize(tracer)
    metrics = per_layer(s, imports, cache_queries, cache_hits)
    overhead = walls[True] - walls[False]
    metrics.update({
        "trace.untraced_s": (walls[False], "s"),
        "trace.traced_s": (walls[True], "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / walls[False], "ratio"),
        "trace.jobs": (tracer.job, "count"),
        "trace.spans": (s["spans"], "count"),
    })
    print(f"spans written to {spans_out}", file=sys.stderr)
    return records, metrics


CALLS_AND_SELF = (
    "tautilting.gen_class", "rep.trace_and_reject", "tautilting.check_pair", "tautilting.mutate",
    "rep.decompose", "homology.ar_sequence", "homology.ext1", "rep.hom_basis",
    "linalg.rref_rank", "linalg.kernel_basis", "linalg.solve_linear", "linalg.subspace_ops",
    "tautilting.exchange_step",
)
CALLS_ONLY = (
    "tautilting.is_tau_rigid", "rep.is_isomorphic", "homology.injective_envelope_map",
    "homology.projective_cover_map", "homology.tau", "homology.transpose",
    "algebra.quotient_by_vertices",
)
SELF_ONLY = (
    "tautilting.hasse", "homology.enumerate_indecomposables", "homology.hom_table",
    "homology.ext_table", "tautilting.finiteness_probe", "tautilting.oracle",
    "algebra.algebra_from_source",
)
EXTRA_COUNTS = (
    "rep.decompose.summands", "homology.enumerate_indecomposables.indecs",
    "linalg.rref_rank.cells", "tautilting.finiteness_probe.pairs",
)
MEMO_RATIOS = (("homology.ext1", "ext1"), ("homology.tau", "tau"), ("rep.hom_basis", "hom_basis"))


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(s: dict, imports: dict, cache_queries: int, cache_hits: int) -> dict:
    calls, self_s, total_s, extra = s["calls"], s["self_s"], s["total_s"], s["extra"]
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in EXTRA_COUNTS:
        m[name] = (extra.get(name, 0), "count")
    m["rep.is_isomorphic.true_ratio"] = (
        ratio(extra.get("rep.is_isomorphic.true", 0), calls["rep.is_isomorphic"]), "ratio")
    # a memo miss leaves one entry, so hits = calls - entries
    for name, ns in MEMO_RATIOS:
        hits = calls[name] - s["memo_entries"].get(ns, 0)
        m[f"{name}.memo_hit_ratio"] = (ratio(hits, calls[name]), "ratio")
    m["tautilting.probe.lookup_iso_tests"] = (s["probe_lookup_iso_tests"], "count")
    for ns in MEMO_NAMESPACES:
        m[f"algebra.memo.{ns}.entries"] = (s["memo_entries"].get(ns, 0), "count")
    m["cli.import_s"] = (imports["cli.import_s"], "s")
    m["cli.import_sympy_s"] = (imports["cli.import_sympy_s"], "s")
    m["cli.cache.load_s"] = (total_s["cli.cache.load"], "s")
    m["cli.cache.store_s"] = (total_s["cli.cache.store"], "s")
    m["cli.cache.queries"] = (cache_queries, "count")
    m["cli.cache.hit_ratio"] = (ratio(cache_hits, cache_queries), "ratio")
    m["cli.dispatch_s"] = (total_s["cli.dispatch"], "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # this process and every child it starts share one CPU, so the speed
    # probe measures the CPU the work runs on, and a pass's CPU time is time
    # taken from the job, whether it runs here or in a child
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "tautilt" / "__init__.py").is_file():
        print(f"error: no tautilt sources at {SRC}; run from a tautilt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, WORK) if args.workload == "cli" else cls(args.seed)
    try:
        if args.setup_probe:
            print(f"ready {time.perf_counter()!r}", flush=True)
            wl.close()
            os._exit(0)  # the interpreter's teardown is not part of set-up
        if args.trace:
            records, metrics = traced(args, wl)
        else:
            records, metrics = end_to_end(args, wl)
    finally:
        wl.close()
    failed = sum(1 for _, errors in records if errors)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
