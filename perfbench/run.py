#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --plumbing [--workload NAME]

Run from the root of a checkout. The first call configures and builds
perfbench/perfbench.cc against the checkout's sources (Release) into
.bench_build/perfbench; later calls reuse that build.

--trace 0 prints the end-to-end metrics (END_TO_END), --trace 1 the per-layer
metrics of the traced run (PER_LAYER). A table for people comes first; the
last line of stdout is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count Algorithm::Run calls and the runs that failed an
output check. The full report (provenance, effective config of every run,
samples, spans, self times) is written to
.bench_build/perfbench/reports/<workload>-seed<n>-trace<t>.json.

--plumbing runs every workload (or the one named) once at reduced size,
timed and traced, and reports only whether every check passed: no numbers.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

WORKLOADS = ["paper8", "netmax-dense32", "comm-ckpt"]

# name -> unit. Must match BENCHMARK.json (perfbench/test_run.py checks).
END_TO_END = {
    "run_wall_min_s": "s",
    "steps_per_s_max": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_runs_share": "share",
    "sim_time_to_loss_s": "sim_s",
    "final_accuracy": "fraction",
    "wire_bytes": "B",
}

PER_LAYER = {
    "core.harness_init_s": "s",
    "ml.dataset_synth_s": "s",
    "core.build_shards_s": "s",
    "core.finalize_s": "s",
    "ml.grad_step_us": "us",
    "ml.grad_calls": "count",
    "ml.grad_share": "share",
    "ml.optimizer_step_us": "us",
    "core.policy_generate_ms": "ms",
    "core.policy_calls": "count",
    "core.policy_share": "share",
    "linalg.lp_solve_ms": "ms",
    "linalg.lambda2_ms": "ms",
    "linalg.solves_per_generate": "count",
    "net.queue_op_ns": "ns",
    "net.queue_share": "share",
    "net.sim_events_per_s": "1/s",
    "ml.compress_us.topk": "us",
    "ml.compress_us.int8": "us",
    "core.checkpoint_bytes": "B",
    "core.checkpoint_save_s": "s",
    "core.checkpoint_restore_s": "s",
    "core.backend_speedup": "ratio",
    "core.speculation_waste": "ratio",
    "core.window_stalls": "count",
    "core.parallel_batches": "count",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Percentiles tried for the reported tail, highest first.
TAIL_LADDER = [99.9, 99.0, 95.0, 90.0, 75.0]
# The tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# --- statistics ----------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated p-th percentile (0..100) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


def summarize(values):
    """Extremes, median, sample count and the tail percentile of a timing."""
    p = tail_percentile(len(values))
    return {
        "min": min(values),
        "max": max(values),
        "median": percentile(values, 50.0),
        "samples": len(values),
        "tail_p": p,
        "tail": None if p is None else percentile(values, p),
    }


def self_times(spans):
    """Per span id: its duration minus the durations of its direct children."""
    child_time = {}
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return {span["id"]: span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            for span in spans}


def span_table(spans):
    """Per span name: calls, total and self seconds."""
    own = self_times(spans)
    table = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return table


# --- metrics -------------------------------------------------------------------

def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _compress_kind(raw, job):
    return raw["jobs"][job]["config"]["compress"].split(":")[0]


def end_to_end(raw):
    """END_TO_END metrics of a timed run, each with its sample summary.
    Timings come from the timed repetitions; failures count the warm-up too.

    The run time is the fastest repetition's and the rate the highest: the
    host slows every repetition by up to 1.6x for stretches of seconds to
    minutes, so medians move with how much of a run such a stretch covers,
    while the fastest repetition tracks the program's own cost."""
    runs = [r for r in raw["runs"] if r["phase"] == "timed"]
    reps = {}
    for r in runs:
        reps.setdefault(r["rep"], []).append(r)
    walls, rates = [], []
    for rep in sorted(reps):
        batch = reps[rep]
        wall = sum(r["wall_s"] for r in batch)
        walls.append(wall / len(batch))
        steps = sum(r.get("total_local_iterations", 0) for r in batch if not r["restore"])
        rates.append(steps / wall)
    first = [r for r in reps[min(reps)] if not r["restore"] and "final_accuracy" in r]
    failed = sum(1 for r in raw["runs"] if not r["ok"])
    stats = {
        "run_wall_min_s": summarize(walls),
        "steps_per_s_max": summarize(rates),
        "setup_s": summarize(raw["samples"]["setup_s"]),
    }
    values = {
        "run_wall_min_s": stats["run_wall_min_s"]["min"],
        "steps_per_s_max": stats["steps_per_s_max"]["max"],
        "setup_s": stats["setup_s"]["median"],
    }
    # Peak RSS once the first repetition (the warm-up) ends: what one pass
    # over the workload costs. Later ones only add allocator fragmentation.
    first_pass = [r for r in raw["runs"] if r["phase"] == "warmup"] or reps[min(reps)]
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in first_pass)
    values["ok_runs_share"] = (len(raw["runs"]) - failed) / len(raw["runs"])
    # Simulated outcomes repeat exactly across repetitions (checked per run),
    # so the first repetition's values stand for all of them.
    values["sim_time_to_loss_s"] = sum(r["sim_time_to_loss_s"] for r in first)
    values["final_accuracy"] = _mean([r["final_accuracy"] for r in first])
    values["wire_bytes"] = float(sum(r["bytes_sent"] for r in first))
    return values, stats, len(raw["runs"]), failed


def per_layer(raw):
    """PER_LAYER metrics of a traced run, plus the busy-time attribution."""
    runs = raw["runs"]
    phase = lambda name: [r for r in runs if r["phase"] == name]
    med = lambda key: percentile(raw["samples"][key], 50.0)
    # The timed config is serial (threads=1); the parallel repetition runs
    # the same jobs with threads at the affinity core count.
    serial = [r for r in phase("untraced") if not r["restore"]]
    parallel = phase("parallel")
    serial_wall = _mean([r["wall_s"] for r in serial])

    init = med("setup_s")
    finalize = med("core.finalize_s")
    grad = med("ml.grad_step_s")
    opt = med("ml.optimizer_step_s")
    generate = med("core.policy_generate_s")
    lambda2 = med("linalg.lambda2_s")
    queue_op = med("net.queue_op_s")
    compress = {"topk": med("ml.compress_s.topk"), "int8": med("ml.compress_s.int8")}
    solves = raw["counters"]["linalg.solves_per_generate"]

    # Checkpoint cadence on vs off on the first job; ticks estimated from the
    # uncadenced run's virtual duration.
    on = next(r for r in runs if r["job"] == 0 and r["cadence_seconds"] > 0
              and not r["restore"] and r["phase"] in ("traced", "cadence_on"))
    off = next(r for r in runs if r["job"] == 0 and r["cadence_seconds"] == 0
               and r["phase"] in ("traced", "cadence_off"))
    ticks = max(1, math.floor(off["total_virtual_seconds"] / on["cadence_seconds"]))
    save = (on["wall_s"] - off["wall_s"]) / ticks
    restore = next(r for r in runs if r["phase"] == "restore")

    # Estimated busy seconds of each layer in one serial run: one compute
    # event (a queue push + pop) per local step, and on compressed runs one
    # Transform per local step (each step's exchanged gradient or delta).
    parts = {k: [] for k in ("init", "finalize", "grad", "optimizer", "policy",
                             "queue", "compress", "checkpoint")}
    for r in serial:
        steps = r["total_local_iterations"]
        kind = _compress_kind(raw, r["job"])
        parts["init"].append(init)
        parts["finalize"].append(finalize)
        parts["grad"].append(steps * grad)
        parts["optimizer"].append(steps * opt)
        parts["policy"].append(r["policies_generated"] * generate)
        parts["queue"].append(steps * queue_op)
        parts["compress"].append(steps * compress.get(kind, 0.0))
        cadence = r["cadence_seconds"]
        parts["checkpoint"].append(
            math.floor(r["total_virtual_seconds"] / cadence) * save if cadence else 0.0)
    busy = {k: _mean(v) for k, v in parts.items()}
    shares = {k: v / serial_wall for k, v in busy.items()}

    speculated = sum(r["computes_speculated"] for r in parallel)
    values = {
        "core.harness_init_s": init,
        "ml.dataset_synth_s": med("ml.dataset_synth_s"),
        "core.build_shards_s": med("core.build_shards_s"),
        "core.finalize_s": finalize,
        "ml.grad_step_us": grad * 1e6,
        "ml.grad_calls": _mean([r["total_local_iterations"] for r in serial]),
        "ml.grad_share": shares["grad"],
        "ml.optimizer_step_us": opt * 1e6,
        "core.policy_generate_ms": generate * 1e3,
        "core.policy_calls": _mean([r["policies_generated"] for r in serial]),
        "core.policy_share": shares["policy"],
        "linalg.lp_solve_ms": (generate / solves - lambda2) * 1e3,
        "linalg.lambda2_ms": lambda2 * 1e3,
        "linalg.solves_per_generate": solves,
        "net.queue_op_ns": queue_op * 1e9,
        "net.queue_share": shares["queue"],
        "net.sim_events_per_s": med("net.sim_events_per_s"),
        "ml.compress_us.topk": compress["topk"] * 1e6,
        "ml.compress_us.int8": compress["int8"] * 1e6,
        "core.checkpoint_bytes": float(on["checkpoint_bytes"]),
        "core.checkpoint_save_s": save,
        "core.checkpoint_restore_s": restore["wall_s"],
        "core.backend_speedup": sum(r["wall_s"] for r in serial)
                                / sum(r["wall_s"] for r in parallel),
        "core.speculation_waste": (sum(r["computes_redispatched"] for r in parallel)
                                   / speculated if speculated else 0.0),
        "core.window_stalls": _mean([r["window_stalls"] for r in parallel]),
        "core.parallel_batches": _mean([r["parallel_batches"] for r in parallel]),
        "unattributed_s": serial_wall - sum(busy.values()),
        "trace.overhead_s": _mean([r["wall_s"] for r in phase("traced")])
                            - _mean([r["wall_s"] for r in phase("untraced")]),
    }
    attribution = {"serial_run_wall_s": serial_wall, "busy_s": busy, "shares": shares}
    failed = sum(1 for r in runs if not r["ok"])
    return values, attribution, len(runs), failed


# --- build and run -------------------------------------------------------------

def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, plumbing):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if plumbing:
        cmd.append("--plumbing")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        return sha.stdout.strip() or None
    except OSError:
        return None


def report(raw, trace):
    """Metrics, result line and full report of one perfbench invocation."""
    if trace:
        values, detail, attempted, failed = per_layer(raw)
        units = PER_LAYER
    else:
        values, detail, attempted, failed = end_to_end(raw)
        units = END_TO_END
    failures = [{"phase": r["phase"], "rep": r["rep"], "label": r["label"],
                 "errors": r["errors"]} for r in raw["runs"] if not r["ok"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    full = dict(raw)
    full["provenance"] = dict(raw["provenance"], git_sha=git_sha())
    full["metrics"] = result["metrics"]
    full["detail"] = detail
    full["failures"] = failures
    full["span_table"] = span_table(raw["spans"])
    return result, full


def print_table(raw, result, full, trace, out):
    prov = full["provenance"]
    out.write(f"perfbench {raw['workload']} seed={raw['seed']} trace={int(trace)}: "
              f"{prov['affinity_cores']} cores, {prov['cpu_model']}, {prov['compiler']}, "
              f"{prov['build_type']}{' NDEBUG' if prov['ndebug'] else ''}, "
              f"git {prov['git_sha'] or 'unknown'}\n")
    for job in raw["jobs"]:
        c = job["config"]
        out.write(f"  job {job['label']}: {job['algorithm']} workers={c['num_workers']} "
                  f"topology={c['topology']} threads={c['threads']}->{c['resolved_threads']} "
                  f"backend={c['backend']} queue={c['event_queue']} "
                  f"compress={c['compress']}\n")
    stats = full["detail"] if not trace else {}
    for name, metric in result["metrics"].items():
        line = f"  {name:28s} {metric['value']:.6g} {metric['unit']}"
        if name in stats:
            s = stats[name]
            tail = ("no tail (<%d samples beyond p75)" % TAIL_MIN_BEYOND
                    if s["tail_p"] is None else f"p{s['tail_p']:g}={s['tail']:.6g}")
            line += (f"  ({s['samples']} samples: min={s['min']:.6g}, "
                     f"median={s['median']:.6g}, max={s['max']:.6g}, {tail})")
        out.write(line + "\n")
    if trace:
        out.write("  attribution (serial run): " + json.dumps(full["detail"]["shares"]) + "\n")
    out.write(f"  runs: {result['attempted']} attempted, {result['failed']} failed\n")
    for failure in full["failures"]:
        out.write(f"  FAILED {failure}\n")


def plumbing(workloads):
    ok = True
    for workload in workloads:
        for trace in (False, True):
            raw = run_binary(workload, 1, 1, trace, plumbing=True)
            result, full = report(raw, trace)
            line = {"workload": workload, "trace": int(trace),
                    "correct": result["correct"],
                    "metrics": {name: {"value": None, "unit": m["unit"]}
                                for name, m in result["metrics"].items()},
                    "failures": full["failures"]}
            print(json.dumps(line))
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plumbing", action="store_true")
    args = parser.parse_args(argv)
    if not args.plumbing and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.plumbing:
            return plumbing([args.workload] if args.workload else WORKLOADS)
        raw = run_binary(args.workload, args.seed, args.seconds, args.trace, False)
    except (RuntimeError, OSError, ValueError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 2
    result, full = report(raw, args.trace)
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    path = os.path.join(reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(full, f, indent=1)
    print_table(raw, result, full, args.trace, sys.stdout)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
