#!/usr/bin/env python3
"""Host-time benchmark of the Polygeist-GPU reproduction.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/worker (dune), then runs passes over the workload's jobs
in a closed loop with one client: each pass is a fresh worker process, and
processes run one at a time. A job is one program on one target; the next
job starts when the previous one ends. The seed and the pass index shuffle
job order, so each pass runs the jobs in another order and a run averages
over the effects one job has on the next (heap, caches).

Workloads:
  compile-sweep  23 programs x {a100, rx6800}, 11 coarsening specs, compile only
  tune-gpu       5 quick-suite programs on a100: compile, tuned run, history append
  retarget-cpu   the same 5 programs on the cpu target at --jobs 2

A run makes round(S / nominal pass time) passes, so every run of a workload
measures the same work and its percentiles are taken over the same number
of samples. With --trace 0 the end-to-end metrics are printed; with
--trace 1 one untraced pass is followed by traced passes, and the
per-layer metrics are printed together with the tracing overhead.

Correctness: tuned outputs are checked against the CPU reference, every
job's digest (closed module hash, kept alternatives, output bits,
composite bits, TDO choices) must equal the first pass's, and tuned jobs
are compared with bench/baselines/quick.json. Any failure makes
"correct" false and the exit code 1.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORKER = "perfbench/worker/pbworker.exe"
OUT_DIR = "perfbench/_out"

# name -> (seconds one pass takes on a 2-core x86-64 VM, worker --jobs)
WORKLOADS = {
    "compile-sweep": (5.5, 1),
    "tune-gpu": (2.9, 1),
    "retarget-cpu": (1.9, 2),
}

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "programs_per_s": "jobs/s",
    "compile_ms_gm": "ms",
    "compile_ms_tail": "ms",
    "job_ms_gm": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here; run from the root of a checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + WORKER],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    except FileNotFoundError:
        fail("dune not found")
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed")
    return os.path.join("_build", "default", WORKER)


def spawn(exe, args):
    """Run one worker to completion. Returns (output JSON or None,
    spawn time on the monotonic clock in ns, peak RSS in MB, stderr)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "worker.out")
    err_path = os.path.join(OUT_DIR, "worker.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t_spawn = time.monotonic_ns()
        p = subprocess.Popen([exe] + args, stdout=out, stderr=err)
        # block in wait4 (its rusage has the child's peak RSS); a timer
        # kills a worker that hangs
        timer = threading.Timer(WORKER_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as f:
        err_text = f.read()
    result = None
    if p.returncode == 0:
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        if lines:
            result = json.loads(lines[-1])
    return result, t_spawn, rusage.ru_maxrss / 1024.0, err_text


class Pass:
    def __init__(self, out, t_spawn, rss_mb):
        self.out = out
        self.rss_mb = rss_mb
        self.setup_s = (out["t_first_job_ns"] - t_spawn) / 1e9
        self.duration_s = (out["t_end_ns"] - out["t_first_job_ns"]) / 1e9
        self.results = out["results"]


def pass_seed(seed, k):
    """Job-order seed of pass k of a run with the given seed."""
    return seed * 1000 + k


def run_passes(exe, workload, seed, traced_flags, budget_s):
    """One worker per entry of traced_flags, one at a time. No pass
    starts once budget_s is spent (after the first two), so a slow
    machine shortens a run instead of overrunning it. Returns (traced,
    Pass) pairs, with None for a worker that failed."""
    obs = os.path.join(OUT_DIR, "obs")
    passes = []
    start = time.monotonic()
    for k, traced in enumerate(traced_flags):
        if len(passes) >= 2 and time.monotonic() - start > budget_s:
            break
        shutil.rmtree(obs, ignore_errors=True)
        order = str(pass_seed(seed, k))
        out, t_spawn, rss, err = spawn(exe, [workload, order, "1" if traced else "0", obs])
        if out is None:
            sys.stderr.write(err[-4000:])
        passes.append((traced, out and Pass(out, t_spawn, rss)))
    shutil.rmtree(obs, ignore_errors=True)
    return passes


def setup_samples(exe, workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        out, t_spawn, _, err = spawn(exe, [workload, str(seed), "0", OUT_DIR, "setup-only"])
        if out is None:
            sys.stderr.write(err[-4000:])
            fail("setup probe failed")
        samples.append((out["t_first_job_ns"] - t_spawn) / 1e9)
    return samples


def check_jobs(passes):
    """Failed jobs: those that reported an error, and those whose digest
    differs from the first pass's digest of the same job."""
    first = {}
    failed = []
    for p in passes:
        for r in p.results:
            key = (r["bench"], r["target"])
            errors = list(r["errors"])
            digest = r.get("digest")
            if key not in first:
                first[key] = digest
            elif digest != first[key]:
                errors.append("diverged from the first pass")
            if errors:
                failed.append("%s/%s: %s" % (key[0], key[1], "; ".join(errors)))
    return failed


def ms_values(passes, field):
    return [r[field] / 1e6 for p in passes for r in p.results if field in r]


def typical_ms(passes, field):
    """Geometric mean over the jobs of each job's median time over the
    passes. Unlike the median of all samples, it does not jump between
    two programs when their times overlap."""
    by_job = {}
    for p in passes:
        for r in p.results:
            if field in r:
                by_job.setdefault((r["bench"], r["target"]), []).append(r[field] / 1e6)
    return statistics.geometric_mean(statistics.median(v) for v in by_job.values())


def tail_metric(values, p):
    return statistics.median(values) if p is None else stats.percentile(values, p)


def end_to_end(passes, setups, tail_p):
    """End-to-end metrics. Tails are taken at tail_p, the percentile the
    planned sample count supports, so that every run of a workload
    reports the same percentile."""
    compile_ms = ms_values(passes, "compile_ns")
    job_ms = ms_values(passes, "job_ns")
    metrics = {
        "setup_s": statistics.median(setups),
        "programs_per_s": statistics.median(
            len(p.results) / (sum(r["job_ns"] for r in p.results) / 1e9) for p in passes
        ),
        "compile_ms_gm": typical_ms(passes, "compile_ns"),
        "compile_ms_tail": tail_metric(compile_ms, tail_p),
        "job_ms_gm": typical_ms(passes, "job_ns"),
        "job_ms_tail": tail_metric(job_ms, tail_p),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    notes = [
        "compile_ms_tail and job_ms_tail are p%s of %d samples each" % (tail_p, len(job_ms)),
        "compile_ms_gm and job_ms_gm are geometric means over %d jobs of per-job medians"
        % len(passes[0].results),
        "setup_s is the median of %d worker starts" % len(setups),
    ]
    tune_ms = ms_values(passes, "run_ns")
    if tune_ms:
        tune_tail = tail_metric(tune_ms, tail_p)
        composite = statistics.geometric_mean(
            r["composite_s"] * 1e6 for r in passes[0].results if "composite_s" in r
        )
        insts = sum(r.get("warp_insts", 0) for p in passes for r in p.results)
        notes += [
            "tune_ms_p50 %.4f ms" % statistics.median(tune_ms),
            "tune_ms_tail %.4f ms (p%s of %d samples)" % (tune_tail, tail_p, len(tune_ms)),
            "sim_minst_per_s %.4f Minst/s" % (insts / 1e6 / (sum(tune_ms) / 1e3)),
            "sim_tuned_geomean_us %.17g us (bits %s)"
            % (composite, float(composite).hex()),
        ]
    return metrics, notes


REPLAY_STEPS = (
    "alternatives.coarsen",
    "alternatives.cleanup",
    "target.analyze",
    "target.occupancy",
    "analysis.check",
)


def ratio(num, den):
    return num / den if den else 0.0


def pass_layers(p):
    """Per-layer metrics of one traced pass: times are self time per job
    in ms, counts are totals over the pass."""
    spans = p.out["spans"]
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    total, self_ns, calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        total[s[0]] = total.get(s[0], 0) + (s[2] - s[1])
        self_ns[s[0]] = self_ns.get(s[0], 0) + st
        calls[s[0]] = calls.get(s[0], 0) + 1
    jobs = len(p.results)

    def self_ms(name):
        return self_ns.get(name, 0) / 1e6 / jobs

    def count(field):
        return sum(r.get(field, 0) for r in p.results)

    m = {}
    m["frontend.ms"] = self_ms("frontend")
    m["ir.verify.ms"] = self_ms("ir.verify")
    m["ir.ops_scalar"] = count("ops_scalar")
    m["ir.ops_expanded"] = count("ops_expanded")
    for t in ("canonicalize", "cse", "licm", "dce", "barrier_elim"):
        m["transforms.%s.ms" % t] = self_ms("transforms." + t)
    m["alternatives.expand.ms"] = self_ms("alternatives.expand")
    m["alternatives.coarsen.ms"] = self_ms("alternatives.coarsen")
    m["alternatives.cleanup.ms"] = self_ms("alternatives.cleanup")
    m["alternatives.candidates"] = count("candidates")
    m["alternatives.kept"] = count("kept")
    m["alternatives.kept_ratio"] = ratio(m["alternatives.kept"], m["alternatives.candidates"])
    m["alternatives.rejected_racy"] = count("rejected_racy")
    m["alternatives.rejected_duplicate"] = count("rejected_duplicate")
    hits = count("memo_hits")
    m["alternatives.memo_hit_ratio"] = ratio(hits, hits + count("memo_misses"))
    m["alternatives.replay_coverage"] = ratio(
        sum(total.get(s, 0) for s in REPLAY_STEPS), total.get("alternatives.expand", 0)
    )
    m["target.analyze.ms"] = self_ms("target.analyze")
    m["target.analyze.calls"] = calls.get("target.analyze", 0)
    m["target.occupancy.ms"] = self_ms("target.occupancy")
    m["analysis.check.ms"] = self_ms("analysis.check")
    m["analysis.check.calls"] = calls.get("analysis.check", 0)
    m["analysis.check.share"] = ratio(total.get("analysis.check", 0), total.get("compile", 0))
    m["runtime.run_cold.ms"] = self_ms("runtime.run_cold")
    m["runtime.run_warm.ms"] = self_ms("runtime.run_warm")
    # a warm run skips every TDO trial, so the difference is trial time
    m["runtime.tdo.trial_ms"] = m["runtime.run_cold.ms"] - m["runtime.run_warm.ms"]
    m["runtime.tdo.trial_share"] = ratio(m["runtime.tdo.trial_ms"], m["runtime.run_cold.ms"])
    m["runtime.tdo.searches"] = count("searches")
    m["runtime.launches"] = count("launches")
    m["runtime.searches_per_launch"] = ratio(m["runtime.tdo.searches"], m["runtime.launches"])
    m["runtime.warm_sim_time_mismatches"] = sum(
        1 for r in p.results if r.get("warm_composite_same") is False
    )
    m["gpusim.warp_insts"] = count("warp_insts")
    m["gpusim.blocks"] = count("blocks")
    m["gpusim.minst_per_s"] = ratio(count("warm_warp_insts") / 1e6, count("warm_ns") / 1e9)
    m["cache.tdo.misses"] = count("searches")
    m["cache.tdo.hits"] = count("warm_hits")
    m["obs.append_ms"] = self_ms("obs.append")
    m["obs.compare_ms"] = self_ms("obs.compare")
    return m


def per_layer(traced, untraced):
    """Medians over the traced passes of pass_layers, plus the pool,
    the GC figures of the untraced pass and the tracing overhead."""
    layers = [pass_layers(p) for p in traced]
    m = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    m["pool.spawn_ms"] = statistics.median(p.out["pool_spawn_ms"] for p in traced + untraced)
    m["pool.effective_jobs"] = traced[0].out["effective_jobs"]
    gc = untraced[0].out["gc"]
    m["gc.minor_mwords"] = gc["minor_words"] / 1e6
    m["gc.promoted_mwords"] = gc["promoted_words"] / 1e6
    m["gc.major_collections"] = gc["major_collections"]
    m["gc.top_heap_mb"] = gc["top_heap_words"] * 8 / 2**20
    base = untraced[0].duration_s
    overhead = statistics.median(p.duration_s for p in traced) - base
    m["trace.overhead_ms"] = overhead * 1e3
    m["trace.overhead_share"] = overhead / base
    return m


PER_LAYER_UNITS = {
    "ir.ops_scalar": "count",
    "ir.ops_expanded": "count",
    "alternatives.candidates": "count",
    "alternatives.kept": "count",
    "alternatives.kept_ratio": "share",
    "alternatives.rejected_racy": "count",
    "alternatives.rejected_duplicate": "count",
    "alternatives.memo_hit_ratio": "share",
    "alternatives.replay_coverage": "share",
    "target.analyze.calls": "count",
    "analysis.check.calls": "count",
    "analysis.check.share": "share",
    "runtime.tdo.trial_share": "share",
    "runtime.tdo.searches": "count",
    "runtime.launches": "count",
    "runtime.searches_per_launch": "share",
    "runtime.warm_sim_time_mismatches": "count",
    "gpusim.warp_insts": "count",
    "gpusim.blocks": "count",
    "gpusim.minst_per_s": "Minst/s",
    "cache.tdo.misses": "count",
    "cache.tdo.hits": "count",
    "pool.effective_jobs": "count",
    "gc.minor_mwords": "Mwords",
    "gc.promoted_mwords": "Mwords",
    "gc.major_collections": "count",
    "gc.top_heap_mb": "MB",
    "trace.overhead_share": "share",
}


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name, "ms")


def verdict_line(passes):
    v = {"unchanged": 0, "improved": 0, "regressed": 0, "added": 0}
    for p in passes:
        for k in v:
            v[k] += p.out["verdicts"][k]
    return "baseline bench/baselines/quick.json, tdo keys over %d passes: %s" % (
        len(passes),
        ", ".join("%d %s" % (v[k], k) for k in v),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    nominal, jobs = WORKLOADS[args.workload]
    passes_n = max(1, round(args.seconds / nominal))
    tuned = args.workload != "compile-sweep"
    flags = [False] + [True] * max(1, passes_n // 3) if args.trace else [False] * passes_n
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    try:
        ran = run_passes(exe, args.workload, args.seed, flags, args.seconds)
        setups = [] if args.trace else setup_samples(exe, args.workload, args.seed)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    passes = [p for _, p in ran if p is not None]
    if not passes:
        fail("every worker failed")
    jobs_per_pass = len(passes[0].results)
    attempted = jobs_per_pass * len(ran)
    failures = check_jobs(passes)
    failed = len(failures) + jobs_per_pass * (len(ran) - len(passes))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "rev": passes[0].out["rev"],
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "pool_size": passes[0].out["pool_size"],
        "effective_jobs": passes[0].out["effective_jobs"],
        "passes": len(ran),
        "traced_passes": sum(1 for t, _ in ran if t),
        "jobs_per_pass": jobs_per_pass,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for k, (t, p) in enumerate(ran):
        if p is not None:
            print(
                "pass %d%s: %.3f s, setup %.2f ms, peak RSS %.1f MB"
                % (k, " traced" if t else "", p.duration_s, p.setup_s * 1e3, p.rss_mb)
            )
    for f in failures:
        print("FAILED " + f)
    print("failed_ratio %.4f share (%d of %d jobs)" % (failed / attempted, failed, attempted))
    if tuned:
        print(verdict_line(passes))

    if args.trace:
        untraced = [p for t, p in ran if p is not None and not t]
        traced = [p for t, p in ran if p is not None and t]
        if not traced or not untraced:
            fail("no traced or untraced pass completed")
        metrics = per_layer(traced, untraced)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        tail_p = stats.tail_percentile(passes_n * jobs_per_pass)
        metrics, notes = end_to_end(passes, setups + [p.setup_s for p in passes], tail_p)
        units = END_TO_END_UNITS
        for n in notes:
            print("note " + n)
    for k, v in metrics.items():
        print("%-36s %16.6f %s" % (k, v, units[k]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
