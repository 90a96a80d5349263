"""Benchmark entry point.

    python3 perfbench/run.py --workload flagship_cold --seed 42 --seconds 10 --trace 0

Run from the root of a checkout. Workloads: flagship_cold, flagship_delta,
query_mix (README.md says why each exists). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` additionally runs the traced pass and
prints the per-layer metrics. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The workload itself runs in a child process (``--attempt``), so that a Ray
session aborting the process that started it costs one failed operation and
a fresh start instead of the whole result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flagship_cold", "flagship_delta", "query_mix")
RUN_BUDGET_S = 100.0  # no new rep or pass starts after this; the run must end by 180 s
ATTEMPT_EXTRA_S = 50.0  # an attempt's traced part and teardown after its budget
RETRY_MIN_BUDGET_S = 30.0  # enough for set-up and one rep or pass


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one attempt in this process and write its result here
    ap.add_argument("--attempt", help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, default=RUN_BUDGET_S, help=argparse.SUPPRESS)
    return ap.parse_args()


def _counted(trace: bool, fn):
    """Run ``fn()``; when tracing, count its Ray Data executions (the only
    hook installed during the untraced reps). Returns (result, executions)."""
    if not trace:
        return fn(), 0
    from perfbench.trace import Tracer

    counter = Tracer()
    counter.count_executions()
    try:
        return fn(), counter.count["ray_data.executions"]
    finally:
        counter.uninstall()


def _flagship(kind: str, seed: int, seconds: float, trace: bool, work: str, session,
              deadline: float, t_start: float):
    from perfbench import flagship, layers
    from perfbench.harness import median

    session.start()
    corpus, warm_ckpt = flagship.prepare(kind, work, seed)
    setup_s = time.perf_counter() - t_start
    # a traced run reports no end-to-end metric: its untraced reps only give
    # the baseline for trace.overhead_s, so --seconds of them suffice
    min_reps = 1 if trace else flagship.MIN_REPS
    reps, executions = _counted(trace, lambda: flagship.measure(
        kind, corpus, warm_ckpt, work, seconds, deadline, min_reps))
    good = [r for r in reps if r.ok] or reps
    wall = median(r.wall_s for r in good)
    metrics = {
        "setup_s": setup_s, "wall_s": wall, "pages_per_s": corpus.n_pages / wall,
        "cpu_s": median(r.cpu_s for r in good),
        "peak_rss_mb": median(r.peak_rss_mb for r in good),
        # one operation per rep, and a handful of reps leave no sample beyond
        # a 90th percentile: both report the median rep
        "query_s.p50": wall, "query_s.p90": wall,
    }
    ok = [r.ok for r in reps]
    correct = not any(r.wrong for r in reps) and any(ok)
    if trace and not reps[-1].outcome.timed_out:
        metrics = layers.flagship_layers(kind, corpus, warm_ckpt, work, len(reps), wall,
                                         executions / len(reps))
    return metrics, correct, len(ok), ok.count(False)


def _query_mix(seconds: float, trace: bool, work: str, deadline: float, t_start: float):
    from perfbench import layers, querymix
    from perfbench.harness import median, percentile

    tbl = querymix.Tables(work)
    one_time_s = time.perf_counter() - t_start
    passes = querymix.measure(tbl, work, "count" if trace else "none", seconds, deadline)
    runs = [r for p in passes for r in p.runs]
    times = [r.seconds for r in runs if r.ok] or [r.seconds for r in runs]
    wall = median(p.wall_s for p in passes)
    doc_s = median(sum(r.seconds for r in p.runs if r.query.startswith("doc_")) for p in passes)
    n_doc_queries = sum(1 for q, _ in querymix.MIX if q.startswith("doc_"))
    metrics = {
        "setup_s": one_time_s + median(p.setup_s for p in passes),
        "wall_s": wall,
        "pages_per_s": querymix.N_DOCS * n_doc_queries / doc_s if doc_s else 0.0,
        "cpu_s": median(p.cpu_s for p in passes),
        "peak_rss_mb": median(p.peak_rss_mb for p in passes),
        "query_s.p50": median(times), "query_s.p90": percentile(times, 90),
    }
    ok = [r.ok for r in runs]
    correct = not any(r.why == "wrong answer" for r in runs) and any(ok)
    if trace and all(ok):
        metrics = layers.query_layers(tbl, work, passes, wall, deadline)
    return metrics, correct, len(ok), ok.count(False)


def _attempt(args, work: str) -> int:
    """One attempt at the workload, in this process (a child of the run):
    writes its result to ``args.attempt``."""
    from perfbench.harness import RaySession, adopt_orphans, reap_children

    t_start = time.perf_counter()
    adopt_orphans()
    session = RaySession(work)
    deadline = time.monotonic() + args.budget
    try:
        if args.workload == "query_mix":
            # fixed reference tables: --seed does not change query_mix's inputs
            metrics, correct, attempted, failed = _query_mix(
                args.seconds, bool(args.trace), work, deadline, t_start)
        else:
            metrics, correct, attempted, failed = _flagship(
                args.workload, args.seed, args.seconds, bool(args.trace), work, session,
                deadline, t_start)
    finally:
        session.stop()
        reap_children()
    with open(args.attempt, "w") as f:
        json.dump({"metrics": metrics, "correct": correct, "attempted": attempted,
                   "failed": failed}, f)
    return 0


def _spawn_attempt(args, work: str, budget_s: float) -> dict | None:
    """Run one attempt in a child process; None if it died without a result
    (a Ray session can abort the process that started it: Ray 2.49.2 once
    failed a check in its task manager, "Tried to complete task that was
    not pending", on a loaded host)."""
    from perfbench.harness import reap_children

    out = os.path.join(work, "attempt.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--attempt", out, "--budget", str(budget_s)]
    child = subprocess.Popen(cmd, stdout=sys.stderr.fileno(), start_new_session=True)
    try:
        child.wait(timeout=budget_s + ATTEMPT_EXTRA_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    reap_children()
    try:
        with open(out) as f:
            return json.load(f)
    except OSError:
        return None


def main() -> int:
    args = _args()
    if not os.path.isfile(os.path.join(ROOT, "core_ray", "pipelines", "flagship.py")):
        print(f"no core_ray package under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_units()
    sys.path.insert(0, ROOT)
    from perfbench.harness import configure_env, host_context, log, reap_children

    work = os.path.join(ROOT, "perfbench", ".work")
    if args.attempt:
        return _attempt(args, work)
    t0 = time.monotonic()
    shutil.rmtree(work, ignore_errors=True)
    configure_env(ROOT, work)
    result, crashes = None, 0
    try:
        # a crashed attempt counts as one failed operation; the workload then
        # starts over once in a fresh process and Ray session
        while result is None and crashes < 2:
            budget_s = RUN_BUDGET_S - (time.monotonic() - t0)
            if crashes and budget_s < RETRY_MIN_BUDGET_S:
                break
            result = _spawn_attempt(args, work, budget_s)
            if result is None:
                crashes += 1
                log(f"attempt {crashes} died without a result")
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        log("no attempt finished; no result")
        return 1
    metrics = result["metrics"]
    attempted, failed = result["attempted"] + crashes, result["failed"] + crashes
    host = host_context()
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    units = per_layer if args.trace else end_to_end
    # a layer the workload does not use reads 0; so does every layer when
    # the traced part is skipped after a failed operation
    metrics = {k: metrics.get(k, 0.0) for k in units}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host,
                      "crashed_attempts": crashes}))
    print(json.dumps({
        "correct": bool(result["correct"]), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
