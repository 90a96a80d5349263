"""Weak-scaling evidence: 4 CONCURRENT independent 8-cpu Ray processes on
disjoint quarter-shards of the bench corpus vs ONE 8-cpu process on one
shard.

Why this experiment exists: the north rule's criterion is >=0.8 throughput
scaling from N to 4N NODES. This sandbox has one box, and the e2e 8->32-cpu
strong-scaling number on it is dominated by the box's memory bus (BASELINE.md
documents the substrate control). Four INDEPENDENT processes on disjoint
shards are the closest single-box analog of four NODES: each has its own Ray
head, own object store, own quarter of the data, zero engine-level
cross-process communication — exactly like the embarrassingly-parallel
phases of a real 4-node run (phase A extract/geocode, per-shard checkpoint
writes). If the aggregate throughput of the 4-process run is ~4x the single
process, the ENGINE imposes no scaling penalty and whatever shortfall the
strong-scaling number shows is the shared bus/LLC, not the code. The
all-to-all stages (kNN/tiles shuffles) are NOT exercised across processes
here — their cross-node behavior is argued separately via the per-stage
kernel matrix (scripts/scaling_stages.py); this script isolates the
substrate question instead.

Usage:  python scripts/scaling_weak.py            # orchestrates both runs
        (child mode is internal: --child i n out.json)
"""

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CPUS_PER_PROC = 8
N_PROCS = 4
OBJ_STORE = 8 << 30  # 8 GiB per child so 4 heads fit one box


def _quarter(files, i, n):
    return [f for k, f in enumerate(sorted(files)) if k % n == i]


def child(i: int, n: int, out_path: str) -> None:
    import ray

    sys.path.insert(0, REPO)
    ray.init(address="local", num_cpus=CPUS_PER_PROC,
             object_store_memory=OBJ_STORE, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow.parquet as pq

    from core_ray.config import PipelineConfig
    from core_ray.pipelines.flagship import run_flagship
    from core_ray.queries.pages import _pages_corpus

    files, admin, geoip, _ = _pages_corpus(SF_DIR)
    shard = _quarter(files, i, n)
    n_pages = sum(pq.read_metadata(f).num_rows for f in shard)
    ckpt = f"/tmp/core_ray_weak_ckpt_{i}"
    shutil.rmtree(ckpt, ignore_errors=True)
    t0 = time.perf_counter()
    res = run_flagship(shard, admin, geoip, PipelineConfig(),
                       checkpoint_dir=ckpt)
    res.knn.count()
    res.tiles.count()
    wall = time.perf_counter() - t0
    ray.shutdown()
    with open(out_path, "w") as f:
        json.dump({"shard": i, "wall_s": round(wall, 2), "n_pages": n_pages,
                   "pages_per_sec": round(n_pages / wall, 1)}, f)


def _spawn(i: int, out: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__),
         "--child", str(i), str(N_PROCS), out],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def main() -> None:
    # ensure the corpus exists + warm the page cache before ANY timing
    sys.path.insert(0, REPO)
    from core_ray.queries.pages import _pages_corpus

    files, _, _, _ = _pages_corpus(SF_DIR)
    for f in files:
        with open(f, "rb") as fh:
            fh.read()

    # leg 1: ONE 8-cpu process on one quarter (the "N nodes" baseline,
    # per-node view)
    single_out = "/tmp/core_ray_weak_single.json"
    t0 = time.perf_counter()
    p = _spawn(0, single_out)
    p.wait()
    single = json.load(open(single_out))
    print(f"single 8-cpu process, shard 0: {single['wall_s']} s, "
          f"{single['pages_per_sec']} pages/s", flush=True)

    # leg 2: FOUR concurrent 8-cpu processes, disjoint quarters ("4N nodes")
    outs = [f"/tmp/core_ray_weak_c{i}.json" for i in range(N_PROCS)]
    t0 = time.perf_counter()
    procs = [_spawn(i, outs[i]) for i in range(N_PROCS)]
    for p in procs:
        p.wait()
    wall4_outer = time.perf_counter() - t0
    kids = [json.load(open(o)) for o in outs]
    total_pages = sum(k["n_pages"] for k in kids)
    # makespan = the slowest child's INNER wall (run_flagship only) — the
    # single leg's wall is measured the same way, so the comparison
    # excludes ray.init/process-spawn symmetrically; the outer wall is
    # reported too for honesty (it adds ~startup, which a real 4-node
    # cluster pays once, not per job)
    makespan = max(k["wall_s"] for k in kids)
    agg_tput = total_pages / makespan
    eff = agg_tput / (N_PROCS * single["pages_per_sec"])
    print(json.dumps({
        "metric": "weak_scaling_4x8cpu_vs_1x8cpu",
        "single_wall_s": single["wall_s"],
        "single_pages_per_sec": single["pages_per_sec"],
        "concurrent_makespan_s": round(makespan, 2),
        "concurrent_outer_wall_s": round(wall4_outer, 2),
        "concurrent_child_walls": [k["wall_s"] for k in kids],
        "aggregate_pages_per_sec": round(agg_tput, 1),
        "weak_scaling_efficiency": round(eff, 3),
        "per_child_slowdown": round(
            makespan / single["wall_s"], 3),
        "n_procs": N_PROCS, "cpus_per_proc": CPUS_PER_PROC,
    }), flush=True)


if __name__ == "__main__":
    if "--child" in sys.argv:
        i = sys.argv.index("--child")
        child(int(sys.argv[i + 1]), int(sys.argv[i + 2]), sys.argv[i + 3])
    else:
        main()
