"""Benchmark driver. Prints ONE JSON line.

  python bench.py            # headline: flagship pages pipeline (pages/sec)
                             # + per-query seconds over $GRAFT_SF_DIR
  python bench.py --scaling  # same flagship job at 8 and 32 CPUs in fresh
                             # processes -> throughput at both + scaling
                             # efficiency (the N vs 4N evidence, BASELINE.md)

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time

from core_ray.queries import QUERIES

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Every registered query is benched except these, each for its reason.
_FLAGSHIP_OUTPUTS = ("reads the flagship outputs over this sf's pages corpus, so it runs "
                     "the flagship the headline already times")
BENCH_EXCLUDED = {
    "pages_joined": _FLAGSHIP_OUTPUTS,
    "pages_tiles": _FLAGSHIP_OUTPUTS,
    "pages_errors": _FLAGSHIP_OUTPUTS,
    "pages_knn": _FLAGSHIP_OUTPUTS,
    "pages_nested": _FLAGSHIP_OUTPUTS,
    "pages_nested2": _FLAGSHIP_OUTPUTS,
    "pages_local_hour": _FLAGSHIP_OUTPUTS,
    "pages_s2_compact": _FLAGSHIP_OUTPUTS,
    "pages_s2_parents": _FLAGSHIP_OUTPUTS,
    "pages_mention_drift": _FLAGSHIP_OUTPUTS,
}
BENCH_QUERIES = [name for name in QUERIES if name not in BENCH_EXCLUDED]


def _consume(result) -> int:
    """Force full execution; return row count."""
    import pyarrow as pa

    if isinstance(result, pa.Table):
        return result.num_rows
    if hasattr(result, "count"):
        return result.count()
    return len(result)


def run_flagship_bench() -> dict:
    import pyarrow.parquet as pq

    from core_ray.config import PipelineConfig
    from core_ray.pipelines.flagship import run_flagship
    from core_ray.queries.pages import _pages_corpus

    files, admin, geoip, _ = _pages_corpus(SF_DIR)  # cached corpus (one-time gen)
    n_pages = sum(pq.read_metadata(f).num_rows for f in files)

    # warm OS page cache (untimed) so we measure compute + shuffle, not disk
    for f in files:
        with open(f, "rb") as fh:
            fh.read()

    ckpt = f"/tmp/core_ray_bench_ckpt_{NUM_CPUS}"
    shutil.rmtree(ckpt, ignore_errors=True)  # always a cold run
    t0 = time.perf_counter()
    res = run_flagship(files, admin, geoip, PipelineConfig(), checkpoint_dir=ckpt)
    knn_rows = res.knn.count()
    tile_rows = res.tiles.count()
    wall = time.perf_counter() - t0
    stage_walls = {}
    for m in sorted(glob.glob(f"{ckpt}/**/manifest.json", recursive=True)):
        j = json.load(open(m))
        key = os.path.relpath(os.path.dirname(m), ckpt)
        stage_walls[key] = j["wall_s"]
    return {
        "wall_s": round(wall, 2),
        "n_pages": n_pages,
        "pages_per_sec": round(n_pages / wall, 1),
        "knn_rows": knn_rows,
        "tile_rows": tile_rows,
        "stage_walls": stage_walls,
        "stats": res.stats,
    }


def main():
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # worker stdout must NOT interleave with the one-line JSON the
        # driver parses (a stray worker print once corrupted the capture)
        log_to_driver=False,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    flagship = run_flagship_bench()

    q_times = {}
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        _consume(QUERIES[name](SF_DIR))
        q_times[name] = round(time.perf_counter() - t0, 2)

    # The driver captures only the stdout TAIL (~2000 chars); r4's full
    # per-query table overflowed it and the round's bench record failed to
    # parse (BENCH_r04.json "parsed": null).  Stdout therefore carries a
    # compact summary (headline queries only, <~600 bytes) and the full
    # per-query table goes to a sidecar file next to this script.
    sidecar = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_QUERIES.json")
    with open(sidecar, "w") as fh:
        json.dump({
            "queries": q_times,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "flagship": flagship,
        }, fh, indent=1, sort_keys=True)

    headline = [
        "geo_pip_admin", "geo_knn_tile", "geo_tile_counts",
        "doc_minhash_pairs", "events_contacts", "q1_pricing_summary",
    ]
    out = {
        "metric": "flagship_spatial_pipeline_wall",
        "value": flagship["wall_s"],
        "unit": "sec",
        "queries": {k: q_times[k] for k in headline if k in q_times},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "pages_per_sec": flagship["pages_per_sec"],
        "n_pages": flagship["n_pages"],
        "stage_walls": flagship["stage_walls"],
        "n_queries_benched": len(q_times),
        "queries_sidecar": "BENCH_QUERIES.json",
    }
    ray.shutdown()
    line = json.dumps(out)
    # hard guarantee: never overflow the driver's tail capture again
    assert len(line) < 1900, f"bench stdout line too long ({len(line)}B)"
    print(line)


def scaling():
    """Run the flagship job at two parallelism levels in fresh processes."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=SF_DIR)
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__) or ".", "bench.py"),
             "--flagship-only"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(json.dumps({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sec_8": t_lo,
        "sec_32": t_hi,
        "pages_per_sec_8": r_lo["pages_per_sec"],
        "pages_per_sec_32": r_hi["pages_per_sec"],
        "sf": SF_DIR,
    }))


def flagship_only():
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    flagship = run_flagship_bench()
    ray.shutdown()
    print(json.dumps({
        "metric": "flagship_spatial_pipeline_wall",
        "value": flagship["wall_s"],
        "unit": "sec",
        "pages_per_sec": flagship["pages_per_sec"],
        "n_pages": flagship["n_pages"],
        "stage_walls": flagship["stage_walls"],
        "num_cpus": NUM_CPUS,
        "sf": SF_DIR,
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--flagship-only" in sys.argv:
        flagship_only()
    else:
        main()
