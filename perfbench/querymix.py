"""The ``query_mix`` workload: a fixed, ordered list of registered queries
over the reference sf0.01 tables (``perfbench/reftables``), every answer
checked against the query's registered DuckDB oracle
(``core_ray.compare``). ``MIX`` records why each query is in it; README.md
has the workload-level reasons.

Each pass runs in a fresh child process with its own Ray session
(``python3 -m perfbench.querymix``). ``core_ray.queries`` keeps result
caches keyed by the Ray job id, and the first job of every new session in
one process gets the same id: a second session in the same process reuses
the first one's cached object refs (``events_contacts`` then fails with
"owner is unknown") and skips cached work.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

import pyarrow as pa

from perfbench.harness import ProcMeter, RaySession, call_with_timeout, log, reap_children

# The reference tables at sf 0.01 (seed 42): 60 k lineitem rows, 10 k
# events, 500 documents, 500 embeddings. The directory name must not parse
# as a scale factor: at "sf0.01" core_ray.queries writes goldens under /tmp.
REF_TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reftables")
TABLES = ("region", "nation", "customer", "supplier", "part", "orders", "lineitem",
          "events", "documents", "embeddings")
N_DOCS = 500
QUERY_TIMEOUT_S = 30.0
ORACLE_TIMEOUT_S = 30.0

# (query, why). The order is fixed; each pass runs all of them.
MIX = [
    ("q1_pricing_summary", "scan + per-batch combiner + tiny groupby: the narrow baseline"),
    ("q10_returned_revenue", "hash_join + sum_by_u64 over three tables"),
    ("q13_cust_order_dist", "count_by_u64 over every order"),
    ("q17_small_qty_revenue", "hash_join against part + sum_by_u64"),
    ("q21_sole_supplier", "map_groups_partitioned over lineitem"),
    ("events_sessionize", "map_groups_partitioned per user (sessions)"),
    ("events_funnel", "map_groups_partitioned with per-user ordering"),
    ("events_contacts", "stjoin space-time band join + count_by_u64"),
    ("doc_token_stats", "map-only text kernel: per-document cost floor"),
    ("doc_exact_dedup", "exact text dedup (hash + groupby)"),
    ("doc_ngram_novelty", "map_groups_partitioned + hash_join on n-grams"),
    ("doc_minhash_pairs", "MinHash LSH near-duplicate pairs"),
    ("doc_dup_clusters", "cc (connected components) over the MinHash pairs"),
    ("doc_cross_lingual_dup", "MinHash pairs joined back to documents"),
    ("doc_allpairs_jaccard", "PPJoin all-pairs: the slowest query family"),
    ("doc_span_dup_fraction", "PPJoin family: duplicated spans"),
    ("doc_shingle_containment", "PPJoin family: shingle containment"),
    ("doc_winnow_overlap", "PPJoin family: winnowing + hash_join + count_by_u64"),
    ("geo_tile_counts", "count_by_u64 over tile keys"),
    ("geo_distance_pairs", "distband grid band join"),
    ("geo_tile_regions", "cc + hash_join + count_by_u64 over tiles"),
    ("emb_near_dup_pairs", "LSH-banded near-duplicate vector pairs"),
    ("emb_kmeans", "iterative k-means: one Ray Data execution per iteration"),
]
FAMILIES = ("tpch", "events", "doc", "geo", "emb")
PPJOIN = ("doc_allpairs_jaccard", "doc_span_dup_fraction", "doc_shingle_containment",
          "doc_winnow_overlap")
# Registered queries left out of the mix, with the reason.
EXCLUDED = {
    "emb_pagerank": "its oracle reads a golden that core_ray.queries builds with private "
                    "code and writes under /tmp; the benchmark writes only inside its checkout",
    "emb_ann_lsh": "correct, but ~3.9 s per pass (a sixth of a pass); "
                   "emb_near_dup_pairs covers LSH banding",
    "geo_dbscan": "correct, but ~2.8 s per pass; geo_distance_pairs and the cc queries "
                  "cover its band join and components",
    "geo_haversine_pairs": "correct, but its DuckDB oracle takes ~8 s per run",
    "emb_topk": "correct, but ~3.5 s of actor-pool start-up per pass",
    "geo_pip_admin": "correct, but ~4.9 s per pass, mostly actor-pool start-up; the "
                     "flagship's phase A runs the same PipJoin",
    "cust_orders_full_outer": "correct, but ~1.9 s per pass; q10 and q17 cover hash_join",
    "doc_simhash_pairs": "correct, but ~1.6 s per pass; doc_minhash_pairs covers near-dup pairs",
    "emb_dup_clusters": "correct, but its DuckDB oracle takes ~2 s per run; "
                        "doc_dup_clusters and geo_tile_regions cover cc",
}
_GOLDEN_REF = re.compile(r"read_parquet\('[^']*/(\w+\.parquet)'\)")


def family_of(query: str) -> str:
    """doc / events / geo / emb by name prefix; the TPC-H-style rest is tpch."""
    prefix = query.split("_", 1)[0]
    return prefix if prefix in FAMILIES else "tpch"


def write_goldens(tables_dir: str, out: str) -> None:
    """The golden files some oracles read back, built with the same
    ``core_ray.fixtures.docs_golden`` calls and parameters core_ray uses for
    its sf0.01 goldens, into ``out`` instead of /tmp."""
    import pyarrow.parquet as pq

    from core_ray.fixtures import docs_golden as dg

    os.makedirs(out, exist_ok=True)
    docs = pq.read_table(os.path.join(tables_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ids, texts = docs["doc_id"].to_pylist(), docs["text"].to_pylist()
    emb = pq.read_table(os.path.join(tables_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    mh = dg.golden_minhash_pairs(ids, texts, threshold=0.5)
    for name, table in (("minhash_pairs", mh), ("dup_clusters", dg.golden_dup_clusters(mh)),
                        ("kmeans", dg.golden_kmeans(emb))):
        pq.write_table(table, os.path.join(out, f"{name}.parquet"))


class Tables:
    """The reference tables plus each query's oracle answer."""

    def __init__(self, work: str):
        from core_ray.compare import run_oracle
        from core_ray.queries import ORACLE_SQL

        self.dir = REF_TABLES
        golden = os.path.join(work, "golden")
        write_goldens(self.dir, golden)
        self.oracle = {}
        for query, _ in MIX:
            sql = _GOLDEN_REF.sub(lambda m: f"read_parquet('{golden}/{m.group(1)}')",
                                  ORACLE_SQL[query])
            missing = [f for f in _GOLDEN_REF.findall(sql)
                       if not os.path.exists(os.path.join(golden, f))]
            if missing:
                raise RuntimeError(f"oracle for {query} reads goldens not built: {missing}")
            out = call_with_timeout(lambda: run_oracle(sql, self.dir), ORACLE_TIMEOUT_S)
            if not out.ok:
                raise RuntimeError(f"oracle for {query}: {out.error or 'timeout'}")
            self.oracle[query] = out.value
        for name in TABLES:
            with open(os.path.join(self.dir, f"{name}.parquet"), "rb") as fh:
                fh.read()  # into the page cache


class QueryRun:
    def __init__(self, query: str, seconds: float, ok: bool, why: str = ""):
        self.query, self.seconds, self.ok, self.why = query, seconds, ok, why


class Pass:
    def __init__(self):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.runs: list[QueryRun] = []
        self.count: dict[str, float] = {}


def run_pass(tbl: Tables, work: str, tracer: str, deadline: float) -> Pass:
    """Run one pass in a child process and check its answers. Set-up is the
    time from spawning the child until its Ray session is warm; the queries,
    including collecting each answer as an Arrow table, are the timed work. A
    query that fails or times out, and every query a timeout leaves unrun,
    counts as failed."""
    from core_ray.compare import compare

    out = os.path.join(work, f"pass-{time.monotonic_ns()}")
    os.makedirs(out)
    t_spawn = time.time()
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.querymix", "--tables", tbl.dir, "--work", work,
         "--out", out, "--tracer", tracer],
        stdout=sys.stderr.fileno(), start_new_session=True)
    killed = False
    try:
        child.wait(timeout=max(1.0, deadline - time.monotonic() + 20.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        killed = True
    reap_children()
    p = Pass()
    try:
        with open(os.path.join(out, "pass.json")) as f:
            report = json.load(f)
    except OSError:
        if not killed:  # run.py counts the crash and starts the workload over
            raise RuntimeError(f"query pass died with code {child.returncode}") from None
        report = {"ready": time.time(), "cpu_s": 0.0, "peak_rss_mb": 0.0, "runs": [], "count": {}}
    p.setup_s = report["ready"] - t_spawn
    p.cpu_s, p.peak_rss_mb, p.count = report["cpu_s"], report["peak_rss_mb"], report["count"]
    for query, seconds, error in report["runs"]:
        if error:
            p.runs.append(QueryRun(query, seconds, False, error))
            continue
        with pa.memory_map(os.path.join(out, f"{query}.arrow")) as src:
            answer = pa.ipc.open_file(src).read_all()
        ok = compare(answer, tbl.oracle[query])["ok"]
        p.runs.append(QueryRun(query, seconds, ok, "" if ok else "wrong answer"))
    for query, _ in MIX[len(p.runs):]:
        p.runs.append(QueryRun(query, 0.0, False, "not run: the pass timed out"))
    p.wall_s = sum(r.seconds for r in p.runs)
    for r in p.runs:
        log(f"query {r.query}: {r.seconds:.3f} s" + ("" if r.ok else f" FAILED: {r.why}"))
    return p


def measure(tbl: Tables, work: str, tracer: str, seconds: float, deadline: float) -> list[Pass]:
    passes: list[Pass] = []
    t0 = time.monotonic()
    while not passes or (time.monotonic() - t0 < seconds and time.monotonic() < deadline):
        passes.append(run_pass(tbl, work, tracer, deadline))
    return passes


# ---------------------------------------------------------------- child


def _warm_session() -> None:
    """Start the workers and import the engine in them before timing."""
    import ray.data

    def touch(b):
        import core_ray.queries  # noqa: F401

        return b

    ray.data.range(4, override_num_blocks=2).map_batches(touch).materialize()


def _child(tables_dir: str, work: str, out: str, tracer_mode: str) -> None:
    """One pass: fresh Ray session, warm-up, then every query in order.
    ``tracer_mode``: none, count (Ray Data executions only) or full."""
    from core_ray.compare import to_arrow
    from core_ray.queries import QUERIES
    from perfbench.trace import Tracer

    session = RaySession(work)
    session.start()
    tracer = Tracer()
    runs = []
    try:
        _warm_session()
        ready = time.time()
        if tracer_mode == "full":
            tracer.install()
        elif tracer_mode == "count":
            tracer.count_executions()
        with ProcMeter() as meter:
            for query, _ in MIX:
                fn = QUERIES[query]
                res = call_with_timeout(lambda: to_arrow(fn(tables_dir)), QUERY_TIMEOUT_S)
                runs.append([query, res.seconds, None if res.ok else (res.error or "timeout")])
                if res.ok:
                    with pa.OSFile(os.path.join(out, f"{query}.arrow"), "wb") as sink:
                        with pa.ipc.new_file(sink, res.value.schema) as w:
                            w.write_table(res.value)
                if res.timed_out:
                    break
    finally:
        tracer.uninstall()
        session.stop()
    with open(os.path.join(out, "pass.json"), "w") as f:
        json.dump({"ready": ready, "cpu_s": meter.cpu_s,
                   "peak_rss_mb": meter.peak_bytes / 2**20, "runs": runs,
                   "count": dict(tracer.count)}, f)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Run one query_mix pass (used by run.py).")
    ap.add_argument("--tables", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tracer", choices=("none", "count", "full"), default="none")
    a = ap.parse_args()
    _child(a.tables, a.work, a.out, a.tracer)
