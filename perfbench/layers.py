"""Per-layer metrics for ``--trace 1`` runs. Each function returns the
layers its workload exercises; run.py reports every other per-layer metric
as 0.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time

from perfbench import flagship, querymix
from perfbench.harness import call_with_timeout, median
from perfbench.trace import PRIMITIVES, Tracer, covered_s

_PRIMITIVE_KEYS = [f"{name}.{k}" for _, _, name in PRIMITIVES for k in ("calls", "s")]


def phase_a_kernels(corpus: flagship.Corpus, files: list[str]) -> dict[str, float]:
    """Time the pruned read alone, then each phase-A class's ``__call__`` in
    the benchmark process over the same rows, in batches of
    ``extract_batch_size``."""
    import pyarrow.compute as pc
    import ray.data

    from core_ray.collect import collect_table
    from core_ray.config import PipelineConfig
    from core_ray.stages.cellencode import CellEncoder
    from core_ray.stages.extract import ExtractText
    from core_ray.stages.geocode import Geocoder
    from core_ray.stages.pip import PipJoin

    cfg = PipelineConfig()
    m = {}
    t0 = time.perf_counter()
    ds = ray.data.read_parquet(files, columns=["url", "warc_ts", "html", "lang"]).materialize()
    m["read.s"] = time.perf_counter() - t0
    m["read.bytes"] = ds.size_bytes()
    pages = collect_table(ds)
    geoip = dict(zip(corpus.geoip["host"].to_pylist(),
                     zip(corpus.geoip["lat"].to_pylist(), corpus.geoip["lon"].to_pylist())))
    stages = [("extract", ExtractText(cfg.max_html_bytes)), ("geocode", Geocoder(geoip)),
              ("cellencode", CellEncoder(cfg.hex_res, cfg.s2_level)),
              ("pip", PipJoin(corpus.admin))]
    secs = {name: 0.0 for name, _ in stages}
    out = {}
    for off in range(0, pages.num_rows, cfg.extract_batch_size):
        batch = pages.slice(off, cfg.extract_batch_size)
        for name, stage in stages:
            t0 = time.perf_counter()
            batch = stage(batch)
            secs[name] += time.perf_counter() - t0
            out.setdefault(name, []).append(batch)

    def count(name, pred=None) -> int:
        return sum(b.num_rows if pred is None else pc.sum(pred(b)).as_py() or 0
                   for b in out[name])

    m.update({f"{name}.s": s for name, s in secs.items()})
    m["extract.pages"] = pages.num_rows
    m["extract.oversize"] = count("extract", lambda b: pc.is_null(b["text"]))
    m["geocode.rows_out"] = count("geocode")
    m["geocode.no_signal_rows"] = count("geocode", lambda b: pc.equal(b["derivation_source"], "none"))
    m["cellencode.rows"] = count("cellencode")
    m["pip.points"] = count("pip", lambda b: pc.is_valid(b["lat"]))
    m["pip.matched"] = count("pip", lambda b: pc.is_valid(b["admin_id"]))
    return m


def _manifest_rows(ckpt: str, pattern: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(ckpt, pattern, "manifest.json")):
        with open(path) as f:
            total += json.load(f)["rows"]
    return total


def flagship_layers(kind: str, corpus: flagship.Corpus, warm_ckpt: str, work: str,
                    n_reps: int, untraced_wall: float, executions: float) -> dict[str, float]:
    """Phase-A kernels over the pages the traced rep recomputes, then one
    traced rep: all pages into a fresh checkpoint dir (cold), or one bumped
    page file's shard resumed from the warm-up build (delta)."""
    m = {}
    if kind == "flagship_cold":
        ckpt = os.path.join(work, "ckpt-traced")
        files = corpus.files
    else:
        ckpt = warm_ckpt
        touched = n_reps % len(corpus.files)
        flagship.bump_mtime(corpus.files[touched], n_reps)
        n_shards = min(len(corpus.files), 4)  # run_flagship's default sharding
        files = corpus.files[touched % n_shards::n_shards]
    m.update(phase_a_kernels(corpus, files))

    tracer = Tracer()
    tracer.install()
    try:
        out = call_with_timeout(lambda: corpus.run(ckpt), flagship.REP_TIMEOUT_S)
    finally:
        tracer.uninstall()
    if not out.ok:
        raise RuntimeError(f"traced rep failed: {out.error or 'timeout'}")
    c = tracer.count
    for key in ("phase_a.s", "phase_a.cpu_s", "phase_a.shards_run", "phase_a.shards_reused",
                "dedup.s", "knn.s", "knn.cpu_s", "knn.rows_in", "knn.hot_cells",
                "knn.max_cell_rows", "tiles.s", "stats.s", "state.bytes_written",
                "state.bytes_read", *_PRIMITIVE_KEYS):
        m[key] = c[key]
    m["state.save_s"] = c["state.save.s"]
    m["state.load_s"] = c["state.load.s"]
    m["dedup.rows_in"] = _manifest_rows(ckpt, "phaseA/shard-*")
    m["dedup.rows_out"] = _manifest_rows(ckpt, "deduped")
    m["knn.pairs_out"] = _manifest_rows(ckpt, "knn")
    m["tiles.rows_out"] = _manifest_rows(ckpt, "tiles")
    m["ray_data.executions"] = executions
    m["trace.wall_s"] = out.seconds
    m["trace.overhead_s"] = out.seconds - untraced_wall
    # the union of all spans includes the tracer's own time (trace.self_s),
    # so this is the wall minus program spans minus the tracer's own work
    m["trace.self_s"] = c["trace.self.s"]
    m["flagship.unattributed_s"] = out.seconds - covered_s((s, e) for _, s, e in tracer.spans)
    if kind == "flagship_cold":
        shutil.rmtree(ckpt, ignore_errors=True)
    return m


def query_layers(tbl: querymix.Tables, work: str, passes: list, untraced_wall: float,
                 deadline: float) -> dict[str, float]:
    """Family walls and Ray Data executions from the untraced passes, then
    one traced pass for the shuffle primitives."""
    m = {}
    for fam in querymix.FAMILIES:
        m[f"queries.{fam}.s"] = median(
            sum(r.seconds for r in p.runs if querymix.family_of(r.query) == fam) for p in passes)
    m["queries.ppjoin_family.s"] = median(
        sum(r.seconds for r in p.runs if r.query in querymix.PPJOIN) for p in passes)
    m["ray_data.executions"] = median(p.count.get("ray_data.executions", 0) for p in passes)
    traced = querymix.run_pass(tbl, work, "full", deadline)
    for key in _PRIMITIVE_KEYS:
        m[key] = traced.count.get(key, 0.0)
    m["trace.wall_s"] = traced.wall_s
    m["trace.overhead_s"] = traced.wall_s - untraced_wall
    return m
