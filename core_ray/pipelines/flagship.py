"""Flagship pipeline: pages parquet -> joined / errors / knn / tiles / stats.

The Ray Data restatement of the reference's Scan lifecycle (SURVEY.md §3.1)
over the spatial workload (§7.1 dataflow):

  Phase A (sharded, map-only, resumable):
      read_parquet (pruned: url, warc_ts, html, lang — the stored ``text`` is
      never read; the engine recomputes it and tests assert byte-identity)
      -> ONE task-based map, analyze_batch_task (stages/analyzer.py), which
         chains per batch:
           ExtractText  (html -> text, drops html immediately)
           -> Geocoder  (cascade; geo-IP dict)
           -> CellEncoder (hex res-7 + s2 level-12)
           -> PipJoin   (STRtree; deepest-wins)
         the side tables ride the UDF by value; each worker process caches
         its built analyzer keyed on their fingerprint (sides_fp)
      -> checkpoint  <ckpt>/phaseA/shard-K   (per-shard lineage manifest;
         finished shards are SKIPPED on rerun; a shard's fingerprint is its
         page files' (path, size, mtime), so a touched file reruns its shard)

  Phase B (global, wide), keyed on phase A's OUTPUT: its fingerprint is the
  sum of the shard checkpoints' row digests (state/lineage.py), so a shard
  that recomputes to the same rows (a re-fetched or copied file, a phase-A
  version bump that changes no row) reruns no wide stage — the early cutoff
  of build systems:
      the shard checkpoints, opened together as one Dataset
      -> exact dedup by (url, mention_idx)   [one key-hash shuffle; carries
         text exactly once — equivalent to page-level dedup because duplicate
         pages produce byte-identical geocoded rows]
      -> checkpoint "deduped"
      -> joined (source != none) / errors (source == none)
      -> kNN per hex cell (ring-1 expansion, salted hot cells)   } three
      -> tile rollup z in {7, 9, 12}                            } concurrent
      -> stats (map-side partial counts summed on the driver,   } executions
         the ScanStats/ConfidenceDist analog, scanner.go:102-125; kept in a
         small record beside the checkpoints, so a resumed run does not
         recount them)

A resumed phase B opens only what it returns: the deduped checkpoint (for
joined / errors), and the kNN and tiles checkpoints. Their inputs are read
only when they compute: the phase-A shards are opened (once, as one
Dataset over every completed shard's part files) only when dedup
recomputes, so an mtime-only delta whose shard recomputes to the same rows
opens no phase-A checkpoint at all. Every checkpoint open is a manifest
read (state/lineage.py ``read_parts``), not a ``read_parquet``.

Every stage version is pinned below; bumping one invalidates exactly the
checkpoints it feeds (state/lineage.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa

from core_ray.config import PipelineConfig
from core_ray.stages.knn import knn_per_cell
from core_ray.stages.tiles import tile_rollup
from core_ray.state.lineage import (
    CheckpointStore,
    combine_digests,
    fingerprint_config,
    fingerprint_paths,
    fingerprint_table,
)

# phaseA 4: manifests carry the row digest phase B is keyed on
STAGE_VERSIONS = {"phaseA": 4, "deduped": 3, "knn": 2, "tiles": 2, "stats": 1}

# config fields each stage's OUTPUT depends on (state/lineage.py
# fingerprint_config): resuming with a changed knob recomputes exactly the
# stages that knob feeds. stage_sel_phase_a covers the phase-A stage toggles
# ONLY (s2-encode/pip) — skipping knn or tiles must not invalidate phase A.
_PHASE_A_CFG = ("max_html_bytes", "hex_res", "s2_level", "stage_sel_phase_a",
                "include_patterns", "exclude_patterns")
_KNN_CFG = _PHASE_A_CFG + ("knn_k", "hot_cell_threshold", "salt_group_target")
_TILES_CFG = _PHASE_A_CFG + ("tile_zooms",)


@dataclass
class FlagshipResult:
    joined: Any
    errors: Any
    knn: Any
    tiles: Any
    stats: dict = field(default_factory=dict)


def _sides_fp(admin_table: pa.Table, geoip_table: pa.Table) -> str:
    return fingerprint_table(admin_table) + fingerprint_table(geoip_table)


def _phase_a(page_files: list[str], geoip_table: pa.Table, admin_table: pa.Table,
             sides_fp: str, cfg: PipelineConfig):
    """One fused per-document stage.

    TASK-based (not an actor pool); per-worker state is cached across tasks,
    keyed on ``sides_fp`` (stages/analyzer.py::analyze_batch_task). The side
    tables ride the map UDF by value. The read does NOT fuse with
    the analyze map: ``Dataset.stats()`` lists ``ReadParquet->SplitBlocks``
    and ``MapBatches(analyze_batch_task)->Write`` as separate operators, so
    the read's blocks, ``html`` included, pass through the object store once.
    Measured 2x faster and ~2.1x 8->32 scaling vs the actor-pool variant,
    whose extra plasma round-trips of html saturated single-node memory
    bandwidth."""
    import functools

    import ray
    import ray.data

    from core_ray.stages.analyzer import analyze_batch_task

    # block sizing: the default split (row-group x batching granularity)
    # produced ~12 tiny blocks per file — per-task overhead dominated the
    # fused read+analyze (measured 3.7–5.5 s/shard vs 3.0–3.4 s at ~2 blocks
    # per cpu). Cap blocks at 2x cluster CPUs (floored at the file count so
    # every file still reads in parallel on a bigger cluster).
    n_blocks = max(2 * int(ray.cluster_resources().get("CPU", 8)), len(page_files))
    ds = ray.data.read_parquet(
        page_files,
        columns=["url", "warc_ts", "html", "lang"],
        override_num_blocks=n_blocks,
    )
    fn = functools.partial(
        analyze_batch_task,
        geoip_table=geoip_table,
        admin_table=admin_table,
        sides_fp=sides_fp,
        max_html_bytes=cfg.max_html_bytes,
        hex_res=cfg.hex_res,
        s2_level=cfg.s2_level,
        stage_sel=cfg.stage_sel_phase_a,
    )
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=cfg.extract_batch_size)


def _stats_pass(deduped) -> dict:
    """One map-only execution computing all ScanStats-analog counters:
    per-source row counts + page counts (each page has exactly one
    mention_idx==0 row), folded per source by ``agg.fold_table``."""
    import pyarrow.compute as pc

    from core_ray.stages.agg import fold_table

    def pages(b: pa.Table) -> pa.Table:
        return pa.table(
            {"derivation_source": b["derivation_source"], "page": pc.equal(b["mention_idx"], 0)}
        )

    t = fold_table(
        deduped.select_columns(["derivation_source", "mention_idx"])
        .map_batches(pages, batch_format="pyarrow", batch_size=None),
        "derivation_source",
        {"rows": (None, "count"), "pages": ("page", "sum")},
    )
    per_src = {}
    if t.num_rows:
        per_src = dict(zip(
            t["derivation_source"].to_pylist(), zip(t["rows"].to_pylist(), t["pages"].to_pylist())
        ))
    _err_srcs = ("none", "oversize")
    hist = {s: p for s, (r, p) in per_src.items() if s not in _err_srcs}
    rows_no_signal = per_src.get("none", (0, 0))[0]
    pages_oversize = per_src.get("oversize", (0, 0))[1]
    return {
        "rows_geocoded": sum(r for s, (r, p) in per_src.items() if s not in _err_srcs),
        "rows_no_signal": rows_no_signal,
        "pages_oversize": pages_oversize,
        "pages_deduped": sum(hist.values()) + rows_no_signal + pages_oversize,
        "derivation_source_hist": hist,
    }


def scan_files(
    page_files: list[str],
    admin_table: pa.Table,
    geoip_table: pa.Table,
    cfg: PipelineConfig | None = None,
    checkpoint_dir: str | None = None,
):
    """Incremental re-run entry point — the ScanFiles analog (reference
    pkg/parser/scanner.go:224-270: callers re-process a supplied file
    subset). (Re)processes ONLY ``page_files`` through phase A and returns
    their per-mention rows (including the 'none'/'oversize' error-as-data
    rows) as one Dataset.

    Each file is its own checkpoint shard keyed by a path digest: repeated
    calls skip unchanged files entirely, and a changed file (new
    size/mtime) invalidates exactly its own shard — the changed-shard
    resume granularity run_flagship's round-robin shards can't offer."""
    import hashlib

    cfg = cfg or PipelineConfig()
    checkpoint_dir = checkpoint_dir or cfg.checkpoint_dir
    if checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="core_ray_scan_")
    store = CheckpointStore(checkpoint_dir)
    sides_fp = _sides_fp(admin_table, geoip_table)
    cfg_fp = fingerprint_config(cfg, _PHASE_A_CFG) + sides_fp

    shards = []
    for f in sorted(page_files):
        shard = hashlib.sha256(f.encode()).hexdigest()[:12]
        fp = fingerprint_paths([f]) + "+" + cfg_fp
        store.ensure(
            "scanfiles",
            STAGE_VERSIONS["phaseA"],
            fp,
            lambda f=f: _phase_a([f], geoip_table, admin_table, sides_fp, cfg),
            shard=shard,
        )
        shards.append(shard)
    # one Dataset over every file's parts ("nothing changed" -- no files --
    # is a legitimate incremental call and gives an empty Dataset)
    return store.load("scanfiles", shards)


def run_flagship(
    page_files: list[str],
    admin_table: pa.Table,
    geoip_table: pa.Table,
    cfg: PipelineConfig | None = None,
    checkpoint_dir: str | None = None,
    n_shards: int | None = None,
    deadline_s: float | None = None,
) -> FlagshipResult:
    """Run the flagship pipeline. Ray must already be initialized.

    ``deadline_s``: soft deadline — the context-deadline analog (reference
    pkg/parser/scanner.go:161-167, 211-219: partial inventory + sentinel).
    Checked between phase-A shards: when exceeded, remaining shards are
    SKIPPED and phases B+ run over the shards that did finish; the result
    carries ``stats['timed_out']=True`` and ``stats['shards_done']``. At
    least one shard always completes, and already-checkpointed shards are
    reused, so successive deadline-bounded runs make monotonic progress."""
    # warm lazy fsspec imports on the main thread: concurrent first-touch
    # from the phase-B threads (checkpoint writer, kNN / tiles / stats) races
    # Python's import machinery (observed as a spurious ImportError inside
    # ray.data path resolution)
    try:  # pragma: no cover
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        pass

    cfg = cfg or PipelineConfig()
    if cfg.include_patterns or cfg.exclude_patterns:
        from core_ray.sources.patterns import filter_paths

        page_files = filter_paths(
            page_files, cfg.include_patterns, cfg.exclude_patterns,
            root=cfg.pattern_root,
        )
    if not page_files:
        raise ValueError("run_flagship: page_files is empty (no pages parquet found)")
    checkpoint_dir = checkpoint_dir or cfg.checkpoint_dir
    if checkpoint_dir is None:
        import tempfile

        checkpoint_dir = tempfile.mkdtemp(prefix="core_ray_ckpt_")
    store = CheckpointStore(checkpoint_dir)

    # --- phase A: sharded map-only, per-shard resume. Shards run
    # SEQUENTIALLY, each as one task-fused streaming execution that already
    # saturates the node; concurrent shard executions measured
    # pathologically slow under contention. ---
    from concurrent.futures import ThreadPoolExecutor

    n_shards = n_shards or min(len(page_files), 4)
    shards = [sorted(page_files)[i::n_shards] for i in range(n_shards)]
    shards = [s for s in shards if s]

    # side tables + config are INPUTS: fold them into every stage fingerprint
    # so a changed polygon set / geoip map / knob invalidates its checkpoints
    sides_fp = _sides_fp(admin_table, geoip_table)
    phase_a_cfg_fp = fingerprint_config(cfg, _PHASE_A_CFG) + sides_fp
    import time as _time

    t_start = _time.monotonic()
    # phase B's input: the completed shards and the row digests their
    # manifests record; the shards are opened only if dedup recomputes
    done, shard_digests = [], []
    timed_out = False
    # shards run in order, one at a time, so the completed set is always
    # shards[0..n): a deadline-bounded run never poisons a later resume
    for k, files in enumerate(shards):
        if (
            deadline_s is not None
            and done  # at least one shard always completes
            and (_time.monotonic() - t_start) > deadline_s
        ):
            timed_out = True
            break
        fp = fingerprint_paths(files) + "+" + phase_a_cfg_fp
        manifest = store.ensure(
            "phaseA",
            STAGE_VERSIONS["phaseA"],
            fp,
            lambda files=files: _phase_a(files, geoip_table, admin_table, sides_fp, cfg),
            str(k),
        )
        done.append(str(k))
        shard_digests.append(manifest["digest"])

    # --- phase B: global dedup (one hash shuffle, stages/dedup.py) ---
    from core_ray.stages.dedup import dedup_exact

    # keyed on the rows phase A produced for the shards that ran (so a
    # partial, deadline-bounded run never poisons a later full run's
    # resume), not on the files' stats: a shard recomputed to the same rows
    # leaves every phase-B fingerprint unchanged. The digest sum does not
    # depend on how files were assigned to shards.
    input_fp = combine_digests(shard_digests) + "+" + phase_a_cfg_fp
    ckpt_writer = None
    deduped_from_ckpt = store.is_complete("deduped", STAGE_VERSIONS["deduped"], input_fp)
    if deduped_from_ckpt:
        deduped = store.load("deduped")
    else:
        # compute once into the object store; the parquet checkpoint is
        # written by a BACKGROUND thread while knn/tiles/stats consume the
        # materialized copy — the write leaves the critical path but still
        # completes before run_flagship returns (resume semantics intact)
        all_rows = store.load("phaseA", done)  # every completed shard, one Dataset
        deduped = dedup_exact(all_rows, ["url", "mention_idx"], order_col="warc_ts").materialize()
        ckpt_writer = ThreadPoolExecutor(max_workers=1).submit(
            store.save, deduped, "deduped", STAGE_VERSIONS["deduped"], input_fp
        )

    joined = deduped.filter(
        expr="derivation_source != 'none' and derivation_source != 'oversize'"
    )

    def _as_error_rows(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_over = pc.equal(t["derivation_source"], "oversize")
        return pa.table(
            {
                "url": t["url"],
                "phase": pc.if_else(is_over, pa.scalar("extract"), pa.scalar("geocode")),
                "reason": pc.if_else(
                    is_over, pa.scalar("max-html-bytes"), pa.scalar("no-geo-signal")
                ),
            }
        )

    errors = (
        deduped.filter(expr="derivation_source == 'none' or derivation_source == 'oversize'")
        .map_batches(_as_error_rows, batch_format="pyarrow")
    )

    # knn, tiles and stats all read only the deduped rows, and each runs at
    # most one shuffle (kNN's hot-cell plan and the stats fold map-side):
    # their executions always run concurrently, on any cluster size
    # (independent sub-DAGs sharing the cluster; at 2 CPUs each execution is
    # latency-bound, so overlapping them is what shortens phase B).
    # On RESUME runs the checkpoint read is COLUMN-PRUNED per consumer (the
    # wide text column must never be decoded for knn/tiles) and opened only
    # by a consumer that computes; on cold runs the materialized in-memory
    # blocks are selected instead (no decode).
    def _joined_narrow(columns: list[str]):
        src = (
            store.load("deduped", columns=columns + ["derivation_source"])
            if deduped_from_ckpt
            else deduped
        )
        return src.filter(
            expr="derivation_source != 'none' and derivation_source != 'oversize'"
        ).select_columns(columns)

    knn_fp = input_fp + "+" + fingerprint_config(cfg, _KNN_CFG)
    tiles_fp = input_fp + "+" + fingerprint_config(cfg, _TILES_CFG)

    def _knn():
        return store.load_or_compute(
            "knn",
            STAGE_VERSIONS["knn"],
            knn_fp,
            lambda: knn_per_cell(
                _joined_narrow(["url", "mention_idx", "lat", "lon", "hex_cell"]),
                k=cfg.knn_k,
                hot_threshold=cfg.hot_cell_threshold,
                salt_target=cfg.salt_group_target,
                cell_res=cfg.hex_res,
            ),
        )

    def _tiles():
        return store.load_or_compute(
            "tiles",
            STAGE_VERSIONS["tiles"],
            tiles_fp,
            lambda: tile_rollup(_joined_narrow(["url", "lat", "lon"]), cfg.tile_zooms),
        )

    def _empty():
        import ray.data

        return ray.data.from_items([])

    # stage toggles (WithDomainHints-analog opt-outs): a skipped wide stage
    # computes nothing and leaves no checkpoint; re-enabling recomputes it
    # (fingerprints are unchanged by OTHER stages' toggles)
    if not cfg.stage_enabled("knn"):
        _knn = _empty
    if not cfg.stage_enabled("tiles"):
        _tiles = _empty

    # the stats record lives under the deduped stage's fingerprint and
    # version: it is a function of the deduped rows alone
    stats_fp = f"{input_fp}+deduped{STAGE_VERSIONS['deduped']}"
    cached_stats = store.load_record("stats", STAGE_VERSIONS["stats"], stats_fp)

    def _stats():
        if cached_stats is not None:
            return cached_stats
        stats = _stats_pass(
            store.load("deduped", columns=["derivation_source", "mention_idx"])
            if deduped_from_ckpt
            else deduped
        )
        store.save_record("stats", STAGE_VERSIONS["stats"], stats_fp, stats)
        return stats

    with ThreadPoolExecutor(max_workers=3) as pool:
        knn_f = pool.submit(_knn)
        tiles_f = pool.submit(_tiles)
        stats_f = pool.submit(_stats)
        knn, tiles, stats = knn_f.result(), tiles_f.result(), stats_f.result()
    if ckpt_writer is not None:
        ckpt_writer.result()  # checkpoint durable before returning
    stats["timed_out"] = timed_out
    stats["shards_done"] = f"{len(done)}/{len(shards)}"
    return FlagshipResult(joined=joined, errors=errors, knn=knn, tiles=tiles, stats=stats)
