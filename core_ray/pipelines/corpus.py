"""Composed corpus-curation pipeline: the end-to-end training-data flow a
user of the reference would run over a web corpus, built entirely from the
engine's own stages:

    documents
      -> near-dup dedup   (MinHash-LSH pairs -> connected components ->
                           keep each cluster's min-id representative;
                           byte-identical duplicates collapse inside the
                           same machinery via the exact-text star pairs)
      -> quality filter   (Gopher-style repetition + length gates,
                           vectorized per batch, zero shuffles)
      -> tercile buckets  (CCNet-style head/middle/tail by global
                           QUANTILE_CONT thresholds from a distributed
                           value->count histogram)
      -> partitioned write (one directory per bucket — resumable output;
                           a failed run skips finished partitions)

Every stage is the same code path the driver-checked queries pin
(doc_dedup_keep, doc_repetition, doc_quality_buckets), so the composition
is oracle-checked end-to-end by queries.doc_curated. Stats are per-stage
row counts — the lineage record a 100-TB run writes next to its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.collect import collect_table


@dataclass
class CurationResult:
    curated: object  # ray.data.Dataset[(doc_id, lang, bucket, ...)]
    stats: dict = field(default_factory=dict)


def _bucket_thresholds(ds) -> tuple[float, float]:
    """Global QUANTILE_CONT tercile thresholds of n_chars via a distributed
    value->count histogram (same contract as queries.doc_quality_buckets)."""
    from core_ray.stages.agg import count_by_u64, histogram_quantile_cont

    hist = count_by_u64(
        ds.map_batches(
            lambda b: pa.table({"key": pc.cast(b["n_chars"], pa.uint64())}),
            batch_format="pyarrow",
            batch_size=65536,
        ),
        "key",
    )
    h = collect_table(hist)
    vals = h["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = h["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    return (
        histogram_quantile_cont(vals, cnts, 1.0 / 3.0),
        histogram_quantile_cont(vals, cnts, 2.0 / 3.0),
    )


def curate_corpus(ds, out_dir: str | None = None, *,
                  near_dup_threshold: float = 0.5,
                  min_words: int = 25,
                  max_top_word_frac: float = 0.12,
                  clusters=None) -> CurationResult:
    """Dataset[documents(doc_id, text, lang, n_chars, ...)] -> curated
    Dataset[(doc_id, lang, bucket)] (+ partitioned parquet when ``out_dir``
    is given). The drop set (non-representative near-dup members) leaves
    the curated rows by an anti stages/join.lookup_join: bounded by the
    number of PAIRED docs in the common case, it broadcasts; a 50 %-duplicate
    crawl makes it too big, and then it never reaches the driver
    (distributed anti hash join, equivalence-tested)."""
    from core_ray.stages.cc import connected_components
    from core_ray.stages.join import lookup_join
    from core_ray.text.analysis import repetition_fractions
    from core_ray.text.dedup import minhash_near_dups

    stats: dict = {"n_input": ds.count()}

    # ---- near-dup (and exact-dup, via star pairs) drop set; callers with
    # a precomputed / cached cluster table (queries/doc_dedup.py
    # _dup_clusters) pass it in to skip re-running the minhash -> banding -> pairs -> CC chain
    if clusters is None:
        pairs = minhash_near_dups(ds, threshold=near_dup_threshold)
        clusters = connected_components(pairs, src="id_a", dst="id_b")
    drop_ds = clusters.map_batches(
        lambda b: pa.table(
            {"doc_id": b["node"].filter(pc.not_equal(b["node"], b["comp"]))}
        ),
        batch_format="pyarrow",
    ).materialize()  # counted here, measured and consumed by lookup_join
    stats["n_dropped_dups"] = int(drop_ds.count())

    # ---- bucket thresholds over the FULL corpus (pre-filter, so the
    # bucket meaning is stable as filter knobs move)
    t1, t2 = _bucket_thresholds(ds)
    stats["bucket_thresholds"] = (t1, t2)

    def curate(b: pa.Table) -> pa.Table:
        """One streaming pass: quality gates + bucket."""
        from core_ray.rounding import sql_round_np

        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        n_words, topw, _ = repetition_fractions(b["text"])
        frac = sql_round_np(
            topw.astype(np.float64) / np.maximum(n_words, 1).astype(np.float64), 6
        )
        keep = (n_words >= min_words) & (frac <= max_top_word_frac)
        c = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.where(c <= t1, "tail", np.where(c <= t2, "middle", "head"))
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "lang": b["lang"].filter(pa.array(keep)),
                "bucket": pa.array(bucket[keep], pa.string()),
            }
        )

    curated = lookup_join(
        ds.map_batches(curate, batch_format="pyarrow", batch_size=4096),
        drop_ds, on="doc_id", how="anti",
        left_schema=pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()), ("bucket", pa.string())]
        ),
    )

    if out_dir is not None:
        curated.write_parquet(
            out_dir, partition_cols=["bucket"], min_rows_per_file=32768
        )
        import ray.data

        curated = ray.data.read_parquet(out_dir)
    else:
        # one execution total: stats count and downstream consumers share
        # the materialized blocks instead of re-running the curation pass
        curated = curated.materialize()
    stats["n_curated"] = curated.count()
    return CurationResult(curated=curated, stats=stats)
