"""Exact dedup by key in one hash shuffle.

The corpus-level exact dedup the reference lacks (SURVEY.md §2.7 O4 — the geo
engine adds it). Naive ``groupby(key).map_groups(first)`` calls Python once
per key, and even ``groupby(key).count()`` reduces Python-side per distinct
key in Ray Data (see stages/agg.py). Instead, one execution:

  1. a map hashes each key tuple to a uint64 ``__key_hash`` column;
  2. ONE ``agg.map_groups_partitioned`` shuffle on that hash co-locates
     every copy of a key, so each partition decides alone, with no count
     pass and no broadcast;
  3. inside a partition, rows whose hash occurs once stream through
     untouched; rows whose hash repeats (actual duplicates + rare hash
     collisions — both small by corpus contract) go through an EXACT
     first-wins lexsort over the real key columns, so a hash collision
     between two distinct keys keeps both — never loses rows.

First-wins tie-break: min ``order_col`` (warc_ts), then input order within
the partition — duplicate rows in the fixture corpus are byte-identical so
any-wins is equivalent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned, u64_key_of_url_midx


def _row_hashes(batch: pa.Table, key_cols: list[str]) -> np.ndarray:
    if key_cols == ["url", "mention_idx"]:
        return u64_key_of_url_midx(
            batch["url"].to_pylist(),
            batch["mention_idx"].to_numpy(zero_copy_only=False),
        )
    import zlib

    cols = [batch[c].to_pylist() for c in key_cols]
    return np.fromiter(
        (zlib.crc32(repr(t).encode()) * 0x9E3779B9 & 0xFFFFFFFFFFFFFFFF for t in zip(*cols)),
        dtype=np.uint64,
        count=batch.num_rows,
    )


def _first_per_key(part: pa.Table, key_cols: list[str], order_col: str) -> pa.Table:
    """Exact first-wins over the real key columns: lexsort by (keys,
    order_col) and keep each key's first row."""
    if part.num_rows <= 1:
        return part
    arrays = []
    for c in reversed([*key_cols, order_col]):
        col = part[c]
        if pa.types.is_timestamp(col.type):
            arrays.append(col.cast(pa.int64()).to_numpy(zero_copy_only=False))
        elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            arrays.append(np.asarray(col.to_pylist()))
        else:
            arrays.append(col.to_numpy(zero_copy_only=False))
    order = np.lexsort(tuple(arrays))  # last array (= first sort col) primary
    first = np.ones(len(order), dtype=bool)
    changed = np.zeros(len(order) - 1, dtype=bool)
    for a in arrays[-len(key_cols):]:
        s = a[order]
        changed |= s[1:] != s[:-1]
    first[1:] = changed
    return part.take(pa.array(order[first]))


def dedup_exact(ds, key_cols: list[str], order_col: str = "warc_ts"):
    """Dataset -> Dataset with one row per distinct key tuple (min
    ``order_col`` wins); one map + one hash shuffle (module docstring)."""

    def key_hash(b: pa.Table) -> pa.Table:
        return b.append_column("__key_hash", pa.array(_row_hashes(b, key_cols), pa.uint64()))

    def dedup_part(part: pa.Table) -> pa.Table:
        h = part["__key_hash"].to_numpy(zero_copy_only=False)
        part = part.drop_columns(["__key_hash"])
        _, inverse, counts = np.unique(h, return_inverse=True, return_counts=True)
        repeated = counts[inverse] > 1
        if not repeated.any():
            return part
        return pa.concat_tables([
            part.filter(pa.array(~repeated)),
            _first_per_key(part.filter(pa.array(repeated)), key_cols, order_col),
        ])

    return map_groups_partitioned(
        ds.map_batches(key_hash, batch_format="pyarrow", batch_size=16384),
        "__key_hash", dedup_part,
    )
