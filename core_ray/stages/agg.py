"""The engine's one hash-partition shuffle, and the per-key folds built on it.

Ray Data's built-in ``groupby().aggregate()`` reduce iterates Python-side per
distinct key (measured: 24 s for 656 k rows / 300 k distinct keys in one
partition, vs 0.2 s for the sort itself), and ``groupby(key).map_groups``
pays ~1.4 ms of Python per group. For high-cardinality keys the engine
therefore co-locates rows by a HASH of the key instead:

    map_batches(tag: __part = hash(key) % n_parts)   # fuses into the map before it
    -> groupby(__part).map_groups(fn)                # ONE sort shuffle, P Python calls

``map_groups_partitioned`` is the only place that computes that partition
column; every key-hash shuffle in the engine goes through it, so the
partition count and the hash live in one function. Integer keys hash as
uint64, string/binary keys through ``hash_strings``; composite keys are
packed or hashed into one uint64 column by the caller. Collisions only
co-locate extra rows: ``fn`` always compares real key values.

The per-key folds (``count_by_u64``, ``sum_by_u64``, ``fsum_by_u64``,
``min_by_u64``, ``max_by_u64``) are one combiner over that primitive: a
per-batch fold (no shuffle) shrinks the rows to one per key and batch, and
the same fold runs once per partition after the shuffle. Both use one
kernel, an argsort plus ``ufunc.reduceat`` (``_reduce_by_key``).

The swap to native Ray Data (``repartition(keys=…)`` / ``Dataset.join``
under the hash-shuffle strategy) was measured and not taken: both hung at
``num_cpus`` 1–2, where the hash-shuffle aggregator actors reserve the only
CPUs (ROADMAP direction 5). That swap is now a change to this one function.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _n_parts(default: int = 32) -> int:
    try:
        import ray

        return max(4 * int(ray.cluster_resources().get("CPU", 8)), default)
    except Exception:
        return default


def _is_bytes_like(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_fixed_size_binary(t))


def map_groups_partitioned(ds, key_col: str, partition_fn):
    """``groupby(key).map_groups(fn)`` for HIGH-CARDINALITY keys:
    hash-partition by ``key_col`` (integer, string or binary) and invoke
    ``partition_fn`` ONCE per partition. It receives every key's rows
    co-located (the input columns, without the partition tag) and handles
    the per-key segments itself — numpy slices, not per-group slicing."""
    n_parts = _n_parts()

    def tag(b: pa.Table) -> pa.Table:
        col = b[key_col]
        if _is_bytes_like(col.type):
            k = hash_strings(col)
        else:
            k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        return b.append_column(
            "__part", pa.array(((k * _GOLD) % np.uint64(n_parts)).astype(np.int32), pa.int32())
        )

    def run(g: pa.Table) -> pa.Table:
        return partition_fn(g.drop_columns(["__part"]))

    # Ray Data names the map_groups operator after the UDF
    run.__name__ = getattr(partition_fn, "__name__", run.__name__)
    # The tag fuses into the map before it, and the fused operator bundles
    # >= 131,072 rows per task; the sort's reduce blocks follow those tasks.
    # Without a tag batch size, inputs of many small blocks each got a task
    # and a reduce block: query_mix wall rose 3-30% in 3 of 3 pairs (2 CPUs).
    return (
        ds.map_batches(tag, batch_format="pyarrow", batch_size=131072)
        .groupby("__part")
        .map_groups(run, batch_format="pyarrow")
    )


def _reduce_by_key(k: np.ndarray, v: np.ndarray, ufunc) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys ascending, ``ufunc`` folded over each key's values).
    Float values sort stably, so each key's values are summed in input
    order on every run; integer folds do not depend on the order, and the
    default argsort is ~4x faster than the stable one (131 k u64 keys,
    numpy 1.26.4 on one Xeon vCPU: 3.4 ms vs 15.5 ms)."""
    order = np.argsort(k, kind="stable" if v.dtype.kind == "f" else None)
    ks, vs = k[order], v[order]
    new = np.ones(len(ks), dtype=bool)
    new[1:] = ks[1:] != ks[:-1]
    starts = np.nonzero(new)[0]
    return ks[starts], (ufunc.reduceat(vs, starts) if len(starts) else vs[:0])


def _fold_by_u64(ds, key_col: str, val_col: str | None, out_col: str, ufunc, dtype):
    """Dataset with uint64 ``key_col`` -> Dataset[(key_col, out_col)], one
    row per distinct key, ``out_col`` = ``ufunc`` folded over ``val_col``
    (each row counts 1 when ``val_col`` is None). The same fold runs as the
    per-batch combiner and as the per-partition reduce."""
    pa_type = pa.from_numpy_dtype(dtype)

    def fold(t: pa.Table, col: str | None) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = (np.ones(len(k), dtype) if col is None
             else t[col].to_numpy(zero_copy_only=False).astype(dtype))
        u, r = _reduce_by_key(k, v, ufunc)
        return pa.table({key_col: pa.array(u, pa.uint64()), out_col: pa.array(r, pa_type)})

    def pre(b: pa.Table) -> pa.Table:
        return fold(b, val_col)

    def reduce(g: pa.Table) -> pa.Table:
        return fold(g, out_col)

    return map_groups_partitioned(
        ds.map_batches(pre, batch_format="pyarrow", batch_size=131072), key_col, reduce
    )


def count_by_u64(ds, key_col: str = "key"):
    """Dataset with a uint64 ``key_col`` -> Dataset[(key_col, cnt:int64)]:
    exact counts per distinct key."""
    return _fold_by_u64(ds, key_col, None, "cnt", np.add, np.int64)


def sum_by_u64(ds, key_col: str, val_col: str):
    """Dataset with uint64 ``key_col`` + int64 ``val_col`` ->
    Dataset[(key_col, cnt:int64 = sum of vals)] — the weighted count."""
    return _fold_by_u64(ds, key_col, val_col, "cnt", np.add, np.int64)


def fsum_by_u64(ds, key_col: str, val_col: str):
    """float64 sum per key: Dataset with uint64 ``key_col`` + float
    ``val_col`` -> Dataset[(key_col, ``val_col``:float64 = sum)]. Float
    addition order differs from a single-pass sum; callers needing
    cross-path determinism must round downstream (stages/pagerank rounds
    each iteration to 1e-12)."""
    return _fold_by_u64(ds, key_col, val_col, val_col, np.add, np.float64)


def min_by_u64(ds, key_col: str, val_col: str):
    """Dataset with uint64 ``key_col`` + uint64 ``val_col`` ->
    Dataset[(key_col, val_col = min of vals)]. Used by stages/cc.py's label
    propagation, where per-key minima shrink the shuffle the same way
    partial sums do."""
    return _fold_by_u64(ds, key_col, val_col, val_col, np.minimum, np.uint64)


def max_by_u64(ds, key_col: str, val_col: str):
    """MAX sibling of min_by_u64 (uint64 values)."""
    return _fold_by_u64(ds, key_col, val_col, val_col, np.maximum, np.uint64)


def hash_strings(col) -> np.ndarray:
    """Vectorized uint64 hash of a pyarrow string column (for PARTITIONING:
    equal strings always collide; unequal rarely — collisions only co-locate
    extra rows, never corrupt results). Uses polars' vectorized hash kernel
    (fixed seed, deterministic across workers running the same build — a
    partitioner-consistency assumption documented here); falls back to a
    per-row crc32 loop when polars is unavailable."""
    import pyarrow as _pa

    if isinstance(col, _pa.ChunkedArray):
        col = col.combine_chunks()
    try:
        import polars as pl

        return (
            pl.from_arrow(col).hash(seed=42).to_numpy().astype(np.uint64)
        )
    except Exception:
        import zlib

        vals = col.to_pylist()
        return np.fromiter(
            (zlib.crc32(v.encode() if isinstance(v, str) else bytes(v))
             * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF for v in vals),
            dtype=np.uint64,
            count=len(vals),
        )


def u64_key_of_url_midx(urls: list[str], midx: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit key for (url, mention_idx) rows (crc32 x adler32
    spread; used by dedup — collisions only route extra rows into the exact
    per-key dedup path, never lose rows)."""
    import zlib

    n = len(urls)
    h1 = np.fromiter((zlib.crc32(u.encode()) for u in urls), dtype=np.uint64, count=n)
    h2 = np.fromiter((zlib.adler32(u.encode()) for u in urls), dtype=np.uint64, count=n)
    return (h1 << np.uint64(32)) ^ (h2 * np.uint64(2654435761)) ^ midx.astype(np.uint64)


def histogram_quantile_cont(vals: np.ndarray, cnts: np.ndarray, q: float) -> float:
    """QUANTILE_CONT over the expanded multiset, from a value->count
    histogram (the distributed-quantile driver step: distinct values, not
    rows, reach the caller). Definition matches SQL/np.quantile 'linear':
    h = (N-1)*q; v[floor(h)] + frac * (v[ceil(h)] - v[floor(h)]). An
    interpolated threshold is either an exact integer (frac 0) or lies
    strictly between two adjacent values, so ulp differences vs a SQL
    QUANTILE_CONT cannot flip a bucket-boundary comparison."""
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    hpos = (n - 1) * q
    lo_rank = int(np.floor(hpos))
    frac = hpos - lo_rank
    lo_i = int(np.searchsorted(cum, lo_rank + 1))
    hi_i = int(np.searchsorted(cum, lo_rank + 2)) if frac > 0 else lo_i
    lo_v = float(vals[lo_i])
    hi_v = float(vals[min(hi_i, len(vals) - 1)])
    return lo_v + frac * (hi_v - lo_v)
