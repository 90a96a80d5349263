"""The engine's one hash-partition shuffle, and the per-key folds built on it.

``groupby(key).map_groups`` pays ~1.4 ms of Python per group, so for
high-cardinality keys the engine co-locates rows by a HASH of the key
instead:

    map_batches(tag: __part = hash(key) % n_parts)   # fuses into the map before it
    -> groupby(__part).map_groups(fn)                # ONE sort shuffle, P Python calls

``map_groups_partitioned`` is the only place that computes that partition
column; every key-hash shuffle in the engine goes through it, so the
partition count and the hash live in one function. It takes one key column
or several, combined into one hash (``_key_u64`` per column: integers as
uint64, string/binary through ``hash_strings``, other types by their string
form). Collisions only co-locate extra rows: ``fn`` always compares real
key values.

Every grouped SUM / COUNT / MIN / MAX is one fold rule (``fold`` and
``fold_table``; no Ray ``groupby().aggregate()`` runs in the engine, whose
reduce iterates Python-side per distinct key: 24 s for 656 k rows / 300 k
distinct keys in one partition, vs 0.2 s for the sort itself). Each block
folds map-side to one row per distinct key (``pa.TableGroupBy``), and the
partials fold again once per key:

- ``fold_table(ds, keys, aggs) -> pa.Table`` is for results that reach the
  driver. The partials are materialized and their Arrow bytes read from
  block metadata; while they fit the broadcast rule (``join.fits_broadcast``,
  ``BROADCAST_MAX_BYTES``: what the driver may hold of one side) the driver
  folds them (one map-only execution), above it they fold through the hash
  shuffle and are collected.
- ``fold(ds, keys, aggs) -> Dataset`` is for results that feed more
  distributed work: the partials always fold through the hash shuffle.

Both give Ray's aggregate output types (integer keys and integer/boolean
aggregates int64, floating aggregates float64, other types unchanged).

The uint64-keyed folds (``count_by_u64``, ``sum_by_u64``, ``fsum_by_u64``,
``min_by_u64``, ``max_by_u64``) are the same combiner in numpy: a per-batch
fold (no shuffle) shrinks the rows to one per key and batch, and the same
fold runs once per partition after the shuffle. Both use one kernel, an
argsort plus ``ufunc.reduceat`` (``_reduce_by_key``).

The swap to native Ray Data (``repartition(keys=…)`` / ``Dataset.join``
under the hash-shuffle strategy) was measured and not taken: both hung at
``num_cpus`` 1–2, where the hash-shuffle aggregator actors reserve the only
CPUs (ROADMAP direction 7). That swap is now a change to this one function.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.collect import collect_table
from core_ray.stages.join import fits_broadcast

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


def _key_u64(col) -> np.ndarray:
    """One uint64 per row of a key column; equal values (and all nulls) map
    to equal numbers. The rule depends on the type only, never on the batch."""
    if _is_bytes_like(col.type):
        return hash_strings(col)
    if pa.types.is_integer(col.type):
        return pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.uint64)
    return hash_strings(col.cast(pa.string()))


def map_groups_partitioned(ds, key_cols, partition_fn):
    """``groupby(key).map_groups(fn)`` for HIGH-CARDINALITY keys:
    hash-partition by ``key_cols`` (one column name or a list) and invoke
    ``partition_fn`` ONCE per partition. It receives every key's rows
    co-located (the input columns, without the partition tag) and handles
    the per-key segments itself — numpy slices, not per-group slicing."""
    n_parts = _n_parts()
    key_cols = _as_keys(key_cols)

    def tag(b: pa.Table) -> pa.Table:
        k = np.zeros(b.num_rows, np.uint64)
        for c in key_cols:
            k = k * _GOLD ^ _key_u64(b[c])
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


_MERGE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}
_LARGE = {pa.string(): pa.large_string(), pa.binary(): pa.large_binary()}


def _group(t: pa.Table, keys: list[str], specs: list[tuple[str, str | None, str]]) -> pa.Table:
    """One ``TableGroupBy`` pass: ``specs`` is [(out, column | None, op)];
    ``(None, "count")`` counts rows. Columns come out as keys, then outs."""
    # pyarrow 16 splits the null key of a string/binary column into several
    # groups when more keys follow it; its large_ variants group it as one
    narrow = {k: t.schema.field(k).type for k in keys if t.schema.field(k).type in _LARGE} \
        if len(keys) > 1 else {}
    for k, typ in narrow.items():
        t = t.set_column(t.schema.get_field_index(k), k, t[k].cast(_LARGE[typ]))
    g = pa.TableGroupBy(t, keys, use_threads=False).aggregate(
        [([], "count_all") if col is None else (col, op) for _, col, op in specs]
    )
    names = g.column_names
    key_pos = [names.index(k) for k in keys]
    agg_pos = [i for i in range(len(names)) if i not in key_pos]
    g = g.select(key_pos + agg_pos).rename_columns(keys + [out for out, _, _ in specs])
    for k, typ in narrow.items():
        g = g.set_column(keys.index(k), k, g[k].cast(typ))
    return g


def _partial(keys: list[str], aggs: dict):
    """The combiner: one row per distinct key of each batch."""
    specs = [(out, col, op) for out, (col, op) in aggs.items()]

    def partial(b: pa.Table) -> pa.Table:
        g = _group(b, keys, specs)
        return g if b.num_rows else g.slice(0, 0)  # keys=[] folds an empty batch to one row

    return partial


def _merge(parts: pa.Table, keys: list[str], aggs: dict) -> pa.Table:
    """The reducer: fold partial rows to one row per key, keys ascending
    (nulls last), in Ray's aggregate output types. Float partials are first
    put in one order, so their sums do not depend on block arrival order."""
    if any(pa.types.is_floating(parts.schema.field(out).type) for out in aggs):
        parts = parts.sort_by([(c, "ascending") for c in [*keys, *aggs]], null_placement="at_end")
    t = _group(parts, keys, [(out, out, _MERGE[op]) for out, (_, op) in aggs.items()])
    if not parts.num_rows:
        t = t.slice(0, 0)
    if keys:
        t = t.sort_by([(k, "ascending") for k in keys], null_placement="at_end")
    fields = []
    for f in t.schema:
        if pa.types.is_integer(f.type) or (f.name not in keys and pa.types.is_boolean(f.type)):
            f = f.with_type(pa.int64())
        elif pa.types.is_floating(f.type):
            f = f.with_type(pa.float64())
        fields.append(f)
    return t.cast(pa.schema(fields), safe=False)


def _reduce_partitioned(parts, keys: list[str], aggs: dict):
    """Partials Dataset -> Dataset of folded rows, co-located by the hash of
    all key columns; each output block is sorted by key."""

    def fold_partition(g: pa.Table) -> pa.Table:
        return _merge(g, keys, aggs)

    return map_groups_partitioned(parts, keys, fold_partition)


def _as_keys(keys) -> list[str]:
    return [keys] if isinstance(keys, str) else list(keys)


def fold(ds, keys, aggs: dict):
    """Dataset -> Dataset[keys..., aggs...]: one row per distinct key.

    ``aggs`` maps each output column to ``(column | None, op)``, op one of
    "sum", "count", "min", "max" (``(None, "count")`` counts rows, as
    COUNT(*)); ``keys=[]`` folds the whole Dataset to one row. Null keys are
    one group. The rows fold through the hash shuffle, so each output block
    holds its keys ascending; order across blocks is by hash."""
    keys = _as_keys(keys)
    parts = ds.map_batches(_partial(keys, aggs), batch_format="pyarrow", batch_size=None)
    return _reduce_partitioned(parts, keys, aggs)


def fold_table(ds, keys, aggs: dict) -> pa.Table:
    """``fold`` for a result that reaches the driver, as one table with its
    keys ascending (nulls last). The partials are materialized; while their
    Arrow bytes fit ``join.fits_broadcast`` they fold on the driver, so the
    whole fold is one map-only execution, and larger partials fold through
    the hash shuffle. Empty input gives zero rows, typed whenever Ray knows
    the input's schema."""
    keys = _as_keys(keys)
    parts = ds.map_batches(
        _partial(keys, aggs), batch_format="pyarrow", batch_size=None
    ).materialize()
    if not fits_broadcast(parts):  # block metadata: executes nothing
        t = collect_table(_reduce_partitioned(parts, keys, aggs))
        return t.sort_by([(k, "ascending") for k in keys], null_placement="at_end") if keys else t
    t = collect_table(parts)
    if not t.num_columns:
        schema = ds.schema()  # empty result only: Ray knows it, or probes one block
        if schema is None or not isinstance(schema.base_schema, pa.Schema):
            return t
        t = _partial(keys, aggs)(schema.base_schema.empty_table())
    return _merge(t, keys, aggs)


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
