"""Nested-column operators: key-grouped nest (rows -> list<struct>) + explode.

The reference's core output model is recursively nested suites
(pkg/domain/test.go:16-30); SURVEY.md §1.2 maps that to ``list<struct<...>>``
Arrow columns. These operators are the engine's nest/explode pair
(VERDICT r2 item 4):

- ``nest_by_key``: one output row per distinct key with a deterministic
  (order_col-sorted) ``list<struct<payload...>>`` column. Distributed shape:
  ONE ``agg.map_groups_partitioned`` shuffle on the key (string keys hash
  through the vectorized polars kernel — no per-row Python) -> per-partition
  Arrow-native sort + ListArray assembly from group offsets (no Python per
  group).
- ``explode_list``: the inverse — flattens the list column back to one row
  per element via ``list_parent_indices`` + ``flatten`` (all zero-copy
  Arrow kernels inside map_batches).

Roundtrip contract (tested): explode(nest(t)) == t up to row order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.stages.agg import map_groups_partitioned


# Reference analog of MaxTreeDepth (pkg/parser/tspool/pool.go:40): the
# recursive suite model caps nesting at 1000 levels; nest_hierarchy enforces
# the same bound.
MAX_NEST_DEPTH = 1000


def nest_partition(
    g: pa.Table, key_col: str, order_col: str, payload_cols: list[str],
    list_col: str, carry_cols: list[str] | None = None,
) -> pa.Table:
    """Nest ONE co-located partition: Arrow sort by (key, order), group
    boundaries from the dictionary-encoded key, ListArray from offsets.
    ``carry_cols`` are key-level columns (functionally dependent on the
    key — e.g. a url's host) surfaced once per output row, first value
    per group. Payload columns may themselves be list<struct> — nesting
    an already-nested table builds the next hierarchy level."""
    carry_cols = carry_cols or []
    if g.num_rows == 0:
        struct_t = pa.struct([g.schema.field(c) for c in payload_cols])
        cols = {key_col: pa.array([], g.schema.field(key_col).type)}
        for c in carry_cols:
            cols[c] = pa.array([], g.schema.field(c).type)
        cols[list_col] = pa.array([], pa.list_(struct_t))
        return pa.table(cols)
    order = pc.sort_indices(
        g, sort_keys=[(key_col, "ascending"), (order_col, "ascending")]
    )
    g = g.take(order)
    codes = (
        pc.dictionary_encode(g[key_col]).combine_chunks().indices.to_numpy(
            zero_copy_only=False
        )
    )
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    starts = np.nonzero(new)[0]
    offsets = np.append(starts, len(codes)).astype(np.int32)
    struct_arr = pa.StructArray.from_arrays(
        [g[c].combine_chunks() for c in payload_cols], names=payload_cols
    )
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct_arr)
    starts_arr = pa.array(starts)
    cols = {key_col: g[key_col].take(starts_arr)}
    for c in carry_cols:
        cols[c] = g[c].take(starts_arr)
    cols[list_col] = lists
    return pa.table(cols)


def nest_by_key(ds, key_col: str, order_col: str, payload_cols: list[str],
                list_col: str = "items", carry_cols: list[str] | None = None):
    """Dataset -> Dataset[(key_col, *carry_cols, list_col:
    list<struct<payload...>>)], one row per distinct key, list elements
    sorted by ``order_col``."""
    carry_cols = carry_cols or []

    def nest(g: pa.Table) -> pa.Table:
        return nest_partition(g, key_col, order_col, payload_cols, list_col, carry_cols)

    keep = [key_col, order_col]
    keep += [c for c in carry_cols if c not in keep]
    keep += [c for c in payload_cols if c not in keep]
    return map_groups_partitioned(ds.select_columns(keep), key_col, nest)


def nest_hierarchy(ds, levels: list[dict]):
    """Multi-level nest — the recursive-suites analog (SURVEY §1.2; the
    reference nests suites-within-suites to MaxTreeDepth=1000). ``levels``
    run INNERMOST FIRST; each is a dict of nest_by_key kwargs (key_col,
    order_col, payload_cols, list_col, optional carry_cols). Level i+1's
    payload_cols reference level i's output columns (its key + its
    list_col), so each level is ONE hash-partition shuffle and the result
    is a list<struct<..., list<struct<...>>>> column nested len(levels)
    deep. Raises on depth > MAX_NEST_DEPTH."""
    if len(levels) > MAX_NEST_DEPTH:
        raise ValueError(
            f"nest depth {len(levels)} exceeds MAX_NEST_DEPTH={MAX_NEST_DEPTH}"
        )
    for lvl in levels:
        ds = nest_by_key(ds, **lvl)
    return ds


def explode_batch(b: pa.Table, key_cols: list[str], list_col: str) -> pa.Table:
    """One batch of nested rows -> flat rows (struct fields as columns).
    A struct field that is itself list<struct> surfaces as a list column,
    ready for the next explode_list pass."""
    lists = b[list_col].combine_chunks()
    parent = pc.list_parent_indices(lists)
    flat = pc.list_flatten(lists)
    cols = {k: b[k].take(parent) for k in key_cols}
    for f in flat.type:
        cols[f.name] = flat.field(f.name)
    return pa.table(cols)


def explode_list(ds, key_col: str | list[str] | None = None,
                 list_col: str = "items", key_cols: list[str] | None = None):
    """Inverse of nest_by_key (row order within a key follows list order).
    ``key_cols`` (or a list passed as ``key_col``) carries multiple parent
    columns — needed when un-nesting a multi-level hierarchy one level at
    a time."""
    if key_cols is None:
        key_cols = key_col if isinstance(key_col, list) else [key_col]
    return ds.map_batches(
        lambda b: explode_batch(b, key_cols, list_col),
        batch_format="pyarrow",
        batch_size=65536,
    )
