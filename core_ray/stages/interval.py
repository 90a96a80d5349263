"""General interval (range) join: points ⋈ arbitrary intervals, lo <= p < hi.

Two paths with identical output (tested against each other):

- ``interval_join_broadcast``: the small-side pattern — the whole intervals
  table rides into every map task (closure capture), each batch loops over
  intervals with a vectorized point mask. Right when intervals fit memory
  (the J1-style broadcast; queries/events_ops.py events_window_join is its
  regular-window arithmetic special case).
- ``interval_join_bucketed``: the SCALE path — time is cut into fixed
  buckets; every point maps to one bucket, every interval REPLICATES into
  each bucket it overlaps, points shuffle by bucket through
  ``agg.map_groups_partitioned``, and each partition matches its points
  against the broadcast replicas of the buckets it holds, vectorized. One all-to-all over points +
  interval replicas; replication factor = interval length / bucket width
  (pick ``bucket_width`` near the typical interval length — the standard
  range-join bucketing trade; very long intervals belong on the broadcast
  path or a dedicated long-interval tier).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned


def _intervals_np(intervals: pa.Table, id_col: str, lo_col: str, hi_col: str):
    ids = intervals[id_col].to_numpy(zero_copy_only=False)
    lo = intervals[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
    hi = intervals[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return ids, lo, hi


def _match_block(p: np.ndarray, take_payload, ids, lo, hi, id_type):
    """Vectorized match of one co-located block: loop over INTERVALS (few),
    mask over points (many)."""
    out_idx, out_id = [], []
    for j in range(len(ids)):
        m = (p >= lo[j]) & (p < hi[j])
        if m.any():
            rows = np.nonzero(m)[0]
            out_idx.append(rows)
            out_id.append(np.full(len(rows), ids[j]))
    if not out_idx:
        return None
    idx = np.concatenate(out_idx)
    t = take_payload(idx)
    return t.append_column(
        "interval_id", pa.array(np.concatenate(out_id), id_type)
    )


def interval_join_broadcast(points_ds, intervals: pa.Table, point_col: str,
                            id_col: str = "interval_id", lo_col: str = "lo",
                            hi_col: str = "hi"):
    """Every output row = one (point row, containing interval) pair; point
    payload columns pass through, plus ``interval_id``."""
    ids, lo, hi = _intervals_np(intervals, id_col, lo_col, hi_col)
    id_type = intervals.schema.field(id_col).type

    def match(b: pa.Table) -> pa.Table:
        p = b[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out = _match_block(p, lambda idx: b.take(pa.array(idx)), ids, lo, hi, id_type)
        if out is None:
            return b.slice(0, 0).append_column("interval_id", pa.array([], id_type))
        return out

    return points_ds.map_batches(match, batch_format="pyarrow", batch_size=65536)


def interval_join_bucketed(points_ds, intervals: pa.Table, point_col: str,
                           id_col: str = "interval_id", lo_col: str = "lo",
                           hi_col: str = "hi", bucket_width: int | None = None):
    """Distributed variant: identical output to interval_join_broadcast."""
    ids, lo, hi = _intervals_np(intervals, id_col, lo_col, hi_col)
    id_type = intervals.schema.field(id_col).type
    if bucket_width is None:
        pos = (hi - lo)[(hi - lo) > 0]
        bucket_width = int(max(np.median(pos), 1)) if len(pos) else 1

    # interval replicas per overlapped bucket, shipped as a compact side
    # dataset (the big side — the points — never replicates)
    b_lo = lo // bucket_width
    b_hi = np.maximum((hi - 1) // bucket_width, b_lo)  # hi exclusive
    reps = (b_hi - b_lo + 1).astype(np.int64)
    iv_bucket = np.concatenate(
        [np.arange(a, z + 1) for a, z in zip(b_lo, b_hi)]
    ) if len(ids) else np.zeros(0, dtype=np.int64)
    iv_row = np.repeat(np.arange(len(ids)), reps) if len(ids) else np.zeros(0, dtype=np.int64)
    iv_tbl = pa.table(
        {
            "__bucket": pa.array(iv_bucket, pa.int64()),
            "__ivid": pa.array(ids[iv_row], id_type),
            "__lo": pa.array(lo[iv_row], pa.int64()),
            "__hi": pa.array(hi[iv_row], pa.int64()),
        }
    )

    def bucket_of(b: pa.Table) -> pa.Table:
        p = b[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("__bucket", pa.array(p // bucket_width, pa.int64()))

    def reduce(pts: pa.Table, iv=iv_tbl) -> pa.Table:
        p_bucket = pts["__bucket"].to_numpy(zero_copy_only=False)
        ivp = iv.filter(pa.compute.is_in(iv["__bucket"], value_set=pa.array(np.unique(p_bucket))))
        p = pts[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        base = pts.drop_columns(["__bucket"])
        empty = base.slice(0, 0).append_column("interval_id", pa.array([], id_type))
        if ivp.num_rows == 0 or pts.num_rows == 0:
            return empty
        i_bucket = ivp["__bucket"].to_numpy(zero_copy_only=False)
        i_ids = ivp["__ivid"].to_numpy(zero_copy_only=False)
        i_lo = ivp["__lo"].to_numpy(zero_copy_only=False)
        i_hi = ivp["__hi"].to_numpy(zero_copy_only=False)
        outs = []
        for bk in np.unique(p_bucket):
            pm = p_bucket == bk
            im = i_bucket == bk
            if not im.any():
                continue
            rows = np.nonzero(pm)[0]
            out = _match_block(
                p[rows],
                lambda idx, rows=rows: base.take(pa.array(rows[idx])),
                i_ids[im], i_lo[im], i_hi[im], id_type,
            )
            if out is not None:
                outs.append(out)
        return pa.concat_tables(outs) if outs else empty

    return map_groups_partitioned(
        points_ds.map_batches(bucket_of, batch_format="pyarrow", batch_size=65536),
        "__bucket", reduce,
    )
