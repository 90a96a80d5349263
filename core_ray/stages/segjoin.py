"""Segment-intersection self-join: all pairs of line segments that properly
cross, in planar coordinate space.

The distance-band join (stages/distband.py) co-locates POINTS; this operator
extends the same one-shuffle grid plan to EXTENDED objects (the reference's
containment-join family, SURVEY.md §2.5 J1, generalized from point-in-polygon
to segment×segment). The plan is the classic Partition-Based Spatial Merge:

- each segment is replicated to EVERY grid cell its bounding box overlaps
  (variable fan-out, fully vectorized repeat/cumsum construction — short
  segments land in <= 4 cells of a >=extent-sized grid, but the construction
  is generic);
- two crossing segments have overlapping bboxes, so they co-locate in every
  cell of the bbox intersection; each candidate pair is EMITTED ONLY in the
  canonical cell containing the intersection's min corner — no global dedup
  shuffle, the standard PBSM reporting trick;
- the crossing predicate is two strict orientation-sign tests built from
  multiply/subtract only — correctly-rounded IEEE ops a SQL oracle mirrors
  BIT-EXACTLY (unlike the transcendental haversine metric, there is no ULP
  caveat here).

Skew: a dense cell degrades to more chunks of its quadratic candidate set
inside one task (distband.cell_pairs); the documented scale path is the same
sub-cell split policy as stages/knn.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned
from core_ray.stages.distband import cell_pairs

_OFF21 = np.int64(1 << 20)


def _orient(ax, ay, bx, by, px, py):
    """Signed area*2 of (A,B,P): (bx-ax)(py-ay) - (by-ay)(px-ax)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def replicate_segments(
    ids: np.ndarray,
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray,
    cell: float,
) -> pa.Table:
    """Replicate each segment to every cell its bbox overlaps (packed key
    + explicit cell indices for the canonical-cell check downstream)."""
    minx, maxx = np.minimum(ax, bx), np.maximum(ax, bx)
    miny, maxy = np.minimum(ay, by), np.maximum(ay, by)
    ix0 = np.floor(minx / cell).astype(np.int64)
    ix1 = np.floor(maxx / cell).astype(np.int64)
    iy0 = np.floor(miny / cell).astype(np.int64)
    iy1 = np.floor(maxy / cell).astype(np.int64)
    lim = (1 << 20) - 2
    if len(ix0) and max(
        abs(int(ix0.min())), abs(int(ix1.max())),
        abs(int(iy0.min())), abs(int(iy1.max())),
    ) > lim:
        raise ValueError(f"cell {cell} too small for the coordinate extent")
    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    counts = nx * ny
    total = int(counts.sum())
    rep = np.repeat(np.arange(len(ids)), counts)
    off = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    nx_r = nx[rep]
    cx = ix0[rep] + (off % nx_r)
    cy = iy0[rep] + (off // nx_r)
    ck = ((cx + _OFF21).astype(np.uint64) << np.uint64(21)) | (
        cy + _OFF21
    ).astype(np.uint64)
    return pa.table(
        {
            "ck": pa.array(ck, pa.uint64()),
            "seg_id": pa.array(ids[rep], pa.int64()),
            "cx": pa.array(cx, pa.int64()),
            "cy": pa.array(cy, pa.int64()),
            "ax": pa.array(ax[rep], pa.float64()),
            "ay": pa.array(ay[rep], pa.float64()),
            "bx": pa.array(bx[rep], pa.float64()),
            "by": pa.array(by[rep], pa.float64()),
        }
    )


def crossings_in_partition(
    g: pa.Table, cell: float, chunk_pairs: int = 8 << 20
) -> pa.Table:
    """All properly-crossing segment pairs co-located in this partition,
    each emitted exactly once (canonical-cell rule). Every row is paired
    with every row of its cell by distband.cell_pairs."""
    order, chunks = cell_pairs(
        g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64), None,
        chunk_pairs=chunk_pairs,
    )
    ids = g["seg_id"].to_numpy(zero_copy_only=False)[order]
    cx = g["cx"].to_numpy(zero_copy_only=False)[order]
    cy = g["cy"].to_numpy(zero_copy_only=False)[order]
    ax = g["ax"].to_numpy(zero_copy_only=False)[order]
    ay = g["ay"].to_numpy(zero_copy_only=False)[order]
    bx = g["bx"].to_numpy(zero_copy_only=False)[order]
    by = g["by"].to_numpy(zero_copy_only=False)[order]
    out_a, out_b = [ids[:0]], [ids[:0]]
    for left, right in chunks:
        m = ids[right] > ids[left]
        i, j = left[m], right[m]
        # canonical cell: the one holding the bbox-intersection min corner
        mnx = np.maximum(np.minimum(ax[i], bx[i]), np.minimum(ax[j], bx[j]))
        mny = np.maximum(np.minimum(ay[i], by[i]), np.minimum(ay[j], by[j]))
        m2 = (np.floor(mnx / cell).astype(np.int64) == cx[i]) & (
            np.floor(mny / cell).astype(np.int64) == cy[i]
        )
        i, j = i[m2], j[m2]
        # strict proper crossing: opposite orientation signs on both splits
        o1 = _orient(ax[i], ay[i], bx[i], by[i], ax[j], ay[j])
        o2 = _orient(ax[i], ay[i], bx[i], by[i], bx[j], by[j])
        o3 = _orient(ax[j], ay[j], bx[j], by[j], ax[i], ay[i])
        o4 = _orient(ax[j], ay[j], bx[j], by[j], bx[i], by[i])
        keep = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
        out_a.append(ids[i][keep])
        out_b.append(ids[j][keep])
    return pa.table(
        {
            "seg_a": pa.array(np.concatenate(out_a), pa.int64()),
            "seg_b": pa.array(np.concatenate(out_b), pa.int64()),
        }
    )


def segment_crossings(ds, cell: float, id_col: str = "seg_id"):
    """Dataset[(seg_id, ax, ay, bx, by)] -> Dataset[(seg_a, seg_b)] of all
    properly-crossing pairs, seg_a < seg_b, each exactly once. One hash
    shuffle total."""

    def rep(b: pa.Table) -> pa.Table:
        return replicate_segments(
            b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            b["ax"].to_numpy(zero_copy_only=False),
            b["ay"].to_numpy(zero_copy_only=False),
            b["bx"].to_numpy(zero_copy_only=False),
            b["by"].to_numpy(zero_copy_only=False),
            cell,
        )

    rep_ds = ds.map_batches(rep, batch_format="pyarrow", batch_size=65536)
    return map_groups_partitioned(
        rep_ds, "ck", lambda g: crossings_in_partition(g, cell)
    )
