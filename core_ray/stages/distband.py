"""Distance-band spatial self-join: all pairs of points within a radius.

The within-distance join the per-tile kNN (stages/knn.py) cannot express:
kNN truncates at k and misses cross-tile neighbors, while this operator is
EXACT across cell boundaries. Reference analog: the containment-join family
(SURVEY.md §2.5 J1) extended to a distance predicate — a from-scratch Ray
Data design, not a port.

Shape (one shuffle, no all-pairs):

- grid cells of side == radius; every point lands HOME in its own cell and
  as a GHOST in the 8 neighbors (9x replication of 3 small columns only);
- any pair within ``radius`` therefore co-locates in EXACTLY the smaller-id
  point's home cell (the other point is home-or-ghost there), so emitting
  (home-left, larger-id-right) pairs counts each pair once with no
  cross-partition dedup;
- per partition, candidate pairs are built with a fully vectorized
  segment-offset construction (repeat/cumsum arithmetic — no Python loop
  over rows or cells), chunked so no single dense cell can blow the heap:
  mega-city skew degrades to more chunks, never to failure. For adversarial
  density the documented scale path is sub-cell salting (split hot cells on
  a finer grid and merge), same policy as stages/knn.py.

Distance is squared-euclidean in coordinate space — (a-b)*(a-b) sums, IEEE
order identical to a SQL mirror, so threshold comparisons are bit-exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned

_OFF21 = np.int64(1 << 20)

def haversine_km(lat_a: np.ndarray, lon_a: np.ndarray,
                 lat_b: np.ndarray, lon_b: np.ndarray) -> np.ndarray:
    """Great-circle distance in km (R = 6371.0088). The expression tree is
    mirrored term-for-term by the SQL oracle (same left-associative order),
    but numpy and DuckDB libm transcendentals differ by 1-2 ULP (measured
    max 3.6e-12 km), so oracle-checked outputs must quantize coarsely
    (geo_haversine_pairs emits FLOOR km) rather than carry the raw value."""
    s1 = np.sin(np.radians(lat_b - lat_a) / 2.0)
    s2 = np.sin(np.radians(lon_b - lon_a) / 2.0)
    h = s1 * s1 + np.cos(np.radians(lat_a)) * np.cos(np.radians(lat_b)) * s2 * s2
    return 2.0 * 6371.0088 * np.arcsin(np.sqrt(h))


def replicate_to_cells(
    ids: np.ndarray, lat: np.ndarray, lon: np.ndarray, radius: float,
    radius_lon: float | None = None,
    lon_wrap_cells: int | None = None,
) -> pa.Table:
    """9x home+ghost replication of (id, lat, lon) keyed by packed cell.
    ``radius_lon`` (default ``radius``) sets the longitude cell size
    independently — metric bands need wider lon cells at high latitude
    (see haversine_distance_pairs). ``lon_wrap_cells=n`` switches the lon
    axis to a RING of n equal cells over [-180, 180) with ghost offsets
    taken mod n, so pairs straddling the antimeridian co-locate (great-
    circle distance wraps; coordinate-space distance does not). n must be
    >= 4 or ghost offsets would alias into the same cell and emit
    duplicate pairs."""
    cx = np.floor(lat / radius).astype(np.int64)
    if lon_wrap_cells is not None:
        if lon_wrap_cells < 4:
            raise ValueError("lon ring needs >= 4 cells (band too wide)")
        cy = (np.floor((lon + 180.0) / (360.0 / lon_wrap_cells)).astype(np.int64)
              % lon_wrap_cells)
    else:
        cy = np.floor(lon / (radius_lon if radius_lon is not None else radius)).astype(np.int64)
    # 21-bit packed axes (offset 2^20): a radius too small for the coordinate
    # extent would silently wrap cy into the cx bits and merge far-apart
    # cells into one segment (quadratic pair blowup, not wrong output) —
    # refuse instead; callers with finer bands rescale coordinates first.
    lim = (1 << 20) - 2
    if len(cx) and (
        max(abs(int(cx.max())), abs(int(cx.min())),
            abs(int(cy.max())), abs(int(cy.min()))) > lim
    ):
        raise ValueError(
            f"radius {radius} too small for the coordinate extent: cell "
            f"indices exceed the 21-bit packed range (+-{lim})"
        )
    n = len(ids)
    dx = np.array([0, -1, -1, -1, 0, 0, 1, 1, 1], dtype=np.int64)
    dy = np.array([0, -1, 0, 1, -1, 1, -1, 0, 1], dtype=np.int64)
    rcx = (np.repeat(cx, 9) + np.tile(dx, n) + _OFF21).astype(np.uint64)
    ry = np.repeat(cy, 9) + np.tile(dy, n)
    if lon_wrap_cells is not None:
        ry %= lon_wrap_cells
    rcy = (ry + _OFF21).astype(np.uint64)
    home = np.zeros(9 * n, dtype=bool)
    home[0::9] = True  # offset (0,0) is each point's first replica
    return pa.table(
        {
            "ck": pa.array((rcx << np.uint64(21)) | rcy, pa.uint64()),
            "doc_id": pa.array(np.repeat(ids, 9), pa.int64()),
            "lat": pa.array(np.repeat(lat, 9), pa.float64()),
            "lon": pa.array(np.repeat(lon, 9), pa.float64()),
            "home": pa.array(home, pa.bool_()),
        }
    )


def pairs_in_partition(g: pa.Table, r2: float, chunk_pairs: int = 8 << 20,
                       metric_fn=None, out_col: str = "sq_dist") -> pa.Table:
    """Vectorized within-cell pair extraction for one co-located partition.

    Default metric is squared euclidean in coordinate space (threshold
    ``r2`` in squared units); pass ``metric_fn(lat_a, lon_a, lat_b, lon_b)``
    for another vectorized metric (threshold in its own units) — the cell
    replication must then COVER the metric's reach (caller's contract)."""
    key = g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
    lat = g["lat"].to_numpy(zero_copy_only=False)[order]
    lon = g["lon"].to_numpy(zero_copy_only=False)[order]
    home = g["home"].to_numpy(zero_copy_only=False)[order]
    n = len(key)
    if n == 0:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                out_col: pa.array([], pa.float64()),
            }
        )
    new = np.ones(n, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    seg_id = np.cumsum(new) - 1
    starts = np.nonzero(new)[0]
    seg_len = np.diff(np.append(starts, n)).astype(np.int64)
    # Candidate LEFT side is restricted to home rows up front: masking
    # home[left] after a full L^2 expansion materializes 9x the candidate
    # rows for identical output (same fix as stages/stjoin.py, where the
    # 27x variant measured 21 s -> <1 s serial).
    hidx = np.nonzero(home)[0]
    if len(hidx) == 0:
        return pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                out_col: pa.array([], pa.float64()),
            }
        )
    Lh = seg_len[seg_id[hidx]]  # full cell occupancy per home row
    chunk_of_home = np.cumsum(Lh) // chunk_pairs
    out_a, out_b, out_d = [], [], []
    for c in np.unique(chunk_of_home):
        sel = chunk_of_home == c
        h = hidx[sel]
        L = Lh[sel]
        left = np.repeat(h, L)
        row_pair_start = np.cumsum(L) - L
        offs = np.arange(int(L.sum())) - np.repeat(row_pair_start, L)
        right = np.repeat(starts[seg_id[h]], L) + offs
        m = ids[right] > ids[left]
        la, lb = left[m], right[m]
        if metric_fn is None:
            dla = lat[la] - lat[lb]
            dlo = lon[la] - lon[lb]
            d = dla * dla + dlo * dlo
        else:
            d = metric_fn(lat[la], lon[la], lat[lb], lon[lb])
        keep = d <= r2
        out_a.append(ids[la][keep])
        out_b.append(ids[lb][keep])
        out_d.append(d[keep])
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
            out_col: pa.array(np.concatenate(out_d), pa.float64()),
        }
    )


def distance_pairs(ds, radius: float, id_col: str = "doc_id",
                   lat_col: str = "lat", lon_col: str = "lon"):
    """Dataset[(id, lat, lon)] -> Dataset[(doc_a, doc_b, sq_dist)] with
    doc_a < doc_b and sq_dist <= radius^2. One hash shuffle total."""
    r2 = radius * radius

    def rep(b: pa.Table) -> pa.Table:
        return replicate_to_cells(
            b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            b[lat_col].to_numpy(zero_copy_only=False),
            b[lon_col].to_numpy(zero_copy_only=False),
            radius,
        )

    rep_ds = ds.map_batches(rep, batch_format="pyarrow", batch_size=65536)
    return map_groups_partitioned(rep_ds, "ck", lambda g: pairs_in_partition(g, r2))


def haversine_distance_pairs(ds, max_km: float, max_abs_lat: float = 70.0,
                             id_col: str = "doc_id",
                             lat_col: str = "lat", lon_col: str = "lon"):
    """Distance-band self-join in TRUE kilometers (great-circle): all pairs
    with haversine distance <= ``max_km``. Same one-shuffle home+ghost plan
    as distance_pairs, with metric-aware cell sizing:

      lat cells: |dlat| of any qualifying pair <= max_km / R radians
                 (sin²(dlat/2) <= sin²(d/2R)), so cell_lat = degrees(max_km/R)
                 padded 1%;
      lon cells: sin²(dlon/2)·cos(lat_a)cos(lat_b) <= sin²(d/2R) bounds
                 |dlon| <= 2·asin(sin(max_km/2R)/cos(max_abs_lat)) — the
                 worst case at the band's latitude limit; padded 1%.

    ``max_abs_lat`` is the caller's promise about the data (this corpus
    derives |lat| < 70). Beyond ~85° the lon bound degenerates — polar
    points belong in a cap cell, the documented extension (same policy as
    mercator's MAX_LAT clamp).
    """
    import math

    if max_abs_lat >= 85.0:
        raise ValueError("haversine bands need a polar-cap cell above ~85°")
    r_earth = 6371.0088
    cell_lat = math.degrees(max_km / r_earth) * 1.01
    sin_half = math.sin(max_km / (2.0 * r_earth))
    cell_lon = math.degrees(
        2.0 * math.asin(min(1.0, sin_half / math.cos(math.radians(max_abs_lat))))
    ) * 1.01
    # lon axis is a RING: great-circle distance wraps at the antimeridian,
    # so lon cells must too. floor() widens each cell to 360/n >= cell_lon,
    # keeping the 3x3 cover; >= 4 cells or ghosts would alias (guarded in
    # replicate_to_cells).
    n_lon = int(360.0 // cell_lon)
    if n_lon < 4:
        raise ValueError(
            f"band {max_km} km spans {cell_lon:.1f} deg of longitude at "
            f"lat {max_abs_lat}: lon ring needs >= 4 cells"
        )

    def rep(b: pa.Table) -> pa.Table:
        return replicate_to_cells(
            b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            b[lat_col].to_numpy(zero_copy_only=False),
            b[lon_col].to_numpy(zero_copy_only=False),
            cell_lat, lon_wrap_cells=n_lon,
        )

    rep_ds = ds.map_batches(rep, batch_format="pyarrow", batch_size=65536)
    return map_groups_partitioned(
        rep_ds, "ck",
        lambda g: pairs_in_partition(g, max_km, metric_fn=haversine_km,
                                     out_col="dist_km"),
    )


def bipartite_band_pairs(left, right, radius: float,
                         left_id: str = "doc_id",
                         right_id: str = "event_id"):
    """Bipartite distance-band join: Dataset[(left_id, lat, lon)] x
    Dataset[(right_id, lat, lon)] -> Dataset[(left_id, right_id, sq_dist)]
    with sq_dist <= radius^2.

    ASYMMETRIC home+ghost plan (the self-join above replicates everything
    9x; two heterogeneous sides need only 1x + 9x): the LEFT side emits one
    home replica, the RIGHT side replicates to its 3x3 neighborhood, so
    every qualifying pair co-locates in exactly the left point's home cell
    and is emitted exactly once — no cross-partition dedup, ONE hash
    shuffle total. The partition kernel sorts by (cell, side), pairs each
    cell's left rows against its right rows with repeat/offset-arange
    expansion (chunked against dense cells — skew degrades to more chunks,
    never to heap failure). Same plan as the geo_doc_event_band query
    (queries/geo_ops.py), factored here so multi-radius consumers (geo_cross_k)
    share the kernel."""
    r2 = radius * radius

    def left_rep(b: pa.Table) -> pa.Table:
        ids = b[left_id].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        lon = b["lon"].to_numpy(zero_copy_only=False)
        cx = (np.floor(lat / radius).astype(np.int64) + _OFF21).astype(np.uint64)
        cy = (np.floor(lon / radius).astype(np.int64) + _OFF21).astype(np.uint64)
        return pa.table(
            {
                "ck": pa.array((cx << np.uint64(21)) | cy, pa.uint64()),
                "side": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
                "id": pa.array(ids, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    def right_rep(b: pa.Table) -> pa.Table:
        ids = b[right_id].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        lon = b["lon"].to_numpy(zero_copy_only=False)
        cx = np.floor(lat / radius).astype(np.int64)
        cy = np.floor(lon / radius).astype(np.int64)
        n = len(ids)
        dx = np.array([0, -1, -1, -1, 0, 0, 1, 1, 1], dtype=np.int64)
        dy = np.array([0, -1, 0, 1, -1, 1, -1, 0, 1], dtype=np.int64)
        rcx = (np.repeat(cx, 9) + np.tile(dx, n) + _OFF21).astype(np.uint64)
        rcy = (np.repeat(cy, 9) + np.tile(dy, n) + _OFF21).astype(np.uint64)
        return pa.table(
            {
                "ck": pa.array((rcx << np.uint64(21)) | rcy, pa.uint64()),
                "side": pa.array(np.ones(9 * n, np.int8), pa.int8()),
                "id": pa.array(np.repeat(ids, 9), pa.int64()),
                "lat": pa.array(np.repeat(lat, 9), pa.float64()),
                "lon": pa.array(np.repeat(lon, 9), pa.float64()),
            }
        )

    rep = left.map_batches(left_rep, batch_format="pyarrow",
                           batch_size=65536).union(
        right.map_batches(right_rep, batch_format="pyarrow",
                          batch_size=65536)
    )

    empty = pa.table(
        {
            left_id: pa.array([], pa.int64()),
            right_id: pa.array([], pa.int64()),
            "sq_dist": pa.array([], pa.float64()),
        }
    )

    def per_part(g: pa.Table, chunk_pairs: int = 8 << 20) -> pa.Table:
        if g.num_rows == 0:
            return empty
        key = g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64)
        side = g["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, key))
        key, side = key[order], side[order]
        ids = g["id"].to_numpy(zero_copy_only=False)[order]
        lat = g["lat"].to_numpy(zero_copy_only=False)[order]
        lon = g["lon"].to_numpy(zero_copy_only=False)[order]
        n = len(key)
        new = np.ones(n, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        seg_id = np.cumsum(new) - 1
        starts = np.nonzero(new)[0]
        seg_end = np.append(starts[1:], n)
        lidx = np.nonzero(side == 0)[0]  # left rows sort first in a segment
        if len(lidx) == 0:
            return empty
        lseg = seg_id[lidx]
        left_cnt = np.zeros(len(starts), np.int64)
        np.add.at(left_cnt, lseg, 1)
        r_lo = starts + left_cnt  # first right row per segment
        nr = (seg_end - r_lo)[lseg]  # right rows per left row
        out = []
        cum = np.cumsum(nr)
        chunk = cum // chunk_pairs
        for c in np.unique(chunk):
            m = chunk == c
            li = lidx[m]
            k = nr[m]
            if k.sum() == 0:
                continue
            lrow = np.repeat(li, k)
            off = np.concatenate([[0], np.cumsum(k)])[:-1]
            rrow = (
                np.arange(k.sum()) - np.repeat(off, k)
                + np.repeat(r_lo[lseg[m]], k)
            )
            dla = lat[lrow] - lat[rrow]
            dlo = lon[lrow] - lon[rrow]
            d2 = dla * dla + dlo * dlo
            ok = d2 <= r2
            if ok.any():
                out.append(
                    pa.table(
                        {
                            left_id: pa.array(
                                ids[lrow][ok].astype(np.int64), pa.int64()
                            ),
                            right_id: pa.array(
                                ids[rrow][ok].astype(np.int64), pa.int64()
                            ),
                            "sq_dist": pa.array(d2[ok], pa.float64()),
                        }
                    )
                )
        return pa.concat_tables(out) if out else empty

    return map_groups_partitioned(rep, "ck", per_part)
