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
- per partition, ``cell_pairs`` enumerates the candidate pairs with
  vectorized repeat/cumsum arithmetic (no Python loop over rows or cells),
  chunked so no single dense cell can blow the heap: mega-city skew
  degrades to more chunks, never to failure. Every grid-join kernel in the
  engine (this module, stjoin.py, segjoin.py and the band, co-location,
  semivariogram, nearest-doc and tile-partitioned containment queries)
  takes its candidates from it. For adversarial density the documented
  scale path is sub-cell salting (split hot cells on a finer grid and
  merge), same policy as stages/knn.py.

Distance is squared-euclidean in coordinate space — (a-b)*(a-b) sums, IEEE
order identical to a SQL mirror, so threshold comparisons are bit-exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned

_OFF21 = np.int64(1 << 20)
# 3x3 neighbourhood offsets, home cell (0, 0) first
_DX = np.array([0, -1, -1, -1, 0, 0, 1, 1, 1], dtype=np.int64)
_DY = np.array([0, -1, 0, 1, -1, 1, -1, 0, 1], dtype=np.int64)


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


def _cells(lat: np.ndarray, lon: np.ndarray, radius: float,
           radius_lon: float | None = None,
           lon_wrap_cells: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integer (lat, lon) cell indices of each point (see replicate_to_cells
    for ``radius_lon`` and ``lon_wrap_cells``)."""
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
    return cx, cy


def _pack(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    return ((cx + _OFF21).astype(np.uint64) << np.uint64(21)) | (
        cy + _OFF21
    ).astype(np.uint64)


def _ghost_keys(cx: np.ndarray, cy: np.ndarray,
                lon_wrap_cells: int | None = None) -> np.ndarray:
    """Packed keys of each point's 3x3 cell neighbourhood, 9 per point,
    home cell first."""
    n = len(cx)
    gy = np.repeat(cy, 9) + np.tile(_DY, n)
    if lon_wrap_cells is not None:
        gy %= lon_wrap_cells
    return _pack(np.repeat(cx, 9) + np.tile(_DX, n), gy)


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
    cx, cy = _cells(lat, lon, radius, radius_lon, lon_wrap_cells)
    home = np.zeros(9 * len(ids), dtype=bool)
    home[0::9] = True  # offset (0,0) is each point's first replica
    return pa.table(
        {
            "ck": pa.array(_ghost_keys(cx, cy, lon_wrap_cells), pa.uint64()),
            "doc_id": pa.array(np.repeat(ids, 9), pa.int64()),
            "lat": pa.array(np.repeat(lat, 9), pa.float64()),
            "lon": pa.array(np.repeat(lon, 9), pa.float64()),
            "home": pa.array(home, pa.bool_()),
        }
    )


def band_replicas(left, right, radius: float, left_id: str = "doc_id",
                  right_id: str = "event_id"):
    """Dataset[(ck, side, id, lat, lon)]: the asymmetric home+ghost input of
    a bipartite band join over Dataset[(left_id, lat, lon)] and
    Dataset[(right_id, lat, lon)]. Left rows (side 0) emit their home cell
    only, right rows (side 1) replicate to their 3x3 neighbourhood, so
    every pair within ``radius`` co-locates in exactly the left point's
    home cell."""

    def rep(id_col: str, side: int):
        def fn(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            lat = b["lat"].to_numpy(zero_copy_only=False)
            lon = b["lon"].to_numpy(zero_copy_only=False)
            cx, cy = _cells(lat, lon, radius)
            if side == 0:
                ck = _pack(cx, cy)
            else:
                ck = _ghost_keys(cx, cy)
                ids, lat, lon = np.repeat(ids, 9), np.repeat(lat, 9), np.repeat(lon, 9)
            return pa.table(
                {
                    "ck": pa.array(ck, pa.uint64()),
                    "side": pa.array(np.full(len(ck), side, np.int8), pa.int8()),
                    "id": pa.array(ids, pa.int64()),
                    "lat": pa.array(lat, pa.float64()),
                    "lon": pa.array(lon, pa.float64()),
                }
            )
        return fn

    return left.map_batches(rep(left_id, 0), batch_format="pyarrow",
                            batch_size=65536).union(
        right.map_batches(rep(right_id, 1), batch_format="pyarrow",
                          batch_size=65536)
    )


def cell_pairs(key: np.ndarray, left: np.ndarray | None,
               right: np.ndarray | None = None, chunk_pairs: int = 8 << 20):
    """Candidate pairs of one co-located partition, for every grid-join
    kernel (see the module docstring).

    Returns ``(order, chunks)``: ``order`` sorts the partition by cell key
    (stable; with ``right`` given, ``lexsort((right, key))`` so each cell's
    right rows form a contiguous suffix), and ``chunks`` yields ``(i, j)``
    index arrays into the SORTED rows. Every ``left`` row (a boolean mask
    over the unsorted rows; ``None`` means every row) is paired with every
    ``right`` row of its cell, or with every row of its cell (itself
    included) when ``right is None``. Pairs come out in left-row order, cut
    into chunks of about ``chunk_pairs`` pairs at left-row boundaries
    (``cumsum(pairs per left row) // chunk_pairs``), so a dense cell
    degrades to more chunks, never to one heap-sized expansion; chunks
    holding no pair are skipped. The caller applies its own predicate."""
    n = len(key)
    order = (np.argsort(key, kind="stable") if right is None
             else np.lexsort((right, key)))
    k = key[order]
    new = np.ones(n, dtype=bool)
    new[1:] = k[1:] != k[:-1]
    seg = np.cumsum(new) - 1
    starts = np.nonzero(new)[0]
    ends = starts + np.bincount(seg)
    if right is None:
        lo = starts
    else:
        lo = ends - np.bincount(seg[right[order]], minlength=len(starts))
    li = np.arange(n) if left is None else np.nonzero(left[order])[0]
    first = lo[seg[li]]  # first candidate row of each left row's cell
    cnt = ends[seg[li]] - first  # candidate pairs per left row
    chunk = np.cumsum(cnt) // chunk_pairs
    cuts = np.nonzero(chunk[1:] != chunk[:-1])[0] + 1

    def chunks():
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(li)]):
            c = cnt[a:b]
            total = int(c.sum())
            if total == 0:
                continue
            yield (np.repeat(li[a:b], c),
                   np.arange(total) - np.repeat(np.cumsum(c) - c, c)
                   + np.repeat(first[a:b], c))

    return order, chunks()


def pairs_in_partition(g: pa.Table, r2: float, chunk_pairs: int = 8 << 20,
                       metric_fn=None, out_col: str = "sq_dist") -> pa.Table:
    """Within-cell pair extraction for one co-located partition: each home
    row against every row of its cell (cell_pairs), kept when the larger
    id is on the right and the metric is within ``r2``.

    Default metric is squared euclidean in coordinate space (threshold
    ``r2`` in squared units); pass ``metric_fn(lat_a, lon_a, lat_b, lon_b)``
    for another vectorized metric (threshold in its own units) — the cell
    replication must then COVER the metric's reach (caller's contract)."""
    # Candidate LEFT side is restricted to home rows up front: masking
    # home[left] after a full L^2 expansion materializes 9x the candidate
    # rows for identical output (the 27x space-time variant measured
    # 21 s -> <1 s serial).
    order, chunks = cell_pairs(
        g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
        g["home"].to_numpy(zero_copy_only=False), chunk_pairs=chunk_pairs,
    )
    ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
    lat = g["lat"].to_numpy(zero_copy_only=False)[order]
    lon = g["lon"].to_numpy(zero_copy_only=False)[order]
    out_a, out_b, out_d = [ids[:0]], [ids[:0]], [np.zeros(0)]
    for i, j in chunks:
        m = ids[j] > ids[i]
        la, lb = i[m], j[m]
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

    ASYMMETRIC home+ghost plan (band_replicas; the self-join above
    replicates everything 9x, two heterogeneous sides need only 1x + 9x):
    the LEFT side emits one home replica, the RIGHT side replicates to its
    3x3 neighborhood, so every qualifying pair co-locates in exactly the
    left point's home cell and is emitted exactly once — no cross-partition dedup, ONE hash
    shuffle total. The partition kernel pairs each cell's left rows against
    its right rows through cell_pairs (chunked against dense cells — skew
    degrades to more chunks, never to heap failure). geo_doc_event_band
    and geo_cross_k both run on it."""
    r2 = radius * radius

    rep = band_replicas(left, right, radius, left_id, right_id)

    def per_part(g: pa.Table, chunk_pairs: int = 8 << 20) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        order, chunks = cell_pairs(
            g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
            side == 0, side == 1, chunk_pairs,
        )
        ids = g["id"].to_numpy(zero_copy_only=False)[order]
        lat = g["lat"].to_numpy(zero_copy_only=False)[order]
        lon = g["lon"].to_numpy(zero_copy_only=False)[order]
        out_l, out_r, out_d = [ids[:0]], [ids[:0]], [np.zeros(0)]
        for i, j in chunks:
            dla = lat[i] - lat[j]
            dlo = lon[i] - lon[j]
            d2 = dla * dla + dlo * dlo
            ok = d2 <= r2
            out_l.append(ids[i][ok])
            out_r.append(ids[j][ok])
            out_d.append(d2[ok])
        return pa.table(
            {
                left_id: pa.array(np.concatenate(out_l), pa.int64()),
                right_id: pa.array(np.concatenate(out_r), pa.int64()),
                "sq_dist": pa.array(np.concatenate(out_d), pa.float64()),
            }
        )

    return map_groups_partitioned(rep, "ck", per_part)
