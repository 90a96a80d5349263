"""Spatial operators over the derived document and event coordinates: tiles,
point-in-polygon, kNN, distance and band joins, hulls, space-filling curves,
interpolation, kernel density, grid routing and trajectory geometry.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.geo import geometry, hexgrid, mercator
from core_ray.queries._shared import (
    _BI_RADIUS, _DGD, _DP_EPS, _GE_CELL_MILLI, _GEO_PAIR_RADIUS_DEG, _QT_LMAX, _TT_DAY_US,
    GEO_LAT_SQL, GEO_LON_SQL, GEO_RECTS, _collect_table, _derive_coords, _ensure_docs_golden, _read,
    _with_coords, query,
)
from core_ray.rounding import sql_round_np
from core_ray.stages.agg import count_by_u64, fold_table, map_groups_partitioned, min_by_u64, sum_by_u64
from core_ray.stages.cc import connected_components
from core_ray.stages.dbscan import dbscan
from core_ray.stages.distband import (
    bipartite_band_pairs, cell_pairs, distance_pairs, haversine_distance_pairs, haversine_km,
)
from core_ray.stages.join import hash_join, lookup_join
from core_ray.stages.pip import PipJoin, build_polygon_index
from core_ray.stages.segjoin import segment_crossings


def _geo_tile_sql_one(z: int) -> str:
    n = float(1 << z)
    return f"""
  SELECT {z} AS tile_z,
         CAST(LEAST({n} - 1, GREATEST(0, FLOOR((lon + 180.0) / 360.0 * {n}))) AS BIGINT) AS tile_x,
         CAST(LEAST({n} - 1, GREATEST(0, FLOOR((1.0 - LN(TAN(RADIANS(lat)) + 1.0 / COS(RADIANS(lat))) / PI()) / 2.0 * {n}))) AS BIGINT) AS tile_y
  FROM pts
"""




@query(sql=f"WITH pts AS (SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),\n"
    "tiles AS (" + "\n  UNION ALL\n".join(_geo_tile_sql_one(z) for z in (7, 9, 12)) + ")\n"
    "SELECT CAST(tile_z AS INTEGER) AS tile_z, tile_x, tile_y, COUNT(*) AS n_points "
    "FROM tiles GROUP BY 1, 2, 3")
def geo_tile_counts(sf_dir: str, zooms=(7, 9, 12)):
    """Tile-key counting at high cardinality (~#distinct tiles keys): the
    (z,x,y) triple packs losslessly into uint64 (stages/tiles.py key
    layout), so the count runs through the vectorized combiner +
    hash-partition reduce (stages/agg.py) and unpacks at the end — never
    Ray's Python-per-key aggregate."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tiles(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        keys = []
        for z in zooms:
            x, y = mercator.lonlat_to_tile(lon, lat, z)
            keys.append(
                mercator.tile_key(
                    np.full(len(x), z, dtype=np.uint64),
                    x.astype(np.uint64),
                    y.astype(np.uint64),
                )
            )
        return pa.table({"key": pa.array(np.concatenate(keys), pa.uint64())})

    counted = count_by_u64(
        ds.map_batches(tiles, batch_format="pyarrow", batch_size=65536), "key"
    )

    def unpack(b: pa.Table) -> pa.Table:
        uz, ux, uy = mercator.tile_unkey(b["key"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "tile_z": pa.array(uz, pa.int32()),
                "tile_x": pa.array(ux, pa.int64()),
                "tile_y": pa.array(uy, pa.int64()),
                "n_points": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64), pa.int64()
                ),
            }
        )

    return counted.map_batches(unpack, batch_format="pyarrow")


def _geo_admin_table() -> pa.Table:
    rows = []
    for aid, lvl, lat0, lon0, lat1, lon1 in GEO_RECTS:
        wkt = (
            f"POLYGON (({lon0} {lat0}, {lon1} {lat0}, {lon1} {lat1}, "
            f"{lon0} {lat1}, {lon0} {lat0}))"
        )
        rows.append((aid, lvl, wkt))
    return pa.table(
        {
            "admin_id": pa.array([r[0] for r in rows], pa.string()),
            "level": pa.array([r[1] for r in rows], pa.int8()),
            "wkt": pa.array([r[2] for r in rows], pa.string()),
        }
    )


def _geo_rects_values_sql() -> str:
    rows = ",\n    ".join(
        f"('{aid}', {lvl}, {lat0}, {lon0}, {lat1}, {lon1})"
        for aid, lvl, lat0, lon0, lat1, lon1 in GEO_RECTS
    )
    return f"(VALUES\n    {rows}) AS r(admin_id, level, lat0, lon0, lat1, lon1)"




@query(sql=f"""
WITH pts AS (SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
hits AS (
  SELECT p.doc_id, r.admin_id, r.level
  FROM pts p JOIN {_geo_rects_values_sql()}
    ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1),
best AS (
  SELECT doc_id, admin_id, level FROM hits
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY level DESC, admin_id) = 1)
SELECT p.doc_id, b.admin_id, CAST(COALESCE(b.level, -1) AS TINYINT) AS admin_level
FROM pts p LEFT JOIN best b USING (doc_id)
""")
def geo_pip_admin(sf_dir: str):
    """Point-in-polygon with deepest-wins precedence over the deterministic
    rect hierarchy — runs the REAL PipJoin actor (STRtree + tie-breaks) so the
    DuckDB oracle validates the containment-join machinery itself."""
    admin = _geo_admin_table()
    ds = _read(sf_dir, "documents", ["doc_id"])

    def coords(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    pts = ds.map_batches(coords, batch_format="pyarrow", batch_size=65536)
    out = pts.map_batches(
        PipJoin, fn_constructor_args=(admin,), batch_format="pyarrow",
        batch_size=65536, concurrency=(1, 4),
    )
    return out.select_columns(["doc_id", "admin_id", "admin_level"])


_HULL_ZOOM = 4


def _monotone_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over DISTINCT lexicographically-sorted
    (lon, lat) rows. Strict turns (collinear vertices dropped); returns
    hull vertices CCW starting at the smallest vertex; <=2 points pass
    through. Sign decisions are exact on identical doubles, so engine and
    golden (fixtures/docs_golden.golden_tile_hulls — an independent
    dict/loop implementation) agree bit-for-bit."""
    m = len(pts)
    if m <= 2:
        return pts

    def half(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and (
                (h[-1][0] - h[-2][0]) * (p[1] - h[-2][1])
                - (h[-1][1] - h[-2][1]) * (p[0] - h[-2][0])
            ) <= 0.0:
                h.pop()
            h.append(p)
        return h

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.float64)


def _per_tile_hulls(t: pa.Table, emit_seq: bool) -> pa.Table:
    """(key:uint64 tile, lon, lat) rows -> per-tile hull vertices. The walk
    loops over TILES present in the block, never over raw rows; dedup/sort
    are vectorized."""
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    lon = t["lon"].to_numpy(zero_copy_only=False)
    lat = t["lat"].to_numpy(zero_copy_only=False)
    order = np.lexsort((lat, lon, key))
    key, lon, lat = key[order], lon[order], lat[order]
    distinct = np.ones(len(key), dtype=bool)
    distinct[1:] = (
        (key[1:] != key[:-1]) | (lon[1:] != lon[:-1]) | (lat[1:] != lat[:-1])
    )
    key, lon, lat = key[distinct], lon[distinct], lat[distinct]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.nonzero(new)[0]
    bounds = np.append(starts, len(key))
    out_k, out_seq, out_lon, out_lat = [], [], [], []
    for i, s in enumerate(starts):
        e = bounds[i + 1]
        hull = _monotone_hull(np.column_stack([lon[s:e], lat[s:e]]))
        out_k.append(np.full(len(hull), key[s], dtype=np.uint64))
        out_seq.append(np.arange(len(hull), dtype=np.int32))
        out_lon.append(hull[:, 0])
        out_lat.append(hull[:, 1])
    cols = {
        "key": pa.array(
            np.concatenate(out_k) if out_k else np.zeros(0, np.uint64),
            pa.uint64()),
    }
    if emit_seq:
        cols["seq"] = pa.array(
            np.concatenate(out_seq) if out_seq else np.zeros(0, np.int32),
            pa.int32())
    cols["lon"] = pa.array(
        np.concatenate(out_lon) if out_lon else np.zeros(0), pa.float64())
    cols["lat"] = pa.array(
        np.concatenate(out_lat) if out_lat else np.zeros(0), pa.float64())
    return pa.table(cols)


def tile_hulls(tagged):
    """Dataset[(key:uint64 tile, lon, lat)] -> Dataset[(tile_x, tile_y, seq,
    lat, lon)]: per-batch hull-vertex pruning (the exact hull-of-hulls
    combiner: hull(A ∪ B) == hull(hull(A) ∪ hull(B))), ONE shuffle carrying
    only hull candidates, per-partition final hulls."""
    pruned = tagged.map_batches(
        lambda b: _per_tile_hulls(b, emit_seq=False),
        batch_format="pyarrow", batch_size=65536,
    )

    def finish(g: pa.Table) -> pa.Table:
        t = _per_tile_hulls(g, emit_seq=True)
        k = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "tile_x": pa.array((k >> np.uint64(32)).astype(np.int64), pa.int64()),
                "tile_y": pa.array(
                    (k & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()),
                "seq": t["seq"],
                "lat": t["lat"],
                "lon": t["lon"],
            }
        )

    return map_groups_partitioned(pruned, "key", finish)


@query(sql=f"SELECT * FROM read_parquet('{_DGD}/tile_hulls.parquet')")
def geo_convex_hull(sf_dir: str, zoom: int = _HULL_ZOOM):
    """Per-tile convex hulls — grouped vector geometry (the dissolve/hull
    half of the raster<->vector family, alongside geo_tile_regions'
    polygonize and geo_rect_cover's polyfill). Distributed via the exact
    hull-of-hulls combiner, so the groupby moves at most O(hull size) rows
    per tile per batch, never the member points (a mega-city tile ships a
    few dozen vertices, not millions of rows). Oracle: independent
    dict/loop monotone chain materialized as golden parquet."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tag(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        x, y = mercator.lonlat_to_tile(lon, lat, zoom)
        key = (x.astype(np.uint64) << np.uint64(32)) | y.astype(np.uint64)
        return pa.table(
            {
                "key": pa.array(key, pa.uint64()),
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    return tile_hulls(ds.map_batches(tag, batch_format="pyarrow", batch_size=65536))


_N9 = float(1 << 4)  # zoom 4: coarse enough that tiles hold multiple points


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
tiled AS (
  SELECT doc_id, lat, lon,
         CAST(LEAST({_N9} - 1, GREATEST(0, FLOOR((lon + 180.0) / 360.0 * {_N9}))) AS BIGINT) AS tile_x,
         CAST(LEAST({_N9} - 1, GREATEST(0, FLOOR((1.0 - LN(TAN(RADIANS(lat)) + 1.0 / COS(RADIANS(lat))) / PI()) / 2.0 * {_N9}))) AS BIGINT) AS tile_y
  FROM pts),
pairs AS (
  SELECT a.doc_id, b.doc_id AS neighbor_id,
         (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon) AS sq_dist
  FROM tiled a JOIN tiled b
    ON a.tile_x = b.tile_x AND a.tile_y = b.tile_y AND a.doc_id <> b.doc_id)
SELECT doc_id, neighbor_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY sq_dist, neighbor_id) - 1 AS INTEGER) AS "rank",
       sq_dist
FROM pairs
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY sq_dist, neighbor_id) <= 3
""")
def geo_knn_tile(sf_dir: str, k: int = 3, zoom: int = 4):
    """Per-tile kNN self-join (squared euclidean in degree space; bit-exact
    formula mirrored in SQL). groupby(tile) shuffle + per-group numpy."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tag(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        x, y = mercator.lonlat_to_tile(lon, lat, zoom)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
                "tile_x": pa.array(x, pa.int64()),
                "tile_y": pa.array(y, pa.int64()),
            }
        )

    def group_knn(g: pa.Table) -> pa.Table:
        ids = g["doc_id"].to_numpy(zero_copy_only=False)
        lat = g["lat"].to_numpy(zero_copy_only=False)
        lon = g["lon"].to_numpy(zero_copy_only=False)
        out_id, out_nb, out_rk, out_d = [], [], [], []
        for i in range(len(ids)):
            dla = lat[i] - lat
            dlo = lon[i] - lon
            sq = dla * dla + dlo * dlo
            sq[i] = np.inf
            order = np.lexsort((ids, sq))[: min(k, len(ids) - 1)]
            for r, j in enumerate(order):
                out_id.append(ids[i])
                out_nb.append(ids[j])
                out_rk.append(r)
                out_d.append(sq[j])
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "neighbor_id": pa.array(out_nb, pa.int64()),
                "rank": pa.array(out_rk, pa.int32()),
                "sq_dist": pa.array(out_d, pa.float64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow", batch_size=65536)
        .groupby(["tile_x", "tile_y"])
        .map_groups(group_knn, batch_format="pyarrow")
    )


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, n_chars, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
hits AS (
  SELECT p.doc_id, p.n_chars, r.admin_id, r.level
  FROM pts p JOIN {_geo_rects_values_sql()}
    ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1),
best AS (
  SELECT doc_id, n_chars, admin_id FROM hits
  QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY level DESC, admin_id) = 1)
SELECT admin_id, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CAST(n_chars AS BIGINT)) AS BIGINT) AS sum_chars,
       ROUND(CAST(SUM(CAST(n_chars AS BIGINT)) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_chars
FROM best GROUP BY 1 ORDER BY 1
""")
def geo_zonal_stats(sf_dir: str):
    """Zonal statistics (classic raster->vector aggregate): per admin zone,
    the count and mean size of the documents whose point falls inside it,
    zone membership decided by the SAME deepest-wins PipJoin actor the
    containment join uses. Payload columns ride THROUGH the actor-pool
    stage (PipJoin appends, never projects), so the stats need no second
    join; the final group is |zones| rows via a per-batch combiner. The
    mean is one float division of exact integer sums, mirrored in SQL."""
    admin = _geo_admin_table()

    def coords(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    joined = (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(coords, batch_format="pyarrow", batch_size=65536)
        .map_batches(
            PipJoin, fn_constructor_args=(admin,), batch_format="pyarrow",
            batch_size=65536, concurrency=(1, 4),
        )
    )

    t = fold_table(
        joined.filter(expr="admin_level >= 0"),
        "admin_id",
        {"n_docs": (None, "count"), "sum_chars": ("n_chars", "sum")},
    )
    n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
    s = t["sum_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
    return t.append_column("mean_chars", pa.array(sql_round_np(s / n, 6), pa.float64()))


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon) AS sq_dist
FROM pts a JOIN pts b ON a.doc_id < b.doc_id
WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
      <= {_GEO_PAIR_RADIUS_DEG * _GEO_PAIR_RADIUS_DEG}
""")
def geo_distance_pairs(sf_dir: str, radius: float = _GEO_PAIR_RADIUS_DEG):
    """Distance-band spatial self-join: ALL pairs of documents within
    ``radius`` in squared-degree space — the within-distance join per-tile
    kNN cannot express (kNN misses cross-tile neighbors; this op is exact
    across cells). The operator lives in stages/distband.py (home+ghost
    cell replication, ONE hash shuffle, vectorized per-partition pair
    construction, chunked against dense-cell skew); its cross-cell
    exactness is property-tested against a dense brute-force oracle in
    tests/test_distband.py, and the driver hash checks the derived-
    coordinate lattice against DuckDB's brute-force cross join —
    (a-b)*(a-b) sums, bit-identical IEEE ops on both sides."""
    def coords(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    pts = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        coords, batch_format="pyarrow", batch_size=65536
    )
    return distance_pairs(pts, radius)


_HAVERSINE_BAND_KM = 100.0


# the SQL mirrors haversine_km (stages/distband.py) term-for-term: same
# left-associative order, a = smaller event_id (matching the engine's
# home-left/larger-right emission), so both sides run the identical IEEE
# expression tree modulo libm ULPs (absorbed by the FLOOR output contract).
@query(sql=f"""
WITH pts AS (
  SELECT event_id, {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
d AS (
  SELECT a.event_id AS event_a, b.event_id AS event_b,
         2.0 * 6371.0088 * ASIN(SQRT(
           SIN(RADIANS(b.lat - a.lat) / 2.0) * SIN(RADIANS(b.lat - a.lat) / 2.0)
           + COS(RADIANS(a.lat)) * COS(RADIANS(b.lat))
             * SIN(RADIANS(b.lon - a.lon) / 2.0) * SIN(RADIANS(b.lon - a.lon) / 2.0)
         )) AS dist_km
  FROM pts a JOIN pts b ON a.event_id < b.event_id)
SELECT event_a, event_b, CAST(FLOOR(dist_km) AS BIGINT) AS km_floor
FROM d WHERE dist_km <= {_HAVERSINE_BAND_KM}
""")
def geo_haversine_pairs(sf_dir: str, max_km: float = _HAVERSINE_BAND_KM):
    """Distance-band self-join in TRUE kilometers: all event pairs within
    ``max_km`` great-circle distance, over the events table (10k/100k rows
    at sf0.01/0.1 — the densest derived-coordinate lattice). Same one-
    shuffle home+ghost plan as geo_distance_pairs with metric-aware cell
    sizing (lat cells from the meridian bound, lon cells widened by
    1/cos(max|lat|)) and a modular LON RING so antimeridian pairs
    co-locate (great-circle distance wraps; degree-space does not) — see
    stages/distband.py haversine_distance_pairs, brute-force-tested incl.
    wraparound and high-latitude cases in tests/test_distband.py.

    Float-parity design: numpy's sin/cos/asin differ from DuckDB's libm by
    1-2 ULP (measured: max 3.6e-12 km on this lattice), so emitting the raw
    distance would hash-mismatch. The output instead carries
    FLOOR(dist_km)::BIGINT — a flip needs a pair within ~4e-12 km of an
    integer (p ~ 1e-7 over this output) — and the <= max_km threshold has
    the same negligible straddle risk."""
    def coords(b: pa.Table) -> pa.Table:
        ev = b["event_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(ev)
        return pa.table(
            {
                "doc_id": b["event_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    pts = _read(sf_dir, "events", ["event_id"]).map_batches(
        coords, batch_format="pyarrow", batch_size=65536
    )
    pairs = haversine_distance_pairs(pts, max_km)

    def finish(b: pa.Table) -> pa.Table:
        d = b["dist_km"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_a": b["doc_a"],
                "event_b": b["doc_b"],
                "km_floor": pa.array(np.floor(d).astype(np.int64), pa.int64()),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
legs AS (
  SELECT user_id,
         LAG(lat) OVER w AS plat, LAG(lon) OVER w AS plon, lat, lon
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
km AS (
  SELECT user_id, CAST(FLOOR(
    2.0 * 6371.0088 * ASIN(SQRT(
      SIN(RADIANS(lat - plat) / 2.0) * SIN(RADIANS(lat - plat) / 2.0)
      + COS(RADIANS(plat)) * COS(RADIANS(lat))
        * SIN(RADIANS(lon - plon) / 2.0) * SIN(RADIANS(lon - plon) / 2.0)
    ))) AS BIGINT) AS leg_km
  FROM legs WHERE plat IS NOT NULL)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_legs,
       CAST(SUM(leg_km) AS BIGINT) AS total_km,
       MAX(leg_km) AS max_leg_km
FROM km GROUP BY user_id
""")
def geo_traj_stats(sf_dir: str):
    """Per-user TRAJECTORY statistics: treat each user's (ts, event_id)-
    ordered event history as a path over the derived coordinate lattice and
    report legs walked, total great-circle km and the longest single leg.
    One hash-partition shuffle by user (same plan as events_lag_delta);
    every user's rows co-locate, so the per-leg haversine AND the per-user
    reduction finish inside one partition pass — no second shuffle.

    Float parity: per-leg distances quantize to FLOOR km (numpy vs DuckDB
    libm differ by ULPs — see geo_haversine_pairs); the per-user totals are
    then INTEGER sums, order-independent and exact on both sides."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_legs": pa.array([], pa.int64()),
                "total_km": pa.array([], pa.int64()),
                "max_leg_km": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        if not leg.any():
            return empty
        i = np.nonzero(leg)[0]
        km = np.floor(
            haversine_km(lat[i - 1], lon[i - 1], lat[i], lon[i])
        ).astype(np.int64)
        lu = uid[i]  # sorted (legs follow the user-sorted order)
        starts = np.nonzero(np.r_[True, lu[1:] != lu[:-1]])[0]
        n_legs = np.diff(np.append(starts, len(lu)))
        total = np.add.reduceat(km, starts)
        mx = np.maximum.reduceat(km, starts)
        return pa.table(
            {
                "user_id": pa.array(lu[starts], pa.int64()),
                "n_legs": pa.array(n_legs.astype(np.int64), pa.int64()),
                "total_km": pa.array(total, pa.int64()),
                "max_leg_km": pa.array(mx, pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# derived short segments (extent <= 1 degree per axis): start at the event's
# lattice point, end at a deterministic small offset — same spirit as
# _derive_coords, off-lattice denominators keep endpoints generic.
GEO_SEG_DLAT_SQL = "((event_id * 31) % 2001) / 1000.0 - 1.0"
GEO_SEG_DLON_SQL = "((event_id * 57) % 2001) / 1000.0 - 1.0"


@query(sql=f"""
WITH raw AS (
  SELECT event_id AS seg_id,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS ax,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS ay,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} + ({GEO_SEG_DLON_SQL}) AS bx,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} + ({GEO_SEG_DLAT_SQL}) AS by
  FROM events),
segs AS MATERIALIZED (
  SELECT seg_id, ax, ay, bx, by,
         LEAST(ax, bx) AS mnx, GREATEST(ax, bx) AS mxx,
         LEAST(ay, by) AS mny, GREATEST(ay, by) AS mxy
  FROM raw)
SELECT a.seg_id AS seg_a, b.seg_id AS seg_b
FROM segs a JOIN segs b
  ON a.seg_id < b.seg_id
 AND a.mnx <= b.mxx AND b.mnx <= a.mxx
 AND a.mny <= b.mxy AND b.mny <= a.mxy
WHERE ((a.bx - a.ax) * (b.ay - a.ay) - (a.by - a.ay) * (b.ax - a.ax))
      * ((a.bx - a.ax) * (b.by - a.ay) - (a.by - a.ay) * (b.bx - a.ax)) < 0.0
  AND ((b.bx - b.ax) * (a.ay - b.ay) - (b.by - b.ay) * (a.ax - b.ax))
      * ((b.bx - b.ax) * (a.by - b.ay) - (b.by - b.ay) * (a.bx - b.ax)) < 0.0
""")
def geo_segment_crossings(sf_dir: str):
    """Segment-intersection self-join: every pair of derived trajectory
    segments that PROPERLY cross in planar coordinate space. Extends the
    grid-partition join family from points (distband) to extended objects:
    bbox-overlap cell replication + canonical-cell dedup + strict
    orientation-sign predicate (multiply/subtract only — the SQL oracle
    runs the SAME correctly-rounded IEEE expression, so unlike the
    haversine family there is no ULP caveat and the pair set is bit-exact).
    See stages/segjoin.py; brute-force-tested in tests/test_segjoin.py."""
    def segs(b: pa.Table) -> pa.Table:
        ev = b["event_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(ev)
        dlat = ((ev * 31) % 2001) / 1000.0 - 1.0
        dlon = ((ev * 57) % 2001) / 1000.0 - 1.0
        return pa.table(
            {
                "seg_id": b["event_id"],
                "ax": pa.array(lon, pa.float64()),
                "ay": pa.array(lat, pa.float64()),
                "bx": pa.array(lon + dlon, pa.float64()),
                "by": pa.array(lat + dlat, pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_id"]).map_batches(
        segs, batch_format="pyarrow", batch_size=65536
    )
    return segment_crossings(ds, cell=1.0)


_INTERP_GRID_DEG = 10.0  # target grid cell size (aligned to multiples of 10)


@query(sql=f"""
WITH pts AS (
  SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
counts AS (
  SELECT r.admin_id, r.lat0, r.lon0, r.lat1, r.lon1,
         COUNT(*) AS n_docs
  FROM pts p JOIN {_geo_rects_values_sql()}
    ON p.lat BETWEEN r.lat0 AND r.lat1 AND p.lon BETWEEN r.lon0 AND r.lon1
  GROUP BY 1, 2, 3, 4, 5),
cells AS (
  SELECT CAST(x.range AS BIGINT) AS gx, CAST(y.range AS BIGINT) AS gy
  FROM range(-19, 19) x CROSS JOIN range(-8, 8) y),
overlay AS (
  SELECT c.gx, c.gy,
         CAST(ROUND(CAST(n.n_docs AS DOUBLE)
           * ((LEAST(n.lat1, (c.gy + 1) * {_INTERP_GRID_DEG}) -
               GREATEST(n.lat0, c.gy * {_INTERP_GRID_DEG}))
              * (LEAST(n.lon1, (c.gx + 1) * {_INTERP_GRID_DEG}) -
                 GREATEST(n.lon0, c.gx * {_INTERP_GRID_DEG})))
           / ((n.lat1 - n.lat0) * (n.lon1 - n.lon0)) * 1000000.0, 0)
         AS BIGINT) AS micro
  FROM counts n JOIN cells c
    ON LEAST(n.lon1, (c.gx + 1) * {_INTERP_GRID_DEG})
       - GREATEST(n.lon0, c.gx * {_INTERP_GRID_DEG}) > 0.0
   AND LEAST(n.lat1, (c.gy + 1) * {_INTERP_GRID_DEG})
       - GREATEST(n.lat0, c.gy * {_INTERP_GRID_DEG}) > 0.0)
SELECT gx, gy, CAST(SUM(micro) AS BIGINT) AS docs_micro
FROM overlay GROUP BY 1, 2
""")
def geo_area_interp(sf_dir: str):
    """AREAL INTERPOLATION (the classic GIS overlay re-aggregation): a
    quantity known per source zone — documents counted inside each admin
    rectangle — is re-distributed onto a regular 10-degree target grid
    proportionally to overlap area. Plan: one streaming pass counts docs
    per admin (13 rects broadcast as a constant, per-batch partial counts,
    tiny final groupby); the (admin x grid) overlay then EXPLODES the
    13-row side table inside map_batches (same broadcast-side-builder
    shape as geo_rect_cover) and a final small groupby sums per cell.

    Float parity: overlap widths, areas and fractions are min/max/multiply/
    divide — correctly-rounded IEEE mirrored bit-exactly by SQL — and each
    per-(cell, admin) contribution is rounded to INTEGER micro-docs before
    the per-cell sum, so the sum is order-independent BIGINT arithmetic on
    both sides (double SUM order would otherwise differ)."""
    import ray

    g = _INTERP_GRID_DEG
    rects = [
        (aid, float(lat0), float(lon0), float(lat1), float(lon1))
        for (aid, _lvl, lat0, lon0, lat1, lon1) in GEO_RECTS
    ]

    def partial_counts(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        aids, ns = [], []
        for aid, lat0, lon0, lat1, lon1 in rects:
            m = (lat >= lat0) & (lat <= lat1) & (lon >= lon0) & (lon <= lon1)
            aids.append(aid)
            ns.append(int(m.sum()))
        return pa.table(
            {"admin_id": pa.array(aids, pa.string()), "n": pa.array(ns, pa.int64())}
        )

    counts = fold_table(
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(partial_counts, batch_format="pyarrow", batch_size=65536),
        "admin_id",
        {"n_docs": ("n", "sum")},
    )  # 13 rows — the small side table
    n_by_admin = dict(zip(counts["admin_id"].to_pylist(), counts["n_docs"].to_pylist()))

    # only rects that contain documents (the SQL counts CTE is an inner
    # join, so a zero-doc rect contributes no overlay rows there either)
    occ = [r for r in rects if n_by_admin.get(r[0], 0) > 0]
    side = pa.table(
        {
            "admin_id": pa.array([r[0] for r in occ], pa.string()),
            "lat0": pa.array([r[1] for r in occ], pa.float64()),
            "lon0": pa.array([r[2] for r in occ], pa.float64()),
            "lat1": pa.array([r[3] for r in occ], pa.float64()),
            "lon1": pa.array([r[4] for r in occ], pa.float64()),
            "n_docs": pa.array([int(n_by_admin[r[0]]) for r in occ], pa.int64()),
        }
    )

    def overlay(b: pa.Table) -> pa.Table:
        lat0 = b["lat0"].to_numpy(zero_copy_only=False)
        lon0 = b["lon0"].to_numpy(zero_copy_only=False)
        lat1 = b["lat1"].to_numpy(zero_copy_only=False)
        lon1 = b["lon1"].to_numpy(zero_copy_only=False)
        nd = b["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        gx0 = np.floor(lon0 / g).astype(np.int64)
        gx1 = np.floor(lon1 / g).astype(np.int64)
        gy0 = np.floor(lat0 / g).astype(np.int64)
        gy1 = np.floor(lat1 / g).astype(np.int64)
        nx = gx1 - gx0 + 1
        ny = gy1 - gy0 + 1
        cnt = nx * ny
        total = int(cnt.sum())
        rect = np.repeat(np.arange(b.num_rows), cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        gx = gx0[rect] + offs // ny[rect]
        gy = gy0[rect] + offs % ny[rect]
        ov_lon = np.minimum(lon1[rect], (gx + 1) * g) - np.maximum(lon0[rect], gx * g)
        ov_lat = np.minimum(lat1[rect], (gy + 1) * g) - np.maximum(lat0[rect], gy * g)
        area = (lat1[rect] - lat0[rect]) * (lon1[rect] - lon0[rect])
        contrib = nd[rect] * (ov_lat * ov_lon) / area * 1000000.0
        keep = (ov_lon > 0.0) & (ov_lat > 0.0)
        return pa.table(
            {
                "gx": pa.array(gx[keep], pa.int64()),
                "gy": pa.array(gy[keep], pa.int64()),
                "micro": pa.array(
                    sql_round_np(contrib[keep], 0).astype(np.int64), pa.int64()
                ),
            }
        )

    return fold_table(
        ray.data.from_arrow(side).map_batches(overlay, batch_format="pyarrow"),
        ["gx", "gy"],
        {"docs_micro": ("micro", "sum")},
    )


@query(sql=f"""
WITH pts AS (
  SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
cells AS (
  SELECT CAST(x.range AS BIGINT) AS gx, CAST(y.range AS BIGINT) AS gy
  FROM range(-180, 180) x CROSS JOIN range(-70, 70) y),
contrib AS (
  SELECT c.gx, c.gy,
         CAST(ROUND(EXP(-(
             (p.lon - (c.gx + 0.5)) * (p.lon - (c.gx + 0.5))
             + (p.lat - (c.gy + 0.5)) * (p.lat - (c.gy + 0.5))
           ) / 2.0) * 1000000.0, 0) AS BIGINT) AS micro
  FROM pts p JOIN cells c
    ON (p.lon - (c.gx + 0.5)) * (p.lon - (c.gx + 0.5))
       + (p.lat - (c.gy + 0.5)) * (p.lat - (c.gy + 0.5)) <= 4.0)
SELECT gx, gy, CAST(SUM(micro) AS BIGINT) AS kde_micro
FROM contrib GROUP BY 1, 2
""")
def geo_kde_tiles(sf_dir: str):
    """KERNEL DENSITY ESTIMATE onto a 1-degree raster: every document point
    spreads a truncated Gaussian (sigma = 1 deg, cutoff d <= 2 deg) over
    nearby cell CENTERS; per-cell densities sum. The raster-analysis
    sibling of geo_focal_mean — here the kernel is distance-weighted and
    applied scatter-side: one map_batches explodes each point to its 7x7
    stencil (vectorized, ~12.6 cells survive the circular cutoff), one
    groupby sums. Grid is clamped to lon [-180,180) x lat [-70,70) cells
    (edge kernels truncate identically on both sides).

    Float parity: the cutoff d^2 <= 4 uses exact IEEE products; the
    Gaussian uses EXP (ULP-divergent between numpy and DuckDB), so each
    contribution rounds to INTEGER micro-density before the order-
    independent BIGINT sum — a flip needs exp() within ~1e-16 of a
    rounding boundary (p ~ 1e-10 per contribution)."""
    def scatter(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        n = len(lat)
        off = np.arange(-3, 4, dtype=np.int64)
        dxg, dyg = np.meshgrid(off, off, indexing="ij")
        dxg, dyg = dxg.ravel(), dyg.ravel()  # 49 offsets
        gx = np.floor(lon).astype(np.int64)[:, None] + dxg[None, :]
        gy = np.floor(lat).astype(np.int64)[:, None] + dyg[None, :]
        dx = lon[:, None] - (gx + 0.5)
        dy = lat[:, None] - (gy + 0.5)
        d2 = dx * dx + dy * dy
        keep = (
            (d2 <= 4.0)
            & (gx >= -180) & (gx <= 179)
            & (gy >= -70) & (gy <= 69)
        )
        micro = sql_round_np(np.exp(-d2[keep] / 2.0) * 1000000.0, 0)
        return pa.table(
            {
                "gx": pa.array(gx[keep], pa.int64()),
                "gy": pa.array(gy[keep], pa.int64()),
                "micro": pa.array(micro.astype(np.int64), pa.int64()),
            }
        )

    return fold_table(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(scatter, batch_format="pyarrow", batch_size=65536),
        ["gx", "gy"],
        {"kde_micro": ("micro", "sum")},
    )


@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         RADIANS({GEO_LAT_SQL.replace('doc_id', 'event_id')}) AS la,
         RADIANS({GEO_LON_SQL.replace('doc_id', 'event_id')}) AS lo
  FROM events),
legs AS (
  SELECT user_id, LAG(la) OVER w AS la1, LAG(lo) OVER w AS lo1, la, lo
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
bearing AS (
  SELECT user_id,
         DEGREES(ATAN2(
           SIN(lo - lo1) * COS(la),
           COS(la1) * SIN(la) - SIN(la1) * COS(la) * COS(lo - lo1))) AS deg
  FROM legs WHERE la1 IS NOT NULL)
SELECT user_id,
       CAST(FLOOR(((deg + 360.0) % 360.0) / 45.0) AS BIGINT) AS sector,
       CAST(COUNT(*) AS BIGINT) AS n_legs
FROM bearing GROUP BY 1, 2
""")
def geo_bearing_rose(sf_dir: str):
    """COMPASS ROSE of movement: per user, how many trajectory legs head
    into each of the 8 45-degree bearing sectors (N, NE, ..., NW) — the
    directional-distribution view of the event stream. One user-partition
    pass (same plan as geo_traj_stats); the initial great-circle bearing is
    the standard atan2 formula, mirrored term-for-term by the SQL.

    Float caveat: atan2/sin/cos differ by ULPs across libms, but a flip
    needs a bearing within ~1e-13 deg of a 45-degree sector edge; exact
    edge cases (due-N/E/S/W legs from axis-aligned lattice moves) hit
    atan2's EXACT special values (atan2(+-0, x), atan2(y, +-0)) which both
    libms return bit-identically, so they bin identically too."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "user_id": pa.array([], pa.int64()),
            "sector": pa.array([], pa.int64()),
            "n_legs": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return pa.table(cols)
        la1, lo1 = np.radians(lat[i - 1]), np.radians(lon[i - 1])
        la2, lo2 = np.radians(lat[i]), np.radians(lon[i])
        y = np.sin(lo2 - lo1) * np.cos(la2)
        x = np.cos(la1) * np.sin(la2) - np.sin(la1) * np.cos(la2) * np.cos(lo2 - lo1)
        deg = np.degrees(np.arctan2(y, x))
        sector = np.floor(np.mod(deg + 360.0, 360.0) / 45.0).astype(np.int64)
        key = uid[i] * 8 + sector
        u, n = np.unique(key, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(u // 8, pa.int64()),
                "sector": pa.array(u % 8, pa.int64()),
                "n_legs": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


_MORTON_PARTS = 64


def _morton_interleave_sql(qx: str, qy: str) -> str:
    return " + ".join(
        f"(({qx} // {1 << b}) % 2) * {1 << (2 * b)}"
        f" + (({qy} // {1 << b}) % 2) * {1 << (2 * b + 1)}"
        for b in range(16)
    )




@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
q AS (
  SELECT doc_id,
         CAST(GREATEST(LEAST(FLOOR((lon + 180.0) * 65536.0 / 360.0),
                             65535.0), 0.0) AS BIGINT) AS qx,
         CAST(GREATEST(LEAST(FLOOR((lat + 90.0) * 65536.0 / 180.0),
                             65535.0), 0.0) AS BIGINT) AS qy
  FROM pts),
m AS (SELECT doc_id, {_morton_interleave_sql('qx', 'qy')} AS mkey FROM q),
counts AS (SELECT mkey, COUNT(*) AS c FROM m GROUP BY 1),
pre AS (
  SELECT mkey,
         COALESCE(SUM(c) OVER (ORDER BY mkey
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS pfx
  FROM counts),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM m),
parts AS (
  SELECT m.mkey, CAST((pre.pfx * {_MORTON_PARTS}) // tot.n AS BIGINT) AS part_id
  FROM m JOIN pre USING (mkey), tot)
SELECT part_id, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MIN(mkey) AS BIGINT) AS lo_key, CAST(MAX(mkey) AS BIGINT) AS hi_key
FROM parts GROUP BY 1
""")
def geo_morton_parts(sf_dir: str):
    """Z-ORDER (Morton) EQUI-DEPTH RANGE PARTITIONING — the space-filling-
    curve primitive distributed spatial stores use to pick ONE balanced,
    locality-preserving partitioning key. Each document gets a 32-bit
    Morton key (16-bit lat/lon quantization, bit-interleaved); the key
    space is split into {P} ranges of near-equal DOC COUNT (not width —
    equi-width ranges skew with the data, the whole point), and the plan
    reports each range's population and key bounds.

    Scale shape: the split points come from a distributed value->count
    histogram (count_by_u64 — distinct keys, not rows, reach the driver;
    the doc_quality_buckets contract), the <=P boundary keys broadcast
    into a stateless searchsorted assignment, and per-batch partials feed
    one tiny groupby. Deterministic tie contract: all docs sharing a key
    share a part — part(v) = floor(P * |{{docs with key < v}}| / N), which
    the SQL mirrors with a window prefix sum; quantization floats are the
    identical expression chain both sides, and everything after is
    integer."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def mkeys(b: pa.Table) -> np.ndarray:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        qx = np.minimum(
            np.maximum(np.floor((lon + 180.0) * 65536.0 / 360.0), 0.0), 65535.0
        ).astype(np.int64)
        qy = np.minimum(
            np.maximum(np.floor((lat + 90.0) * 65536.0 / 180.0), 0.0), 65535.0
        ).astype(np.int64)
        mk = np.zeros(len(qx), np.int64)
        for bit in range(16):
            mk |= ((qx >> bit) & 1) << (2 * bit)
            mk |= ((qy >> bit) & 1) << (2 * bit + 1)
        return mk

    hist = count_by_u64(
        ds.map_batches(
            lambda b: pa.table({"key": pa.array(mkeys(b).astype(np.uint64),
                                                pa.uint64())}),
            batch_format="pyarrow",
            batch_size=65536,
        ),
        "key",
    )
    h = _collect_table(hist)
    vals = h["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = h["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    n_total = int(cnts.sum())
    prefix = np.cumsum(cnts) - cnts  # docs with key < v
    part_of_val = (prefix * _MORTON_PARTS) // n_total
    new_part = np.r_[True, part_of_val[1:] != part_of_val[:-1]]
    bounds = vals[new_part]  # first key of each PRESENT part, ascending
    part_ids = part_of_val[new_part]

    def parts(b: pa.Table) -> pa.Table:
        mk = mkeys(b)
        part = part_ids[np.searchsorted(bounds, mk, side="right") - 1]
        return pa.table({"part_id": pa.array(part, pa.int64()), "mk": pa.array(mk, pa.int64())})

    return fold_table(
        ds.map_batches(parts, batch_format="pyarrow", batch_size=65536),
        "part_id",
        {"n_docs": (None, "count"), "lo_key": ("mk", "min"), "hi_key": ("mk", "max")},
    )


_KNN_CLS_MOD = 199  # probe set = docs with doc_id % 199 == 0
_KNN_CLS_K = 5


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, lang, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
probes AS (SELECT doc_id AS pid, lat, lon FROM pts
           WHERE doc_id % {_KNN_CLS_MOD} = 0),
cand AS (
  SELECT p.pid, d.doc_id, d.lang,
         (p.lat - d.lat) * (p.lat - d.lat)
           + (p.lon - d.lon) * (p.lon - d.lon) AS dist,
         ROW_NUMBER() OVER (PARTITION BY p.pid
                            ORDER BY (p.lat - d.lat) * (p.lat - d.lat)
                                     + (p.lon - d.lon) * (p.lon - d.lon),
                                     d.doc_id) AS rn
  FROM probes p JOIN pts d ON d.doc_id != p.pid),
votes AS (
  SELECT pid, lang, CAST(COUNT(*) AS BIGINT) AS n
  FROM cand WHERE rn <= {_KNN_CLS_K} GROUP BY 1, 2)
SELECT pid, lang AS pred_lang, n AS n_votes
FROM votes
QUALIFY ROW_NUMBER() OVER (PARTITION BY pid ORDER BY n DESC, lang) = 1
""")
def geo_knn_classify(sf_dir: str):
    """kNN MAJORITY-VOTE CLASSIFICATION in coordinate space: each probe
    document (doc_id % {mod} == 0 — standing in for a small labeled query
    set) is assigned the majority ``lang`` among its 5 nearest OTHER
    documents. The spatial twin of emb_topk's broadcast-probe plan: the
    probe matrix rides the UDF (probes << corpus by contract — the
    same bound doc_contamination documents), every batch computes a
    vectorized (P x B) squared-degree distance block and emits per-probe
    LOCAL top-k partials, and one probe-keyed partition pass merges
    partials, takes the global top-k and votes. No shuffle touches the
    corpus; the only exchange is k x n_batches partial rows per probe.

    Exact parity: distances are the same dla*dla + dlo*dlo chain both
    sides; the top-k order is (dist, doc_id) — total, so float ties are
    broken identically — and the vote tie-break is lexicographic lang."""
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def _probe_filter(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % _KNN_CLS_MOD == 0))

    probe_tbl = pa.concat_tables(
        list(
            docs.map_batches(_probe_filter, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        )
    )
    p_ids = probe_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    p_lat, p_lon = _derive_coords(p_ids)

    def topk_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lang = np.asarray(b["lang"].to_pylist())
        lat, lon = _derive_coords(ids)
        dla = p_lat[:, None] - lat[None, :]
        dlo = p_lon[:, None] - lon[None, :]
        d = dla * dla + dlo * dlo  # (P, B)
        d[ids[None, :] == p_ids[:, None]] = np.inf  # exclude self
        k = min(_KNN_CLS_K, d.shape[1])
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        pid_out = np.repeat(p_ids, k)
        col = part.ravel()
        return pa.table(
            {
                "pid": pa.array(pid_out, pa.int64()),
                "doc_id": pa.array(ids[col], pa.int64()),
                "lang": pa.array(lang[col].tolist(), pa.string()),
                "dist": pa.array(d[np.repeat(np.arange(len(p_ids)), k), col],
                                 pa.float64()),
                "k": pa.array(pid_out.astype(np.uint64), pa.uint64()),
            }
        )

    def vote(g: pa.Table) -> pa.Table:
        pid = g["pid"].to_numpy(zero_copy_only=False)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        dist = g["dist"].to_numpy(zero_copy_only=False)
        lang = np.asarray(g["lang"].to_pylist())
        order = np.lexsort((did, dist, pid))
        pid, did, dist, lang = pid[order], did[order], dist[order], lang[order]
        new = np.r_[True, pid[1:] != pid[:-1]]
        starts = np.nonzero(new)[0]
        out_p, out_l, out_n = [], [], []
        ends = np.append(starts[1:], len(pid))
        for s, e in zip(starts, ends):
            kk = min(_KNN_CLS_K, e - s)
            u, c = np.unique(lang[s:s + kk], return_counts=True)
            w = int(np.argmax(c))  # np.unique sorts langs: first max = lex tie-break
            out_p.append(int(pid[s]))
            out_l.append(str(u[w]))
            out_n.append(int(c[w]))
        return pa.table(
            {
                "pid": pa.array(out_p, pa.int64()),
                "pred_lang": pa.array(out_l, pa.string()),
                "n_votes": pa.array(out_n, pa.int64()),
            }
        )

    partials = docs.map_batches(topk_partial, batch_format="pyarrow",
                                batch_size=65536)
    return map_groups_partitioned(partials, "k", vote)


_IDW_MOD = 41  # probe set = docs with doc_id % 41 == 0
_IDW_K = 8
_IDW_Q = 10000.0  # squared-degree distance quantizer (exact in float64)
# Integer weight scale. Worldwide d2 caps at 140^2+360^2 = 149,200 deg^2, so
# floor(d2*Q) < 1.5e9 and SCALE//(1+d2q) never underflows to 0; per-probe
# integer sums stay far inside int64 (8 * 1e12 * max_chars).
_IDW_SCALE = 10**12


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, CAST(n_chars AS BIGINT) AS chars,
         {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
probes AS (SELECT doc_id AS pid, lat, lon FROM pts
           WHERE doc_id % {_IDW_MOD} = 0),
cand AS (
  SELECT p.pid, d.doc_id, d.chars,
         (p.lat - d.lat) * (p.lat - d.lat)
           + (p.lon - d.lon) * (p.lon - d.lon) AS dist,
         ROW_NUMBER() OVER (PARTITION BY p.pid
                            ORDER BY (p.lat - d.lat) * (p.lat - d.lat)
                                     + (p.lon - d.lon) * (p.lon - d.lon),
                                     d.doc_id) AS rn
  FROM probes p JOIN pts d ON d.doc_id != p.pid),
w AS (
  SELECT pid, chars,
         {_IDW_SCALE} // (1 + CAST(FLOOR(dist * {_IDW_Q}) AS BIGINT)) AS w
  FROM cand WHERE rn <= {_IDW_K})
SELECT pid,
       CAST(CAST(SUM(w * chars) AS BIGINT) AS DOUBLE)
         / CAST(CAST(SUM(w) AS BIGINT) AS DOUBLE) AS idw_chars,
       CAST(SUM(w) AS BIGINT) AS sum_w
FROM w GROUP BY 1
""")
def geo_idw_interp(sf_dir: str):
    """INVERSE-DISTANCE-WEIGHTED INTERPOLATION: estimate a surface value
    (``n_chars``) at each probe site (doc_id % {mod} == 0) from its 8
    nearest other documents — the classic geostatistics gridding operator
    (Shepard 1968). Same broadcast-probe plan as geo_knn_classify: probe
    matrix UDF-small by contract, per-batch (P x B) vectorized distance
    blocks emit per-probe local top-k partials, one probe-keyed partition
    pass merges and reduces. No corpus shuffle.

    Exact parity with SQL via the integer-numerator discipline (the
    geo_getis_gi/doc_unigram_surprisal trick): the weight is quantized to
    an INTEGER w = SCALE // (1 + floor(d2 * Q)) — d2 is the identical
    dla*dla + dlo*dlo double chain on both sides, so floor(d2*Q) is the
    same int64 — and the estimate is ONE double division of two exact
    integer sums (order-free), never an order-sensitive float sum."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def _probe_filter(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % _IDW_MOD == 0))

    probe_tbl = pa.concat_tables(
        list(
            docs.map_batches(_probe_filter, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")
        )
    )
    p_ids = probe_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    p_lat, p_lon = _derive_coords(p_ids)

    def topk_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chars = pc.cast(b["n_chars"], pa.int64()).to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(ids)
        dla = p_lat[:, None] - lat[None, :]
        dlo = p_lon[:, None] - lon[None, :]
        d = dla * dla + dlo * dlo  # (P, B)
        d[ids[None, :] == p_ids[:, None]] = np.inf  # exclude self
        k = min(_IDW_K, d.shape[1])
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        pid_out = np.repeat(p_ids, k)
        col = part.ravel()
        return pa.table(
            {
                "pid": pa.array(pid_out, pa.int64()),
                "doc_id": pa.array(ids[col], pa.int64()),
                "chars": pa.array(chars[col], pa.int64()),
                "dist": pa.array(d[np.repeat(np.arange(len(p_ids)), k), col],
                                 pa.float64()),
                "k": pa.array(pid_out.astype(np.uint64), pa.uint64()),
            }
        )

    def reduce_idw(g: pa.Table) -> pa.Table:
        pid = g["pid"].to_numpy(zero_copy_only=False)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        dist = g["dist"].to_numpy(zero_copy_only=False)
        chars = g["chars"].to_numpy(zero_copy_only=False)
        fin = np.isfinite(dist)  # inf partials only exist in tiny batches
        pid, did, dist, chars = pid[fin], did[fin], dist[fin], chars[fin]
        order = np.lexsort((did, dist, pid))  # total (pid, dist, doc_id)
        pid, dist, chars = pid[order], dist[order], chars[order]
        new = np.r_[True, pid[1:] != pid[:-1]]
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(pid))
        out_p, out_e, out_w = [], [], []
        for s, e in zip(starts, ends):
            kk = min(_IDW_K, e - s)
            d2q = np.floor(dist[s:s + kk] * _IDW_Q).astype(np.int64)
            w = _IDW_SCALE // (1 + d2q)
            sw = int(w.sum())
            swv = int((w * chars[s:s + kk]).sum())
            out_p.append(int(pid[s]))
            out_e.append(float(np.float64(swv) / np.float64(sw)))
            out_w.append(sw)
        return pa.table(
            {
                "pid": pa.array(out_p, pa.int64()),
                "idw_chars": pa.array(out_e, pa.float64()),
                "sum_w": pa.array(out_w, pa.int64()),
            }
        )

    partials = docs.map_batches(topk_partial, batch_format="pyarrow",
                                batch_size=65536)
    return map_groups_partitioned(partials, "k", reduce_idw)


_SSAMP_K = 3  # cap per 30-deg cell
_SSAMP_CELL_DEG = 30.0  # coarse enough that dense cells exceed the cap on
# the test lattice (1-deg cells hold <=3 docs there — nothing would bite)
_SSAMP_MULT = 2654435761  # Knuth multiplicative hash (fits int64 here;
# at 10^12-doc scale use a 128-bit modmul — documented contract)


@query(sql=f"""
WITH pts AS (
  SELECT doc_id,
         CAST(FLOOR(({GEO_LON_SQL}) / {_SSAMP_CELL_DEG}) AS BIGINT) AS gx,
         CAST(FLOOR(({GEO_LAT_SQL}) / {_SSAMP_CELL_DEG}) AS BIGINT) AS gy,
         (doc_id * {_SSAMP_MULT}) % 4294967296 AS h
  FROM documents)
SELECT doc_id, gx, gy, h FROM pts
QUALIFY ROW_NUMBER() OVER (PARTITION BY gx, gy ORDER BY h, doc_id)
        <= {_SSAMP_K}
""")
def geo_stratified_sample(sf_dir: str, per: int = _SSAMP_K):
    """STRATIFIED SPATIAL SAMPLING: keep at most K documents per 1-degree
    cell, chosen by a deterministic per-doc hash — the geographic
    rebalancing step a training-data pipeline runs to debias mega-city
    skew (cap the dense cells, keep the sparse ones whole) while staying
    reproducible across runs. Same two-level shape as doc_top2_per_lang:
    the per-batch combiner prunes to K rows per cell BEFORE the shuffle
    (so the groupby moves at most K x cells x batches rows, never the
    corpus), then a per-cell top-K under the total (h, doc_id) order.
    The cell key is packed into ONE int64 for the shuffle (the
    multi-column-groupby lesson in BASELINE.md)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def keyed(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        gx = np.floor(lon / _SSAMP_CELL_DEG).astype(np.int64)
        gy = np.floor(lat / _SSAMP_CELL_DEG).astype(np.int64)
        h = (doc_id * _SSAMP_MULT) % 4294967296
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "gx": pa.array(gx, pa.int64()),
                "gy": pa.array(gy, pa.int64()),
                "h": pa.array(h, pa.int64()),
                "gk": pa.array((gx + 8) * 1024 + (gy + 4), pa.int64()),
            }
        )

    def prune(b: pa.Table) -> pa.Table:
        t = keyed(b)
        gk = t["gk"].to_numpy(zero_copy_only=False)
        h = t["h"].to_numpy(zero_copy_only=False)
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((did, h, gk))
        gs = gk[order]
        new = np.ones(len(gs), dtype=bool)
        new[1:] = gs[1:] != gs[:-1]
        grp_start = np.maximum.accumulate(
            np.where(new, np.arange(len(gs)), 0))
        keep = (np.arange(len(gs)) - grp_start) < per
        return t.take(pa.array(order[keep]))

    def top_per_cell(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            g, sort_keys=[("h", "ascending"), ("doc_id", "ascending")]
        )
        return g.take(order[:per]).drop_columns(["gk"])

    return (
        ds.map_batches(prune, batch_format="pyarrow", batch_size=65536)
        .groupby("gk")
        .map_groups(top_per_cell, batch_format="pyarrow")
    )


_NF_Q = 1000.0  # micro-distance quantizer for the exact integer sum


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
facs AS (
  SELECT k AS fac_id,
         ((k * 11003) % 120000) / 1000.0 - 60.0 AS flat,
         ((k * 104729) % 340000) / 1000.0 - 170.0 AS flon
  FROM range(12) t(k)),
assign AS (
  SELECT p.doc_id, f.fac_id,
         (p.lat - f.flat) * (p.lat - f.flat)
           + (p.lon - f.flon) * (p.lon - f.flon) AS d2,
         ROW_NUMBER() OVER (PARTITION BY p.doc_id
                            ORDER BY (p.lat - f.flat) * (p.lat - f.flat)
                                     + (p.lon - f.flon) * (p.lon - f.flon),
                                     f.fac_id) AS rn
  FROM pts p CROSS JOIN facs f)
SELECT fac_id, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CAST(FLOOR(d2 * {_NF_Q}) AS BIGINT)) AS BIGINT) AS sum_micro,
       CAST(CAST(SUM(CAST(FLOOR(d2 * {_NF_Q}) AS BIGINT)) AS BIGINT) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS mean_micro
FROM assign WHERE rn = 1 GROUP BY 1 ORDER BY 1
""")
def geo_nearest_facility(sf_dir: str):
    """NEAREST-FACILITY ASSIGNMENT (allocation): every document is assigned
    to the closest of the 12 model city centers — the reverse-geocode /
    service-area allocation primitive (nearest warehouse, nearest POI).
    The facility table is tiny by definition, so it is a broadcast
    constant: each batch computes a vectorized (B x 12) squared-degree
    distance block, argmin with the (dist, fac_id) total order (np.argmin
    first-minimum == lowest fac_id == the SQL window order), and reduces
    straight to per-facility (n, sum_micro) integer partials via bincount
    — no shuffle moves rows, the final groupby sums 12 x n_batches partial
    rows. mean_d2 is ONE double division of two exact integers (micro
    quantizer floor(d2*Q); int64 partials bound the contract — at extreme
    corpus scale the partials stay bounded per task and the final 12-row
    merge would move to a widened accumulator)."""
    k = np.arange(12, dtype=np.int64)
    f_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    f_lon = ((k * 104729) % 340000) / 1000.0 - 170.0

    ds = _read(sf_dir, "documents", ["doc_id"])

    def partial(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - f_lat[None, :]
        dlo = lon[:, None] - f_lon[None, :]
        d2 = dla * dla + dlo * dlo  # (B, 12)
        fac = np.argmin(d2, axis=1)
        best = d2[np.arange(len(fac)), fac]
        micro = np.floor(best * _NF_Q).astype(np.int64)
        return pa.table({"fac_id": pa.array(fac, pa.int64()), "micro": pa.array(micro, pa.int64())})

    t = fold_table(  # <= 12 rows by construction
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "fac_id",
        {"n_docs": (None, "count"), "sum_micro": ("micro", "sum")},
    )
    n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
    sm = t["sum_micro"].to_numpy(zero_copy_only=False).astype(np.float64)
    return t.append_column("mean_micro", pa.array(sm / n, pa.float64()))


_MM_SEGS = 40  # model road-segment count (broadcast side)


def _mm_segments():
    """Deterministic model road network: 40 segments with integer-formula
    endpoints (the k≡20 / k≡17 (mod 21) degenerate-length solutions are
    disjoint, so every segment has positive length)."""
    k = np.arange(_MM_SEGS, dtype=np.int64)
    alat = ((k * 9176 + 13) % 120000) / 1000.0 - 60.0
    alon = ((k * 30211 + 7) % 340000) / 1000.0 - 170.0
    dlat = ((k * 53) % 21).astype(np.float64) - 10.0
    dlon = ((k * 71) % 21).astype(np.float64) - 10.0
    return alat, alon, dlat, dlon


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
segs AS (
  SELECT k AS seg_id,
         ((k * 9176 + 13) % 120000) / 1000.0 - 60.0 AS alat,
         ((k * 30211 + 7) % 340000) / 1000.0 - 170.0 AS alon,
         CAST((k * 53) % 21 AS DOUBLE) - 10.0 AS dlat,
         CAST((k * 71) % 21 AS DOUBLE) - 10.0 AS dlon
  FROM range({_MM_SEGS}) t(k)),
proj AS (
  SELECT p.doc_id, s.seg_id,
         LEAST(GREATEST(
           ((p.lat - s.alat) * s.dlat + (p.lon - s.alon) * s.dlon)
             / (s.dlat * s.dlat + s.dlon * s.dlon), 0.0), 1.0) AS t,
         p.lat - s.alat AS dla, p.lon - s.alon AS dlo,
         s.dlat AS sdlat, s.dlon AS sdlon
  FROM pts p CROSS JOIN segs s),
dist AS (
  SELECT doc_id, seg_id, t,
         (dla - t * sdlat) * (dla - t * sdlat)
           + (dlo - t * sdlon) * (dlo - t * sdlon) AS d2
  FROM proj),
best AS (
  SELECT doc_id, seg_id, t, d2,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY d2, seg_id) AS rn
  FROM dist)
SELECT doc_id, seg_id,
       CAST(FLOOR(t * 1000.0) AS BIGINT) AS t_milli,
       CAST(FLOOR(d2 * 1000000.0) AS BIGINT) AS d2_micro
FROM best WHERE rn = 1
""")
def geo_map_match(sf_dir: str):
    """MAP-MATCHING SNAP (nearest-road-segment assignment): every document
    point snaps to the closest of a small broadcast road-segment set via
    the clamped-projection point-to-segment distance — the primitive under
    GPS map-matching and address-to-street conciliation; the EXTENDED-object
    sibling of geo_nearest_facility's point sites. Map-only plan: each batch
    computes a vectorized (B x 40) distance block (t = clip(dot/len2, 0, 1),
    residual d2), argmin under the (d2, seg_id) total order (np.argmin
    first-minimum == lowest seg_id == the SQL window order) — NO shuffle at
    any corpus scale, the segment table is a broadcast constant. Unlike the
    haversine family there is no libm transcendental anywhere: the whole
    distance chain is +,-,*,/ mirrored term-by-term in the oracle, so
    d2/t are BIT-equal and the integer quantizers (t_milli, d2_micro) are
    exact, not defensive."""
    alat, alon, sdlat, sdlon = _mm_segments()
    len2 = sdlat * sdlat + sdlon * sdlon  # (40,)

    ds = _read(sf_dir, "documents", ["doc_id"])

    def snap(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - alat[None, :]  # (B, 40)
        dlo = lon[:, None] - alon[None, :]
        t = (dla * sdlat[None, :] + dlo * sdlon[None, :]) / len2[None, :]
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        rx = dla - t * sdlat[None, :]
        ry = dlo - t * sdlon[None, :]
        d2 = rx * rx + ry * ry
        seg = np.argmin(d2, axis=1)
        r = np.arange(len(seg))
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "seg_id": pa.array(seg.astype(np.int64), pa.int64()),
                "t_milli": pa.array(
                    np.floor(t[r, seg] * 1000.0).astype(np.int64), pa.int64()
                ),
                "d2_micro": pa.array(
                    np.floor(d2[r, seg] * 1000000.0).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(snap, batch_format="pyarrow", batch_size=65536)
_QT_T = 64  # split threshold: a cell splits iff its count exceeds this


def _qt_sql() -> str:
    parts = [
        "WITH pts AS (SELECT (doc_id * 7919) % 140000 AS mlat,"
        " (doc_id * 104729) % 360000 AS mlon FROM documents)"
    ]
    for L in range(_QT_LMAX + 1):
        m = 1 << L
        parts.append(
            f", c{L} AS (SELECT (mlon * {m}) // 360000 AS qx,"
            f" (mlat * {m}) // 140000 AS qy, COUNT(*) AS n"
            " FROM pts GROUP BY 1, 2)"
        )
    parts.append(", r0 AS (SELECT * FROM c0)")
    for L in range(1, _QT_LMAX + 1):
        parts.append(
            f", r{L} AS (SELECT c.* FROM c{L} c JOIN r{L-1} p"
            f" ON p.qx = c.qx // 2 AND p.qy = c.qy // 2"
            f" AND p.n > {_QT_T})"
        )
    selects = []
    for L in range(_QT_LMAX + 1):
        cond = f"WHERE n <= {_QT_T}" if L < _QT_LMAX else ""
        selects.append(
            f"SELECT CAST({L} AS BIGINT) AS level, CAST(qx AS BIGINT) AS qx,"
            f" CAST(qy AS BIGINT) AS qy, CAST(n AS BIGINT) AS n_docs"
            f" FROM r{L} {cond}"
        )
    return "".join(parts) + " " + " UNION ALL ".join(selects)




@query(sql=_qt_sql())
def geo_quadtree(sf_dir: str):
    """ADAPTIVE QUADTREE AGGREGATION: the classic adaptive spatial-index
    build — the world splits into 4 recursively wherever a cell holds more
    than T documents (dense metros descend to fine cells, oceans stay one
    coarse cell), capped at depth {LMAX}. Output = occupied LEAF cells with
    counts (a leaf is reachable through an all-split ancestor chain and
    itself doesn't split; equivalently each point's leaf level is its
    SMALLEST level whose cell count <= T, capped). Scale design: the whole
    pyramid is bounded by GEOMETRY, not the corpus (sum 4^L, L<=8 = ~87k
    cells), so the plan is ONE distributed count pass at the finest level
    (integer milli-degree cell math, packed-u64 count_by_u64 combiner —
    rows never shuffle, distinct cells do) + a driver-side dense numpy
    pyramid fold (reshape block-sums up, reachability masks down) — the
    adaptive sibling of stages/tiles.py's fixed-depth rollup, same
    bounded-driver contract as doc_quality_buckets' histogram. All-integer
    arithmetic end-to-end: no float enters the cell index, so the oracle
    mirrors exactly with BIGINT division."""
    side = 1 << _QT_LMAX
    ds = _read(sf_dir, "documents", ["doc_id"])

    def finest(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mlat = (doc_id * 7919) % 140000
        mlon = (doc_id * 104729) % 360000
        qx = (mlon * side) // 360000
        qy = (mlat * side) // 140000
        return pa.table(
            {"key": pa.array((qx * side + qy).astype(np.uint64), pa.uint64())}
        )

    cells = _collect_table(
        count_by_u64(ds.map_batches(finest, batch_format="pyarrow",
                                    batch_size=131072))
    )  # <= side^2 rows by construction (geometry-bounded)

    key = cells["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = cells["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    grid = np.zeros((side, side), np.int64)  # [qx, qy]
    grid[key // side, key % side] = cnt

    # bottom-up counts: counts[L] is a (2^L, 2^L) array
    counts = [None] * (_QT_LMAX + 1)
    counts[_QT_LMAX] = grid
    for L in range(_QT_LMAX, 0, -1):
        h = 1 << (L - 1)
        counts[L - 1] = (
            counts[L].reshape(h, 2, h, 2).sum(axis=(1, 3))
        )

    # top-down reachability + leaf selection
    out_lvl, out_qx, out_qy, out_n = [], [], [], []
    reach = np.ones((1, 1), bool)
    for L in range(_QT_LMAX + 1):
        c = counts[L]
        leaf = reach & (c > 0) & ((c <= _QT_T) | (L == _QT_LMAX))
        qx, qy = np.nonzero(leaf)
        out_lvl.append(np.full(len(qx), L, np.int64))
        out_qx.append(qx.astype(np.int64))
        out_qy.append(qy.astype(np.int64))
        out_n.append(c[qx, qy])
        if L < _QT_LMAX:
            reach = np.repeat(
                np.repeat(reach & (c > _QT_T), 2, axis=0), 2, axis=1
            )

    return pa.table(
        {
            "level": pa.array(np.concatenate(out_lvl), pa.int64()),
            "qx": pa.array(np.concatenate(out_qx), pa.int64()),
            "qy": pa.array(np.concatenate(out_qy), pa.int64()),
            "n_docs": pa.array(np.concatenate(out_n), pa.int64()),
        }
    ).sort_by([("level", "ascending"), ("qx", "ascending"),
               ("qy", "ascending")])


_BFS_CELL_MILLI = 5000  # 5-degree BFS grid cells
_BFS_SEED_MOD = 97  # tiles holding a doc_id % 97 == 0 document are sources
_BFS_MAX_HOPS = 24


@query(sql=f"""
WITH d AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
e AS (
  SELECT event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events)
SELECT d.doc_id, e.event_id,
       (d.lat - e.lat) * (d.lat - e.lat)
         + (d.lon - e.lon) * (d.lon - e.lon) AS sq_dist
FROM d JOIN e
  ON e.lat BETWEEN d.lat - {_BI_RADIUS} AND d.lat + {_BI_RADIUS}
 AND e.lon BETWEEN d.lon - {_BI_RADIUS} AND d.lon + {_BI_RADIUS}
WHERE (d.lat - e.lat) * (d.lat - e.lat)
        + (d.lon - e.lon) * (d.lon - e.lon) <= {_BI_RADIUS * _BI_RADIUS}
""")
def geo_doc_event_band(sf_dir: str):
    """BIPARTITE DISTANCE-BAND JOIN (documents x events within a radius):
    all (doc, event) pairs closer than 2 deg — the cross-TABLE spatial
    join under "which telemetry happened near which content" analyses
    (distband.py's self-join and stjoin.py's same-table contact join can't
    express two heterogeneous sides). ASYMMETRIC home+ghost plan: the doc
    side emits ONE home replica, the event side replicates to its 3x3
    neighborhood, so every qualifying pair co-locates in exactly the doc's
    home cell and is emitted exactly once — 1x + 9x replication instead of
    the self-join's 9x on everything, ONE hash shuffle total. This is
    stages/distband.py::bipartite_band_pairs: its partition kernel pairs
    each cell's doc rows against its event rows through cell_pairs
    (chunked against dense cells) and filters on the exact mirrored
    sq_dist chain."""
    return bipartite_band_pairs(
        _with_coords(_read(sf_dir, "documents", ["doc_id"]), "doc_id"),
        _with_coords(_read(sf_dir, "events", ["event_id"]), "event_id"),
        _BI_RADIUS, "doc_id", "event_id",
    )


@query(sql=f"""
WITH dc AS (
  SELECT DISTINCT epoch_us(ts) // {_TT_DAY_US} AS day,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
days AS (SELECT DISTINCT day FROM dc),
pairs AS (
  SELECT d.day FROM days d JOIN days e ON e.day = d.day + 1),
inter AS (
  SELECT p.day, CAST(COUNT(*) AS BIGINT) AS n_common
  FROM pairs p
  JOIN dc a ON a.day = p.day
  JOIN dc b ON b.day = p.day + 1 AND b.gx = a.gx AND b.gy = a.gy
  GROUP BY 1),
uni AS (
  SELECT p.day, CAST(COUNT(*) AS BIGINT) AS n_union
  FROM pairs p JOIN (
    SELECT day, gx, gy FROM dc
    UNION
    SELECT day - 1 AS day, gx, gy FROM dc) u ON u.day = p.day
  GROUP BY 1)
SELECT u.day, COALESCE(i.n_common, 0) AS n_common, u.n_union,
       CAST(COALESCE(i.n_common, 0) AS DOUBLE)
         / CAST(u.n_union AS DOUBLE) AS jaccard
FROM uni u LEFT JOIN inter i ON i.day = u.day
""")
def geo_cell_turnover(sf_dir: str):
    """SPATIAL-FOOTPRINT TURNOVER: day-over-day Jaccard similarity of the
    set of ACTIVE 10-deg cells (cells with >= 1 event) — "how much does
    the active map move between consecutive days", the drift monitor a
    crawl/telemetry operator watches for coverage regressions. ONE
    distributed pass reduces the corpus to distinct (day, cell) pairs
    (packed-u64 count_by_u64 — bounded by horizon x 504 at any corpus
    scale), then the driver folds consecutive-day set algebra exactly:
    jaccard = |A∩B| / |A∪B|, one double division of two exact integer
    cardinalities."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        day = us // _TT_DAY_US
        key = (day.astype(np.uint64) << np.uint64(20)) | (
            (gx * 1024 + gy).astype(np.uint64)
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-days x 504 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    day = (key >> np.uint64(20)).astype(np.int64)
    cell = (key & np.uint64((1 << 20) - 1)).astype(np.int64)
    days = np.unique(day)
    sets = {int(d): set(cell[day == d].tolist()) for d in days}
    rows = []
    for d in days:
        if int(d) + 1 not in sets:
            continue
        a, b = sets[int(d)], sets[int(d) + 1]
        inter, union = len(a & b), len(a | b)
        rows.append((int(d), inter, union))
    return pa.table(
        {
            "day": pa.array([r[0] for r in rows], pa.int64()),
            "n_common": pa.array([r[1] for r in rows], pa.int64()),
            "n_union": pa.array([r[2] for r in rows], pa.int64()),
            "jaccard": pa.array(
                [float(np.float64(r[1]) / np.float64(r[2])) for r in rows],
                pa.float64(),
            ),
        }
    )


_HUFF_SCALE = 10**9  # integer weight scale (IDW's quantizer, reused)
_HUFF_Q = 1000.0


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
facs AS (
  SELECT k AS fac_id,
         ((k * 11003) % 120000) / 1000.0 - 60.0 AS flat,
         ((k * 104729) % 340000) / 1000.0 - 170.0 AS flon
  FROM range(12) t(k)),
w AS (
  SELECT p.doc_id, f.fac_id,
         {_HUFF_SCALE} // (1 + CAST(FLOOR(
           ((p.lat - f.flat) * (p.lat - f.flat)
            + (p.lon - f.flon) * (p.lon - f.flon)) * {_HUFF_Q})
           AS BIGINT)) AS wj
  FROM pts p CROSS JOIN facs f),
sw AS (SELECT doc_id, CAST(SUM(wj) AS BIGINT) AS s FROM w GROUP BY 1),
shares AS (
  SELECT w.fac_id, (w.wj * 1000000) // sw.s AS m
  FROM w JOIN sw USING (doc_id)),
fac_tot AS (
  SELECT fac_id, CAST(SUM(m) AS BIGINT) AS demand_micro
  FROM shares GROUP BY 1),
rem AS (
  SELECT CAST(-1 AS BIGINT) AS fac_id,
         CAST(1000000 * (SELECT COUNT(*) FROM pts)
              - (SELECT SUM(demand_micro) FROM fac_tot) AS BIGINT)
           AS demand_micro)
SELECT * FROM rem
UNION ALL
SELECT fac_id, demand_micro FROM fac_tot
ORDER BY fac_id
""")
def geo_huff_share(sf_dir: str):
    """HUFF GRAVITY-MODEL CATCHMENT (retail/service-area demand): each
    document's unit of demand splits across the 12 facility sites with
    probability ∝ 1/d² (the Huff model with attractiveness 1, exponent 2);
    per-facility expected demand is the sum of shares. FULLY INTEGER: the
    inverse-distance weight is geo_idw_interp's quantizer
    (SCALE // (1 + floor(d2*Q))), and the per-doc share quantizes to
    micro-units by INTEGER division share_j = (w_j * 1e6) // sum_w — so
    shares are exact int64, order-free, and the per-facility totals are
    exact integer sums (the leftover micro-units from floor division are
    emitted as a corpus-wide remainder so mass is accounted). Map-only +
    one 12-row groupby — the distributional sibling of
    geo_nearest_facility's winner-takes-all assignment."""
    k = np.arange(12, dtype=np.int64)
    f_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    f_lon = ((k * 104729) % 340000) / 1000.0 - 170.0

    ds = _read(sf_dir, "documents", ["doc_id"])

    def partial(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - f_lat[None, :]
        dlo = lon[:, None] - f_lon[None, :]
        d2 = dla * dla + dlo * dlo  # (B, 12)
        w = _HUFF_SCALE // (1 + np.floor(d2 * _HUFF_Q).astype(np.int64))
        sw = w.sum(axis=1)  # (B,)
        share = (w * 1000000) // sw[:, None]  # exact integer micro-shares
        rem = 1000000 - share.sum(axis=1)  # floor-division leftovers
        tot = share.sum(axis=0)  # (12,)
        return pa.table(
            {
                "fac_id": pa.array(
                    np.concatenate([k, [-1]]), pa.int64()
                ),
                "micro": pa.array(
                    np.concatenate([tot, [int(rem.sum())]]), pa.int64()
                ),
            }
        )

    return fold_table(  # <= 13 rows by construction
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        "fac_id",
        {"demand_micro": ("micro", "sum")},
    )


_ISO_CAP = 18  # isochrone cost cap (also the exact Bellman-Ford round bound)


def _grid_sssp_distributed(nodes: np.ndarray, weights: np.ndarray,
                           seeds: np.ndarray):
    """Distributed weighted relaxation rounds: dist lives as a Dataset;
    per round the improved frontier flat-maps 4 neighbor probes carrying
    cost + the neighbor's toll, agg.min_by_u64 merges, and the driver moves
    one order-independent checksum per round (costs only decrease, so an
    unchanged checksum is a fixpoint proof). The sorted occupied nodes and
    their tolls ride the probe UDF as default arguments, shipped once per
    round with it: the grid bounds them to 72 x 28 nodes (~32 KB)."""
    import ray

    order = np.argsort(nodes)
    occ_sorted = nodes[order]
    toll_sorted = weights[order]

    dist = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(seeds.astype(np.uint64), pa.uint64()),
                "d": pa.array(np.zeros(len(seeds), np.uint64), pa.uint64()),
            }
        )
    ).materialize()
    frontier = dist

    def probe(b: pa.Table, occ_arr=occ_sorted, tolls=toll_sorted) -> pa.Table:
        nd_ = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        d_ = b["d"].to_numpy(zero_copy_only=False).astype(np.uint64)
        gx, gy = nd_ // 1024, nd_ % 1024
        nx = np.concatenate([gx + 1, gx - 1, gx, gx])
        ny = np.concatenate([gy, gy, gy + 1, gy - 1])
        base = np.tile(d_, 4)
        ok = (
            (nx >= 0) & (nx * _BFS_CELL_MILLI < 360000)
            & (ny >= 0) & (ny * _BFS_CELL_MILLI < 140000)
        )
        cand = (nx[ok] * 1024 + ny[ok]).astype(np.int64)
        base = base[ok]
        pos = np.searchsorted(occ_arr, cand)
        hit = (pos < len(occ_arr)) & (
            occ_arr[np.minimum(pos, len(occ_arr) - 1)] == cand
        )
        cost = base[hit] + tolls[pos[hit]].astype(np.uint64)
        keep = cost <= np.uint64(_ISO_CAP)
        return pa.table(
            {
                "node": pa.array(
                    cand[hit][keep].astype(np.uint64), pa.uint64()
                ),
                "d": pa.array(cost[keep], pa.uint64()),
            }
        )

    prev_rows = dist.count()
    prev_sum = None
    for _ in range(_ISO_CAP):
        nbrs = frontier.map_batches(probe, batch_format="pyarrow")
        new_dist = min_by_u64(dist.union(nbrs), "node", "d").materialize()
        cur_rows = new_dist.count()
        s = fold_table(new_dist, [], {"d": ("d", "sum")})
        cur_sum = s["d"][0].as_py() if s.num_rows else None
        if cur_rows == prev_rows and cur_sum == prev_sum:
            dist = new_dist
            break
        dist = new_dist
        prev_rows, prev_sum = cur_rows, cur_sum
        # full re-probe each round: correct and bounded by CAP rounds
        # (a changed-rows-only frontier is the latency optimization)
        frontier = dist

    def unpack(b: pa.Table) -> pa.Table:
        nd_ = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        d_ = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "gx": pa.array(nd_ // 1024, pa.int64()),
                "gy": pa.array(nd_ % 1024, pa.int64()),
                "cost": pa.array(d_, pa.int64()),
            }
        )

    return dist.map_batches(unpack, batch_format="pyarrow")


def _iso_sql() -> str:
    parts = [
        "WITH pts AS (SELECT doc_id, (doc_id * 7919) % 140000 AS mlat,"
        " (doc_id * 104729) % 360000 AS mlon FROM documents)",
        f", occ AS (SELECT mlon // {_BFS_CELL_MILLI} AS gx,"
        f" mlat // {_BFS_CELL_MILLI} AS gy,"
        " 1 + COUNT(*) % 5 AS w,"
        f" MAX(CASE WHEN doc_id % {_BFS_SEED_MOD} = 0 THEN 1 ELSE 0 END)"
        " AS is_src FROM pts GROUP BY 1, 2)",
        ", r0 AS (SELECT gx, gy, CAST(0 AS BIGINT) AS c FROM occ"
        " WHERE is_src = 1)",
    ]
    # MATERIALIZED is load-bearing: each r_k references r_{k-1} twice, and
    # DuckDB inlines plain CTEs — 2^18 scans without it
    for k in range(1, _ISO_CAP + 1):
        parts.append(
            f", r{k} AS MATERIALIZED (SELECT gx, gy, MIN(c) AS c FROM ("
            f"SELECT gx, gy, c FROM r{k-1}"
            " UNION ALL "
            f"SELECT o.gx, o.gy, b.c + o.w AS c FROM r{k-1} b JOIN occ o"
            " ON (o.gx = b.gx + 1 AND o.gy = b.gy)"
            " OR (o.gx = b.gx - 1 AND o.gy = b.gy)"
            " OR (o.gx = b.gx AND o.gy = b.gy + 1)"
            " OR (o.gx = b.gx AND o.gy = b.gy - 1)"
            ") GROUP BY 1, 2)"
        )
    parts.append(
        f" SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,"
        f" CAST(c AS BIGINT) AS cost FROM r{_ISO_CAP} WHERE c <= {_ISO_CAP}"
    )
    return "".join(parts)




@query(sql=_iso_sql())
def geo_isochrone(sf_dir: str, force_distributed: bool = False):
    """WEIGHTED ISOCHRONE (congestion-weighted shortest-path cost field —
    the travel-time-contour primitive under delivery-radius and
    service-reach products; the WEIGHTED sibling of geo_grid_bfs's unit
    hops): entering a 5-deg cell costs 1 + (doc_count % 5) (an integer
    "congestion" toll derived from the corpus itself), seeds are the
    doc_id % 97 cells at cost 0, and every occupied cell reports its
    minimum total entry cost if <= 18. Exactness: integer weights mean
    Bellman-Ford CONVERGES for the reported set within CAP rounds (a
    path's cost >= its edge count, so cost <= 18 implies <= 18 hops) —
    the oracle is a programmatically generated chain of 18 min-relax
    CTEs, no recursion-termination hazard. Same dual-path contract as
    geo_grid_bfs: one distributed count pass (cells + weights + seed bit
    in one packed stream), driver dense-mask relaxation below the node
    guard, distributed frontier rounds (probes carry cost + broadcast
    neighbor tolls, agg.min_by_u64 merges) above it; both paths
    equivalence-tested."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def cells(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mlat = (doc_id * 7919) % 140000
        mlon = (doc_id * 104729) % 360000
        gx = mlon // _BFS_CELL_MILLI
        gy = mlat // _BFS_CELL_MILLI
        key = (gx * 1024 + gy).astype(np.uint64)
        seed = doc_id % _BFS_SEED_MOD == 0
        return pa.table(
            {
                "key": pa.array(
                    key | (seed.astype(np.uint64) << np.uint64(63)),
                    pa.uint64(),
                )
            }
        )

    occ_t = _collect_table(
        count_by_u64(
            ds.map_batches(cells, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 2 x grid cells by construction (geometry-bounded)
    raw = occ_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cnt = occ_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    node = (raw & np.uint64((1 << 63) - 1)).astype(np.int64)
    is_seed = (raw >> np.uint64(63)).astype(bool)
    nodes = np.unique(node)
    counts = np.zeros(len(nodes), np.int64)
    np.add.at(counts, np.searchsorted(nodes, node), cnt)
    weights = 1 + counts % 5
    seeds = np.unique(node[is_seed])

    empty = pa.table(
        {
            "gx": pa.array([], pa.int64()),
            "gy": pa.array([], pa.int64()),
            "cost": pa.array([], pa.int64()),
        }
    )
    if len(seeds) == 0:
        return empty

    if len(nodes) <= _BFS_LOCAL_MAX and not force_distributed:
        w = 360000 // _BFS_CELL_MILLI
        h = 140000 // _BFS_CELL_MILLI
        toll = np.full((w, h), np.iinfo(np.int64).max // 4, np.int64)
        toll[nodes // 1024, nodes % 1024] = weights
        big = np.iinfo(np.int64).max // 4
        dist = np.full((w, h), big, np.int64)
        dist[seeds // 1024, seeds % 1024] = 0
        for _ in range(_ISO_CAP):
            cand = np.full((w, h), big, np.int64)
            cand[1:, :] = np.minimum(cand[1:, :], dist[:-1, :])
            cand[:-1, :] = np.minimum(cand[:-1, :], dist[1:, :])
            cand[:, 1:] = np.minimum(cand[:, 1:], dist[:, :-1])
            cand[:, :-1] = np.minimum(cand[:, :-1], dist[:, 1:])
            new = np.minimum(dist, cand + toll)
            if np.array_equal(new, dist):
                break
            dist = new
        ok = dist <= _ISO_CAP
        gx, gy = np.nonzero(ok)
        return pa.table(
            {
                "gx": pa.array(gx.astype(np.int64), pa.int64()),
                "gy": pa.array(gy.astype(np.int64), pa.int64()),
                "cost": pa.array(dist[gx, gy], pa.int64()),
            }
        )

    return _grid_sssp_distributed(nodes, weights, seeds)


_PPZ_N = 200  # partitioned-PIP model zone count


def _ppz_zones():
    """Deterministic model zone rectangles (the many-polygon side)."""
    k = np.arange(_PPZ_N, dtype=np.int64)
    lat0 = ((k * 9973) % 120000) / 1000.0 - 60.0
    lon0 = ((k * 31337) % 340000) / 1000.0 - 170.0
    lat1 = lat0 + (2 + (k % 7)).astype(np.float64)
    lon1 = lon0 + (3 + (k % 11)).astype(np.float64)
    return lat0, lat1, lon0, lon1


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
zones AS (
  SELECT k AS zone_id,
         ((k * 9973) % 120000) / 1000.0 - 60.0 AS lat0,
         ((k * 9973) % 120000) / 1000.0 - 60.0
           + CAST(2 + (k % 7) AS DOUBLE) AS lat1,
         ((k * 31337) % 340000) / 1000.0 - 170.0 AS lon0,
         ((k * 31337) % 340000) / 1000.0 - 170.0
           + CAST(3 + (k % 11) AS DOUBLE) AS lon1
  FROM range({_PPZ_N}) t(k))
SELECT p.doc_id, z.zone_id
FROM pts p JOIN zones z
  ON p.lat >= z.lat0 AND p.lat <= z.lat1
 AND p.lon >= z.lon0 AND p.lon <= z.lon1
""")
def geo_pip_partitioned(sf_dir: str):
    """TILE-PARTITIONED CONTAINMENT JOIN (the NO-BROADCAST scale path of
    the flagship's STRtree point-in-polygon): when the polygon side is
    itself corpus-scale (cadastral parcels, geofence fleets), the
    broadcast J1 plan dies — instead both sides PARTITION BY TILE: each
    point lands in its one home 10-deg tile, each zone rectangle
    replicates to every tile its bbox intersects (geo_rect_cover's
    vectorized repeat/offset explode), and the containment test runs
    per tile over distband.cell_pairs' candidates (chunked, so a dense
    tile degrades to more chunks) — every (point, zone) pair meets in
    exactly the point's home tile, so emission is exactly-once with NO
    dedup pass. One hash
    shuffle total; all-pairs output (a doc inside k overlapping zones
    emits k rows — the PIP counting policy). The 200-zone model table
    here stands in for the unbounded side; nothing in the plan reads
    its size."""
    zlat0, zlat1, zlon0, zlon1 = _ppz_zones()

    docs = _read(sf_dir, "documents", ["doc_id"])

    def pt_home(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        tx = np.floor((lon + 180.0) / 10.0).astype(np.int64)
        ty = np.floor((lat + 70.0) / 10.0).astype(np.int64)
        return pa.table(
            {
                "ck": pa.array((tx * 64 + ty).astype(np.uint64), pa.uint64()),
                "side": pa.array(np.zeros(len(doc_id), np.int8), pa.int8()),
                "id": pa.array(doc_id, pa.int64()),
                "a": pa.array(lat, pa.float64()),
                "b": pa.array(lon, pa.float64()),
                "c": pa.array(np.zeros(len(doc_id)), pa.float64()),
                "d": pa.array(np.zeros(len(doc_id)), pa.float64()),
            }
        )

    def zone_rep() -> pa.Table:
        tx0 = np.maximum(0, np.floor((zlon0 + 180.0) / 10.0)).astype(np.int64)
        tx1 = np.minimum(35, np.floor((zlon1 + 180.0) / 10.0)).astype(np.int64)
        ty0 = np.maximum(0, np.floor((zlat0 + 70.0) / 10.0)).astype(np.int64)
        ty1 = np.minimum(13, np.floor((zlat1 + 70.0) / 10.0)).astype(np.int64)
        nx = tx1 - tx0 + 1
        ny = ty1 - ty0 + 1
        per = nx * ny
        zi = np.repeat(np.arange(_PPZ_N), per)
        off = np.arange(int(per.sum())) - np.repeat(
            np.concatenate([[0], np.cumsum(per)])[:-1], per
        )
        tx = tx0[zi] + off // ny[zi]
        ty = ty0[zi] + off % ny[zi]
        return pa.table(
            {
                "ck": pa.array((tx * 64 + ty).astype(np.uint64), pa.uint64()),
                "side": pa.array(np.ones(len(zi), np.int8), pa.int8()),
                "id": pa.array(zi, pa.int64()),
                "a": pa.array(zlat0[zi], pa.float64()),
                "b": pa.array(zlat1[zi], pa.float64()),
                "c": pa.array(zlon0[zi], pa.float64()),
                "d": pa.array(zlon1[zi], pa.float64()),
            }
        )

    import ray

    rep = docs.map_batches(pt_home, batch_format="pyarrow",
                           batch_size=65536).union(
        ray.data.from_arrow(zone_rep())
    )

    def per_part(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        order, chunks = cell_pairs(
            g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
            side == 0, side == 1,
        )
        ids = g["id"].to_numpy(zero_copy_only=False)[order]
        a = g["a"].to_numpy(zero_copy_only=False)[order]
        b = g["b"].to_numpy(zero_copy_only=False)[order]
        c = g["c"].to_numpy(zero_copy_only=False)[order]
        d = g["d"].to_numpy(zero_copy_only=False)[order]
        out_doc, out_zone = [ids[:0]], [ids[:0]]
        for i, j in chunks:
            plat = a[i]
            plon = b[i]
            ok = (
                (plat >= a[j]) & (plat <= b[j])
                & (plon >= c[j]) & (plon <= d[j])
            )
            out_doc.append(ids[i][ok])
            out_zone.append(ids[j][ok])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "zone_id": pa.array(np.concatenate(out_zone), pa.int64()),
            }
        )

    return map_groups_partitioned(rep, "ck", per_part)


_BFS_LOCAL_MAX = 4_000_000  # below this many graph nodes, solve on the driver


@query(sql=f"""
WITH RECURSIVE pts AS (
  SELECT doc_id, (doc_id * 7919) % 140000 AS mlat,
         (doc_id * 104729) % 360000 AS mlon FROM documents),
occ AS (
  SELECT mlon // {_BFS_CELL_MILLI} AS gx, mlat // {_BFS_CELL_MILLI} AS gy,
         MAX(CASE WHEN doc_id % {_BFS_SEED_MOD} = 0 THEN 1 ELSE 0 END) AS is_src
  FROM pts GROUP BY 1, 2),
bfs(gx, gy, d) AS (
  SELECT gx, gy, CAST(0 AS BIGINT) FROM occ WHERE is_src = 1
  UNION
  SELECT o.gx, o.gy, b.d + 1
  FROM bfs b JOIN occ o
    ON (o.gx = b.gx + 1 AND o.gy = b.gy) OR (o.gx = b.gx - 1 AND o.gy = b.gy)
    OR (o.gx = b.gx AND o.gy = b.gy + 1) OR (o.gx = b.gx AND o.gy = b.gy - 1)
  WHERE b.d < {_BFS_MAX_HOPS})
SELECT CAST(gx AS BIGINT) AS gx, CAST(gy AS BIGINT) AS gy,
       CAST(MIN(d) AS BIGINT) AS hops
FROM bfs GROUP BY 1, 2
""")
def geo_grid_bfs(sf_dir: str, force_distributed: bool = False):
    """MULTI-SOURCE BFS HOP DISTANCE over the occupied-tile graph (the
    "distance to nearest hub" / service-reach primitive, and the frontier
    -iteration dataflow sibling of CC's pointer jumping and PageRank's
    synchronous rounds): source tiles are the 5-deg cells holding at least
    one seed document (doc_id % 97 == 0); distance propagates through
    4-connected OCCUPIED cells, one hop per round, capped at 24 rounds;
    unreached cells are omitted.

    Scale shape (the cc.py dual-path contract): one distributed corpus
    count pass (all-integer cell math, packed-u64 count_by_u64) builds the
    occupied/seed sets — the only corpus-scale work. The tile GRAPH is
    bounded by geometry (this grid: 72 x 28), so below _BFS_LOCAL_MAX
    nodes the BFS itself solves on the driver in one vectorized
    dense-mask frontier sweep (the log-round distributed loop would be
    pure chained-execution latency, exactly the local_edges_threshold
    lesson); above the guard — finer cells, bigger worlds, arbitrary
    node graphs — the same semantics run as DISTRIBUTED frontier rounds:
    only round-r discoveries emit their 4 neighbor probes (flat-map +
    occupied clip), merged into the distance Dataset by agg.min_by_u64,
    one row-count of driver traffic per round. Both paths are
    equivalence-tested (tests/test_r4e_ops.py, forced guard)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def cells(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mlat = (doc_id * 7919) % 140000
        mlon = (doc_id * 104729) % 360000
        gx = mlon // _BFS_CELL_MILLI
        gy = mlat // _BFS_CELL_MILLI
        key = (gx * 1024 + gy).astype(np.uint64)
        seed = doc_id % _BFS_SEED_MOD == 0
        # seed flag folds into the key's high bit so ONE count pass carries
        # both sets (max over the bit per cell = "has a seed doc")
        return pa.table(
            {
                "key": pa.array(
                    key | (seed.astype(np.uint64) << np.uint64(63)),
                    pa.uint64(),
                )
            }
        )

    occ_t = _collect_table(
        count_by_u64(
            ds.map_batches(cells, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 2 x (72*28) rows by construction (geometry-bounded)
    raw = occ_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    node = (raw & np.uint64((1 << 63) - 1)).astype(np.int64)
    is_seed = (raw >> np.uint64(63)).astype(bool)
    nodes = np.unique(node)
    seeds = np.unique(node[is_seed])

    empty = pa.table(
        {
            "gx": pa.array([], pa.int64()),
            "gy": pa.array([], pa.int64()),
            "hops": pa.array([], pa.int64()),
        }
    )
    if len(seeds) == 0:
        return empty

    if len(nodes) <= _BFS_LOCAL_MAX and not force_distributed:
        # driver fast path: dense boolean-mask frontier sweep
        w = 360000 // _BFS_CELL_MILLI
        h = 140000 // _BFS_CELL_MILLI
        occ_m = np.zeros((w, h), bool)
        occ_m[nodes // 1024, nodes % 1024] = True
        dist = np.full((w, h), -1, np.int64)
        frontier = np.zeros((w, h), bool)
        frontier[seeds // 1024, seeds % 1024] = True
        dist[frontier] = 0
        for r in range(1, _BFS_MAX_HOPS + 1):
            grow = np.zeros((w, h), bool)
            grow[1:, :] |= frontier[:-1, :]
            grow[:-1, :] |= frontier[1:, :]
            grow[:, 1:] |= frontier[:, :-1]
            grow[:, :-1] |= frontier[:, 1:]
            frontier = grow & occ_m & (dist < 0)
            if not frontier.any():
                break
            dist[frontier] = r
        gx, gy = np.nonzero(dist >= 0)
        return pa.table(
            {
                "gx": pa.array(gx.astype(np.int64), pa.int64()),
                "gy": pa.array(gy.astype(np.int64), pa.int64()),
                "hops": pa.array(dist[gx, gy], pa.int64()),
            }
        )

    return _grid_bfs_distributed(nodes, seeds)


def _grid_bfs_distributed(nodes: np.ndarray, seeds: np.ndarray):
    """Distributed frontier rounds over an occupied-node graph: dist and
    frontier live as Datasets; per round the frontier flat-maps its 4
    neighbor probes (clipped to occupied via a sorted key array) and
    agg.min_by_u64 merges them; the driver moves one row-count per round
    (the node set grows monotonically, so stagnation == fixpoint). The
    sorted key array rides the probe UDF as a default argument, shipped
    once per round with it: the grid bounds it to 72 x 28 nodes (16 KB)."""
    import ray

    occ_sorted = np.sort(nodes)

    dist = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(seeds.astype(np.uint64), pa.uint64()),
                "d": pa.array(np.zeros(len(seeds), np.uint64), pa.uint64()),
            }
        )
    ).materialize()
    frontier = dist
    n_found = dist.count()

    def probe(b: pa.Table, occ_arr=occ_sorted) -> pa.Table:
        nd_ = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        d_ = b["d"].to_numpy(zero_copy_only=False).astype(np.uint64)
        gx, gy = nd_ // 1024, nd_ % 1024
        nx = np.concatenate([gx + 1, gx - 1, gx, gx])
        ny = np.concatenate([gy, gy, gy + 1, gy - 1])
        ndist = np.tile(d_ + np.uint64(1), 4)
        ok = (
            (nx >= 0) & (nx * _BFS_CELL_MILLI < 360000)
            & (ny >= 0) & (ny * _BFS_CELL_MILLI < 140000)
        )
        cand = (nx[ok] * 1024 + ny[ok]).astype(np.int64)
        ndist = ndist[ok]
        pos = np.searchsorted(occ_arr, cand)
        hit = (pos < len(occ_arr)) & (occ_arr[np.minimum(pos, len(occ_arr) - 1)] == cand)
        return pa.table(
            {
                "node": pa.array(cand[hit].astype(np.uint64), pa.uint64()),
                "d": pa.array(ndist[hit], pa.uint64()),
            }
        )

    for r in range(1, _BFS_MAX_HOPS + 1):
        nbrs = frontier.map_batches(probe, batch_format="pyarrow")
        dist = min_by_u64(dist.union(nbrs), "node", "d").materialize()
        cur = dist.count()
        if cur == n_found:
            break
        frontier = dist.filter(expr=f"d == {r}")
        n_found = cur

    def unpack(b: pa.Table) -> pa.Table:
        nd_ = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        d_ = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "gx": pa.array(nd_ // 1024, pa.int64()),
                "gy": pa.array(nd_ % 1024, pa.int64()),
                "hops": pa.array(d_, pa.int64()),
            }
        )

    return dist.map_batches(unpack, batch_format="pyarrow")


@query(sql=f"SELECT * FROM read_parquet('{_DGD}/traj_simplify.parquet')")
def geo_traj_simplify(sf_dir: str):
    """POLYLINE SIMPLIFICATION (Douglas-Peucker): per user, reduce the
    (ts, event_id)-ordered track on the travel-model coordinates (the
    events_stay_points city/jitter spec) to the points that define its
    shape within 0.8 deg — jitter inside a stay collapses, travel legs
    survive. One hash shuffle by user; inside the partition each user's
    track runs a STACK-based DP whose max-distance scan per split is
    vectorized numpy (the per-user loop is the per-trajectory kernel
    itself, same policy as the per-doc minhash signature loop).

    Determinism spec (shared with the independent recursive pure-Python
    golden, fixtures/docs_golden.golden_traj_simplify): distance to the
    INFINITE endpoint line, squared comparisons cross^2 > eps^2*seg2 (no
    sqrt anywhere), split at the FIRST index of the maximum — both
    implementations run the identical IEEE expression tree, so the kept
    set is bit-deterministic, and the driver hash-checks engine == golden
    via the materialized parquet oracle."""
    _ensure_docs_golden(sf_dir)
    eps2 = _DP_EPS * _DP_EPS
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def _dp_keep(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        n = len(lat)
        keep = np.zeros(n, dtype=bool)
        keep[0] = keep[-1] = True
        if n <= 2:
            return keep
        stack = [(0, n - 1)]
        while stack:
            i, j = stack.pop()
            if j <= i + 1:
                continue
            ax, ay = lon[i], lat[i]
            bx, by = lon[j], lat[j]
            dx = bx - ax
            dy = by - ay
            seg2 = dx * dx + dy * dy
            px = lon[i + 1 : j]
            py = lat[i + 1 : j]
            if seg2 == 0.0:
                d = (px - ax) * (px - ax) + (py - ay) * (py - ay)
                thr = eps2
            else:
                c = dx * (py - ay) - dy * (px - ax)
                d = c * c
                thr = eps2 * seg2
            m = int(np.argmax(d))  # first index of the maximum
            if d[m] > thr:
                k = i + 1 + m
                keep[k] = True
                stack.append((i, k))
                stack.append((k, j))
        return keep

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "user_id": pa.array([], pa.int64()),
            "event_id": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        n = len(uid)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ustart = np.nonzero(first)[0]
        ulen = np.diff(np.append(ustart, n))
        seq = np.arange(n) - np.repeat(ustart, ulen)
        city = (uid * 7 + seq // 20) % 12
        lat = (
            ((city * 11003) % 120000) / 1000.0 - 60.0
            + ((uid * 7919) % 2001) / 1000.0 - 1.0
            + ((eid * 13) % 1001) / 1000.0 - 0.5
        )
        lon = (
            ((city * 104729) % 340000) / 1000.0 - 170.0
            + ((uid * 104729) % 2001) / 1000.0 - 1.0
            + ((eid * 29) % 1001) / 1000.0 - 0.5
        )
        keep = np.zeros(n, dtype=bool)
        for s, l in zip(ustart, ulen):
            keep[s : s + l] = _dp_keep(lat[s : s + l], lon[s : s + l])
        return pa.table(
            {
                "user_id": pa.array(uid[keep], pa.int64()),
                "event_id": pa.array(eid[keep], pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# CCW triangles at .0005 offsets (same off-lattice trick as GEO_RECTS): the
# ray-casting kernel and the SQL half-plane signs agree everywhere except ON
# an edge, which the offset keeps the derived 10^-3 lattice away from.
GEO_TRIS = [
    ("T0-am", (-120.0005, 10.0005), (-100.0005, 10.0005), (-110.0005, 40.0005)),
    ("T1-af", (20.0005, -50.0005), (60.0005, -50.0005), (40.0005, -10.0005)),
    ("T2-as", (100.0005, 20.0005), (140.0005, 25.0005), (120.0005, 55.0005)),
    ("T3-eu", (-40.0005, 40.0005), (-10.0005, 42.0005), (-30.0005, 65.0005)),
]


def _tri_values_sql() -> str:
    rows = ",\n    ".join(
        f"('{tid}', {x1}, {y1}, {x2}, {y2}, {x3}, {y3})"
        for tid, (x1, y1), (x2, y2), (x3, y3) in GEO_TRIS
    )
    return f"(VALUES\n    {rows}) AS t(tri_id, x1, y1, x2, y2, x3, y3)"




@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents)
SELECT p.doc_id, t.tri_id
FROM pts p JOIN {_tri_values_sql()}
  ON  (t.x2 - t.x1) * (p.lat - t.y1) - (t.y2 - t.y1) * (p.lon - t.x1) > 0
  AND (t.x3 - t.x2) * (p.lat - t.y2) - (t.y3 - t.y2) * (p.lon - t.x2) > 0
  AND (t.x1 - t.x3) * (p.lat - t.y3) - (t.y1 - t.y3) * (p.lon - t.x3) > 0
""")
def geo_pip_triangles(sf_dir: str):
    """Containment JOIN against NON-rectangular polygons — every (document,
    triangle) pair whose point falls inside (overlaps allowed; no winner
    selection), through the SAME WKT-parse -> STRtree -> even-odd
    ray-casting path the flagship pip stage uses (stages/pip.py
    build_polygon_index). The rect-based geo_pip_admin oracle can only
    exercise BETWEEN boxes; here the DuckDB mirror is the exact half-plane
    sign test per CCW triangle, so the general polygon kernel itself is
    driver-hash-checked."""
    tri_tbl = pa.table(
        {
            "admin_id": pa.array([t[0] for t in GEO_TRIS], pa.string()),
            "level": pa.array([0] * len(GEO_TRIS), pa.int8()),
            "wkt": pa.array(
                [
                    f"POLYGON (({t[1][0]} {t[1][1]}, {t[2][0]} {t[2][1]}, "
                    f"{t[3][0]} {t[3][1]}, {t[1][0]} {t[1][1]}))"
                    for t in GEO_TRIS
                ],
                pa.string(),
            ),
        }
    )

    class TriJoin:
        def __init__(self, t: pa.Table):
            self.parts, self.tree = build_polygon_index(t)

        def __call__(self, b: pa.Table) -> pa.Table:
            doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
            lat, lon = _derive_coords(doc_id)
            pt, item = self.tree.query_points(lon, lat)
            out_doc, out_tri = [], []
            for it in np.unique(item) if len(item) else []:
                m = item == it
                pts = pt[m]
                inside = geometry.points_in_polygon(lon[pts], lat[pts], self.parts[it][2])
                out_doc.append(doc_id[pts[inside]])
                out_tri.append(np.full(int(inside.sum()), self.parts[it][0]))
            if out_doc:
                return pa.table(
                    {
                        "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                        "tri_id": pa.array(np.concatenate(out_tri), pa.string()),
                    }
                )
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "tri_id": pa.array([], pa.string())}
            )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        TriJoin, fn_constructor_args=(tri_tbl,), batch_format="pyarrow",
        batch_size=65536, concurrency=(1, 4),
    )


_FOCAL_ZOOM = 5


def _focal_sql(zoom: int) -> str:
    n = 1 << zoom
    nf = float(n)
    return f"""
WITH pts AS (
  SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
c AS (
  SELECT CAST(LEAST({nf} - 1, GREATEST(0, FLOOR((lon + 180.0) / 360.0 * {nf}))) AS BIGINT) AS x,
         CAST(LEAST({nf} - 1, GREATEST(0, FLOOR((1.0 - LN(TAN(RADIANS(lat)) + 1.0 / COS(RADIANS(lat))) / PI()) / 2.0 * {nf}))) AS BIGINT) AS y,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM pts GROUP BY 1, 2),
nb AS (
  SELECT c.x + dx.i AS x, c.y + dy.j AS y, SUM(cnt) AS s
  FROM c,
       (SELECT UNNEST(generate_series(-1, 1)) AS i) dx,
       (SELECT UNNEST(generate_series(-1, 1)) AS j) dy
  WHERE c.x + dx.i BETWEEN 0 AND {n - 1} AND c.y + dy.j BETWEEN 0 AND {n - 1}
  GROUP BY 1, 2)
SELECT x AS tile_x, y AS tile_y,
       ROUND(CAST(s AS DOUBLE) / CAST(
         (LEAST(x + 1, {n - 1}) - GREATEST(x - 1, 0) + 1)
         * (LEAST(y + 1, {n - 1}) - GREATEST(y - 1, 0) + 1) AS DOUBLE), 6) AS focal_mean
FROM nb
"""




@query(sql=_focal_sql(_FOCAL_ZOOM))
def geo_focal_mean(sf_dir: str, zoom: int = _FOCAL_ZOOM):
    """Raster focal statistics (the kernel-density-lite smoothing pass every
    heatmap tiler runs): per z/x/y tile, the MEAN document count over its
    3x3 neighborhood (missing neighbors count 0; windows clipped at the
    grid edge use the true in-range cell count as the divisor). Plan: one
    count_by_u64 rasterization (combiner + single shuffle), then each
    nonzero tile's count replicates to its <=9 in-range neighbors — the
    raster sibling of the distance-band ghost trick — and a second
    sum_by_u64 closes the window; work scales with NONZERO tiles x 9,
    never with the full grid."""
    n_side = 1 << zoom
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tiles(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        x, y = mercator.lonlat_to_tile(lon, lat, zoom)
        return pa.table(
            {
                "key": pa.array(
                    mercator.tile_key(
                        np.full(len(x), zoom, np.uint64),
                        x.astype(np.uint64),
                        y.astype(np.uint64),
                    ),
                    pa.uint64(),
                )
            }
        )

    counts = count_by_u64(
        ds.map_batches(tiles, batch_format="pyarrow", batch_size=65536), "key"
    )

    dx = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1], dtype=np.int64)
    dy = np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1], dtype=np.int64)

    def spread(b: pa.Table) -> pa.Table:
        _, x, y = mercator.tile_unkey(b["key"].to_numpy(zero_copy_only=False))
        c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(x)
        nx = np.repeat(x, 9) + np.tile(dx, n)
        ny = np.repeat(y, 9) + np.tile(dy, n)
        ok = (nx >= 0) & (nx < n_side) & (ny >= 0) & (ny < n_side)
        key = mercator.tile_key(
            np.full(int(ok.sum()), zoom, np.uint64),
            nx[ok].astype(np.uint64),
            ny[ok].astype(np.uint64),
        )
        return pa.table(
            {
                "key": pa.array(key, pa.uint64()),
                "v": pa.array(np.repeat(c, 9)[ok], pa.int64()),
            }
        )

    summed = sum_by_u64(
        counts.map_batches(spread, batch_format="pyarrow", batch_size=65536), "key", "v"
    )

    def finish(b: pa.Table) -> pa.Table:
        _, x, y = mercator.tile_unkey(b["key"].to_numpy(zero_copy_only=False))
        s = b["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
        win = (np.minimum(x + 1, n_side - 1) - np.maximum(x - 1, 0) + 1) * (
            np.minimum(y + 1, n_side - 1) - np.maximum(y - 1, 0) + 1
        )
        return pa.table(
            {
                "tile_x": pa.array(x, pa.int64()),
                "tile_y": pa.array(y, pa.int64()),
                "focal_mean": pa.array(
                    sql_round_np(s / win.astype(np.float64), 6), pa.float64()
                ),
            }
        )

    return summed.map_batches(finish, batch_format="pyarrow")


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
cent AS (
  SELECT admin_id, (lat0 + lat1) / 2.0 AS clat, (lon0 + lon1) / 2.0 AS clon
  FROM {_geo_rects_values_sql()}),
d AS (
  SELECT p.doc_id, c.admin_id,
         (p.lat - c.clat) * (p.lat - c.clat) + (p.lon - c.clon) * (p.lon - c.clon) AS sq_dist
  FROM pts p CROSS JOIN cent c)
SELECT doc_id, admin_id, sq_dist FROM d
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY sq_dist, admin_id) = 1
""")
def geo_nearest_admin(sf_dir: str):
    """Nearest-neighbor join against a SMALL vector side: each document is
    assigned the admin zone with the closest bbox centroid (squared-degree
    distance, smallest-admin_id tie-break). The centroid table broadcasts
    once (rows x |zones| distance matrix per batch, one argmin) — the
    pattern for any fact-vs-small-gazetteer nearest join; for large right sides
    the cell-bucketed kNN (stages/knn.py) is the scale path. Distance
    arithmetic is (a-b)*(a-b) sums, IEEE-identical to the SQL cross join;
    argmin over centroids pre-sorted by admin_id makes numpy's
    first-minimum exactly the SQL (dist, admin_id) ordering."""
    rects = sorted(GEO_RECTS)  # admin_id ascending
    aid = np.array([r[0] for r in rects])
    clat = np.array([(r[2] + r[4]) / 2.0 for r in rects])
    clon = np.array([(r[3] + r[5]) / 2.0 for r in rects])

    def nearest(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - clat[None, :]
        dlo = lon[:, None] - clon[None, :]
        sq = dla * dla + dlo * dlo
        j = np.argmin(sq, axis=1)  # first min == smallest admin_id on ties
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "admin_id": pa.array(aid[j], pa.string()),
                "sq_dist": pa.array(sq[np.arange(len(j)), j], pa.float64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        nearest, batch_format="pyarrow", batch_size=65536
    )


_COVER_ZOOM = 4


def _cover_tile_expr(lon: str, lat: str, zoom: int) -> str:
    n = float(1 << zoom)
    tx = f"CAST(LEAST({n} - 1, GREATEST(0, FLOOR(({lon} + 180.0) / 360.0 * {n}))) AS BIGINT)"
    ty = (
        f"CAST(LEAST({n} - 1, GREATEST(0, FLOOR((1.0 - LN(TAN(RADIANS({lat})) + 1.0 / "
        f"COS(RADIANS({lat}))) / PI()) / 2.0 * {n}))) AS BIGINT)"
    )
    return tx, ty


def _rect_cover_sql(zoom: int) -> str:
    tx0, ty1 = _cover_tile_expr("r.lon0", "r.lat0", zoom)
    tx1, ty0 = _cover_tile_expr("r.lon1", "r.lat1", zoom)
    return f"""
WITH bounds AS (
  SELECT r.admin_id, {tx0} AS x0, {tx1} AS x1, {ty0} AS y0, {ty1} AS y1
  FROM {_geo_rects_values_sql()})
SELECT admin_id, CAST({zoom} AS INTEGER) AS tile_z, gx.x AS tile_x, gy.y AS tile_y
FROM bounds,
     LATERAL (SELECT UNNEST(generate_series(x0, x1)) AS x) gx,
     LATERAL (SELECT UNNEST(generate_series(y0, y1)) AS y) gy
"""




@query(sql=_rect_cover_sql(_COVER_ZOOM))
def geo_rect_cover(sf_dir: str, zoom: int = _COVER_ZOOM):
    """Vector->raster covering (the polyfill primitive): every z/x/y tile
    intersecting each admin polygon's bbox at one zoom. This is the
    broadcast-side builder for raster joins — polyfill the (small) polygon
    table once, then any tile-keyed fact joins against it without geometry
    tests. The explode is the vectorized repeat/offset construction (no
    per-rect Python beyond the batch); the tile floor/clip float math is
    the same kernel geo_tile_counts already hash-verifies against SQL."""
    import ray.data

    def cover(b: pa.Table) -> pa.Table:
        aid = b["admin_id"].to_pylist()
        lat0 = b["lat0"].to_numpy(zero_copy_only=False)
        lon0 = b["lon0"].to_numpy(zero_copy_only=False)
        lat1 = b["lat1"].to_numpy(zero_copy_only=False)
        lon1 = b["lon1"].to_numpy(zero_copy_only=False)
        x0, y1 = mercator.lonlat_to_tile(lon0, lat0, zoom)  # y grows southward
        x1, y0 = mercator.lonlat_to_tile(lon1, lat1, zoom)
        nx = (x1 - x0 + 1).astype(np.int64)
        ny = (y1 - y0 + 1).astype(np.int64)
        cnt = nx * ny
        total = int(cnt.sum())
        rect = np.repeat(np.arange(len(aid), dtype=np.int64), cnt)
        pair_start = np.cumsum(cnt) - cnt
        offs = np.arange(total, dtype=np.int64) - np.repeat(pair_start, cnt)
        tx = x0[rect] + offs // ny[rect]
        ty = y0[rect] + offs % ny[rect]
        return pa.table(
            {
                "admin_id": pa.array([aid[i] for i in rect], pa.string()),
                "tile_z": pa.array(np.full(total, zoom, np.int32), pa.int32()),
                "tile_x": pa.array(tx, pa.int64()),
                "tile_y": pa.array(ty, pa.int64()),
            }
        )

    rects = pa.table(
        {
            "admin_id": pa.array([r[0] for r in GEO_RECTS], pa.string()),
            "lat0": pa.array([r[2] for r in GEO_RECTS], pa.float64()),
            "lon0": pa.array([r[3] for r in GEO_RECTS], pa.float64()),
            "lat1": pa.array([r[4] for r in GEO_RECTS], pa.float64()),
            "lon1": pa.array([r[5] for r in GEO_RECTS], pa.float64()),
        }
    )
    return ray.data.from_arrow(rects).map_batches(
        cover, batch_format="pyarrow", batch_size=4096
    )


_HEXBIN_RES = 0


def _hexbin_sql(res: int) -> str:
    size = hexgrid.edge_deg(res)
    c1 = hexgrid.SQRT3 / 3.0
    return f"""
WITH pts AS (
  SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
frac AS (
  SELECT ({c1!r} * lon - lat / 3.0) / {size!r} AS qf,
         (0.6666666666666666 * lat) / {size!r} AS rf
  FROM pts),
cube AS (
  SELECT qf, rf, -qf - rf AS yf,
         round_even(qf, 0) AS rx, round_even(-qf - rf, 0) AS ry, round_even(rf, 0) AS rz
  FROM frac),
fixed AS (
  SELECT CASE WHEN ABS(rx - qf) > ABS(ry - yf) AND ABS(rx - qf) > ABS(rz - rf)
              THEN -ry - rz ELSE rx END AS rx2, ry, rz,
         NOT (ABS(rx - qf) > ABS(ry - yf) AND ABS(rx - qf) > ABS(rz - rf))
             AND ABS(rz - rf) > ABS(ry - yf) AS fix_z
  FROM cube)
SELECT CAST(rx2 AS BIGINT) AS hex_q,
       CAST(CASE WHEN fix_z THEN -rx2 - ry ELSE rz END AS BIGINT) AS hex_r,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM fixed GROUP BY 1, 2
"""




@query(sql=_hexbin_sql(_HEXBIN_RES))
def geo_hexbin(sf_dir: str, res: int = _HEXBIN_RES):
    """Hexagonal binning over the aperture-7 hex index (geo/hexgrid.py, the
    H3-analog from the north rule): documents counted per hex cell at one
    resolution. The packed uint64 cell id routes the count through the
    vectorized combiner + hash-partition reduce (never Ray's Python-per-key
    aggregate); the oracle mirrors the full float pipeline — axial
    projection constants inlined at full precision and cube-rounding with
    round_even (numpy round IS banker's rounding) — so the driver hash
    checks the hex index math itself."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def cells(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {"key": pa.array(hexgrid.lonlat_to_cell(lon, lat, res), pa.uint64())}
        )

    counted = count_by_u64(
        ds.map_batches(cells, batch_format="pyarrow", batch_size=65536), "key"
    )

    def unpack(b: pa.Table) -> pa.Table:
        q, r, _ = hexgrid.unpack(b["key"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "hex_q": pa.array(q, pa.int64()),
                "hex_r": pa.array(r, pa.int64()),
                "n_docs": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64), pa.int64()
                ),
            }
        )

    return counted.map_batches(unpack, batch_format="pyarrow")


def _geo_tile_regions_sql(z: int = 5, min_points: int = 2) -> str:
    n = float(1 << z)
    return f"""
WITH RECURSIVE
pts AS (SELECT {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
t AS (
  SELECT CAST(LEAST({n} - 1, GREATEST(0, FLOOR((lon + 180.0) / 360.0 * {n}))) AS BIGINT) AS tile_x,
         CAST(LEAST({n} - 1, GREATEST(0, FLOOR((1.0 - LN(TAN(RADIANS(lat)) + 1.0 / COS(RADIANS(lat))) / PI()) / 2.0 * {n}))) AS BIGINT) AS tile_y
  FROM pts),
occ AS (
  SELECT tile_x, tile_y, tile_x * 4294967296 + tile_y AS k
  FROM t GROUP BY 1, 2 HAVING COUNT(*) >= {min_points}),
e0 AS (
  SELECT a.k AS u, b.k AS v FROM occ a JOIN occ b
    ON (b.tile_x = a.tile_x + 1 AND b.tile_y = a.tile_y)
    OR (b.tile_x = a.tile_x AND b.tile_y = a.tile_y + 1)),
e AS (SELECT u, v FROM e0 UNION SELECT v, u FROM e0),
reach(node, comp) AS (
  SELECT u, u FROM e
  UNION
  SELECT e.u, r.comp FROM e JOIN reach r ON r.node = e.v),
lab AS (SELECT node, MIN(comp) AS comp FROM reach GROUP BY node)
SELECT occ.tile_x, occ.tile_y, CAST(COALESCE(lab.comp, occ.k) AS BIGINT) AS region_id
FROM occ LEFT JOIN lab ON lab.node = occ.k
"""




@query(sql=_geo_tile_regions_sql())
def geo_tile_regions(sf_dir: str, z: int = 5, min_points: int = 2):
    """Raster -> VECTOR region labeling (the polygonize analog — the inverse
    direction of the tile rollup): occupied z-5 tiles (>= min_points derived
    doc points) are 4-connected into regions via distributed connected
    components; region_id = the region's minimum packed tile key, singleton
    tiles label themselves.

    Scale shape: exact occupied-tile counts via the packed-u64 combiner
    (count_by_u64 — work scales with DISTINCT occupied tiles, not points);
    adjacency = ONE distributed hash_join of each tile's (right, down)
    neighbor probes against the occupied keys (no all-pairs); regions close
    through stages/cc.py (log-round pointer jumping above its guard);
    singletons re-attach via an anti lookup_join. The DuckDB oracle recomputes
    the labeling through a fully independent RECURSIVE-CTE min-reachable
    closure (the emb_dup_clusters pattern, on a grid graph)."""
    n = float(1 << z)
    ds = _read(sf_dir, "documents", ["doc_id"])

    def tile_keys(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        x = np.minimum(n - 1, np.maximum(0.0, np.floor((lon + 180.0) / 360.0 * n))).astype(np.int64)
        yv = 1.0 - np.log(np.tan(np.radians(lat)) + 1.0 / np.cos(np.radians(lat))) / np.pi
        y = np.minimum(n - 1, np.maximum(0.0, np.floor(yv / 2.0 * n))).astype(np.int64)
        return pa.table(
            {"key": pa.array(((x.astype(np.uint64) << np.uint64(32))
                              | y.astype(np.uint64)), pa.uint64())}
        )

    occ = count_by_u64(
        ds.map_batches(tile_keys, batch_format="pyarrow", batch_size=65536), "key"
    ).map_batches(
        lambda b: pa.table(
            {"k": pc.cast(b["key"], pa.int64())}
        ).filter(pc.greater_equal(b["cnt"], min_points)),
        batch_format="pyarrow",
    ).materialize()  # bounded by distinct occupied tiles, consumed 3x below

    def nbr_probes(b: pa.Table) -> pa.Table:
        k = b["k"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x, y = k >> np.uint64(32), k & np.uint64(0xFFFFFFFF)
        right = ((x + np.uint64(1)) << np.uint64(32)) | y
        down = (x << np.uint64(32)) | (y + np.uint64(1))
        return pa.table(
            {
                "nk": pa.array(np.concatenate([right, down]).astype(np.int64), pa.int64()),
                "u": pa.array(np.concatenate([k, k]).astype(np.int64), pa.int64()),
            }
        )

    int_schema = pa.schema([("k", pa.int64())])
    edges = hash_join(
        occ.map_batches(nbr_probes, batch_format="pyarrow"), occ,
        on="nk", right_on="k",
        left_schema=pa.schema([("nk", pa.int64()), ("u", pa.int64())]),
        right_schema=int_schema,
    )
    labeled = connected_components(edges, src="u", dst="nk").materialize()

    singles = lookup_join(
        occ, labeled, on="k", right_on="node", how="anti", left_schema=int_schema,
    ).map_batches(
        lambda b: pa.table({"node": b["k"], "comp": b["k"]}),
        batch_format="pyarrow",
    )

    def unpack(b: pa.Table) -> pa.Table:
        k = b["node"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "tile_x": pa.array((k >> np.uint64(32)).astype(np.int64), pa.int64()),
                "tile_y": pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()),
                "region_id": b["comp"],
            }
        )

    return labeled.union(singles).map_batches(unpack, batch_format="pyarrow")


_DBSCAN_EPS = 8.0
_DBSCAN_MIN_PTS = 4


@query(sql=f"""
WITH RECURSIVE
pts AS (SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
p0 AS (
  SELECT a.doc_id AS da, b.doc_id AS db
  FROM pts a JOIN pts b ON a.doc_id < b.doc_id
  WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_DBSCAN_EPS * _DBSCAN_EPS}),
e AS (SELECT da AS u, db AS v FROM p0 UNION ALL SELECT db, da FROM p0),
deg AS (SELECT u AS id, COUNT(*) AS n FROM e GROUP BY u),
core AS (SELECT id FROM deg WHERE n + 1 >= {_DBSCAN_MIN_PTS}),
ce0 AS (
  SELECT da, db FROM p0
  WHERE da IN (SELECT id FROM core) AND db IN (SELECT id FROM core)),
ce AS (SELECT da AS u, db AS v FROM ce0 UNION SELECT db, da FROM ce0),
reach(node, comp) AS (
  SELECT id, id FROM core
  UNION
  SELECT ce.u, r.comp FROM ce JOIN reach r ON r.node = ce.v),
clab AS (SELECT node, MIN(comp) AS comp FROM reach GROUP BY node),
border AS (
  SELECT e.u AS node, MIN(c.comp) AS comp
  FROM e JOIN clab c ON c.node = e.v
  WHERE e.u NOT IN (SELECT id FROM core)
  GROUP BY e.u)
SELECT p.doc_id,
       CAST(COALESCE(c.comp, b.comp) AS BIGINT) AS cluster,
       CASE WHEN c.node IS NOT NULL THEN 'core'
            WHEN b.node IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role
FROM pts p
LEFT JOIN clab c ON c.node = p.doc_id
LEFT JOIN border b ON b.node = p.doc_id
""")
def geo_dbscan(sf_dir: str, eps: float = _DBSCAN_EPS,
               min_pts: int = _DBSCAN_MIN_PTS):
    """Distributed DBSCAN over the derived-coordinate lattice — the
    density-based clustering a geospatial engine owes its users (hotspot
    detection over page coordinates). The operator (stages/dbscan.py) is
    the standard distributed equivalence: eps-neighbor pairs from the
    distance-band join, core points by exact degree, clusters = connected
    components of the core-core subgraph, border points take the MINIMUM
    neighboring core cluster (deterministic where sequential DBSCAN is
    visit-order-dependent), everything else noise. Core-membership filters
    route through semi/anti stages/join.lookup_join (broadcast while the
    core set fits, distributed hash joins above — the core set is
    O(corpus) on dense data). The oracle re-derives all of it in SQL: brute-force eps pairs,
    degree counts, a RECURSIVE min-reachable closure over core-core edges,
    and a MIN() border attach."""
    def coords(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    pts = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        coords, batch_format="pyarrow", batch_size=65536
    )
    return dbscan(pts, eps, min_pts)


_SFCA_R2 = 900.0  # squared-degree catchment radius (30 deg)


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
facs AS (
  SELECT k AS fac_id,
         ((k * 11003) % 120000) / 1000.0 - 60.0 AS flat,
         ((k * 104729) % 340000) / 1000.0 - 170.0 AS flon,
         CAST(100 + (k * 37) % 50 AS BIGINT) AS supply
  FROM range(12) t(k)),
dem AS (
  SELECT f.fac_id, f.supply, CAST(COUNT(p.doc_id) AS BIGINT) AS d
  FROM facs f LEFT JOIN pts p
    ON (p.lat - f.flat) * (p.lat - f.flat)
       + (p.lon - f.flon) * (p.lon - f.flon) <= {_SFCA_R2}
  GROUP BY 1, 2),
ratio AS (
  SELECT fac_id,
         CASE WHEN d > 0 THEN supply * 1000000000 // d ELSE 0 END AS rm,
         (SELECT flat FROM facs WHERE facs.fac_id = dem.fac_id) AS flat,
         (SELECT flon FROM facs WHERE facs.fac_id = dem.fac_id) AS flon
  FROM dem),
acc AS (
  SELECT p.doc_id, CAST(COALESCE(SUM(r.rm), 0) AS BIGINT) AS a
  FROM pts p LEFT JOIN ratio r
    ON (p.lat - r.flat) * (p.lat - r.flat)
       + (p.lon - r.flon) * (p.lon - r.flon) <= {_SFCA_R2}
  GROUP BY 1)
SELECT a AS access_micro, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM acc GROUP BY 1 ORDER BY 1
""")
def geo_2sfca(sf_dir: str):
    """TWO-STEP FLOATING CATCHMENT AREA accessibility (the standard
    spatial-accessibility measure: step 1 gives each facility a
    supply-to-demand ratio over its catchment, step 2 sums the ratios
    every demand point can reach — where is service-rich vs
    service-poor?): facilities are the 12 model city centers with
    deterministic integer capacities; the per-facility ratio is the
    EXACT integer supply*1e9 // demand, so the step-2 sum is an
    order-free integer and the whole measure is float-parity-free.
    Distribution: one demand-count pass ((B x 12) vectorized mask ->
    12-bin partials), ratio vector as a task constant, one access pass
    (int mask @ ratio), count_by_u64 histogram — the driver sees 12
    integers plus O(distinct access levels) rows (bounded by the 2^12
    reach combinations, in practice far fewer)."""
    k = np.arange(12, dtype=np.int64)
    f_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    f_lon = ((k * 104729) % 340000) / 1000.0 - 170.0
    supply = 100 + (k * 37) % 50  # int64

    ds = _read(sf_dir, "documents", ["doc_id"])

    def demand_partial(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - f_lat[None, :]
        dlo = lon[:, None] - f_lon[None, :]
        reach = (dla * dla + dlo * dlo) <= _SFCA_R2
        return pa.table(
            {
                "fac_id": pa.array(k, pa.int64()),
                "d": pa.array(reach.sum(axis=0).astype(np.int64), pa.int64()),
            }
        )

    dem = fold_table(
        ds.map_batches(demand_partial, batch_format="pyarrow", batch_size=131072),
        "fac_id",
        {"demand": ("d", "sum")},
    )
    D = np.zeros(12, np.int64)
    D[dem["fac_id"].to_numpy(zero_copy_only=False)] = dem[
        "demand"
    ].to_numpy(zero_copy_only=False)
    ratio = np.where(D > 0, supply * 1_000_000_000 // np.maximum(D, 1), 0)

    def access(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - f_lat[None, :]
        dlo = lon[:, None] - f_lon[None, :]
        reach = ((dla * dla + dlo * dlo) <= _SFCA_R2).astype(np.int64)
        a = reach @ ratio  # exact integer accessibility
        return pa.table({"key": pa.array(a.astype(np.uint64), pa.uint64())})

    hist = _collect_table(
        count_by_u64(
            ds.map_batches(access, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    a = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = hist["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(a)
    return pa.table(
        {
            "access_micro": pa.array(a[order], pa.int64()),
            "n_docs": pa.array(n[order], pa.int64()),
        }
    )


_COVISIT_CELL_MILLI = 2000  # 2-degree co-visitation lattice
_COVISIT_MIN_USERS = 2


@query(sql=f"""
WITH pts AS (
  SELECT user_id,
         (((((user_id % 12) * 11003) % 120000) - 60000
           + ((user_id * 7919) % 2001) - 1000
           + ((event_id * 13) % 1001) - 500 + 61500)
          // {_COVISIT_CELL_MILLI}) AS cy,
         (((((user_id % 12) * 104729) % 340000) - 170000
           + ((user_id * 104729) % 2001) - 1000
           + ((event_id * 29) % 1001) - 500 + 171500)
          // {_COVISIT_CELL_MILLI}) AS cx
  FROM events),
uc AS (SELECT DISTINCT user_id, cy * 1024 + cx AS cell FROM pts),
na AS (SELECT cell, CAST(COUNT(*) AS BIGINT) AS n FROM uc GROUP BY 1),
pairs AS (
  SELECT a.cell AS ca, b.cell AS cb, CAST(COUNT(*) AS BIGINT) AS n_ab
  FROM uc a JOIN uc b ON a.user_id = b.user_id AND a.cell < b.cell
  GROUP BY 1, 2)
SELECT p.ca AS cell_a, p.cb AS cell_b, na1.n AS n_a, na2.n AS n_b, p.n_ab,
       ROUND(CAST(p.n_ab AS DOUBLE)
             / SQRT(CAST(na1.n * na2.n AS DOUBLE)), 6) AS cosine
FROM pairs p
JOIN na na1 ON na1.cell = p.ca
JOIN na na2 ON na2.cell = p.cb
WHERE p.n_ab >= {_COVISIT_MIN_USERS}
ORDER BY 1, 2
""")
def geo_covisit_cosine(sf_dir: str):
    """CELL-CELL CO-VISITATION NETWORK (cosine-normalized: how strongly
    are two places connected THROUGH SHARED VISITORS — the
    mobility-network view that geo_colocation/geo_clq cannot see, since
    those measure spatial adjacency of points while this measures the
    bipartite user->cell projection: two far-apart cells are tied iff
    the same people visit both). Cells are the exact integer contact-
    model lattice (milli-degree chain offset to non-negative, floor-div
    2000 — every step int64-exact and mirrored in the SQL). Distributed
    shape: distinct (user, cell) via ONE count_by_u64, per-user pair
    emission inside a user-keyed hash partition (per-user distinct cells
    are GEOMETRY-bounded — home cluster +-1.5 deg spans <= 4 lattice
    cells per axis — so the quadratic-per-user step is O(1) per user,
    never a hot-key risk), pair counts via a second count_by_u64, and
    per-cell visitor counts (bounded by occupied cells) broadcast into
    the final fold. cosine = n_ab / sqrt(n_a * n_b), ROUND 6 on both
    sides; pairs below {_COVISIT_MIN_USERS} shared users are dropped."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pack_uc(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (uid >= 0).all() and (uid < (1 << 32)).all(), (
            "user_id outside [0, 2^32) breaks covisit packing"
        )
        lat_m = (
            (((uid % 12) * 11003) % 120000) - 60000
            + ((uid * 7919) % 2001) - 1000
            + ((eid * 13) % 1001) - 500
            + 61500
        )
        lon_m = (
            (((uid % 12) * 104729) % 340000) - 170000
            + ((uid * 104729) % 2001) - 1000
            + ((eid * 29) % 1001) - 500
            + 171500
        )
        cy = lat_m // _COVISIT_CELL_MILLI
        cx = lon_m // _COVISIT_CELL_MILLI
        cell = (cy * 1024 + cx).astype(np.uint64)
        return pa.table(
            {"key": pa.array((uid.astype(np.uint64) << np.uint64(20)) | cell, pa.uint64())}
        )

    uc = count_by_u64(
        ds.map_batches(pack_uc, batch_format="pyarrow", batch_size=131072), "key"
    )  # distinct (user, cell)

    def unpack(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "key": pa.array(k >> np.uint64(20), pa.uint64()),  # user
                "cell": pa.array(k & np.uint64(0xFFFFF), pa.uint64()),
            }
        )

    by_user = uc.map_batches(unpack, batch_format="pyarrow")

    def emit_pairs(g: pa.Table) -> pa.Table:
        u = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = g["cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((c, u))
        u, c = u[order], c[order]
        new = np.ones(len(u), dtype=bool)
        if len(u):
            new[1:] = u[1:] != u[:-1]
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(u))
        out = []
        for s, e in zip(starts, ends):  # per-user cells geometry-bounded (<= ~16)
            m = e - s
            if m < 2:
                continue
            i, j = np.triu_indices(m, 1)
            out.append((c[s:e][i] << np.uint64(20)) | c[s:e][j])
        pairs = np.concatenate(out) if out else np.empty(0, np.uint64)
        return pa.table({"key": pa.array(pairs, pa.uint64())})

    pair_cnt = count_by_u64(
        map_groups_partitioned(by_user, "key", emit_pairs), "key"
    )  # (cell-pair, n_ab)

    def cell_of(b: pa.Table) -> pa.Table:
        return pa.table({"key": b["cell"]})

    na_t = _collect_table(
        count_by_u64(by_user.map_batches(cell_of, batch_format="pyarrow"), "key")
    )  # occupied cells: geometry-bounded
    n_of = dict(
        zip(
            na_t["key"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
            na_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
        )
    )

    strong = _collect_table(
        pair_cnt.map_batches(
            lambda b: b.filter(
                pc.greater_equal(b["cnt"], pa.scalar(_COVISIT_MIN_USERS))
            ),
            batch_format="pyarrow",
        )
    )  # pairs of occupied cells with >= 2 shared users: bounded
    k = strong["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_ab = strong["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    ca = k >> 20
    cb = k & 0xFFFFF
    order = np.lexsort((cb, ca))
    ca, cb, n_ab = ca[order], cb[order], n_ab[order]
    n_a = np.array([n_of[int(x)] for x in ca], np.int64)
    n_b = np.array([n_of[int(x)] for x in cb], np.int64)
    cos = sql_round_np(
        n_ab.astype(np.float64) / np.sqrt((n_a * n_b).astype(np.float64)), 6
    )
    return pa.table(
        {
            "cell_a": pa.array(ca, pa.int64()),
            "cell_b": pa.array(cb, pa.int64()),
            "n_a": pa.array(n_a, pa.int64()),
            "n_b": pa.array(n_b, pa.int64()),
            "n_ab": pa.array(n_ab, pa.int64()),
            "cosine": pa.array(cos, pa.float64()),
        }
    )


@query(sql=f"""
WITH cells AS (
  SELECT ((doc_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((doc_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy,
         CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(n_chars) AS BIGINT) AS total_chars
  FROM documents GROUP BY 1, 2)
SELECT gx, gy, n_docs, total_chars
FROM cells a
WHERE NOT EXISTS (
  SELECT 1 FROM cells b
  WHERE b.n_docs >= a.n_docs AND b.total_chars >= a.total_chars
    AND (b.n_docs > a.n_docs OR b.total_chars > a.total_chars))
ORDER BY gx * 1024 + gy
""")
def geo_skyline_cells(sf_dir: str):
    """SKYLINE / PARETO FRONT over cells (the classic multi-criteria DB
    operator the suite lacked: which 10-degree cells are NOT dominated on
    (n_docs, total_chars) — i.e. no other cell has at least as many docs
    AND at least as much text with one strictly more; the "best
    trade-off" set for crawl-budget allocation). Distributed shape is the
    textbook skyline algorithm: exact per-cell aggregates via ONE
    sum/count pass, then per-block LOCAL skylines (dominance is transitive
    so a point dominated in its block cannot be global) whose union —
    already tiny — takes one final driver pass. Dominance is strict
    (identical points survive together), mirrored by the SQL NOT EXISTS.
    Monotone invariant: the cell with max n_docs and the cell with max
    total_chars are always in the front."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def pack(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((doc_id * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((doc_id * 7919) % 140000) // _GE_CELL_MILLI
        key = (gx * 1024 + gy).astype(np.uint64)
        return pa.table(
            {
                "key": pa.array(key, pa.uint64()),
                # pack (count=1, chars) into one weighted pass each
                "chars": b["n_chars"],
                "one": pa.array(np.ones(len(doc_id), np.int64)),
            }
        )

    packed = ds.map_batches(pack, batch_format="pyarrow", batch_size=131072)
    chars = sum_by_u64(
        packed.select_columns(["key", "chars"]), "key", "chars"
    ).map_batches(
        lambda b: pa.table({"key": b["key"], "total_chars": b["cnt"]}),
        batch_format="pyarrow",
    )
    cnt = sum_by_u64(
        packed.select_columns(["key", "one"]), "key", "one"
    ).map_batches(
        lambda b: pa.table({"key": b["key"], "n_docs": b["cnt"]}),
        batch_format="pyarrow",
    )

    def _skyline(n: np.ndarray, ch: np.ndarray) -> np.ndarray:
        """Indices of the strict-dominance Pareto front (max-max)."""
        order = np.lexsort((-ch, -n))  # n desc, chars desc
        keep = []
        best_ch = -1
        for i in order:
            # everything earlier has n >= n[i]; dominated iff some earlier
            # point also has chars >= ch[i] and differs in at least one dim
            if ch[i] > best_ch:
                keep.append(i)
                best_ch = ch[i]
            else:
                # equal-point survival: keep iff an already-kept point is
                # IDENTICAL (strict dominance never kills exact ties)
                for j in keep:
                    if n[j] == n[i] and ch[j] == ch[i]:
                        keep.append(i)
                        break
        return np.asarray(keep, np.int64)

    def local_skyline(g: pa.Table) -> pa.Table:
        k = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = g["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        ch = g["total_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = _skyline(n, ch)
        return pa.table(
            {
                "key": pa.array(k[idx], pa.int64()),
                "n_docs": pa.array(n[idx], pa.int64()),
                "total_chars": pa.array(ch[idx], pa.int64()),
            }
        )

    # join counts and chars per cell (both keyed identically), then prune
    # each block to its local skyline before anything reaches the driver
    joined = hash_join(cnt, chars, "key")
    cand = _collect_table(
        joined.map_batches(local_skyline, batch_format="pyarrow")
    )
    k = cand["key"].to_numpy(zero_copy_only=False)
    n = cand["n_docs"].to_numpy(zero_copy_only=False)
    ch = cand["total_chars"].to_numpy(zero_copy_only=False)
    idx = _skyline(n, ch)
    order = idx[np.argsort(k[idx], kind="stable")]
    return pa.table(
        {
            "gx": pa.array(k[order] // 1024, pa.int64()),
            "gy": pa.array(k[order] % 1024, pa.int64()),
            "n_docs": pa.array(n[order], pa.int64()),
            "total_chars": pa.array(ch[order], pa.int64()),
        }
    )


_HD_P = 7   # diffusion raster order
_HD_STEPS = 3


def _hd_sql() -> str:
    n = 1 << _HD_P
    steps = [
        f"""g0 AS (
  SELECT gx.x AS cx, gy.y AS cy, COALESCE(c.c, 0) AS u
  FROM (SELECT UNNEST(range(0, {n})) AS x) gx
  CROSS JOIN (SELECT UNNEST(range(0, {n})) AS y) gy
  LEFT JOIN cells c ON c.cx = gx.x AND c.cy = gy.y)"""
    ]
    for i in range(1, _HD_STEPS + 1):
        steps.append(
            f"""g{i} AS (
  SELECT a.cx, a.cy,
         a.u + COALESCE(nn.u, 0) + COALESCE(ss.u, 0)
             + COALESCE(ww.u, 0) + COALESCE(ee.u, 0) AS u
  FROM g{i - 1} a
  LEFT JOIN g{i - 1} nn ON nn.cx = a.cx - 1 AND nn.cy = a.cy
  LEFT JOIN g{i - 1} ss ON ss.cx = a.cx + 1 AND ss.cy = a.cy
  LEFT JOIN g{i - 1} ww ON ww.cx = a.cx AND ww.cy = a.cy - 1
  LEFT JOIN g{i - 1} ee ON ee.cx = a.cx AND ee.cy = a.cy + 1)"""
        )
    return ",\n".join(steps)




@query(sql=f"""
WITH cells AS (
  SELECT ((doc_id * 104729) % 360000) * {1 << _HD_P} // 360000 AS cx,
         ((doc_id * 7919) % 140000) * {1 << _HD_P} // 140000 AS cy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2),
{_hd_sql()}
SELECT CAST(g.cx AS BIGINT) AS cx, CAST(g.cy AS BIGINT) AS cy,
       COALESCE(c.c, CAST(0 AS BIGINT)) AS count0,
       CAST(g.u AS BIGINT) AS diffused
FROM g{_HD_STEPS} g LEFT JOIN cells c ON c.cx = g.cx AND c.cy = g.cy
ORDER BY g.u DESC, g.cx, g.cy LIMIT 20
""")
def geo_heat_diffusion(sf_dir: str):
    """ITERATIVE RASTER STENCIL — {_HD_STEPS} steps of the unnormalized
    5-point diffusion kernel u' = u + N + S + E + W over the
    2^{_HD_P} document-count grid (the Jacobi-iteration primitive
    behind heatmap smoothing / cost-field spreading, and the
    multi-step sibling of the single-pass geo_focal_mean; off-grid
    neighbors contribute 0, so mass leaks off the edges by design).
    The kernel is UNNORMALIZED precisely so every intermediate stays
    an exact int64 — no division until nothing (the output is the raw
    diffused integer field; one step multiplies values by <= 5, so
    {_HD_STEPS} steps bound the growth at 5^{_HD_STEPS} x the cell
    counts, far inside int64). Output: the top-20 cells by diffused
    value (ties by (cx, cy)) with their raw and diffused values.

    Distribution: the unbounded pass is the combiner-first cell count;
    the bounded 4^{_HD_P} grid then iterates as one numpy stencil
    (np.pad shifts) — the SQL mirror unrolls the same {_HD_STEPS}
    steps as LEFT-JOIN layers over the full lattice."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _HD_P

    def cell_key(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = (did * 104729) % 360000
        bb = (did * 7919) % 140000
        cx = (a * n) // 360000
        cy = (bb * n) // 140000
        return pa.table(
            {
                "key": pa.array(
                    (cx.astype(np.uint64) << np.uint64(32))
                    | cy.astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    cells = _collect_table(
        count_by_u64(
            ds.map_batches(cell_key, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    k = cells["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cnt = cells["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    u = np.zeros((n, n), np.int64)
    cx_i = (k >> np.uint64(32)).astype(np.int64)
    cy_i = (k & np.uint64(0xFFFFFFFF)).astype(np.int64)
    u[cx_i, cy_i] = cnt
    u0 = u.copy()
    for _ in range(_HD_STEPS):
        p = np.pad(u, 1)
        u = u + p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
    flat = u.ravel()
    order = np.lexsort(
        (np.arange(n * n) % n, np.arange(n * n) // n, -flat)
    )[:20]
    gx = (order // n).astype(np.int64)
    gy = (order % n).astype(np.int64)
    return pa.table(
        {
            "cx": pa.array(gx, pa.int64()),
            "cy": pa.array(gy, pa.int64()),
            "count0": pa.array(u0[gx, gy], pa.int64()),
            "diffused": pa.array(u[gx, gy], pa.int64()),
        }
    )


_MS_P = 7   # marching-squares raster order: 2^7 x 2^7 count grid
_MS_T = 2   # contour threshold: cell is "inside" when count >= 2


@query(sql=f"""
WITH cells AS (
  SELECT ((doc_id * 104729) % 360000) * {1 << _MS_P} // 360000 AS cx,
         ((doc_id * 7919) % 140000) * {1 << _MS_P} // 140000 AS cy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2),
inside AS (SELECT cx, cy FROM cells WHERE c >= {_MS_T}),
blocks AS (
  SELECT gx.x, gy.y,
         CASE WHEN a.cx IS NULL THEN 0 ELSE 1 END
         + 2 * CASE WHEN b.cx IS NULL THEN 0 ELSE 1 END
         + 4 * CASE WHEN c.cx IS NULL THEN 0 ELSE 1 END
         + 8 * CASE WHEN d.cx IS NULL THEN 0 ELSE 1 END AS case_id
  FROM (SELECT UNNEST(range(0, {(1 << _MS_P) - 1})) AS x) gx
  CROSS JOIN (SELECT UNNEST(range(0, {(1 << _MS_P) - 1})) AS y) gy
  LEFT JOIN inside a ON a.cx = gx.x AND a.cy = gy.y
  LEFT JOIN inside b ON b.cx = gx.x + 1 AND b.cy = gy.y
  LEFT JOIN inside c ON c.cx = gx.x + 1 AND c.cy = gy.y + 1
  LEFT JOIN inside d ON d.cx = gx.x AND d.cy = gy.y + 1),
segs AS (
  SELECT * FROM (VALUES (0, 0), (1, 1), (2, 1), (3, 1), (4, 1), (5, 2),
                        (6, 1), (7, 1), (8, 1), (9, 1), (10, 2), (11, 1),
                        (12, 1), (13, 1), (14, 1), (15, 0)) t(case_id, s))
SELECT CAST(b.case_id AS BIGINT) AS case_id,
       CAST(COUNT(*) AS BIGINT) AS n_blocks,
       CAST(COUNT(*) * MAX(segs.s) AS BIGINT) AS segments
FROM blocks b JOIN segs ON segs.case_id = b.case_id
GROUP BY 1 ORDER BY 1
""")
def geo_contour_cases(sf_dir: str):
    """MARCHING-SQUARES CONTOUR EXTRACTION over the document-count raster
    (the raster -> vector leg of the tiling story: rasterize points to a
    2^{_MS_P} grid, threshold at count >= {_MS_T}, and classify every
    2x2 corner block into its marching-squares case — the exact
    dual-grid pass a contouring/vector-tile stage runs before emitting
    isoline geometry). Corner order for the case id: bit0 = (x, y),
    bit1 = (x+1, y), bit2 = (x+1, y+1), bit3 = (x, y+1); segment count
    per case is the classic table (0 for empty/full, 2 for the two
    saddles 5 and 10, 1 otherwise). Output: one row per NON-EMPTY case
    id with its block count and total emitted segments — all int64,
    no floats anywhere.

    Distribution: the only unbounded pass is the cell counting —
    count_by_u64 over packed cells (combiner-first); the thresholded
    grid is bounded by 4^{_MS_P} cells, so the dual-grid classification
    is driver-side numpy here, and the SQL mirror enumerates the same
    block lattice with four LEFT JOINs against the cell counts."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _MS_P

    def cell_key(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = (did * 104729) % 360000
        bb = (did * 7919) % 140000
        cx = (a * n) // 360000
        cy = (bb * n) // 140000
        return pa.table(
            {
                "key": pa.array(
                    (cx.astype(np.uint64) << np.uint64(32))
                    | cy.astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    cells = _collect_table(
        count_by_u64(
            ds.map_batches(cell_key, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    k = cells["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cnt = cells["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    grid = np.zeros((n, n), bool)
    grid[
        (k >> np.uint64(32)).astype(np.int64),
        (k & np.uint64(0xFFFFFFFF)).astype(np.int64),
    ] = cnt >= _MS_T
    b00 = grid[:-1, :-1].astype(np.int64)   # (x, y)
    b10 = grid[1:, :-1].astype(np.int64)    # (x+1, y)
    b11 = grid[1:, 1:].astype(np.int64)     # (x+1, y+1)
    b01 = grid[:-1, 1:].astype(np.int64)    # (x, y+1)
    case = (b00 + 2 * b10 + 4 * b11 + 8 * b01).ravel()
    segs_of = np.array([0, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 0],
                       np.int64)
    counts = np.bincount(case, minlength=16).astype(np.int64)
    keep = counts > 0
    ids = np.arange(16, dtype=np.int64)[keep]
    return pa.table(
        {
            "case_id": pa.array(ids, pa.int64()),
            "n_blocks": pa.array(counts[keep], pa.int64()),
            "segments": pa.array(counts[keep] * segs_of[keep], pa.int64()),
        }
    )


_HC_P = 8  # Hilbert/Morton curve order: a 2^8 x 2^8 cell grid


def _hilbert_d_np(cx: np.ndarray, cy: np.ndarray, p: int = _HC_P) -> np.ndarray:
    """Vectorized xy -> Hilbert index (the classic rot/reflect loop over
    the p bit levels; all int64)."""
    x = cx.astype(np.int64).copy()
    y = cy.astype(np.int64).copy()
    d = np.zeros(len(x), np.int64)
    n = 1 << p
    s = n // 2
    while s > 0:
        rx = (x // s) % 2
        ry = (y // s) % 2
        d += s * s * ((3 * rx) ^ ry)
        # FULL-WIDTH reflection (n-1-x, the canonical rot): intermediates
        # stay in [0, n), so the SQL mirror's C-style % never sees a
        # negative operand
        refl = (rx == 1) & (ry == 0)
        x_r = np.where(refl, n - 1 - x, x)
        y_r = np.where(refl, n - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y_r, x_r), np.where(swap, x_r, y_r)
        s //= 2
    return d


def _hilbert_sql_ctes(p: int = _HC_P) -> str:
    """Generate the unrolled Hilbert rot/reflect CTE chain: h0 carries
    (cx, cy, x, y, d); each layer consumes one bit level."""
    parts = [f"h0 AS (SELECT cx, cy, cx AS x, cy AS y, CAST(0 AS BIGINT) AS d FROM cells)"]
    n = 1 << p
    s = n // 2
    i = 0
    while s > 0:
        i += 1
        parts.append(
            f"""h{i} AS (
  SELECT cx, cy,
         CASE WHEN ry = 0 THEN yr ELSE xr END AS x,
         CASE WHEN ry = 0 THEN xr ELSE yr END AS y,
         d + {s * s} * xor(3 * rx, ry) AS d
  FROM (
    SELECT cx, cy, d, rx, ry,
           CASE WHEN rx = 1 AND ry = 0 THEN {n - 1} - x ELSE x END AS xr,
           CASE WHEN rx = 1 AND ry = 0 THEN {n - 1} - y ELSE y END AS yr
    FROM (SELECT cx, cy, x, y, d,
                 (x // {s}) % 2 AS rx, (y // {s}) % 2 AS ry FROM h{i - 1})))"""
        )
        s //= 2
    return ",\n".join(parts), i


_HC_SQL_CTES, _HC_LAYERS = _hilbert_sql_ctes()
_HC_MORTON_EXPR = " + ".join(
    f"(((x // {1 << i}) % 2) * {1 << (2 * i)}"
    f" + ((y // {1 << i}) % 2) * {1 << (2 * i + 1)})"
    for i in range(_HC_P)
)



@query(sql=f"""
WITH cells AS (
  SELECT DISTINCT
    ((doc_id * 104729) % 360000) * {1 << _HC_P} // 360000 AS cx,
    ((doc_id * 7919) % 140000) * {1 << _HC_P} // 140000 AS cy
  FROM documents),
{_HC_SQL_CTES},
hil AS (SELECT cx, cy, d FROM h{_HC_LAYERS}),
mor AS (SELECT cx, cy, ({_HC_MORTON_EXPR.replace('x //', 'cx //').replace('y //', 'cy //')}) AS d
        FROM cells),
hp AS (
  SELECT ABS(a.d - b.d) AS delta
  FROM hil a JOIN hil b ON b.cx = a.cx + 1 AND b.cy = a.cy
  WHERE a.cx + 1 < {1 << _HC_P}),
mp AS (
  SELECT ABS(a.d - b.d) AS delta
  FROM mor a JOIN mor b ON b.cx = a.cx + 1 AND b.cy = a.cy
  WHERE a.cx + 1 < {1 << _HC_P}),
hj AS (
  SELECT cx - LAG(cx) OVER (ORDER BY d) AS jx,
         cy - LAG(cy) OVER (ORDER BY d) AS jy
  FROM hil QUALIFY jx IS NOT NULL),
mj AS (
  SELECT cx - LAG(cx) OVER (ORDER BY d) AS jx,
         cy - LAG(cy) OVER (ORDER BY d) AS jy
  FROM mor QUALIFY jx IS NOT NULL)
SELECT 'hilbert' AS curve,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM hp) AS n_pairs,
       (SELECT CAST(SUM(delta) AS BIGINT) FROM hp) AS sum_delta,
       (SELECT ROUND(CAST(SUM(delta) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6)
        FROM hp) AS mean_delta,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM hj) AS n_steps,
       (SELECT CAST(SUM(jx * jx + jy * jy) AS BIGINT) FROM hj) AS sum_jump_sq,
       (SELECT ROUND(CAST(SUM(jx * jx + jy * jy) AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE), 6) FROM hj) AS mean_jump_sq
UNION ALL
SELECT 'morton',
       (SELECT CAST(COUNT(*) AS BIGINT) FROM mp),
       (SELECT CAST(SUM(delta) AS BIGINT) FROM mp),
       (SELECT ROUND(CAST(SUM(delta) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6)
        FROM mp),
       (SELECT CAST(COUNT(*) AS BIGINT) FROM mj),
       (SELECT CAST(SUM(jx * jx + jy * jy) AS BIGINT) FROM mj),
       (SELECT ROUND(CAST(SUM(jx * jx + jy * jy) AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE), 6) FROM mj)
""")
def geo_curve_locality(sf_dir: str):
    """SPACE-FILLING-CURVE LOCALITY COMPARISON — Hilbert vs Morton (the
    measurement behind every "which curve should key my spatial
    partition" decision, e.g. S2's choice of Hilbert over Z-order),
    BOTH directions of the trade measured over the corpus's occupied
    {_HC_P}-order grid cells:

    - neighbor INDEX delta: mean |curve(a) - curve(b)| over
      horizontally-adjacent occupied cell pairs — where MORTON wins on
      the mean (measured dense-grid 85.7 vs Hilbert's 187.7 at order 8:
      Hilbert's rare seams are ~4x Z-order's worst);
    - curve-step SPATIAL jump: mean squared cell distance between cells
      CONSECUTIVE in curve order — where HILBERT wins outright (dense
      grid: identically 1.0 vs Morton's 10.0 with 255^2+1 worst seams).
      This is the metric a range-scanning partitioner actually pays:
      consecutive key ranges stay spatially contiguous under Hilbert.

    Exactness: cell coords, both curve indexes, every |delta| / jump^2
    sum and pair count are int64; the means are single divisions. The
    Hilbert transform is the classic rot/reflect bit loop with the
    FULL-WIDTH (n-1-x) reflection so intermediates stay non-negative
    (DuckDB's % is C-style on negatives — the variant with s-1-x
    diverges in SQL, found the hard way) — VECTORIZED over cells on the
    Ray side and UNROLLED into {_HC_P} generated CTE layers on the SQL
    side (the SQL text is built by the same Python loop that defines
    the spec, so the two sides cannot drift). Distribution: one
    distinct-cell pass (count_by_u64 over packed cells, bounded by the
    2^{2 * _HC_P} grid — at deeper orders the adjacency join goes
    through the existing hash_join path instead of the driver)."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _HC_P

    def cell_key(b: pa.Table) -> pa.Table:
        did = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = (did * 104729) % 360000  # lon lattice
        bb = (did * 7919) % 140000   # lat lattice
        cx = (a * n) // 360000
        cy = (bb * n) // 140000
        return pa.table(
            {
                "key": pa.array(
                    (cx.astype(np.uint64) << np.uint64(32))
                    | cy.astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    cells_t = _collect_table(
        count_by_u64(
            ds.map_batches(cell_key, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    k = cells_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cx = (k >> np.uint64(32)).astype(np.int64)
    cy = (k & np.uint64(0xFFFFFFFF)).astype(np.int64)
    occ = set(zip(cx.tolist(), cy.tolist()))
    right = np.asarray(
        [(x, y) in occ and (x + 1, y) in occ for x, y in zip(cx, cy)], bool
    ) & (cx + 1 < n)
    ax, ay = cx[right], cy[right]
    bx = ax + 1
    h_a = _hilbert_d_np(ax, ay)
    h_b = _hilbert_d_np(bx, ay)

    def morton(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        m = np.zeros(len(x), np.int64)
        for i in range(_HC_P):
            m |= (((x >> i) & 1) << (2 * i)) | (((y >> i) & 1) << (2 * i + 1))
        return m

    m_a = morton(ax, ay)
    m_b = morton(bx, ay)
    h_all = _hilbert_d_np(cx, cy)
    m_all = morton(cx, cy)
    rows = []
    for name, da, db, dall in (
        ("hilbert", h_a, h_b, h_all),
        ("morton", m_a, m_b, m_all),
    ):
        delta = np.abs(da - db)
        s = int(delta.sum())
        npairs = len(delta)
        o = np.argsort(dall)
        jx = np.diff(cx[o])
        jy = np.diff(cy[o])
        jump = jx * jx + jy * jy
        js = int(jump.sum())
        nsteps = len(jump)
        rows.append(
            (
                name,
                npairs,
                s,
                float(sql_round_np(np.float64(s) / np.float64(npairs), 6))
                if npairs
                else None,
                nsteps,
                js,
                float(sql_round_np(np.float64(js) / np.float64(nsteps), 6))
                if nsteps
                else None,
            )
        )
    return pa.table(
        {
            "curve": pa.array([r[0] for r in rows], pa.string()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "sum_delta": pa.array([r[2] for r in rows], pa.int64()),
            "mean_delta": pa.array([r[3] for r in rows], pa.float64()),
            "n_steps": pa.array([r[4] for r in rows], pa.int64()),
            "sum_jump_sq": pa.array([r[5] for r in rows], pa.int64()),
            "mean_jump_sq": pa.array([r[6] for r in rows], pa.float64()),
        }
    )
