"""Mobility and contact queries over the events' space-time points:
trajectories and their distances, stay points, origin-destination flows
(with the gravity fit and HITS over them), geofences, space-time clustering
and hot spots, and the contact graph (degrees, k-core, triangles,
communities).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.queries._shared import (
    _BI_RADIUS, _DGD, _FRECHET_K, _FRECHET_MAX_USERS, _GE_CELL_MILLI, _GT_CELL_MILLI, _MORAN_NLAT,
    _MORAN_NLON, _STG_DAY_US, _TT_DAY_US, GEO_LAT_SQL, GEO_LON_SQL, GEO_RECTS, _collect_table,
    _derive_coords, _first_day, _ensure_docs_golden, _read, _session_cached, _with_coords, query,
)
from core_ray.rounding import sql_round_np
from core_ray.stages.agg import count_by_u64, fold_table, map_groups_partitioned, min_by_u64, sum_by_u64
from core_ray.stages.dbscan import dbscan_from_pairs
from core_ray.stages.distband import band_replicas, cell_pairs, distance_pairs, haversine_km
from core_ray.stages.join import fits_broadcast, hash_join, lookup_join
from core_ray.stages.stjoin import spacetime_all_pairs, spacetime_pairs


_SPEED_KMH = 900  # faster than a commercial jet -> GPS spike


@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
legs AS (
  SELECT user_id, event_id,
         LAG(lat) OVER w AS plat, LAG(lon) OVER w AS plon, lat, lon,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER w AS dt_us
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
km AS (
  SELECT user_id, event_id, dt_us, CAST(FLOOR(
    2.0 * 6371.0088 * ASIN(SQRT(
      SIN(RADIANS(lat - plat) / 2.0) * SIN(RADIANS(lat - plat) / 2.0)
      + COS(RADIANS(plat)) * COS(RADIANS(lat))
        * SIN(RADIANS(lon - plon) / 2.0) * SIN(RADIANS(lon - plon) / 2.0)
    ))) AS BIGINT) AS leg_km
  FROM legs WHERE plat IS NOT NULL)
SELECT user_id, event_id, leg_km, dt_us
FROM km WHERE leg_km * 3600000000 > {_SPEED_KMH} * dt_us
""")
def events_speed_outliers(sf_dir: str):
    """TRAJECTORY SPEED-SPIKE FILTER (GPS noise removal): flag legs whose
    implied speed exceeds {S} km/h — the cleaning pass every telemetry
    pipeline runs before map-matching or stay-point detection. Same
    one-shuffle plan as geo_traj_stats (hash-partition by user, per-leg
    work inside the partition pass). The speed test never divides: it is
    the INTEGER cross-multiply leg_km * 3.6e9 > S * dt_us (so dt == 0 with
    movement flags correctly and parity with SQL is exact); leg_km is the
    FLOOR-quantized haversine shared with geo_traj_stats (numpy and DuckDB
    libm differ by ULPs — the quantizer is the documented contract)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "event_id": pa.array([], pa.int64()),
            "leg_km": pa.array([], pa.int64()),
            "dt_us": pa.array([], pa.int64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, us, eid = uid[order], us[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return _empty
        km = np.floor(
            haversine_km(lat[i - 1], lon[i - 1], lat[i], lon[i])
        ).astype(np.int64)
        dt = us[i] - us[i - 1]
        hot = km * 3_600_000_000 > _SPEED_KMH * dt
        i = i[hot]
        return pa.table(
            {
                "user_id": pa.array(uid[i], pa.int64()),
                "event_id": pa.array(eid[i], pa.int64()),
                "leg_km": pa.array(km[hot], pa.int64()),
                "dt_us": pa.array(dt[hot], pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


def _geo_fences_values_sql() -> str:
    rows = ",\n    ".join(
        f"('{aid}', {lat0}, {lon0}, {lat1}, {lon1})"
        for aid, lvl, lat0, lon0, lat1, lon1 in GEO_RECTS
        if lvl == 2
    )
    return f"(VALUES\n    {rows}) AS f(fence_id, lat0, lon0, lat1, lon1)"




@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
flags AS (
  SELECT p.user_id, p.ts, p.event_id, f.fence_id,
         (p.lat BETWEEN f.lat0 AND f.lat1 AND p.lon BETWEEN f.lon0 AND f.lon1)
           AS inside
  FROM pts p CROSS JOIN {_geo_fences_values_sql()}),
legs AS (
  SELECT user_id, fence_id, inside,
         LAG(inside) OVER w AS pin,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER w AS dt
  FROM flags
  WINDOW w AS (PARTITION BY user_id, fence_id ORDER BY epoch_us(ts), event_id)),
agg AS (
  SELECT user_id, fence_id,
         CAST(SUM(CASE WHEN NOT pin AND inside THEN 1 ELSE 0 END) AS BIGINT)
           AS n_entries,
         CAST(SUM(CASE WHEN pin AND NOT inside THEN 1 ELSE 0 END) AS BIGINT)
           AS n_exits,
         CAST(SUM(CASE WHEN pin AND inside THEN dt ELSE 0 END) AS BIGINT)
           AS dwell_us
  FROM legs WHERE pin IS NOT NULL GROUP BY 1, 2)
SELECT * FROM agg
WHERE n_entries > 0 OR n_exits > 0 OR dwell_us > 0
""")
def events_geofence(sf_dir: str):
    """GEOFENCE TRANSITIONS: per (user, fence) — how many times the user's
    (ts, event_id)-ordered trajectory ENTERS and EXITS each level-2 admin
    rectangle, and total microseconds DWELLED inside (legs whose both
    endpoints are in). The trajectory x containment combination: one hash
    shuffle by user (fences are a 5-row broadcast constant), per-partition
    everything is BETWEEN comparisons and int64 timestamp sums — exact on
    both sides, no float caveats of any kind."""
    fences = [r for r in GEO_RECTS if r[1] == 2]
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "user_id": pa.array([], pa.int64()),
            "fence_id": pa.array([], pa.string()),
            "n_entries": pa.array([], pa.int64()),
            "n_exits": pa.array([], pa.int64()),
            "dwell_us": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, us, eid = uid[order], us[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return pa.table(cols)
        lu = uid[i]
        starts = np.nonzero(np.r_[True, lu[1:] != lu[:-1]])[0]
        users, fids = [], []
        ent, ext, dwl = [], [], []
        for aid, _lvl, lat0, lon0, lat1, lon1 in fences:
            inside = (lat >= lat0) & (lat <= lat1) & (lon >= lon0) & (lon <= lon1)
            pin, cin = inside[i - 1], inside[i]
            e_in = (~pin & cin).astype(np.int64)
            e_out = (pin & ~cin).astype(np.int64)
            dt = np.where(pin & cin, us[i] - us[i - 1], 0)
            users.append(lu[starts])
            fids.extend([aid] * len(starts))
            ent.append(np.add.reduceat(e_in, starts))
            ext.append(np.add.reduceat(e_out, starts))
            dwl.append(np.add.reduceat(dt, starts))
        user_id = np.concatenate(users)
        n_ent = np.concatenate(ent)
        n_ext = np.concatenate(ext)
        dwell = np.concatenate(dwl)
        keep = (n_ent > 0) | (n_ext > 0) | (dwell > 0)
        return pa.table(
            {
                "user_id": pa.array(user_id[keep], pa.int64()),
                "fence_id": pa.array(np.array(fids)[keep].tolist(), pa.string()),
                "n_entries": pa.array(n_ent[keep], pa.int64()),
                "n_exits": pa.array(n_ext[keep], pa.int64()),
                "dwell_us": pa.array(dwell[keep], pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# Contact-model coordinates: users cluster in 12 "cities" (the pure
# multiplicative lattice anti-clusters consecutive ids — measured min
# home-pair distance 7.6 deg — so a co-location join over it is empty by
# construction). city center + per-user offset (+-1 deg) + per-event
# jitter (+-0.5 deg), every term a deterministic integer expression.
CONTACT_LAT_SQL = (
    "(((user_id % 12) * 11003) % 120000) / 1000.0 - 60.0"
    " + ((user_id * 7919) % 2001) / 1000.0 - 1.0"
    " + ((event_id * 13) % 1001) / 1000.0 - 0.5"
)
CONTACT_LON_SQL = (
    "(((user_id % 12) * 104729) % 340000) / 1000.0 - 170.0"
    " + ((user_id * 104729) % 2001) / 1000.0 - 1.0"
    " + ((event_id * 29) % 1001) / 1000.0 - 0.5"
)

_CONTACT_RADIUS_DEG = 1.0
_CONTACT_WINDOW_US = 6 * 3600 * 1000000  # 6 hours


def _contact_coords(event_id: np.ndarray, user_id: np.ndarray):
    """numpy mirror of CONTACT_LAT/LON_SQL — identical left-associative
    chain of exact integer derivations and correctly-rounded additions."""
    lat = (
        (((user_id % 12) * 11003) % 120000) / 1000.0 - 60.0
        + ((user_id * 7919) % 2001) / 1000.0 - 1.0
        + ((event_id * 13) % 1001) / 1000.0 - 0.5
    )
    lon = (
        (((user_id % 12) * 104729) % 340000) / 1000.0 - 170.0
        + ((user_id * 104729) % 2001) / 1000.0 - 1.0
        + ((event_id * 29) % 1001) / 1000.0 - 0.5
    )
    return lat, lon


@_session_cached
def _contact_pairs_ds(sf_dir: str):
    """Shared sf-keyed materialization of the CONTACT PAIR table — the
    (uid_a, uid_b) rows of the 3D home+ghost space-time join that
    events_contacts, events_contact_degrees and events_contact_assortativity
    all consume. The join is the expensive step of the family (27x
    replication + one hash shuffle + in-cell pair enumeration); one
    materialize per (session, sf_dir) serves every consumer. The cached
    table is bounded by actual co-locations (the contact contract) and
    holds two int64 columns only — at 100 TB the pair table is the
    operator's OUTPUT scale, so pinning it in the object store costs no
    more than any consumer's own shuffle would."""

    def coords(b: pa.Table) -> pa.Table:
        ev = b["event_id"].to_numpy(zero_copy_only=False)
        uid = b["user_id"].to_numpy(zero_copy_only=False)
        us = pc.cast(b["ts"], pa.int64())
        lat, lon = _contact_coords(ev, uid)
        return pa.table(
            {
                "pid": b["event_id"],
                "uid": b["user_id"],
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
                "us": us,
            }
        )

    pts = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        coords, batch_format="pyarrow", batch_size=65536
    )
    return (
        spacetime_pairs(pts, _CONTACT_RADIUS_DEG, _CONTACT_WINDOW_US)
        .select_columns(["uid_a", "uid_b"])
        .materialize()
    )


def _pack_user_pairs(b: pa.Table) -> pa.Table:
    """(uid_a, uid_b) batch -> per-batch-DISTINCT packed unordered user
    pair keys (u1 << 32 | u2, u1 < u2). Fail-loud on user_id >= 2^32 —
    the packing would silently collide above that (ADVICE r4)."""
    ua = b["uid_a"].to_numpy(zero_copy_only=False)
    ub = b["uid_b"].to_numpy(zero_copy_only=False)
    u1 = np.minimum(ua, ub).astype(np.uint64)
    u2 = np.maximum(ua, ub).astype(np.uint64)
    if len(u2) and int(u2.max()) >= 1 << 32:
        raise ValueError("user_id >= 2^32: widen the pair packing")
    return pa.table(
        {"key": pa.array(np.unique((u1 << np.uint64(32)) | u2), pa.uint64())}
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
hits AS (
  SELECT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US})
SELECT u1, u2, CAST(COUNT(*) AS BIGINT) AS n_contacts
FROM hits GROUP BY 1, 2
""")
def events_contacts(sf_dir: str):
    """SPACE-TIME CONTACT JOIN (the epidemiology / co-location primitive):
    pairs of DIFFERENT users with events within 1 degree AND 6 hours of
    each other, aggregated to per-user-pair contact counts. The operator
    is a 3D home+ghost band join — (lat, lon, time-bucket) cells, 27x
    replication, ONE hash shuffle, single-emission home rule — in
    stages/stjoin.py, brute-force-tested in tests/test_stjoin.py. Exact
    parity throughout: squared-degree spatial threshold (multiply/subtract
    only) and int64 microsecond window; no transcendental in sight. The
    pair table itself comes from the contact-family shared materialization
    (_contact_pairs_ds) reused by the degree/assortativity siblings."""
    pairs = _contact_pairs_ds(sf_dir)

    def to_users(b: pa.Table) -> pa.Table:
        # Pack the unordered user pair into ONE uint64 key (u1<<32 | u2) so
        # the count goes through the combiner-first count_by_u64 path: Ray's
        # native two-column groupby().aggregate(Sum) measured 96 s of
        # AggregateMap remote time on the same 2.9 M pair rows — the packed
        # single-key reduceat pipeline does the identical count in <1 s.
        ua = b["uid_a"].to_numpy(zero_copy_only=False)
        ub = b["uid_b"].to_numpy(zero_copy_only=False)
        u1 = np.minimum(ua, ub).astype(np.uint64)
        u2 = np.maximum(ua, ub).astype(np.uint64)
        if len(u2) and int(u2.max()) >= 1 << 32:
            raise ValueError("user_id >= 2^32: widen the pair packing")
        return pa.table({"key": pa.array((u1 << np.uint64(32)) | u2, pa.uint64())})

    def unpack(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u1": pa.array((k >> np.uint64(32)).astype(np.int64), pa.int64()),
                "u2": pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()),
                "n_contacts": b["cnt"],
            }
        )

    counted = count_by_u64(pairs.map_batches(to_users, batch_format="pyarrow"), "key")
    return counted.map_batches(unpack, batch_format="pyarrow")


_STAY_STEP_SQ = 1.0  # a step longer than 1 deg breaks the stay
_STAY_MIN_PTS = 5


@query(sql=f"""
WITH seqd AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS seq
  FROM events),
pts AS (
  SELECT user_id, event_id, us,
         (((user_id * 7 + seq // 20) % 12) * 11003) % 120000 / 1000.0 - 60.0
           + ((user_id * 7919) % 2001) / 1000.0 - 1.0
           + ((event_id * 13) % 1001) / 1000.0 - 0.5 AS lat,
         (((user_id * 7 + seq // 20) % 12) * 104729) % 340000 / 1000.0 - 170.0
           + ((user_id * 104729) % 2001) / 1000.0 - 1.0
           + ((event_id * 29) % 1001) / 1000.0 - 0.5 AS lon
  FROM seqd),
steps AS (
  SELECT user_id, event_id, us, lat, lon,
         lat - LAG(lat) OVER w AS dla, lon - LAG(lon) OVER w AS dlo
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
flagged AS (
  SELECT user_id, event_id, us,
         CASE WHEN dla IS NULL OR dla * dla + dlo * dlo > {_STAY_STEP_SQ}
              THEN 1 ELSE 0 END AS new_island
  FROM steps),
islands AS (
  SELECT user_id, us,
         SUM(new_island) OVER (PARTITION BY user_id ORDER BY us, event_id
                               ROWS UNBOUNDED PRECEDING) AS island_ord
  FROM flagged)
SELECT user_id, CAST(island_ord AS BIGINT) AS island_ord,
       CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(MAX(us) - MIN(us) AS BIGINT) AS duration_us
FROM islands GROUP BY 1, 2
HAVING COUNT(*) >= {_STAY_MIN_PTS}
""")
def events_stay_points(sf_dir: str):
    """STAY-POINT DETECTION (trajectory mining's gaps-and-islands): split
    each user's (ts, event_id)-ordered track into maximal runs whose every
    step is <= 1 degree, keep runs of >= 5 points, report points and
    dwell duration. The travel model varies the contact-coordinate city
    with the user's own sequence number (a new city every 20 of the user's
    events), so stays and travel legs both occur by construction.

    One hash shuffle by user; islands come from a vectorized flag+cumsum
    inside the partition (the same segmentation kernel sessionize uses,
    keyed by distance instead of time gap). Exact parity: step lengths are
    squared products of 0.0005-granule values compared strictly, and all
    outputs are int64."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "user_id": pa.array([], pa.int64()),
            "island_ord": pa.array([], pa.int64()),
            "n_points": pa.array([], pa.int64()),
            "duration_us": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, us, eid = uid[order], us[order], eid[order]
        n = len(uid)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ustart = np.nonzero(first)[0]
        seq = np.arange(n) - np.repeat(ustart, np.diff(np.append(ustart, n)))
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
        dla = np.zeros(n)
        dlo = np.zeros(n)
        dla[1:] = lat[1:] - lat[:-1]
        dlo[1:] = lon[1:] - lon[:-1]
        new = first | (dla * dla + dlo * dlo > _STAY_STEP_SQ)
        isl = np.nonzero(new)[0]
        counts = np.diff(np.append(isl, n))
        # island ordinal within each user (SQL: cumulative SUM of the flag)
        isl_user = uid[isl]
        iustart = np.nonzero(np.r_[True, isl_user[1:] != isl_user[:-1]])[0]
        ord_in_user = (
            np.arange(len(isl))
            - np.repeat(iustart, np.diff(np.append(iustart, len(isl))))
            + 1
        )
        dur = us[isl + counts - 1] - us[isl]
        keep = counts >= _STAY_MIN_PTS
        return pa.table(
            {
                "user_id": pa.array(isl_user[keep], pa.int64()),
                "island_ord": pa.array(ord_in_user[keep].astype(np.int64), pa.int64()),
                "n_points": pa.array(counts[keep].astype(np.int64), pa.int64()),
                "duration_us": pa.array(dur[keep], pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


_TT_CELL_MILLI = 10000  # 10-degree trend cells


@query(sql=f"""
WITH base AS (
  SELECT MIN(epoch_us(ts) // {_TT_DAY_US}) AS d0 FROM events),
pts AS (
  SELECT ((event_id * 104729) % 360000) // {_TT_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_TT_CELL_MILLI} AS gy,
         epoch_us(ts) // {_TT_DAY_US} - base.d0 AS x
  FROM events, base),
cd AS (SELECT gx, gy, x, CAST(COUNT(*) AS BIGINT) AS y
       FROM pts GROUP BY 1, 2, 3),
per AS (
  SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM cd GROUP BY 1, 2)
SELECT gx, gy, n AS n_days, sy AS total,
       n * sxy - sx * sy AS slope_num,
       n * sxx - sx * sx AS slope_den,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / CAST(n * sxx - sx * sx AS DOUBLE) AS slope
FROM per WHERE n >= 2
""")
def events_tile_trend(sf_dir: str):
    """PER-CELL ACTIVITY TREND (least-squares slope of daily event counts
    per 10-deg cell): the growth/decline detector behind "where is
    activity rising" dashboards and crawl re-visit scheduling. Exactness
    contract: day indexes re-base against the GLOBAL min day (one tiny
    pruned-column aggregate; keeps every moment within int64), the
    (cell, rel_day) daily counts come from ONE packed-u64 count_by_u64
    pass (bounded by cells x time horizon, never the corpus), and the
    driver fold reduces each cell to the four integer moments
    (n, sx, sy, sxy, sxx) — slope = (n*sxy - sx*sy) / (n*sxx - sx*sx) is
    ONE double division of two exact integers, emitted with its exact
    numerator/denominator so the driver hash checks the integer algebra,
    not float luck. Cells seen on a single day are excluded (slope
    undefined)."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    d0 = _first_day(ds)

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = ((eid * 104729) % 360000) // _TT_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _TT_CELL_MILLI
        x = us // _TT_DAY_US - d0
        key = ((gx * 1024 + gy).astype(np.uint64) << np.uint64(24)) | x.astype(
            np.uint64
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    cd = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= cells x horizon days rows by construction
    key = cd["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    y = cd["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key >> np.uint64(24)).astype(np.int64)
    x = (key & np.uint64((1 << 24) - 1)).astype(np.int64)

    order = np.argsort(cell, kind="stable")
    cell, x, y = cell[order], x[order], y[order]
    starts = np.nonzero(np.r_[True, cell[1:] != cell[:-1]])[0]
    n = np.diff(np.r_[starts, len(cell)])
    sx = np.add.reduceat(x, starts)
    sy = np.add.reduceat(y, starts)
    sxy = np.add.reduceat(x * y, starts)
    sxx = np.add.reduceat(x * x, starts)
    num = n * sxy - sx * sy
    den = n * sxx - sx * sx
    keep = n >= 2  # >= 2 distinct days => den > 0
    ucell = cell[starts]
    return pa.table(
        {
            "gx": pa.array(ucell[keep] // 1024, pa.int64()),
            "gy": pa.array(ucell[keep] % 1024, pa.int64()),
            "n_days": pa.array(n[keep], pa.int64()),
            "total": pa.array(sy[keep], pa.int64()),
            "slope_num": pa.array(num[keep], pa.int64()),
            "slope_den": pa.array(den[keep], pa.int64()),
            "slope": pa.array(
                num[keep].astype(np.float64) / den[keep].astype(np.float64),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT user_id, (event_id * 104729) % 360000 AS x,
         (event_id * 7919) % 140000 AS y FROM events),
per AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM pts GROUP BY 1)
SELECT user_id, n AS n_events,
       n * (sxx + syy) - sx * sx - sy * sy AS rog_num,
       n * n AS rog_den,
       SQRT(CAST(n * (sxx + syy) - sx * sx - sy * sy AS DOUBLE)
            / CAST(n * n AS DOUBLE)) / 1000.0 AS rog_deg
FROM per
""")
def events_gyration(sf_dir: str):
    """PER-USER RADIUS OF GYRATION (the canonical human-mobility dispersion
    metric — Gonzalez et al.'s Nature 2008 measure: RMS distance of a
    user's points from their own centroid; commuters score low, travelers
    high). Exactness via the moment identity sum((p-c)^2) =
    sum(p^2) - n*c^2, so rog^2 = (n*(Sxx+Syy) - Sx^2 - Sy^2) / n^2 over
    INTEGER milli-degree moments — per-batch combiner reduces each batch
    to per-user (n, Sx, Sy, Sxx, Syy) partials (np.unique + reduceat),
    ONE user-keyed shuffle sums them, and rog is one correctly-rounded
    SQRT of one exact int/int division (emitted with its integer
    numerator/denominator so the hash checks the algebra). int64 bound:
    Sx^2 <= (n * 360000)^2 — safe to ~25M events per user; beyond that the
    moments widen to two-limb accumulators (documented hatch)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = (eid * 104729) % 360000
        y = (eid * 7919) % 140000
        order = np.argsort(uid, kind="stable")
        uid, x, y = uid[order], x[order], y[order]
        starts = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n": pa.array(
                    np.diff(np.r_[starts, len(uid)]).astype(np.int64),
                    pa.int64(),
                ),
                "sx": pa.array(np.add.reduceat(x, starts), pa.int64()),
                "sy": pa.array(np.add.reduceat(y, starts), pa.int64()),
                "sxx": pa.array(np.add.reduceat(x * x, starts), pa.int64()),
                "syy": pa.array(np.add.reduceat(y * y, starts), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=131072)

    def reduce_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "rog_num": pa.array([], pa.int64()),
                    "rog_den": pa.array([], pa.int64()),
                    "rog_deg": pa.array([], pa.float64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(uid, kind="stable")
        uid = uid[order]
        starts = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        cols = {
            c: np.add.reduceat(
                g[c].to_numpy(zero_copy_only=False).astype(np.int64)[order],
                starts,
            )
            for c in ("n", "sx", "sy", "sxx", "syy")
        }
        n = cols["n"]
        num = n * (cols["sxx"] + cols["syy"]) - cols["sx"] ** 2 - cols["sy"] ** 2
        den = n * n
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "rog_num": pa.array(num, pa.int64()),
                "rog_den": pa.array(den, pa.int64()),
                "rog_deg": pa.array(
                    np.sqrt(num.astype(np.float64) / den.astype(np.float64))
                    / 1000.0,
                    pa.float64(),
                ),
            }
        )

    return map_groups_partitioned(partials, "user_id", reduce_part)


@query(sql=f"""
WITH pts AS (
  SELECT user_id,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
cc AS (SELECT user_id, gx, gy, COUNT(*) AS c FROM pts GROUP BY 1, 2, 3),
per AS (
  SELECT user_id, CAST(SUM(c) AS BIGINT) AS n_events,
         CAST(COUNT(*) AS BIGINT) AS n_cells,
         CAST(SUM(CAST(ROUND(CAST(c AS DOUBLE) * LOG2(CAST(c AS DOUBLE))
                             * 1000000.0, 0) AS BIGINT)) AS BIGINT)
           AS sum_micro
  FROM cc GROUP BY 1)
SELECT user_id, n_events, n_cells, sum_micro,
       CAST(CAST(ROUND(LOG2(CAST(n_events AS DOUBLE)) * 1000000.0, 0)
                 AS BIGINT) AS DOUBLE) / 1000000.0
         - CAST(sum_micro AS DOUBLE)
           / (1000000.0 * CAST(n_events AS DOUBLE)) AS entropy
FROM per
""")
def events_user_entropy(sf_dir: str):
    """PER-USER LOCATION ENTROPY (the mobility-predictability measure of
    Song et al.: Shannon entropy of each user's visit distribution over
    10-deg cells — low = routine commuter, high = unpredictable roamer).
    The per-USER sibling of doc_source_geo_entropy with one crucial scale
    difference: users are UNBOUNDED (corpus-scale key), so the entropy
    fold runs DISTRIBUTED inside the partition kernel, never on the
    driver — one user-keyed hash shuffle, per-partition double reduceat
    ((user, cell) counts, then per-user moments). Float parity: per-cell
    c*log2(c) rounds to integer micro-bits (sql_round_np == DuckDB
    ROUND), sums are exact BIGINT, entropy is one fixed double chain."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "n_cells": pa.array([], pa.int64()),
            "sum_micro": pa.array([], pa.int64()),
            "entropy": pa.array([], pa.float64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        cell = gx * 1024 + gy
        order = np.lexsort((cell, uid))
        uid, cell = uid[order], cell[order]
        # (user, cell) counts
        newc = np.r_[True, (uid[1:] != uid[:-1]) | (cell[1:] != cell[:-1])]
        cstarts = np.nonzero(newc)[0]
        c = np.diff(np.r_[cstarts, len(uid)]).astype(np.int64)
        cuid = uid[cstarts]
        micro = sql_round_np(
            c.astype(np.float64) * np.log2(c.astype(np.float64)) * 1000000.0,
            0,
        ).astype(np.int64)
        # per-user moments over the (user, cell) rows
        ustarts = np.nonzero(np.r_[True, cuid[1:] != cuid[:-1]])[0]
        n_cells = np.diff(np.r_[ustarts, len(cuid)]).astype(np.int64)
        n = np.add.reduceat(c, ustarts)
        sm = np.add.reduceat(micro, ustarts)
        lg = sql_round_np(
            np.log2(n.astype(np.float64)) * 1000000.0, 0
        ).astype(np.int64)
        entropy = lg.astype(np.float64) / 1000000.0 - sm.astype(
            np.float64
        ) / (1000000.0 * n.astype(np.float64))
        return pa.table(
            {
                "user_id": pa.array(cuid[ustarts], pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "n_cells": pa.array(n_cells, pa.int64()),
                "sum_micro": pa.array(sm, pa.int64()),
                "entropy": pa.array(entropy, pa.float64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


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
  SELECT CAST(FLOOR(
    2.0 * 6371.0088 * ASIN(SQRT(
      SIN(RADIANS(lat - plat) / 2.0) * SIN(RADIANS(lat - plat) / 2.0)
      + COS(RADIANS(plat)) * COS(RADIANS(lat))
        * SIN(RADIANS(lon - plon) / 2.0) * SIN(RADIANS(lon - plon) / 2.0)
    ))) AS BIGINT) AS k
  FROM legs WHERE plat IS NOT NULL)
SELECT CASE WHEN k = 0 THEN CAST(0 AS BIGINT)
            ELSE CAST(LENGTH(BIN(k)) AS BIGINT) END AS bin,
       CAST(COUNT(*) AS BIGINT) AS n_legs,
       CAST(SUM(k) AS BIGINT) AS sum_km
FROM km GROUP BY 1
""")
def events_jump_lengths(sf_dir: str):
    """JUMP-LENGTH DISTRIBUTION (the displacement histogram of human
    mobility — the truncated-power-law curve of Brockmann/Gonzalez: how
    far do consecutive events move?): per travel leg, the great-circle km
    (geo_traj_stats' FLOOR-quantized haversine contract) dropped into
    log2 bins, counted corpus-wide. Binning is PURE INTEGER — bin =
    bit_length(km) (np.frexp exponent, no libm log2 anywhere; the SQL
    mirror is LENGTH(BIN(km))) — so there is no boundary-ULP caveat at
    the power-of-two edges. One user-keyed shuffle; the partition kernel
    reduces its legs straight to (bin, n, sum_km) partials (<= ~16 bins),
    and the bounded driver fold sums partitions."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return _empty
        km = np.floor(
            haversine_km(lat[i - 1], lon[i - 1], lat[i], lon[i])
        ).astype(np.int64)
        b = np.where(km > 0, np.frexp(km.astype(np.float64))[1], 0).astype(
            np.int64
        )
        u = np.unique(b)
        n = np.zeros(len(u), np.int64)
        s = np.zeros(len(u), np.int64)
        pos = np.searchsorted(u, b)
        np.add.at(n, pos, 1)
        np.add.at(s, pos, km)
        return pa.table(
            {
                "bin": pa.array(u, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    t = _collect_table(
        map_groups_partitioned(ds, "user_id", per_part)
    )  # <= partitions x ~16 bins by construction
    b = t["bin"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
    u = np.unique(b)
    pos = np.searchsorted(u, b)
    nn = np.zeros(len(u), np.int64)
    ss = np.zeros(len(u), np.int64)
    np.add.at(nn, pos, n)
    np.add.at(ss, pos, s)
    return pa.table(
        {
            "bin": pa.array(u, pa.int64()),
            "n_legs": pa.array(nn, pa.int64()),
            "sum_km": pa.array(ss, pa.int64()),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT user_id, epoch_us(ts) AS us, event_id,
         (event_id * 104729) % 360000 AS x,
         (event_id * 7919) % 140000 AS y
  FROM events),
anch AS (
  SELECT user_id, x, y, us,
         FIRST_VALUE(x) OVER w AS x0, FIRST_VALUE(y) OVER w AS y0,
         FIRST_VALUE(us) OVER w AS us0
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)),
d AS (
  SELECT (us - us0) // 3600000000 AS lag_h,
         (x - x0) * (x - x0) + (y - y0) * (y - y0) AS d2
  FROM anch)
SELECT lag_h, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(d2) AS BIGINT) AS sum_d2,
       CAST(CAST(SUM(d2) AS BIGINT) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS msd
FROM d GROUP BY 1
""")
def events_msd(sf_dir: str):
    """MEAN SQUARED DISPLACEMENT vs elapsed time (the diffusion curve of
    mobility science — subdiffusive MSD saturation is THE signature of
    human returners vs Levy walkers): for every event, the squared
    displacement from its user's FIRST event, bucketed by elapsed hours
    and averaged corpus-wide. ALL-INTEGER: displacement in milli-degrees
    so d2 = dx^2 + dy^2 is exact int64, hour lag is integer division —
    msd is one double division of two exact sums per lag. One user-keyed
    shuffle; the partition kernel finds each user's anchor (min (ts,
    event_id) — already the partition sort order), reduces to (lag, n,
    sum_d2) partials (bounded by the time horizon), bounded driver
    fold."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "lag": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, us, eid = uid[order], us[order], eid[order]
        x = (eid * 104729) % 360000
        y = (eid * 7919) % 140000
        starts = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        runlen = np.diff(np.r_[starts, len(uid)])
        first = np.repeat(starts, runlen)
        dx = x - x[first]
        dy = y - y[first]
        d2 = dx * dx + dy * dy
        lag = (us - us[first]) // 3600000000
        u = np.unique(lag)
        pos = np.searchsorted(u, lag)
        n = np.zeros(len(u), np.int64)
        s = np.zeros(len(u), np.int64)
        np.add.at(n, pos, 1)
        np.add.at(s, pos, d2)
        return pa.table(
            {
                "lag": pa.array(u, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    t = _collect_table(
        map_groups_partitioned(ds, "user_id", per_part)
    )  # <= partitions x horizon-hours rows by construction
    lag = t["lag"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = t["s"].to_numpy(zero_copy_only=False).astype(np.int64)
    u = np.unique(lag)
    pos = np.searchsorted(u, lag)
    nn = np.zeros(len(u), np.int64)
    ss = np.zeros(len(u), np.int64)
    np.add.at(nn, pos, n)
    np.add.at(ss, pos, s)
    return pa.table(
        {
            "lag_h": pa.array(u, pa.int64()),
            "n_events": pa.array(nn, pa.int64()),
            "sum_d2": pa.array(ss, pa.int64()),
            "msd": pa.array(
                ss.astype(np.float64) / nn.astype(np.float64), pa.float64()
            ),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT user_id, epoch_us(ts) AS us, event_id,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
lagged AS (
  SELECT us - LAG(us) OVER (PARTITION BY user_id, gx, gy
                            ORDER BY us, event_id) AS dt
  FROM pts)
SELECT dt // 3600000000 AS lag_h, CAST(COUNT(*) AS BIGINT) AS n_returns
FROM lagged WHERE dt IS NOT NULL GROUP BY 1
""")
def events_return_times(sf_dir: str):
    """RETURN-TIME DISTRIBUTION (the third canonical mobility statistic
    beside jump lengths and MSD — the peaked return-time spectrum is how
    Song et al. quantify human periodicity): for every revisit of a
    10-deg cell by the same user, the hours since that user's PREVIOUS
    visit to that same cell, counted into an hour histogram. ALL-INTEGER
    (epoch-microsecond difference, integer-division hours). One
    user-keyed shuffle; the partition kernel sorts (user, cell, ts,
    event_id), takes consecutive same-(user,cell) deltas, reduces to
    (lag_h, n) partials; horizon-bounded driver fold."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {"lag": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        cell = gx * 1024 + gy
        order = np.lexsort((eid, us, cell, uid))
        uid, us, cell = uid[order], us[order], cell[order]
        same = np.zeros(len(uid), dtype=bool)
        same[1:] = (uid[1:] == uid[:-1]) & (cell[1:] == cell[:-1])
        i = np.nonzero(same)[0]
        if len(i) == 0:
            return _empty
        lag = (us[i] - us[i - 1]) // 3600000000
        u, c = np.unique(lag, return_counts=True)
        return pa.table(
            {
                "lag": pa.array(u, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    t = _collect_table(
        map_groups_partitioned(ds, "user_id", per_part)
    )  # <= partitions x horizon-hours rows by construction
    lag = t["lag"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    u = np.unique(lag)
    nn = np.zeros(len(u), np.int64)
    np.add.at(nn, np.searchsorted(u, lag), n)
    return pa.table(
        {
            "lag_h": pa.array(u, pa.int64()),
            "n_returns": pa.array(nn, pa.int64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
legs AS (
  SELECT user_id, gx, gy,
         LAG(gx) OVER w AS pgx, LAG(gy) OVER w AS pgy
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
flows AS (
  SELECT pgx AS gx, pgy AS gy, 1 AS dep, 0 AS arr FROM legs
  WHERE pgx IS NOT NULL
  UNION ALL
  SELECT gx, gy, 0, 1 FROM legs WHERE pgx IS NOT NULL)
SELECT gx, gy, CAST(SUM(dep) AS BIGINT) AS departures,
       CAST(SUM(arr) AS BIGINT) AS arrivals,
       CAST(SUM(arr) AS BIGINT) - CAST(SUM(dep) AS BIGINT) AS imbalance
FROM flows GROUP BY 1, 2
""")
def events_flow_imbalance(sf_dir: str):
    """PER-CELL FLOW IMBALANCE (net in-migration proxy): for every travel
    leg, the origin cell scores one departure and the destination cell one
    arrival; a cell's imbalance = arrivals - departures — the directional
    statistic a flow map's corridor counts (events_corridors) deliberately
    ignore. Same one-shuffle user-partition plan; the kernel reduces its
    legs straight to (cell, out, in) integer partials over the BOUNDED
    10-deg grid, one packed-u64 sum pass finishes (arrivals and
    departures fold into one key stream with a direction bit)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {"key": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())}
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        cell = gx * 1024 + gy
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return _empty
        # direction bit 2^20: 0 = departure (origin), 1 = arrival (dest)
        keys = np.concatenate(
            [cell[i - 1], cell[i] + (1 << 20)]
        ).astype(np.uint64)
        u, c = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(u, pa.uint64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    t = _collect_table(
        sum_by_u64(
            map_groups_partitioned(ds, "user_id", per_part), "key", "n"
        )
    )  # <= 2 x 504 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = key & ((1 << 20) - 1)
    is_in = key >> 20
    cells = np.unique(cell)
    outs = np.zeros(len(cells), np.int64)
    ins = np.zeros(len(cells), np.int64)
    pos = np.searchsorted(cells, cell)
    np.add.at(outs, pos[is_in == 0], n[is_in == 0])
    np.add.at(ins, pos[is_in == 1], n[is_in == 1])
    return pa.table(
        {
            "gx": pa.array(cells // 1024, pa.int64()),
            "gy": pa.array(cells % 1024, pa.int64()),
            "departures": pa.array(outs, pa.int64()),
            "arrivals": pa.array(ins, pa.int64()),
            "imbalance": pa.array(ins - outs, pa.int64()),
        }
    )


@query(sql=f"""
WITH d AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
e AS (
  SELECT event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
cand AS (
  SELECT e.event_id, d.doc_id,
         CAST(FLOOR(((e.lat - d.lat) * (e.lat - d.lat)
                     + (e.lon - d.lon) * (e.lon - d.lon)) * 1000000.0)
              AS BIGINT) AS d2_micro
  FROM e JOIN d
    ON d.lat BETWEEN e.lat - {_BI_RADIUS} AND e.lat + {_BI_RADIUS}
   AND d.lon BETWEEN e.lon - {_BI_RADIUS} AND e.lon + {_BI_RADIUS}
  WHERE (e.lat - d.lat) * (e.lat - d.lat)
          + (e.lon - d.lon) * (e.lon - d.lon) <= {_BI_RADIUS * _BI_RADIUS}),
best AS (
  SELECT event_id, doc_id, d2_micro,
         ROW_NUMBER() OVER (PARTITION BY event_id
                            ORDER BY d2_micro, doc_id) AS rn
  FROM cand)
SELECT event_id, doc_id, d2_micro FROM best WHERE rn = 1
""")
def events_nearest_doc(sf_dir: str):
    """LARGE-LARGE BIPARTITE NEAREST-NEIGHBOR ASSIGNMENT: every event gets
    its single closest document within 2 deg (or no row) — the "attach
    the nearest content item to each telemetry point" enrichment join,
    with BOTH sides corpus-scale (geo_nearest_facility's broadcast trick
    is unavailable; geo_doc_event_band's all-pairs output would be wasted
    work). Plan: the band join's asymmetric replication INVERTED
    (distband.band_replicas with events on the left: events emit one home
    replica, docs ghost 3x3 so every in-range doc reaches the event's home
    cell), each cell's (event, doc) candidates from distband.cell_pairs,
    a per-event local argmin inside the task, then ONE
    global agg.min_by_u64 reduce keyed by event over the value pack
    (d2_micro << 40 | doc_id) — the u64 minimum IS the lexicographic
    (quantized-distance, doc_id) argmin, the q2_min_cost_supplier packing
    lesson. The assignment contract is on the QUANTIZED distance
    (floor(d2*1e6), ties by doc_id), mirrored exactly in SQL — no float
    ordering anywhere."""
    r = _BI_RADIUS
    r2 = r * r

    rep = band_replicas(
        _with_coords(_read(sf_dir, "events", ["event_id"]), "event_id"),
        _with_coords(_read(sf_dir, "documents", ["doc_id"]), "doc_id"),
        r, "event_id", "doc_id",
    )

    _empty = pa.table(
        {"ev": pa.array([], pa.uint64()), "pack": pa.array([], pa.uint64())}
    )

    def per_part(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        order, chunks = cell_pairs(
            g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
            side == 0, side == 1,
        )
        ids = g["id"].to_numpy(zero_copy_only=False)[order]
        lat = g["lat"].to_numpy(zero_copy_only=False)[order]
        lon = g["lon"].to_numpy(zero_copy_only=False)[order]
        out_ev, out_pack = [], []
        for left, right in chunks:
            dla = lat[left] - lat[right]
            dlo = lon[left] - lon[right]
            d2 = dla * dla + dlo * dlo
            ok = d2 <= r2
            if not ok.any():
                continue
            left, right, d2 = left[ok], right[ok], d2[ok]
            pack = (
                np.floor(d2 * 1000000.0).astype(np.uint64) << np.uint64(40)
            ) | ids[right].astype(np.uint64)
            # local argmin per event row (min pack per left)
            o = np.lexsort((pack, left))
            lf, pk = left[o], pack[o]
            first = np.r_[True, lf[1:] != lf[:-1]]
            out_ev.append(ids[lf[first]].astype(np.uint64))
            out_pack.append(pk[first])
        if not out_ev:
            return _empty
        return pa.table(
            {
                "ev": pa.array(np.concatenate(out_ev), pa.uint64()),
                "pack": pa.array(np.concatenate(out_pack), pa.uint64()),
            }
        )

    local = map_groups_partitioned(rep, "ck", per_part)
    best = min_by_u64(local, "ev", "pack")

    def unpack(b: pa.Table) -> pa.Table:
        ev = b["ev"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = b["pack"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "event_id": pa.array(ev, pa.int64()),
                "doc_id": pa.array(
                    (pk & np.uint64((1 << 40) - 1)).astype(np.int64),
                    pa.int64(),
                ),
                "d2_micro": pa.array(
                    (pk >> np.uint64(40)).astype(np.int64), pa.int64()
                ),
            }
        )

    return best.map_batches(unpack, batch_format="pyarrow")


_HAV_KM_SQL = """CAST(FLOOR(
    2.0 * 6371.0088 * ASIN(SQRT(
      SIN(RADIANS({lat2} - {lat1}) / 2.0) * SIN(RADIANS({lat2} - {lat1}) / 2.0)
      + COS(RADIANS({lat1})) * COS(RADIANS({lat2}))
        * SIN(RADIANS({lon2} - {lon1}) / 2.0)
        * SIN(RADIANS({lon2} - {lon1}) / 2.0)
    ))) AS BIGINT)"""



@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
legs AS (
  SELECT user_id,
         LAG(lat) OVER w AS plat, LAG(lon) OVER w AS plon, lat, lon,
         FIRST_VALUE(lat) OVER w AS flat, FIRST_VALUE(lon) OVER w AS flon,
         LAST_VALUE(lat) OVER (PARTITION BY user_id
           ORDER BY epoch_us(ts), event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS llat,
         LAST_VALUE(lon) OVER (PARTITION BY user_id
           ORDER BY epoch_us(ts), event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS llon,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
per AS (
  SELECT user_id,
         CAST(SUM(CASE WHEN plat IS NULL THEN 0 ELSE
           {_HAV_KM_SQL.format(lat1='plat', lon1='plon', lat2='lat', lon2='lon')}
         END) AS BIGINT) AS total_km,
         MAX({_HAV_KM_SQL.format(lat1='flat', lon1='flon', lat2='llat', lon2='llon')})
           AS net_km
  FROM legs WHERE n >= 2 GROUP BY user_id)
SELECT user_id, total_km, net_km,
       CAST(total_km AS DOUBLE) / CAST(NULLIF(net_km, 0) AS DOUBLE)
         AS sinuosity
FROM per
""")
def events_sinuosity(sf_dir: str):
    """PER-USER PATH SINUOSITY (tortuosity: traveled length / net
    displacement — 1 = beeline, large = wandering; the trajectory-shape
    classifier beside rog and burstiness): total = sum of per-leg
    FLOOR-quantized haversine km (geo_traj_stats' contract), net = the
    FLOOR km between the user's FIRST and LAST events under the total
    (ts, event_id) order. All-integer inputs; the ratio is one double
    division. One user-keyed shuffle; users with zero net displacement
    (or < 2 events) report net_km = 0 and a NULL ratio (mirrored with
    NULLIF)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "total_km": pa.array([], pa.int64()),
            "net_km": pa.array([], pa.int64()),
            "sinuosity": pa.array([], pa.float64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        lat, lon = _derive_coords(eid)
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        starts = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        ends = np.r_[starts[1:], len(uid)] - 1
        keep = ends > starts  # >= 2 events
        starts, ends = starts[keep], ends[keep]
        if len(starts) == 0:
            return _empty
        km = np.zeros(len(uid), np.int64)
        if len(i):
            km[i] = np.floor(
                haversine_km(lat[i - 1], lon[i - 1], lat[i], lon[i])
            ).astype(np.int64)
        ck = np.cumsum(km)
        total = ck[ends] - ck[starts]
        net = np.floor(
            haversine_km(lat[starts], lon[starts], lat[ends], lon[ends])
        ).astype(np.int64)
        sin = np.where(
            net > 0,
            total.astype(np.float64) / net.astype(np.float64),
            np.nan,
        )
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "total_km": pa.array(total, pa.int64()),
                "net_km": pa.array(net, pa.int64()),
                "sinuosity": pa.array(
                    np.where(np.isnan(sin), None, sin), pa.float64(),
                    from_pandas=True,
                ),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


@query(sql=f"""
WITH pts AS (
  SELECT event_type,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
cc AS (SELECT event_type, gx, gy, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
ranked AS (
  SELECT event_type, c,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY c) AS i
  FROM cc),
per AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(c) AS BIGINT) AS s,
         CAST(2 * SUM(i * c) AS BIGINT) AS wsum2
  FROM ranked GROUP BY 1)
SELECT event_type, n AS n_cells, s AS n_events, wsum2,
       CAST(wsum2 AS DOUBLE) / CAST(n * s AS DOUBLE)
         - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE) AS gini
FROM per
""")
def events_cell_gini(sf_dir: str):
    """SPATIAL CONCENTRATION (Gini coefficient of per-cell event counts,
    one row per event type): 0 = activity spread evenly over its occupied
    cells, ->1 = concentrated in a few hot cells — the inequality lens on
    the tile histogram (market-concentration / crawl-hotspot metric).
    Exactness: with counts sorted ascending, G = 2*sum(i*c_i)/(n*S) -
    (n+1)/n, and sum(i*c_i) is INVARIANT under permutations of equal
    counts — so the rank order is deterministic without a tie-break and
    both moments are exact integers; G = one fixed double chain. Event
    types are bounded, cells are geometry-bounded: one distributed
    (type, cell) count pass, driver fold."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    ty_t = fold_table(ds.select_columns(["event_type"]), "event_type", {"n": (None, "count")})
    types = np.sort(np.asarray(ty_t["event_type"].to_pylist()))

    def pack(b: pa.Table, ts=types) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ts, np.asarray(b["event_type"].to_pylist()))
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        key = (idx.astype(np.uint64) << np.uint64(16)) | (
            (gx * 1024 + gy).astype(np.uint64)
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= types x 504 rows by construction
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    tidx = (key >> np.uint64(16)).astype(np.int64)

    rows = []
    for t in range(len(types)):
        cs = np.sort(c[tidx == t])
        n = len(cs)
        if n == 0:
            continue
        s = int(cs.sum())
        wsum = int((np.arange(1, n + 1, dtype=np.int64) * cs).sum())
        gini = float(
            np.float64(2 * wsum) / np.float64(n * s)
            - np.float64(n + 1) / np.float64(n)
        )
        rows.append((str(types[t]), n, s, 2 * wsum, gini))
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_cells": pa.array([r[1] for r in rows], pa.int64()),
            "n_events": pa.array([r[2] for r in rows], pa.int64()),
            "wsum2": pa.array([r[3] for r in rows], pa.int64()),
            "gini": pa.array([r[4] for r in rows], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT user_id,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
cc AS (SELECT user_id, gx * 1024 + gy AS cell, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2),
ranked AS (
  SELECT user_id, c,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY c DESC, cell) AS rank
  FROM cc)
SELECT rank, CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(c) AS BIGINT) AS total_visits,
       CAST(CAST(SUM(c) AS BIGINT) AS DOUBLE)
         / CAST(COUNT(*) AS DOUBLE) AS mean_visits
FROM ranked GROUP BY 1
""")
def events_visit_ranks(sf_dir: str):
    """VISITATION-FREQUENCY CURVE (Gonzalez et al.'s f_k ∝ k^-1.2 law:
    how often do people visit their k-th favorite place): every user
    ranks their 10-deg cells by visit count (ties by lowest cell — the
    deterministic argmax contract), and visits aggregate per rank across
    all users. One user-keyed shuffle; the partition kernel double-
    reduceats ((user, cell) counts, then per-user rank under a lexsort)
    and emits bounded (rank, n_users, total_visits) partials; driver
    fold is bounded by the max cells-per-user, never the corpus."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    _empty = pa.table(
        {
            "rank": pa.array([], pa.int64()),
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        cell = gx * 1024 + gy
        order = np.lexsort((cell, uid))
        uid, cell = uid[order], cell[order]
        newc = np.r_[True, (uid[1:] != uid[:-1]) | (cell[1:] != cell[:-1])]
        cstarts = np.nonzero(newc)[0]
        c = np.diff(np.r_[cstarts, len(uid)]).astype(np.int64)
        cuid = uid[cstarts]
        ccell = cell[cstarts]
        # rank within user by (count desc, cell asc)
        ro = np.lexsort((ccell, -c, cuid))
        ru = cuid[ro]
        ustarts = np.searchsorted(ru, ru)  # first index of each user run
        rank = np.arange(len(ru)) - ustarts + 1
        rc = c[ro]
        u, pos = np.unique(rank, return_inverse=True)
        nu = np.zeros(len(u), np.int64)
        nv = np.zeros(len(u), np.int64)
        np.add.at(nu, pos, 1)
        np.add.at(nv, pos, rc)
        return pa.table(
            {
                "rank": pa.array(u, pa.int64()),
                "u": pa.array(nu, pa.int64()),
                "v": pa.array(nv, pa.int64()),
            }
        )

    t = _collect_table(
        map_groups_partitioned(ds, "user_id", per_part)
    )  # <= partitions x max-cells-per-user rows by construction
    r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
    u_ = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    v_ = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    ranks = np.unique(r)
    pos = np.searchsorted(ranks, r)
    nu = np.zeros(len(ranks), np.int64)
    nv = np.zeros(len(ranks), np.int64)
    np.add.at(nu, pos, u_)
    np.add.at(nv, pos, v_)
    return pa.table(
        {
            "rank": pa.array(ranks, pa.int64()),
            "n_users": pa.array(nu, pa.int64()),
            "total_visits": pa.array(nv, pa.int64()),
            "mean_visits": pa.array(
                nv.astype(np.float64) / nu.astype(np.float64), pa.float64()
            ),
        }
    )


_KNOX_R = 0.25  # Knox spatial threshold (degrees)
_KNOX_TAU = 3600000000  # Knox time window (1 h, microseconds)


@query(sql=f"""
WITH pts AS (
  SELECT event_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon FROM events),
st AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS x
  FROM pts a JOIN pts b
    ON b.event_id > a.event_id
   AND b.lat BETWEEN a.lat - {_KNOX_R} AND a.lat + {_KNOX_R}
   AND b.lon BETWEEN a.lon - {_KNOX_R} AND a.lon + {_KNOX_R}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon) <= {_KNOX_R * _KNOX_R}
    AND ABS(a.us - b.us) <= {_KNOX_TAU}),
sp AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_s
  FROM pts a JOIN pts b
    ON b.event_id > a.event_id
   AND b.lat BETWEEN a.lat - {_KNOX_R} AND a.lat + {_KNOX_R}
   AND b.lon BETWEEN a.lon - {_KNOX_R} AND a.lon + {_KNOX_R}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon) <= {_KNOX_R * _KNOX_R}),
tm AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_t
  FROM pts a JOIN pts b
    ON b.event_id > a.event_id
   AND b.us BETWEEN a.us - {_KNOX_TAU} AND a.us + {_KNOX_TAU}),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts)
SELECT nn.n AS n_events, st.x AS x_spacetime, sp.n_s AS n_space,
       tm.n_t AS n_time,
       CAST(st.x * (nn.n * (nn.n - 1) // 2) AS DOUBLE)
         / (CAST(sp.n_s AS DOUBLE) * CAST(tm.n_t AS DOUBLE)) AS knox_ratio
FROM nn, st, sp, tm
""")
def events_knox(sf_dir: str):
    """KNOX SPACE-TIME INTERACTION TEST (the epidemiology/crime-analysis
    classic: do events cluster in space AND time TOGETHER beyond what
    their spatial and temporal margins imply?): X = pairs within 0.25 deg
    AND 1 h over the clustered city/jitter coordinates, N_s / N_t the
    one-axis margins, and the interaction ratio
    X * C(n,2) / (N_s * N_t) (> 1 = space-time interaction). Exactness +
    scale: X reuses the 3D home+ghost contact join (stages/stjoin, uid =
    event_id so ALL pairs count), N_s the 2D distance-band join — both
    count-only consumers of streaming pair Datasets; N_t is a 1D
    home+ghost bucket kernel where same-bucket pairs are within tau BY
    CONSTRUCTION (bucket width = tau, so only adjacent-bucket pairs need
    the exact integer-microsecond check); every count is an exact int and
    the ratio is ONE double division (X*C(n,2) stays in int64 to ~1e9
    corpus pairs-within — widening documented)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def shape(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid_ = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        # clustered city/jitter coordinates (events_contacts' model): the
        # raw multiplicative lattice anti-clusters — it has NO pairs
        # within any small radius by construction
        lat, lon = _contact_coords(eid, uid_)
        return pa.table(
            {
                "pid": pa.array(eid, pa.int64()),
                "uid": pa.array(eid, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
                "us": pa.array(us, pa.int64()),
            }
        )

    shaped = ds.map_batches(shape, batch_format="pyarrow",
                            batch_size=65536).materialize()
    n = shaped.count()
    x_cnt = spacetime_pairs(shaped, _KNOX_R, _KNOX_TAU).count()
    n_s = distance_pairs(
        shaped.map_batches(
            lambda b: pa.table(
                {"doc_id": b["pid"], "lat": b["lat"], "lon": b["lon"]}
            ),
            batch_format="pyarrow",
        ),
        _KNOX_R,
    ).count()

    def t_rep(b: pa.Table) -> pa.Table:
        us = b["us"].to_numpy(zero_copy_only=False)
        bkt = us // _KNOX_TAU
        return pa.table(
            {
                "tb": pa.array(
                    np.concatenate([bkt, bkt + 1]).astype(np.uint64),
                    pa.uint64(),
                ),
                "home": pa.array(
                    np.r_[np.ones(len(us), np.int8),
                          np.zeros(len(us), np.int8)],
                    pa.int8(),
                ),
                "us": pa.array(np.tile(us, 2), pa.int64()),
            }
        )

    def t_count(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"c": pa.array([], pa.int64())})
        tb = g["tb"].to_numpy(zero_copy_only=False).astype(np.uint64)
        home = g["home"].to_numpy(zero_copy_only=False)
        us = g["us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((us, home, tb))
        tb, home, us = tb[order], home[order], us[order]
        total = 0
        starts = np.nonzero(np.r_[True, tb[1:] != tb[:-1]])[0]
        ends = np.r_[starts[1:], len(tb)]
        for s_, e_ in zip(starts, ends):
            h = us[s_:e_][home[s_:e_] == 1]
            gst = us[s_:e_][home[s_:e_] == 0]
            # same-bucket pairs: within tau by construction
            total += len(h) * (len(h) - 1) // 2
            if len(h) and len(gst):
                gs = np.sort(gst)
                lo = np.searchsorted(gs, h - _KNOX_TAU, side="left")
                total += int((len(gs) - lo).sum())
        return pa.table({"c": pa.array([total], pa.int64())})

    t_parts = map_groups_partitioned(
        shaped.map_batches(t_rep, batch_format="pyarrow", batch_size=65536),
        "tb",
        t_count,
    )
    n_t = int(
        sum(
            int(pc.sum(b["c"]).as_py() or 0)
            for b in t_parts.iter_batches(batch_format="pyarrow")
        )
    )

    c2 = n * (n - 1) // 2
    ratio = float(
        np.float64(x_cnt * c2) / (np.float64(n_s) * np.float64(n_t))
    )
    return pa.table(
        {
            "n_events": pa.array([n], pa.int64()),
            "x_spacetime": pa.array([x_cnt], pa.int64()),
            "n_space": pa.array([n_s], pa.int64()),
            "n_time": pa.array([n_t], pa.int64()),
            "knox_ratio": pa.array([ratio], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_type,
         ((event_id * 104729) % 360000) // {_GT_CELL_MILLI} AS rx,
         ((event_id * 7919) % 140000) // {_GT_CELL_MILLI} AS ry
  FROM events),
cc AS (SELECT event_type, rx, ry, CAST(COUNT(*) AS BIGINT) AS o
       FROM pts GROUP BY 1, 2, 3),
tm AS (SELECT event_type, CAST(SUM(o) AS BIGINT) AS r FROM cc GROUP BY 1),
rm AS (SELECT rx, ry, CAST(SUM(o) AS BIGINT) AS c FROM cc GROUP BY 1, 2),
nn AS (SELECT CAST(SUM(o) AS BIGINT) AS n FROM cc),
grid AS (
  SELECT t.event_type, r.rx, r.ry, t.r, r.c, COALESCE(o.o, 0) AS o, nn.n
  FROM tm t CROSS JOIN rm r CROSS JOIN nn
  LEFT JOIN cc o ON o.event_type = t.event_type
               AND o.rx = r.rx AND o.ry = r.ry),
terms AS (
  SELECT CAST(ROUND(
           CAST((n * o - r * c) * (n * o - r * c) AS DOUBLE)
             / (CAST(n AS DOUBLE) * CAST(r AS DOUBLE) * CAST(c AS DOUBLE))
             * 1000000.0, 0) AS BIGINT) AS m,
         n
  FROM grid)
SELECT MAX(n) AS n_events,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM tm) AS n_types,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM rm) AS n_regions,
       ((SELECT COUNT(*) FROM tm) - 1)
         * ((SELECT COUNT(*) FROM rm) - 1) AS dof,
       CAST(SUM(m) AS BIGINT) AS sum_micro,
       CAST(CAST(SUM(m) AS BIGINT) AS DOUBLE) / 1000000.0 AS chisq
FROM terms
""")
def events_type_region_chisq(sf_dir: str):
    """CHI-SQUARE INDEPENDENCE TEST (event type x 30-deg region): does
    behavior differ by geography, the contingency-table first question of
    every regional product analysis. Counts per (type, region) come from
    one packed pass (bounded: types x regions); marginals and N are exact
    integer sums; each cell's contribution (n*o - r*c)^2 / (n*r*c) — the
    cross-multiplied form of (o - e)^2/e scaled by n — quantizes to
    integer micro-units (sql_round_np == DuckDB ROUND; numerator exact
    int64 up to ~3e9 events under these cardinalities), so chi2 is an
    exact integer sum divided once. Output includes dof for the test
    lookup."""
    ds = _read(sf_dir, "events", ["event_id", "event_type"])

    ty_t = fold_table(ds.select_columns(["event_type"]), "event_type", {"n": (None, "count")})
    types = np.sort(np.asarray(ty_t["event_type"].to_pylist()))

    def pack(b: pa.Table, ts=types) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ts, np.asarray(b["event_type"].to_pylist()))
        rx = ((eid * 104729) % 360000) // _GT_CELL_MILLI
        ry = ((eid * 7919) % 140000) // _GT_CELL_MILLI
        key = (idx.astype(np.uint64) << np.uint64(16)) | (
            (rx * 16 + ry).astype(np.uint64)
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= types x regions rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    o = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    ti = (key >> np.uint64(16)).astype(np.int64)
    reg = (key & np.uint64((1 << 16) - 1)).astype(np.int64)
    regs = np.unique(reg)
    rpos = np.searchsorted(regs, reg)
    r_m = np.zeros(len(types), np.int64)  # per-type marginal
    c_m = np.zeros(len(regs), np.int64)  # per-region marginal
    np.add.at(r_m, ti, o)
    np.add.at(c_m, rpos, o)
    n = int(o.sum())
    # every (type, region) combination contributes — including zeros
    full_r = np.repeat(np.arange(len(types)), len(regs))
    full_c = np.tile(np.arange(len(regs)), len(types))
    dense = np.zeros((len(types), len(regs)), np.int64)
    dense[ti, rpos] = o
    obs = dense[full_r, full_c]
    rr = r_m[full_r]
    cc = c_m[full_c]
    num = (n * obs - rr * cc).astype(np.float64) ** 2
    micro = sql_round_np(
        num / (np.float64(n) * rr.astype(np.float64) * cc.astype(np.float64))
        * 1000000.0,
        0,
    ).astype(np.int64)
    chisq = float(np.float64(int(micro.sum())) / 1000000.0)
    dof = (len(types) - 1) * (len(regs) - 1)
    return pa.table(
        {
            "n_events": pa.array([n], pa.int64()),
            "n_types": pa.array([len(types)], pa.int64()),
            "n_regions": pa.array([len(regs)], pa.int64()),
            "dof": pa.array([dof], pa.int64()),
            "sum_micro": pa.array([int(micro.sum())], pa.int64()),
            "chisq": pa.array([chisq], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
hits AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
deg AS (
  SELECT u, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT u1 AS u FROM hits UNION ALL SELECT u2 FROM hits)
  GROUP BY 1)
SELECT d AS degree, CAST(COUNT(*) AS BIGINT) AS n_users
FROM deg GROUP BY 1
""")
def events_contact_degrees(sf_dir: str):
    """CONTACT-GRAPH DEGREE DISTRIBUTION (the social-network statistic
    over the space-time contact join: how many DISTINCT partners does
    each user meet, histogrammed — superspreader detection's first
    plot). Fully DISTRIBUTED (VERDICT r4: a hot city-hour makes the pair
    table quadratic in its population, so the pair fold must never reach
    the driver — the events_user_entropy contract): shared contact-pair
    materialization -> per-batch-distinct packed user-pair keys -> one
    pair-keyed hash partition (global distinct, each edge exactly once)
    emitting both endpoints -> count_by_u64 per user (= degree) ->
    count_by_u64 per degree VALUE. The driver receives only the degree
    HISTOGRAM (distinct degree values, not users, not pairs)."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_endpoints(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table(
            {
                "key": pa.array(
                    np.concatenate([u >> np.uint64(32),
                                    u & np.uint64(0xFFFFFFFF)]),
                    pa.uint64(),
                )
            }
        )

    users = map_groups_partitioned(keyed, "key", distinct_endpoints)
    deg = count_by_u64(users, "key")  # (user, degree)

    def deg_as_key(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    hist = count_by_u64(deg.map_batches(deg_as_key, batch_format="pyarrow"), "key")
    t = _collect_table(hist)  # bounded by DISTINCT degree values
    dv = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    nc = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(dv, kind="stable")
    return pa.table(
        {
            "degree": pa.array(dv[order], pa.int64()),
            "n_users": pa.array(nc[order], pa.int64()),
        }
    )


@query(sql="""
WITH seqd AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS seq
  FROM events),
cities AS (
  SELECT user_id, us, event_id, (user_id * 7 + seq // 20) % 12 AS city
  FROM seqd),
legs AS (
  SELECT user_id, city,
         LAG(city) OVER (PARTITION BY user_id ORDER BY us, event_id) AS pcity
  FROM cities),
od AS (
  SELECT CAST(LEAST(pcity, city) AS BIGINT) AS ca,
         CAST(GREATEST(pcity, city) AS BIGINT) AS cb,
         CAST(COUNT(*) AS BIGINT) AS flow
  FROM legs WHERE pcity IS NOT NULL AND pcity != city
  GROUP BY 1, 2),
coords AS (
  SELECT k AS c,
         ((k * 11003) % 120000) / 1000.0 - 60.0 AS lat,
         ((k * 104729) % 340000) / 1000.0 - 170.0 AS lon
  FROM range(12) t(k)),
q AS (
  SELECT od.ca, od.cb, od.flow,
         CAST(ROUND(LOG2((a.lat - b.lat) * (a.lat - b.lat)
                         + (a.lon - b.lon) * (a.lon - b.lon))
                    * 1000000.0, 0) AS BIGINT) AS x,
         CAST(ROUND(LOG2(CAST(od.flow AS DOUBLE)) * 1000000.0, 0)
              AS BIGINT) AS y
  FROM od JOIN coords a ON a.c = od.ca JOIN coords b ON b.c = od.cb
  WHERE od.flow > 0),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM q)
SELECT q.ca AS city_a, q.cb AS city_b, q.flow, q.x AS d2_micro_x,
       m.k * m.sxy - m.sx * m.sy AS decay_num,
       m.k * m.sxx - m.sx * m.sx AS decay_den,
       CAST(m.k * m.sxy - m.sx * m.sy AS DOUBLE)
         / CAST(m.k * m.sxx - m.sx * m.sx AS DOUBLE) AS decay_slope
FROM q CROSS JOIN m
""")
def geo_gravity_fit(sf_dir: str):
    """GRAVITY-LAW FIT over the OD matrix (the transport-science classic:
    flow between places decays as a power of distance — the exponent is
    the headline parameter of trip-distribution models): symmetrized
    city-pair flows from the events_od_matrix machinery (bounded 12x12),
    squared distances between the model city centers (exact arithmetic),
    and the decay exponent = the micro-bit log2-log2 regression slope of
    flow on d^2 (doc_zipf_fit's algebra; slope vs distance itself is 2x
    this). Only pairs with positive flow enter (log of zero is not a
    number in any engine)."""
    t = events_od_matrix(sf_dir)
    f_ = t["from_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    to = t["to_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = t[t.column_names[2]].to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.minimum(f_, to)
    hi = np.maximum(f_, to)
    key = lo * 12 + hi
    u = np.unique(key)
    flow = np.zeros(len(u), np.int64)
    np.add.at(flow, np.searchsorted(u, key), n)
    ci = (u // 12).astype(np.int64)
    cj = (u % 12).astype(np.int64)

    k = np.arange(12, dtype=np.int64)
    c_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    c_lon = ((k * 104729) % 340000) / 1000.0 - 170.0
    dla = c_lat[ci] - c_lat[cj]
    dlo = c_lon[ci] - c_lon[cj]
    d2 = dla * dla + dlo * dlo

    keep = flow > 0
    ci, cj, flow, d2 = ci[keep], cj[keep], flow[keep], d2[keep]
    x = sql_round_np(np.log2(d2) * 1000000.0, 0).astype(np.int64)
    y = sql_round_np(
        np.log2(flow.astype(np.float64)) * 1000000.0, 0
    ).astype(np.int64)
    m = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxy, sxx = int((x * y).sum()), int((x * x).sum())
    num = m * sxy - sx * sy
    den = m * sxx - sx * sx
    return pa.table(
        {
            "city_a": pa.array(ci, pa.int64()),
            "city_b": pa.array(cj, pa.int64()),
            "flow": pa.array(flow, pa.int64()),
            "d2_micro_x": pa.array(x, pa.int64()),
            "decay_num": pa.array(np.full(m, num, np.int64), pa.int64()),
            "decay_den": pa.array(np.full(m, den, np.int64), pa.int64()),
            "decay_slope": pa.array(
                np.full(m, float(np.float64(num) / np.float64(den))),
                pa.float64(),
            ),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
hits AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
deg AS (
  SELECT u, CAST(COUNT(*) AS BIGINT) AS d
  FROM (SELECT u1 AS u FROM hits UNION ALL SELECT u2 FROM hits)
  GROUP BY 1),
orient AS (
  SELECT da.d AS dx, db.d AS dy
  FROM hits JOIN deg da ON da.u = hits.u1 JOIN deg db ON db.u = hits.u2
  UNION ALL
  SELECT db.d, da.d
  FROM hits JOIN deg da ON da.u = hits.u1 JOIN deg db ON db.u = hits.u2),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(dx) AS BIGINT) AS sx,
         CAST(SUM(dx * dy) AS BIGINT) AS sxy,
         CAST(SUM(dx * dx) AS BIGINT) AS sxx
  FROM orient)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM hits) AS n_edges,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM deg) AS n_users,
       m.m * m.sxy - m.sx * m.sx AS r_num,
       m.m * m.sxx - m.sx * m.sx AS r_den,
       CAST(m.m * m.sxy - m.sx * m.sx AS DOUBLE)
         / CAST(NULLIF(m.m * m.sxx - m.sx * m.sx, 0) AS DOUBLE)
         AS assortativity
FROM m
""")
def events_contact_assortativity(sf_dir: str):
    """DEGREE ASSORTATIVITY of the contact graph (Newman's r: do
    well-connected users meet other well-connected users? r > 0 =
    social-core mixing, r < 0 = hub-and-spoke): over the distinct
    contact edges (bounded by co-locations), each edge contributes BOTH
    orientations (the undirected convention), and r is the Pearson
    correlation of endpoint degrees — exact integer moments (degrees are
    ints; M, sx, sxy, sxx over 2|E| orientation rows), one fixed chain.
    Symmetric x/y marginals collapse (sx == sy, sxx == syy), mirrored in
    the SQL. Fully DISTRIBUTED (VERDICT r4 — no O(pairs) driver traffic):
    distinct edges come from one pair-keyed hash partition over the shared
    contact materialization; degrees from count_by_u64 over edge
    endpoints; the orientation-row moments collapse EXACTLY onto the
    degree table alone (sum over 2|E| rows of d_x == sum_u deg_u^2, of
    d_x^2 == sum_u deg_u^3 — each user appears as an endpoint deg_u
    times), leaving only sxy needing per-edge endpoint pairing — two hash
    equi-joins attach both endpoint degrees in tasks, and the driver
    receives one O(#blocks) table of integer moment partials."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_edges(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table(
            {
                "u1": pa.array((u >> np.uint64(32)).astype(np.int64), pa.int64()),
                "u2": pa.array((u & np.uint64(0xFFFFFFFF)).astype(np.int64),
                               pa.int64()),
            }
        )

    edges = map_groups_partitioned(keyed, "key", distinct_edges).materialize()

    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    np.concatenate(
                        [b["u1"].to_numpy(zero_copy_only=False),
                         b["u2"].to_numpy(zero_copy_only=False)]
                    ).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    deg = count_by_u64(
        edges.map_batches(endpoints, batch_format="pyarrow"), "key"
    ).materialize()

    # degree-table moments: n_users, sx = sum d^2, sxx = sum d^3 (exact
    # int64 partials; one O(#blocks) collect)
    def deg_moments(b: pa.Table) -> pa.Table:
        d = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_users": pa.array([len(d)], pa.int64()),
                "s2": pa.array([int((d * d).sum())], pa.int64()),
                "s3": pa.array([int((d * d * d).sum())], pa.int64()),
            }
        )

    dm = _collect_table(deg.map_batches(deg_moments, batch_format="pyarrow"))
    n_users = int(pc.sum(dm["n_users"]).as_py() or 0)
    sx = int(pc.sum(dm["s2"]).as_py() or 0)
    sxx = int(pc.sum(dm["s3"]).as_py() or 0)

    # sxy: attach both endpoint degrees per edge (two distributed hash
    # joins), fold dx*dy in tasks
    edge_schema = pa.schema([("u1", pa.int64()), ("u2", pa.int64())])

    def deg_as(col: str, out: str):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    col: pa.array(
                        b["key"].to_numpy(zero_copy_only=False).astype(np.int64),
                        pa.int64(),
                    ),
                    out: b["cnt"],
                }
            )

        return f

    j1 = hash_join(
        edges, deg.map_batches(deg_as("u1", "dx"), batch_format="pyarrow"),
        on="u1", left_schema=edge_schema,
        right_schema=pa.schema([("u1", pa.int64()), ("dx", pa.int64())]),
    )
    j2 = hash_join(
        j1, deg.map_batches(deg_as("u2", "dy"), batch_format="pyarrow"),
        on="u2",
        left_schema=pa.schema(
            [("u1", pa.int64()), ("u2", pa.int64()), ("dx", pa.int64())]
        ),
        right_schema=pa.schema([("u2", pa.int64()), ("dy", pa.int64())]),
    )

    def edge_moments(b: pa.Table) -> pa.Table:
        dx = b["dx"].to_numpy(zero_copy_only=False).astype(np.int64)
        dy = b["dy"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_edges": pa.array([len(dx)], pa.int64()),
                "sdd": pa.array([int((dx * dy).sum())], pa.int64()),
            }
        )

    em = _collect_table(j2.map_batches(edge_moments, batch_format="pyarrow"))
    n_edges = int(pc.sum(em["n_edges"]).as_py() or 0)
    sxy = 2 * int(pc.sum(em["sdd"]).as_py() or 0)

    m = 2 * n_edges
    num = m * sxy - sx * sx
    den = m * sxx - sx * sx
    # a regular graph (all degrees equal) has zero degree variance:
    # assortativity is undefined -> NULL (NULLIF-mirrored in the SQL)
    r = float(np.float64(num) / np.float64(den)) if den != 0 else None
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_users": pa.array([n_users], pa.int64()),
            "r_num": pa.array([num], pa.int64()),
            "r_den": pa.array([den], pa.int64()),
            "assortativity": pa.array([r], pa.float64()),
        }
    )


_STDB_EPS = 1.0  # ST-DBSCAN spatial eps (degrees)
_STDB_WINDOW_US = 300 * 1_000_000  # temporal eps (5 min)
_STDB_MIN_PTS = 3


@query(sql=f"""
WITH RECURSIVE
pts AS (
  SELECT event_id, {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon,
         epoch_us(ts) AS us
  FROM events),
-- time-bucket equi-join: a is replicated to its 3 adjacent buckets, b
-- probes its own bucket, so every pair with |dt| <= W matches EXACTLY one
-- replica (a pure range join here degenerates: DuckDB's IEJoin picks the
-- lat band, and the 12-city blob model puts ~1/12 of all events in any
-- lat band — measured minutes at sf0.1; the bucket hash join is seconds)
ab AS (
  SELECT event_id, lat, lon, us, us // {_STDB_WINDOW_US} + o AS bk
  FROM pts CROSS JOIN (SELECT UNNEST([-1, 0, 1]) AS o) t),
p0 AS (
  SELECT a.event_id AS da, b.event_id AS db
  FROM ab a JOIN pts b
    ON b.us // {_STDB_WINDOW_US} = a.bk AND a.event_id < b.event_id
  WHERE ABS(a.us - b.us) <= {_STDB_WINDOW_US}
    AND (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_STDB_EPS * _STDB_EPS}),
e AS (SELECT da AS u, db AS v FROM p0 UNION ALL SELECT db, da FROM p0),
deg AS (SELECT u AS id, COUNT(*) AS n FROM e GROUP BY u),
core AS (SELECT id FROM deg WHERE n + 1 >= {_STDB_MIN_PTS}),
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
SELECT p.event_id,
       CAST(COALESCE(c.comp, b.comp) AS BIGINT) AS cluster,
       CASE WHEN c.node IS NOT NULL THEN 'core'
            WHEN b.node IS NOT NULL THEN 'border'
            ELSE 'noise' END AS role
FROM pts p
LEFT JOIN clab c ON c.node = p.event_id
LEFT JOIN border b ON b.node = p.event_id
""")
def events_st_dbscan(sf_dir: str):
    """ST-DBSCAN — spatio-temporal density clustering of EVENTS (Birant &
    Kut's extension of DBSCAN: a neighbor must be close in space AND
    time, so a place that is busy on two different days forms two
    clusters where plain DBSCAN sees one). Runs over the CONTACT
    coordinate model (12 city blobs + user/event jitter — the derived
    doc-hash lattice is translation-invariant in id space, which makes
    every point core and the clustering degenerate). The distributed
    decomposition is IDENTICAL to geo_dbscan from step 2 on — the
    neighborhood definition is the only difference — so the
    implementation is the 3D (lat, lon, time-bucket) home+ghost pair
    join (stages/stjoin.py::spacetime_all_pairs, 27x replication, ONE
    shuffle, single-emission home rule) feeding the factored
    stages/dbscan.py::dbscan_from_pairs (degrees -> core -> CC over
    core-core edges -> min-label border attach -> noise). Parameters are
    deliberately SUBCRITICAL at bench scale (eps 1 deg / 5 min / min_pts
    3: expected degree ~0.5 at sf0.1, so components fragment at temporal
    gaps) — that keeps the oracle's recursive min-reachable closure,
    whose row count is sum(|component|^2), polynomial; the engine side
    has no such constraint (CC is log-round pointer jumping)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def shape(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _contact_coords(eid, uid)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
                "us": pa.array(us, pa.int64()),
            }
        )

    pts = ds.map_batches(shape, batch_format="pyarrow", batch_size=65536)
    pairs = spacetime_all_pairs(
        pts, _STDB_EPS, _STDB_WINDOW_US, id_col="event_id"
    ).materialize()
    return dbscan_from_pairs(pts, pairs, _STDB_MIN_PTS, id_col="event_id")


def _st_getis_z(sf_dir: str):
    """SPACE-TIME GETIS-ORD Gi* z-bin table (the "emerging hot spot" primitive: Gi*
    over a (1-deg cell, day) SPACE-TIME CUBE with a 3x3x3 box
    neighborhood — a place-day is hot only if its space-time neighborhood
    is, which plain 2D Gi* cannot see): same integer-exact strategy as
    geo_getis_gi lifted to 3D — the frame is 360 x 140 x n_days bins
    (n_days from the data's day span, mirrored), neighbor sums come from
    <=27 contribution rows per OCCUPIED bin (self carries x, the 26 box
    offsets carry nbx — empty bins with occupied neighbors materialize
    exactly where needed, all-empty bins never exist as rows), the box
    weight factorizes per axis (w = wx*wy*wt, each 2 or 3 at a boundary),
    and z = (N*(x+nb) - T*w) / (sqrt(N*sum_sq - T^2) * sqrt((N*w - w^2) /
    (N-1))) is a fixed chain of correctly-rounded double ops over exact
    integers. Events bin by the CONTACT city model (same frame bounds as
    the 1-deg raster). Shape: one count_by_u64 builds occupied bins, one
    partitioned vectorized reduce folds the 27x contribution rows (never
    Ray's per-row aggregate). Returns the full (bin, gx, gy, day_idx, x,
    nbr_sum, z) table; consumers pick their surface (events_st_getis
    top-20, events_emerging_hotspots per-cell Mann-Kendall). Same
    T^2 < 2^63 overflow contract as the 2D statistic."""
    nlon, nlat = _MORAN_NLON, _MORAN_NLAT

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def day_of(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"d": pa.array(us // _STG_DAY_US, pa.int64())})

    span = fold_table(
        ds.map_batches(day_of, batch_format="pyarrow", batch_size=131072),
        [],
        {"d0": ("d", "min"), "d1": ("d", "max")},
    )
    if not span.num_rows:
        return pa.table(
            {
                "gx": pa.array([], pa.int64()),
                "gy": pa.array([], pa.int64()),
                "day_idx": pa.array([], pa.int64()),
                "x": pa.array([], pa.int64()),
                "nbr_sum": pa.array([], pa.int64()),
                "z": pa.array([], pa.float64()),
            }
        )
    d0, d1 = int(span["d0"][0].as_py()), int(span["d1"][0].as_py())
    nd = d1 - d0 + 1
    n_bins = nlon * nlat * nd

    def bin_of(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _contact_coords(eid, uid)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = np.floor(lon).astype(np.int64) + 180
        gy = np.floor(lat).astype(np.int64) + 70
        didx = us // _STG_DAY_US - d0
        key = ((didx * nlat + gy) * nlon + gx).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cells = count_by_u64(
        ds.map_batches(bin_of, batch_format="pyarrow", batch_size=131072),
        "key",
    ).materialize()

    def scalars(b: pa.Table) -> pa.Table:
        return pa.table({"t": b["cnt"], "sum_sq": pc.multiply(b["cnt"], b["cnt"])})

    sc = fold_table(
        cells.map_batches(scalars, batch_format="pyarrow"), [], {c: (c, "sum") for c in ("t", "sum_sq")}
    )
    t, sum_sq = int(sc["t"][0].as_py()), int(sc["sum_sq"][0].as_py())
    a_const = n_bins * sum_sq - t * t

    offs = [(ox, oy, ot)
            for ox in (-1, 0, 1) for oy in (-1, 0, 1) for ot in (-1, 0, 1)]

    def contribs(b: pa.Table) -> pa.Table:
        bin_ = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = b["cnt"].to_numpy(zero_copy_only=False)
        gx = bin_ % nlon
        gy = (bin_ // nlon) % nlat
        dt_ = bin_ // (nlon * nlat)
        outb, outx, outn = [], [], []
        for ox, oy, ot in offs:
            ok = (
                (gx + ox >= 0) & (gx + ox < nlon)
                & (gy + oy >= 0) & (gy + oy < nlat)
                & (dt_ + ot >= 0) & (dt_ + ot < nd)
            )
            nb = ((dt_[ok] + ot) * nlat + (gy[ok] + oy)) * nlon + (gx[ok] + ox)
            outb.append(nb)
            if ox == 0 and oy == 0 and ot == 0:
                outx.append(x[ok])
                outn.append(np.zeros(int(ok.sum()), np.int64))
            else:
                outx.append(np.zeros(int(ok.sum()), np.int64))
                outn.append(x[ok])
        return pa.table(
            {
                "bin": pa.array(np.concatenate(outb), pa.int64()),
                "x": pa.array(np.concatenate(outx), pa.int64()),
                "nbx": pa.array(np.concatenate(outn), pa.int64()),
            }
        )

    def reduce_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "bin": pa.array([], pa.int64()),
                    "x": pa.array([], pa.int64()),
                    "nbr_sum": pa.array([], pa.int64()),
                }
            )
        k = g["bin"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k, kind="stable")
        ks = k[order]
        starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
        x = np.add.reduceat(
            g["x"].to_numpy(zero_copy_only=False)[order], starts)
        nb = np.add.reduceat(
            g["nbx"].to_numpy(zero_copy_only=False)[order], starts)
        return pa.table(
            {
                "bin": pa.array(ks[starts], pa.int64()),
                "x": pa.array(x, pa.int64()),
                "nbr_sum": pa.array(nb, pa.int64()),
            }
        )

    agg = map_groups_partitioned(
        cells.map_batches(contribs, batch_format="pyarrow"),
        "bin", reduce_part,
    )

    def zscore(b: pa.Table) -> pa.Table:
        bin_ = b["bin"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        nb = b["nbr_sum"].to_numpy(zero_copy_only=False)
        gx = bin_ % nlon
        gy = (bin_ // nlon) % nlat
        dt_ = bin_ // (nlon * nlat)
        w = (
            (1 + (gx > 0) + (gx < nlon - 1)).astype(np.int64)
            * (1 + (gy > 0) + (gy < nlat - 1))
            * (1 + (dt_ > 0) + (dt_ < nd - 1))
        )
        num = n_bins * (x + nb) - t * w
        z = num.astype(np.float64) / (
            np.sqrt(float(a_const))
            * np.sqrt((n_bins * w - w * w).astype(np.float64)
                      / float(n_bins - 1))
        )
        return pa.table(
            {
                "bin": pa.array(bin_, pa.int64()),
                "gx": pa.array(gx, pa.int64()),
                "gy": pa.array(gy, pa.int64()),
                "day_idx": pa.array(dt_, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "nbr_sum": pa.array(nb, pa.int64()),
                "z": pa.array(z, pa.float64()),
            }
        )

    return agg.map_batches(zscore, batch_format="pyarrow")


_ST_GETIS_Z_CTE = f"""pts AS (
  SELECT CAST(FLOOR({CONTACT_LON_SQL}) AS BIGINT) + 180 AS gx,
         CAST(FLOOR({CONTACT_LAT_SQL}) AS BIGINT) + 70 AS gy,
         epoch_us(ts) // {_STG_DAY_US} AS d
  FROM events),
dd AS (SELECT CAST(MIN(d) AS BIGINT) AS d0,
              CAST(MAX(d) - MIN(d) + 1 AS BIGINT) AS nd FROM pts),
cells AS (
  SELECT ((p.d - dd.d0) * {_MORAN_NLAT} + p.gy) * {_MORAN_NLON} + p.gx AS bin,
         p.gx, p.gy, p.d - dd.d0 AS dt, COUNT(*) AS x
  FROM pts p, dd GROUP BY 1, 2, 3, 4),
sc AS (
  SELECT CAST(SUM(x) AS BIGINT) AS t, CAST(SUM(x * x) AS BIGINT) AS sum_sq
  FROM cells),
offs AS (
  SELECT ax.o AS ox, ay.o AS oy, at.o AS ot
  FROM (SELECT UNNEST([-1, 0, 1]) AS o) ax,
       (SELECT UNNEST([-1, 0, 1]) AS o) ay,
       (SELECT UNNEST([-1, 0, 1]) AS o) at),
contrib AS (
  SELECT ((c.dt + f.ot) * {_MORAN_NLAT} + (c.gy + f.oy)) * {_MORAN_NLON}
           + (c.gx + f.ox) AS bin,
         CASE WHEN f.ox = 0 AND f.oy = 0 AND f.ot = 0 THEN c.x
              ELSE CAST(0 AS BIGINT) END AS x,
         CASE WHEN f.ox = 0 AND f.oy = 0 AND f.ot = 0 THEN CAST(0 AS BIGINT)
              ELSE c.x END AS nbx
  FROM cells c CROSS JOIN offs f CROSS JOIN dd
  WHERE c.gx + f.ox BETWEEN 0 AND {_MORAN_NLON - 1}
    AND c.gy + f.oy BETWEEN 0 AND {_MORAN_NLAT - 1}
    AND c.dt + f.ot BETWEEN 0 AND dd.nd - 1),
agg AS (
  SELECT bin, CAST(SUM(x) AS BIGINT) AS x, CAST(SUM(nbx) AS BIGINT) AS nbr_sum
  FROM contrib GROUP BY 1),
g AS (
  SELECT a.bin, a.bin % {_MORAN_NLON} AS gx,
         (a.bin // {_MORAN_NLON}) % {_MORAN_NLAT} AS gy,
         a.bin // {_MORAN_NLON * _MORAN_NLAT} AS day_idx,
         a.x, a.nbr_sum,
         CAST(((CASE WHEN a.bin % {_MORAN_NLON} > 0 THEN 1 ELSE 0 END)
               + (CASE WHEN a.bin % {_MORAN_NLON} < {_MORAN_NLON - 1}
                  THEN 1 ELSE 0 END) + 1)
              * ((CASE WHEN (a.bin // {_MORAN_NLON}) % {_MORAN_NLAT} > 0
                  THEN 1 ELSE 0 END)
                 + (CASE WHEN (a.bin // {_MORAN_NLON}) % {_MORAN_NLAT}
                         < {_MORAN_NLAT - 1} THEN 1 ELSE 0 END) + 1)
              * ((CASE WHEN a.bin // {_MORAN_NLON * _MORAN_NLAT} > 0
                  THEN 1 ELSE 0 END)
                 + (CASE WHEN a.bin // {_MORAN_NLON * _MORAN_NLAT} < dd.nd - 1
                    THEN 1 ELSE 0 END) + 1) AS BIGINT) AS w,
         CAST({_MORAN_NLON * _MORAN_NLAT} AS BIGINT) * dd.nd AS n
  FROM agg a CROSS JOIN dd),
zt AS (
  SELECT g.bin, g.gx, g.gy, g.day_idx, g.x, g.nbr_sum,
         CAST(g.n * (g.x + g.nbr_sum) - sc.t * g.w AS DOUBLE)
           / (SQRT(CAST(g.n * sc.sum_sq - sc.t * sc.t AS DOUBLE))
              * SQRT(CAST(g.n * g.w - g.w * g.w AS DOUBLE)
                     / CAST(g.n - 1 AS DOUBLE))) AS z
  FROM g, sc)"""



@query(sql=f"""
WITH {_ST_GETIS_Z_CTE}
SELECT gx, gy, day_idx, x, nbr_sum, z
FROM zt
ORDER BY z DESC, bin
LIMIT 20
""")
def events_st_getis(sf_dir: str):
    """SPACE-TIME GETIS-ORD Gi* top 20 — see _st_getis_z for the full
    3D-cube derivation; this surface sorts by (z DESC, bin), a total
    order that is bit-equal both sides."""
    z = _st_getis_z(sf_dir)
    if isinstance(z, pa.Table):  # empty-events guard (already final shape)
        return z.drop_columns(["bin"]) if "bin" in z.column_names else z
    return (
        z.sort(["z", "bin"], descending=[True, False])
        .limit(20)
        .drop_columns(["bin"])
    )


@query(sql=f"""
WITH {_ST_GETIS_Z_CTE},
mk AS (
  SELECT a.gx, a.gy,
         CAST(SUM(CASE WHEN b.z > a.z THEN 1
                       WHEN b.z < a.z THEN -1 ELSE 0 END) AS BIGINT) AS s_mk
  FROM zt a JOIN zt b
    ON b.gx = a.gx AND b.gy = a.gy AND b.day_idx > a.day_idx
  GROUP BY 1, 2),
nd_per AS (
  SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS n_days FROM zt GROUP BY 1, 2)
SELECT n.gx, n.gy, n.n_days,
       CAST(COALESCE(m.s_mk, 0) AS BIGINT) AS s_mk,
       CASE WHEN COALESCE(m.s_mk, 0) > 0 THEN 'intensifying'
            WHEN COALESCE(m.s_mk, 0) < 0 THEN 'diminishing'
            ELSE 'flat' END AS trend
FROM nd_per n LEFT JOIN mk m ON m.gx = n.gx AND m.gy = n.gy
""")
def events_emerging_hotspots(sf_dir: str):
    """EMERGING-HOTSPOT CLASSIFICATION (the full ArcGIS space-time-cube
    workflow: per SPATIAL cell, a Mann-Kendall monotonic-trend test over
    that cell's DAILY Gi* z series — 'intensifying' cells are getting
    hotter relative to the global field, 'diminishing' cooler; the
    per-day statistic alone cannot distinguish a steady hot spot from an
    emerging one). Consumes the shared _st_getis_z bin table; MK is
    SIGN-ONLY (S = sum over day pairs of sign(z_j - z_i)), and the z
    values are bit-equal doubles on both sides, so parity is exact
    without quantizing z. Days where a bin has no occupied 3x3x3
    neighborhood do not exist as rows (documented contract of the
    contribution construction — mirrored, both sides skip them). ONE
    spatial-cell-keyed shuffle; each cell's series is <= n_days long so
    the per-cell pairwise fold is O(days^2) tiny and vectorized per
    segment."""
    empty = pa.table(
        {
            "gx": pa.array([], pa.int64()),
            "gy": pa.array([], pa.int64()),
            "n_days": pa.array([], pa.int64()),
            "s_mk": pa.array([], pa.int64()),
            "trend": pa.array([], pa.string()),
        }
    )
    z = _st_getis_z(sf_dir)
    if isinstance(z, pa.Table):  # empty-events guard
        return empty

    def keyed(b: pa.Table) -> pa.Table:
        gx = b["gx"].to_numpy(zero_copy_only=False)
        gy = b["gy"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cell": pa.array(gy * _MORAN_NLON + gx, pa.int64()),
                "day_idx": b["day_idx"],
                "z": b["z"],
            }
        )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty
        cell = g["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = g["day_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        zz = g["z"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, cell))
        cell, day, zz = cell[order], day[order], zz[order]
        starts = np.nonzero(np.r_[True, cell[1:] != cell[:-1]])[0]
        ends = np.append(starts[1:], len(cell))
        out_gx, out_gy, out_nd, out_s = [], [], [], []
        for s, e in zip(starts, ends):  # <= #occupied cells, each tiny
            seg = zz[s:e]
            d = np.sign(seg[None, :] - seg[:, None])
            s_mk = int(np.triu(d, 1).sum())
            out_gx.append(int(cell[s] % _MORAN_NLON))
            out_gy.append(int(cell[s] // _MORAN_NLON))
            out_nd.append(int(e - s))
            out_s.append(s_mk)
        trend = np.where(
            np.array(out_s) > 0, "intensifying",
            np.where(np.array(out_s) < 0, "diminishing", "flat"),
        )
        return pa.table(
            {
                "gx": pa.array(out_gx, pa.int64()),
                "gy": pa.array(out_gy, pa.int64()),
                "n_days": pa.array(out_nd, pa.int64()),
                "s_mk": pa.array(out_s, pa.int64()),
                "trend": pa.array(trend.tolist(), pa.string()),
            }
        )

    return map_groups_partitioned(
        z.map_batches(keyed, batch_format="pyarrow"), "cell", per_part
    )


_HAUS_TOPN = 5  # trajectory-similarity cohort: top-N users per city


@query(sql=f"""
WITH cnt AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY 1),
top5 AS (
  SELECT user_id, user_id % 12 AS city, n
  FROM cnt
  QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id % 12
                             ORDER BY n DESC, user_id) <= {_HAUS_TOPN}),
prs AS (
  SELECT a.city, a.user_id AS ua, b.user_id AS ub, a.n AS n_a, b.n AS n_b
  FROM top5 a JOIN top5 b
    ON b.city = a.city AND b.user_id > a.user_id),
pts AS (
  SELECT e.user_id, e.event_id,
         {CONTACT_LAT_SQL.replace('user_id', 'e.user_id').replace('event_id', 'e.event_id')} AS lat,
         {CONTACT_LON_SQL.replace('user_id', 'e.user_id').replace('event_id', 'e.event_id')} AS lon
  FROM events e JOIN top5 t ON t.user_id = e.user_id),
d1 AS (
  SELECT p.city, p.ua, p.ub, xa.event_id,
         MIN((xa.lat - xb.lat) * (xa.lat - xb.lat)
               + (xa.lon - xb.lon) * (xa.lon - xb.lon)) AS md
  FROM prs p
  JOIN pts xa ON xa.user_id = p.ua
  JOIN pts xb ON xb.user_id = p.ub
  GROUP BY 1, 2, 3, 4),
h1 AS (SELECT city, ua, ub, MAX(md) AS dab FROM d1 GROUP BY 1, 2, 3),
d2_ AS (
  SELECT p.city, p.ua, p.ub, xb.event_id,
         MIN((xb.lat - xa.lat) * (xb.lat - xa.lat)
               + (xb.lon - xa.lon) * (xb.lon - xa.lon)) AS md
  FROM prs p
  JOIN pts xb ON xb.user_id = p.ub
  JOIN pts xa ON xa.user_id = p.ua
  GROUP BY 1, 2, 3, 4),
h2 AS (SELECT city, ua, ub, MAX(md) AS dba FROM d2_ GROUP BY 1, 2, 3)
SELECT p.city, p.ua AS uid_a, p.ub AS uid_b, p.n_a, p.n_b,
       GREATEST(h1.dab, h2.dba) AS hausdorff_sq
FROM prs p
JOIN h1 ON h1.city = p.city AND h1.ua = p.ua AND h1.ub = p.ub
JOIN h2 ON h2.city = p.city AND h2.ua = p.ua AND h2.ub = p.ub
""")
def events_traj_hausdorff(sf_dir: str):
    """TRAJECTORY SIMILARITY — pairwise HAUSDORFF distance between the
    top-{N} most-active users' tracks within each home city (the
    trajectory-mining primitive behind route clustering / anomalous-track
    detection; gyration and MSD above describe ONE track, this compares
    TWO). Hausdorff is inherently quadratic in track points, so the
    operator bounds the cohort BY CONSTRUCTION: a distributed grouped
    top-{N}-per-city over the user activity counts picks <=60 users
    (tie-break lowest uid), every qualifying PAIR gets its own key, each
    selected user's points replicate to that user's <= {N}-1 same-city
    pair keys, and ONE pair-keyed shuffle co-locates both tracks so the
    max-min fold runs vectorized inside the task — points never reach
    the driver (only the <=60-row cohort and <=120-row result do).
    Exactness: squared-degree point distances, min/max folds only (both
    order-free over exact doubles), zero rounding anywhere."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def ukey(b: pa.Table) -> pa.Table:
        return pa.table(
            {"key": pa.array(
                b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
                pa.uint64())}
        )

    counts = count_by_u64(
        ds.map_batches(ukey, batch_format="pyarrow", batch_size=131072),
        "key",
    )

    def with_city(b: pa.Table) -> pa.Table:
        u = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "city": pa.array(u % 12, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "n": b["cnt"],
            }
        )

    def top_per_city(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {"city": pa.array([], pa.int64()),
                 "user_id": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64())}
            )
        city = g["city"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, -n, city))
        city, uid, n = city[order], uid[order], n[order]
        starts = np.nonzero(np.r_[True, city[1:] != city[:-1]])[0]
        rank = np.arange(len(city)) - np.repeat(
            starts, np.diff(np.append(starts, len(city))))
        keep = rank < _HAUS_TOPN
        return pa.table(
            {"city": pa.array(city[keep], pa.int64()),
             "user_id": pa.array(uid[keep], pa.int64()),
             "n": pa.array(n[keep], pa.int64())}
        )

    cohort = _collect_table(  # <= 12 * N rows BY CONSTRUCTION
        map_groups_partitioned(
            counts.map_batches(with_city, batch_format="pyarrow"),
            "city", top_per_city,
        )
    )
    ccity = cohort["city"].to_numpy(zero_copy_only=False)
    cuid = cohort["user_id"].to_numpy(zero_copy_only=False)
    cn = cohort["n"].to_numpy(zero_copy_only=False)
    pairs = []  # (pair_id, city, ua, ub, na, nb)
    member: dict = {}  # uid -> [(pair_id, side)]
    for c in np.unique(ccity):
        idx = np.nonzero(ccity == c)[0]
        idx = idx[np.argsort(cuid[idx])]
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                pid = len(pairs)
                a, b = idx[i], idx[j]
                pairs.append((pid, int(c), int(cuid[a]), int(cuid[b]),
                              int(cn[a]), int(cn[b])))
                member.setdefault(int(cuid[a]), []).append((pid, 0))
                member.setdefault(int(cuid[b]), []).append((pid, 1))
    if not pairs:
        return pa.table(
            {
                "city": pa.array([], pa.int64()),
                "uid_a": pa.array([], pa.int64()),
                "uid_b": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "hausdorff_sq": pa.array([], pa.float64()),
            }
        )
    pair_meta = {p[0]: p[1:] for p in pairs}

    ev = _read(sf_dir, "events", ["event_id", "user_id"])

    def replicate(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # vectorized membership expansion: mask selected users, then loop
        # over the <=60 cohort entries (not over rows)
        out_p, out_s, out_la, out_lo = [], [], [], []
        lat, lon = _contact_coords(eid, uid)
        for u, mships in member.items():
            m = uid == u
            if not m.any():
                continue
            for pid, side in mships:
                out_p.append(np.full(int(m.sum()), pid, np.int64))
                out_s.append(np.full(int(m.sum()), side, np.int8))
                out_la.append(lat[m])
                out_lo.append(lon[m])
        if not out_p:
            return pa.table(
                {
                    "pair": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "lat": pa.array([], pa.float64()),
                    "lon": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "pair": pa.array(np.concatenate(out_p), pa.int64()),
                "side": pa.array(np.concatenate(out_s), pa.int8()),
                "lat": pa.array(np.concatenate(out_la), pa.float64()),
                "lon": pa.array(np.concatenate(out_lo), pa.float64()),
            }
        )

    rep = ev.map_batches(replicate, batch_format="pyarrow", batch_size=65536)

    def per_pair(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "city": pa.array([], pa.int64()),
                "uid_a": pa.array([], pa.int64()),
                "uid_b": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "hausdorff_sq": pa.array([], pa.float64()),
            }
        )
        if g.num_rows == 0:
            return empty
        pid = g["pair"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        lat = g["lat"].to_numpy(zero_copy_only=False)
        lon = g["lon"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, pid))
        pid, side, lat, lon = pid[order], side[order], lat[order], lon[order]
        starts = np.nonzero(np.r_[True, pid[1:] != pid[:-1]])[0]
        ends = np.append(starts[1:], len(pid))
        rows = []
        for s, e in zip(starts, ends):  # <= 120 pairs repo-wide
            a = side[s:e] == 0
            la, lo = lat[s:e], lon[s:e]
            xa, ya = la[a], lo[a]
            xb, yb = la[~a], lo[~a]
            if len(xa) == 0 or len(xb) == 0:
                continue
            dla = xa[:, None] - xb[None, :]
            dlo = ya[:, None] - yb[None, :]
            d2 = dla * dla + dlo * dlo
            h = max(float(d2.min(axis=1).max()), float(d2.min(axis=0).max()))
            city, ua, ub, na, nb = pair_meta[int(pid[s])]
            rows.append((city, ua, ub, na, nb, h))
        if not rows:
            return empty
        return pa.table(
            {
                "city": pa.array([r[0] for r in rows], pa.int64()),
                "uid_a": pa.array([r[1] for r in rows], pa.int64()),
                "uid_b": pa.array([r[2] for r in rows], pa.int64()),
                "n_a": pa.array([r[3] for r in rows], pa.int64()),
                "n_b": pa.array([r[4] for r in rows], pa.int64()),
                "hausdorff_sq": pa.array([r[5] for r in rows], pa.float64()),
            }
        )

    return map_groups_partitioned(rep, "pair", per_pair)


_COR_CELL_MILLI = 10000  # 10-degree corridor raster cells


@query(sql=f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         (event_id * 7919) % 140000 AS mlat,
         (event_id * 104729) % 360000 AS mlon FROM events),
legs AS (
  SELECT user_id,
         LAG(mlon) OVER w AS x0, LAG(mlat) OVER w AS y0,
         mlon AS x1, mlat AS y1
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id)),
steps AS (
  SELECT x0, y0, x1, y1,
         GREATEST(ABS(x1 // {_COR_CELL_MILLI} - x0 // {_COR_CELL_MILLI}),
                  ABS(y1 // {_COR_CELL_MILLI} - y0 // {_COR_CELL_MILLI})) AS s
  FROM legs WHERE x0 IS NOT NULL),
samples AS (
  SELECT CASE WHEN s = 0 THEN x0 // {_COR_CELL_MILLI}
              ELSE ((x0 * (s - i) + x1 * i) // s) // {_COR_CELL_MILLI} END AS gx,
         CASE WHEN s = 0 THEN y0 // {_COR_CELL_MILLI}
              ELSE ((y0 * (s - i) + y1 * i) // s) // {_COR_CELL_MILLI} END AS gy
  FROM steps, LATERAL (SELECT UNNEST(generate_series(0, s)) AS i) t)
SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS traversals
FROM samples GROUP BY 1, 2
""")
def events_corridors(sf_dir: str):
    """MOVEMENT-CORRIDOR RASTERIZATION (flow map): every consecutive-event
    travel leg is sampled onto the 10-deg grid — s+1 parametric samples
    where s = the leg's Chebyshev cell span (so samples advance ~one cell
    per step along the dominant axis) — and traversals are counted per
    cell: the "most-traveled corridors" heatmap under every flow-map /
    route-demand product. Plan: ONE hash shuffle by user (legs need
    consecutive pairing), the partition kernel builds all samples
    vectorized (repeat + offset-arange interpolation, ALL-integer:
    xi = (x0*(s-i) + x1*i) // s on positive milli-degree operands, so
    numpy floor-div == SQL // exactly) and pre-reduces to (cell, n)
    partials via np.unique; one packed-u64 sum_by_u64 finishes. Work
    scales with legs x cell span, never the grid."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"key": pa.array([], pa.uint64()),
                             "n": pa.array([], pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, eid = uid[order], eid[order]
        mlat = (eid * 7919) % 140000
        mlon = (eid * 104729) % 360000
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return pa.table({"key": pa.array([], pa.uint64()),
                             "n": pa.array([], pa.int64())})
        x0, y0 = mlon[i - 1], mlat[i - 1]
        x1, y1 = mlon[i], mlat[i]
        s = np.maximum(
            np.abs(x1 // _COR_CELL_MILLI - x0 // _COR_CELL_MILLI),
            np.abs(y1 // _COR_CELL_MILLI - y0 // _COR_CELL_MILLI),
        )
        cnt = s + 1
        off = np.concatenate([[0], np.cumsum(cnt)])
        total = off[-1]
        li = np.repeat(np.arange(len(s)), cnt)  # leg index per sample
        step = np.arange(total) - off[li]  # i within leg, 0..s
        sl = s[li]
        pos = sl > 0
        xi = np.where(
            pos,
            (x0[li] * (sl - step) + x1[li] * step) // np.maximum(sl, 1),
            x0[li],
        )
        yi = np.where(
            pos,
            (y0[li] * (sl - step) + y1[li] * step) // np.maximum(sl, 1),
            y0[li],
        )
        key = (
            (xi // _COR_CELL_MILLI) * 1024 + yi // _COR_CELL_MILLI
        ).astype(np.uint64)
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "key": pa.array(u, pa.uint64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    flows = sum_by_u64(
        map_groups_partitioned(ds, "user_id", per_part), "key", "n"
    )

    def unpack(b: pa.Table) -> pa.Table:
        key = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "gx": pa.array(key // 1024, pa.int64()),
                "gy": pa.array(key % 1024, pa.int64()),
                "traversals": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return flows.map_batches(unpack, batch_format="pyarrow")


EVENTS_OD_MATRIX_SQL = """
WITH seqd AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS seq
  FROM events),
cities AS (
  SELECT user_id, us, event_id, (user_id * 7 + seq // 20) % 12 AS city
  FROM seqd),
legs AS (
  SELECT user_id, city,
         LAG(city) OVER (PARTITION BY user_id ORDER BY us, event_id) AS pcity
  FROM cities)
SELECT CAST(pcity AS BIGINT) AS from_city, CAST(city AS BIGINT) AS to_city,
       CAST(COUNT(*) AS BIGINT) AS n_trips
FROM legs WHERE pcity IS NOT NULL AND pcity != city
GROUP BY 1, 2
"""


@query(sql=EVENTS_OD_MATRIX_SQL)
def events_od_matrix(sf_dir: str):
    """ORIGIN-DESTINATION MATRIX: counts of per-user travel legs between
    the 12 model cities (from_city -> to_city whenever consecutive events
    change city) — the flow-aggregation view transport analytics runs over
    trajectories. One hash shuffle by user; each partition reduces its legs
    to the bounded 12x12 partial (same combiner-first shape as
    events_transitions), then a tiny final groupby sums. All-integer, no
    float anywhere."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "from_city": pa.array([], pa.int64()),
            "to_city": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid = uid[order]
        n = len(uid)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ustart = np.nonzero(first)[0]
        seq = np.arange(n) - np.repeat(ustart, np.diff(np.append(ustart, n)))
        city = (uid * 7 + seq // 20) % 12
        leg = np.zeros(n, dtype=bool)
        leg[1:] = (uid[1:] == uid[:-1]) & (city[1:] != city[:-1])
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return pa.table(cols)
        key = city[i - 1] * 12 + city[i]
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "from_city": pa.array(u // 12, pa.int64()),
                "to_city": pa.array(u % 12, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return fold_table(
        map_groups_partitioned(ds, "user_id", per_part), ["from_city", "to_city"], {"n_trips": ("n", "sum")}
    )


_KCORE_KS = (2, 3, 4)
_KCORE_MAX_ROUNDS = 40  # mirrored in the SQL recursion bound; fail-loud past it


def _kcore_sql_block(k: int) -> str:
    return f"""
alive{k}(iter, u1, u2) AS (
  SELECT 0, u1, u2 FROM kedges
  UNION ALL
  SELECT e.iter + 1, e.u1, e.u2 FROM alive{k} e
  WHERE e.iter < {_KCORE_MAX_ROUNDS}
    AND {k} <= (SELECT COUNT(*) FROM alive{k} x
                WHERE x.u1 = e.u1 OR x.u2 = e.u1)
    AND {k} <= (SELECT COUNT(*) FROM alive{k} x
                WHERE x.u1 = e.u2 OR x.u2 = e.u2)),
core{k} AS (SELECT u1, u2 FROM alive{k} WHERE iter = {_KCORE_MAX_ROUNDS})"""




@query(sql=f"""
WITH RECURSIVE pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
kedges AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
{",".join(_kcore_sql_block(k) for k in _KCORE_KS)}
{" UNION ALL ".join(
    f'''SELECT CAST({k} AS BIGINT) AS k,
       CAST((SELECT COUNT(DISTINCT u) FROM
             (SELECT u1 AS u FROM core{k} UNION SELECT u2 FROM core{k}))
            AS BIGINT) AS n_users,
       CAST((SELECT COUNT(*) FROM core{k}) AS BIGINT) AS n_edges'''
    for k in _KCORE_KS
)}
ORDER BY k
""")
def events_kcore(sf_dir: str):
    """K-CORE DECOMPOSITION of the space-time contact graph (the
    cohesion ladder social-network analysis climbs after the degree
    histogram: the k-core is the maximal subgraph where every user
    still has >= k distinct contacts after everyone weaker is peeled
    away). For k in {_KCORE_KS}: iterative SIMULTANEOUS peeling — each
    round drops every vertex whose current degree < k, edges die with
    either endpoint — until a fixpoint; reports surviving user and edge
    counts per k.

    Scale shape: edges come from the contact-family shared
    materialization, made globally DISTINCT by one pair-keyed hash
    partition; each peel round is one count_by_u64 degree pass plus two
    anti lookup_joins (stages/join.py: drop set broadcast while it fits,
    distributed anti hash join above — the same two-regime
    contract as the dedup keep-list), so no round ever collects edges or
    vertices to the driver; the driver sees only per-round drop COUNTS
    and the final 3-row summary. Rounds are data-dependent but bounded:
    both sides peel simultaneously (engine loop == SQL recursion level),
    and the engine fails loud past {_KCORE_MAX_ROUNDS} rounds, exactly
    where the oracle's recursion bound sits."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_edges(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table(
            {
                "ua": pa.array((u >> np.uint64(32)).astype(np.int64), pa.int64()),
                "ub": pa.array(
                    (u & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()
                ),
            }
        )

    edges0 = map_groups_partitioned(keyed, "key", distinct_edges).materialize()
    edge_schema = pa.schema([("ua", pa.int64()), ("ub", pa.int64())])

    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    np.concatenate(
                        [
                            b["ua"].to_numpy(zero_copy_only=False),
                            b["ub"].to_numpy(zero_copy_only=False),
                        ]
                    ).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    rows = []
    for k in _KCORE_KS:
        edges = edges0
        n_edges = edges.count()
        for _ in range(_KCORE_MAX_ROUNDS + 1):
            if n_edges == 0:
                break
            deg = count_by_u64(
                edges.map_batches(endpoints, batch_format="pyarrow"), "key"
            )

            def low_deg(b: pa.Table, k=k) -> pa.Table:
                u = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
                c = b["cnt"].to_numpy(zero_copy_only=False)
                return pa.table({"u": pa.array(u[c < k], pa.int64())})

            bad = deg.map_batches(low_deg, batch_format="pyarrow")
            n_bad = bad.count()
            if n_bad == 0:
                break
            bad = bad.materialize()

            def a_as_u(b: pa.Table) -> pa.Table:
                return pa.table({"u": b["ua"], "ub": b["ub"]})

            def back_from_u(b: pa.Table) -> pa.Table:
                return pa.table({"ub": b["u"], "ua": b["ua"]})

            def b_as_u(b: pa.Table) -> pa.Table:
                return pa.table({"u": b["ub"], "ua": b["ua"]})

            def back_to_edges(b: pa.Table) -> pa.Table:
                return pa.table({"ua": b["ua"], "ub": b["u"]})

            u_schema_a = pa.schema([("u", pa.int64()), ("ub", pa.int64())])
            u_schema_b = pa.schema([("u", pa.int64()), ("ua", pa.int64())])
            edges = lookup_join(
                edges.map_batches(a_as_u, batch_format="pyarrow"),
                bad, on="u", how="anti", left_schema=u_schema_a,
            ).map_batches(
                lambda b: pa.table({"ua": b["u"], "ub": b["ub"]}),
                batch_format="pyarrow",
            )
            edges = lookup_join(
                edges.map_batches(b_as_u, batch_format="pyarrow"),
                bad, on="u", how="anti", left_schema=u_schema_b,
            ).map_batches(back_to_edges, batch_format="pyarrow").materialize()
            n_edges = edges.count()
        else:
            raise RuntimeError(
                f"k-core peel did not converge in {_KCORE_MAX_ROUNDS} rounds"
            )
        if n_edges == 0:
            rows.append((k, 0, 0))
            continue
        n_users = count_by_u64(
            edges.map_batches(endpoints, batch_format="pyarrow"), "key"
        ).count()
        rows.append((k, n_users, n_edges))
    return pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "n_users": pa.array([r[1] for r in rows], pa.int64()),
            "n_edges": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


@query(sql="""
WITH seqd AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS seq
  FROM events),
cities AS (
  SELECT user_id, us, event_id,
         (user_id * 7 + (seq // 20) * (seq // 20)) % 12 AS city
  FROM seqd),
legs AS (
  SELECT user_id, city,
         LAG(city) OVER (PARTITION BY user_id ORDER BY us, event_id) AS pcity
  FROM cities),
od AS (
  SELECT CAST(pcity AS BIGINT) AS f, CAST(city AS BIGINT) AS t,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM legs WHERE pcity IS NOT NULL AND pcity != city
  GROUP BY 1, 2),
r AS (
  SELECT a.f, a.t, a.n, COALESCE(b.n, 0) AS rn
  FROM od a LEFT JOIN od b ON b.f = a.t AND b.t = a.f)
SELECT CAST(COUNT(*) AS BIGINT) AS n_dir_edges,
       CAST(SUM(CASE WHEN rn > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_recip_edges,
       ROUND(CAST(SUM(CASE WHEN rn > 0 THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS recip_edge,
       CAST(SUM(n) AS BIGINT) AS total_flow,
       ROUND(CAST(SUM(LEAST(n, rn)) AS DOUBLE)
             / CAST(SUM(n) AS DOUBLE), 6) AS flow_recip
FROM r
""")
def events_od_reciprocity(sf_dir: str):
    """FLOW RECIPROCITY of an origin-destination matrix (directed-network
    structure the OD counts alone don't show: is travel tidal or
    balanced?). Unweighted: the fraction of directed city->city edges
    whose reverse edge exists; weighted (Squartini-Garlaschelli): the
    fraction of total flow that is reciprocated, sum(min(n_ab, n_ba)) /
    sum(n_ab) over DIRECTED edges. The city walk here is the QUADRATIC
    block hop (user_id*7 + block^2) % 12 — deliberately NOT the
    constant-step walk events_od_matrix uses, because a constant-step
    ring is one-way by construction (every leg is (c, c+k)) and its
    reciprocity is identically zero; the quadratic hop's step 2b+1 mod 12
    varies, so genuine two-way flows exist to measure. Same plan shape as
    od_matrix: one user-keyed shuffle, each partition reduces its legs to
    the bounded 12x12 partial, and the reciprocity fold is driver
    arithmetic over <=132 rows — bounded at ANY corpus scale."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "from_city": pa.array([], pa.int64()),
            "to_city": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid = uid[order]
        n = len(uid)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ustart = np.nonzero(first)[0]
        seq = np.arange(n) - np.repeat(ustart, np.diff(np.append(ustart, n)))
        blk = seq // 20
        city = (uid * 7 + blk * blk) % 12
        leg = np.zeros(n, dtype=bool)
        leg[1:] = (uid[1:] == uid[:-1]) & (city[1:] != city[:-1])
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return pa.table(cols)
        key = city[i - 1] * 12 + city[i]
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "from_city": pa.array(u // 12, pa.int64()),
                "to_city": pa.array(u % 12, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    od = fold_table(
        map_groups_partitioned(ds, "user_id", per_part), ["from_city", "to_city"], {"n_trips": ("n", "sum")}
    )
    f = od["from_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = od["to_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = od["n_trips"].to_numpy(zero_copy_only=False).astype(np.int64)
    fwd = {(a, b): c for a, b, c in zip(f, t, n)}
    rev = np.asarray([fwd.get((b, a), 0) for a, b in zip(f, t)], np.int64)
    n_dir = len(n)
    n_recip = int((rev > 0).sum())
    total = int(n.sum())
    recip_flow = int(np.minimum(n, rev).sum())
    return pa.table(
        {
            "n_dir_edges": pa.array([n_dir], pa.int64()),
            "n_recip_edges": pa.array([n_recip], pa.int64()),
            "recip_edge": pa.array(
                sql_round_np([n_recip / np.float64(n_dir)], 6), pa.float64()
            ),
            "total_flow": pa.array([total], pa.int64()),
            "flow_recip": pa.array(
                sql_round_np([recip_flow / np.float64(total)], 6), pa.float64()
            ),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
kedges AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
deg AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS d
        FROM (SELECT u1 AS u FROM kedges UNION ALL SELECT u2 FROM kedges)
        GROUP BY 1),
tri AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS t
  FROM kedges e1
  JOIN kedges e2 ON e2.u1 = e1.u1 AND e2.u2 > e1.u2
  JOIN kedges e3 ON e3.u1 = e1.u2 AND e3.u2 = e2.u2),
w AS (SELECT CAST(COALESCE(SUM(d * (d - 1) // 2), 0) AS BIGINT) AS w FROM deg)
SELECT CAST((SELECT COUNT(*) FROM kedges) AS BIGINT) AS n_edges,
       w.w AS n_wedges, tri.t AS n_triangles,
       CASE WHEN w.w > 0 THEN ROUND(3.0 * tri.t / w.w, 6) END AS gcc
FROM w, tri
""")
def events_triangles(sf_dir: str):
    """TRIANGLE COUNT + GLOBAL CLUSTERING COEFFICIENT of the contact
    graph (the graph-analytics staple the degree/assortativity/k-core
    family still lacked; gcc = 3*triangles / wedges). The algorithm is
    the published skew-resistant one (Suri & Vassilvitskii WWW'11 /
    Cohen's MapReduce curve): orient every distinct edge from its
    lower-(degree, id) endpoint to the higher one — out-degrees are then
    O(sqrt(m)) so no hub vertex quadratically blows a partition — emit
    per-source out-neighbor pairs (wedges) inside a source-keyed
    partition, and close them against the edge set with one packed-key
    union shuffle. Every triangle is counted exactly once (the
    orientation is acyclic: each triangle has a unique source that
    out-points to the other two).

    Driver traffic: per-partition closure COUNTS, the degree-moment
    partials, and the one-row result — never edges, wedges, or nodes.
    Degrees attach to both endpoints via two distributed hash_joins (the
    degree table is O(nodes) and never collected). SQL mirror: the
    min-vertex-ordered 3-way self-join over the same DISTINCT edge set —
    a different enumeration order of the same triangle set, so agreement
    checks the count, not the plan."""
    pairs = _contact_pairs_ds(sf_dir)

    def unpack_edge(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "u1": pa.array((k >> np.uint64(32)).astype(np.int64),
                               pa.int64()),
                "u2": pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64),
                               pa.int64()),
            }
        )

    e = (
        count_by_u64(
            pairs.map_batches(_pack_user_pairs, batch_format="pyarrow"), "key"
        )
        .map_batches(unpack_edge, batch_format="pyarrow")
        .materialize()  # consumed by count, degrees, orientation, closure
    )
    n_edges = e.count()

    def endpoints(b: pa.Table) -> pa.Table:
        u1 = b["u1"].to_numpy(zero_copy_only=False).astype(np.uint64)
        u2 = b["u2"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"key": pa.array(np.concatenate([u1, u2]), pa.uint64())})

    deg = count_by_u64(
        e.map_batches(endpoints, batch_format="pyarrow"), "key"
    ).map_batches(
        lambda b: pa.table(
            {
                "u": b["key"].cast(pa.int64()),
                "d": b["cnt"],
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    wpart = _collect_table(
        deg.map_batches(
            lambda b: pa.table(
                {
                    "w": pa.array(
                        [
                            int(
                                (
                                    lambda d: (d * (d - 1) // 2).sum()
                                )(
                                    b["d"].to_numpy(zero_copy_only=False).astype(
                                        np.int64
                                    )
                                )
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
    )
    n_wedges = int(wpart["w"].to_numpy(zero_copy_only=False).sum()) if wpart.num_rows else 0

    esch = pa.schema([("u1", pa.int64()), ("u2", pa.int64())])
    d1 = deg.map_batches(
        lambda b: pa.table({"u": b["u"], "d1": b["d"]}), batch_format="pyarrow"
    )
    d2 = deg.map_batches(
        lambda b: pa.table({"u": b["u"], "d2": b["d"]}), batch_format="pyarrow"
    )
    dsch1 = pa.schema([("u", pa.int64()), ("d1", pa.int64())])
    dsch2 = pa.schema([("u", pa.int64()), ("d2", pa.int64())])
    j = hash_join(e, d1, on="u1", right_on="u", how="inner",
                  left_schema=esch, right_schema=dsch1)
    jsch = pa.schema([("u1", pa.int64()), ("u2", pa.int64()),
                      ("d1", pa.int64())])
    j = hash_join(j, d2, on="u2", right_on="u", how="inner",
                  left_schema=jsch, right_schema=dsch2)

    def orient(b: pa.Table) -> pa.Table:
        u1 = b["u1"].to_numpy(zero_copy_only=False).astype(np.int64)
        u2 = b["u2"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = b["d1"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = b["d2"].to_numpy(zero_copy_only=False).astype(np.int64)
        first = (da < db) | ((da == db) & (u1 < u2))
        src = np.where(first, u1, u2)
        dst = np.where(first, u2, u1)
        return pa.table(
            {
                "key": pa.array(src.astype(np.uint64), pa.uint64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    oriented = j.map_batches(orient, batch_format="pyarrow")

    def pack_edges(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    (
                        b["u1"].to_numpy(zero_copy_only=False).astype(np.uint64)
                        << np.uint64(32)
                    )
                    | b["u2"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    # Two value-identical closure regimes (the lookup_join rule): the
    # DISTINCT edge-key set is tiny relative to the wedge volume (8 bytes
    # an edge), so while it fits join.BROADCAST_MAX_BYTES it broadcasts
    # once and every wedge closes INSIDE its source partition (the
    # 10M-wedge union shuffle disappears); above it wedges + edge markers
    # co-partition by pair key and close distributedly.
    ekeys = e.map_batches(pack_edges, batch_format="pyarrow").materialize()
    broadcast = fits_broadcast(ekeys)
    sorted_keys = None
    if broadcast:
        et = _collect_table(ekeys)
        sorted_keys = np.sort(
            et["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )

    def wedge_rows(g: pa.Table, ek=sorted_keys) -> pa.Table:
        src = g["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = g["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        new = np.r_[True, src[1:] != src[:-1]]
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(src))
        out = []
        for s, t in zip(starts, ends):
            nb = dst[s:t]
            if len(nb) < 2:
                continue
            ii, jj = np.triu_indices(len(nb), k=1)
            a, bb = nb[ii], nb[jj]
            lo = np.minimum(a, bb).astype(np.uint64)
            hi = np.maximum(a, bb).astype(np.uint64)
            out.append((lo << np.uint64(32)) | hi)
        keys = np.concatenate(out) if out else np.zeros(0, np.uint64)
        if broadcast:
            closed = 0
            if len(keys) and len(ek):
                pos = np.searchsorted(ek, keys)
                inb = pos < len(ek)
                closed = int((ek[pos[inb]] == keys[inb]).sum())
            return pa.table({"t": pa.array([closed], pa.int64())})
        return pa.table(
            {
                "key": pa.array(keys, pa.uint64()),
                "kind": pa.array(np.zeros(len(keys), np.int8), pa.int8()),
            }
        )

    if broadcast:
        tpart = _collect_table(
            map_groups_partitioned(oriented, "key", wedge_rows)
        )
    else:
        wedges = map_groups_partitioned(oriented, "key", wedge_rows)
        edge_keys = ekeys.map_batches(
            lambda b: b.append_column(
                "kind", pa.array(np.ones(b.num_rows, np.int8), pa.int8())
            ),
            batch_format="pyarrow",
        )

        def closure_count(g: pa.Table) -> pa.Table:
            k = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
            kind = g["kind"].to_numpy(zero_copy_only=False)
            order = np.argsort(k, kind="stable")
            k, kind = k[order], kind[order]
            new = np.r_[True, k[1:] != k[:-1]]
            seg = np.cumsum(new) - 1
            n_grp = int(seg[-1]) + 1 if len(seg) else 0
            n_wedge = np.zeros(n_grp, np.int64)
            has_edge = np.zeros(n_grp, bool)
            np.add.at(n_wedge, seg[kind == 0], 1)
            has_edge[seg[kind == 1]] = True
            return pa.table(
                {"t": pa.array([int(n_wedge[has_edge].sum())], pa.int64())}
            )

        tpart = _collect_table(
            map_groups_partitioned(wedges.union(edge_keys), "key", closure_count)
        )
    n_tri = int(tpart["t"].to_numpy(zero_copy_only=False).sum()) if tpart.num_rows else 0
    gcc = (
        float(sql_round_np(3.0 * n_tri / n_wedges, 6)) if n_wedges > 0 else None
    )
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_wedges": pa.array([n_wedges], pa.int64()),
            "n_triangles": pa.array([n_tri], pa.int64()),
            "gcc": pa.array([gcc], pa.float64()),
        }
    )


@query(sql=f"SELECT * FROM read_parquet('{_DGD}/frechet_pairs.parquet')")
def events_frechet_pairs(sf_dir: str):
    """DISCRETE FRECHET DISTANCE between same-home-city trajectory pairs
    (Eiter & Mannila 1994 — the coupled-walk trajectory similarity that,
    unlike events_traj_hausdorff's set distance, respects point ORDER:
    two users tracing the same loop in opposite directions are
    Hausdorff-identical but Frechet-far). Each user's trajectory is its
    first {_FRECHET_K} points in (ts, event_id) order on the INTEGER
    milli-degree lattice of the seq-varying city spec — with k <= 20 the
    truncated track stays in its s=0 home city (s // 20 == 0), so the
    spec's constant city/user offsets cancel in every coordinate
    difference and all squared distances are EXACT int64; the DP
    F[i,j] = max(d[i,j], min(F[i-1,j], F[i,j-1], F[i-1,j-1])) is pure
    integer max/min, so no float enters either side.

    Scale shape: one user-keyed partition builds each trajectory
    (sort + truncate, one row per user with list<int64> coords); one
    city-keyed partition then runs the DP over ALL of a city's pairs at
    once — a (pairs, k, k) tensor walked in k^2 VECTORIZED steps (the
    per-cell recursion is sequential in (i,j) but embarrassingly
    parallel across pairs; variable lengths read their answer at
    (n_a-1, n_b-1), unaffected by the padded tail since F[i,j] only
    looks down-left). Per-city quadratic fanout is capped fail-soft at
    the {_FRECHET_MAX_USERS} lowest user_ids (mirrored in the golden).
    Oracle: independent dict/loop DP golden parquet (the
    doc_minhash_pairs pattern)."""
    _ensure_docs_golden(sf_dir)
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def build_tracks(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "city": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "xs": pa.array([], pa.list_(pa.int64())),
                "ys": pa.array([], pa.list_(pa.int64())),
            }
        )
        if g.num_rows == 0:
            return empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        u, e = uid[order], eid[order]
        starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
        ends = np.append(starts[1:], len(u))
        users, ns, xs, ys = [], [], [], []
        for s, t in zip(starts, ends):
            uu = int(u[s])
            ee = e[s : min(t, s + _FRECHET_K)]
            city = (uu * 7) % 12
            x = ((city * 104729) % 340000) + ((uu * 104729) % 2001) + ((ee * 29) % 1001)
            y = ((city * 11003) % 120000) + ((uu * 7919) % 2001) + ((ee * 13) % 1001)
            users.append(uu)
            ns.append(len(ee))
            xs.append(x.tolist())
            ys.append(y.tolist())
        return pa.table(
            {
                "city": pa.array([(uu * 7) % 12 for uu in users], pa.int64()),
                "user_id": pa.array(users, pa.int64()),
                "n": pa.array(ns, pa.int64()),
                "xs": pa.array(xs, pa.list_(pa.int64())),
                "ys": pa.array(ys, pa.list_(pa.int64())),
            }
        )

    tracks = map_groups_partitioned(ds, "user_id", build_tracks)

    def dp_city(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_lo": pa.array([], pa.int64()),
                "user_hi": pa.array([], pa.int64()),
                "n_lo": pa.array([], pa.int64()),
                "n_hi": pa.array([], pa.int64()),
                "frechet_sq": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        cities = g["city"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nn = g["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        K = _FRECHET_K
        nrow = g.num_rows
        X = np.zeros((nrow, K), np.int64)
        Y = np.zeros((nrow, K), np.int64)
        for r, (xl, yl) in enumerate(zip(g["xs"].to_pylist(), g["ys"].to_pylist())):
            X[r, : len(xl)] = xl
            Y[r, : len(yl)] = yl
        out_lo, out_hi, out_nl, out_nh, out_f = [], [], [], [], []
        order = np.lexsort((uid, cities))
        cities_o, idx_o = cities[order], order
        cstarts = np.nonzero(np.r_[True, cities_o[1:] != cities_o[:-1]])[0]
        cends = np.append(cstarts[1:], len(cities_o))
        for cs, ce in zip(cstarts, cends):
            rows = idx_o[cs : min(ce, cs + _FRECHET_MAX_USERS)]
            m = len(rows)
            if m < 2:
                continue
            ai, bi = np.triu_indices(m, 1)
            ra, rb = rows[ai], rows[bi]
            # (pairs, K, K) exact squared distances
            dx = X[ra][:, :, None] - X[rb][:, None, :]
            dy = Y[ra][:, :, None] - Y[rb][:, None, :]
            D = dx * dx + dy * dy
            F = np.empty_like(D)
            F[:, 0, 0] = D[:, 0, 0]
            for j in range(1, K):
                F[:, 0, j] = np.maximum(F[:, 0, j - 1], D[:, 0, j])
            for i in range(1, K):
                F[:, i, 0] = np.maximum(F[:, i - 1, 0], D[:, i, 0])
                for j in range(1, K):
                    F[:, i, j] = np.maximum(
                        D[:, i, j],
                        np.minimum(
                            np.minimum(F[:, i - 1, j], F[:, i, j - 1]),
                            F[:, i - 1, j - 1],
                        ),
                    )
            na, nb_ = nn[ra], nn[rb]
            ans = F[np.arange(len(ra)), na - 1, nb_ - 1]
            out_lo.append(uid[ra])
            out_hi.append(uid[rb])
            out_nl.append(na)
            out_nh.append(nb_)
            out_f.append(ans)
        if not out_lo:
            return empty
        return pa.table(
            {
                "user_lo": pa.array(np.concatenate(out_lo), pa.int64()),
                "user_hi": pa.array(np.concatenate(out_hi), pa.int64()),
                "n_lo": pa.array(np.concatenate(out_nl), pa.int64()),
                "n_hi": pa.array(np.concatenate(out_nh), pa.int64()),
                "frechet_sq": pa.array(np.concatenate(out_f), pa.int64()),
            }
        )

    return map_groups_partitioned(tracks, "city", dp_city)


_HITS_ITERS = 4
_HITS_SCALE = 1_000_000


def _hits_sql() -> str:
    parts = []
    prev_h = "h0"
    for k in range(1, _HITS_ITERS + 1):
        # AS MATERIALIZED is load-bearing: DuckDB inlines plain CTEs, and
        # each iteration references the previous one twice (the value rows
        # + the MAX subquery) — inlined, the expansion is exponential and
        # re-opens the parquet hundreds of times ("too many open files")
        parts.append(
            f"""a{k}r AS MATERIALIZED (
  SELECT f.to_city AS city, CAST(SUM(f.n_trips * {prev_h}.v) AS BIGINT) AS v
  FROM flows f JOIN {prev_h} ON {prev_h}.city = f.from_city GROUP BY 1),
a{k}f AS MATERIALIZED (SELECT c.city, COALESCE(r.v, 0) AS v
  FROM cities c LEFT JOIN a{k}r r ON r.city = c.city),
a{k} AS MATERIALIZED (SELECT city, (v * {_HITS_SCALE})
  // NULLIF((SELECT MAX(v) FROM a{k}f), 0) AS v FROM a{k}f),
h{k}r AS MATERIALIZED (
  SELECT f.from_city AS city, CAST(SUM(f.n_trips * a{k}.v) AS BIGINT) AS v
  FROM flows f JOIN a{k} ON a{k}.city = f.to_city GROUP BY 1),
h{k}f AS MATERIALIZED (SELECT c.city, COALESCE(r.v, 0) AS v
  FROM cities c LEFT JOIN h{k}r r ON r.city = c.city),
h{k} AS MATERIALIZED (SELECT city, (v * {_HITS_SCALE})
  // NULLIF((SELECT MAX(v) FROM h{k}f), 0) AS v FROM h{k}f)"""
        )
        prev_h = f"h{k}"
    iters = ",\n".join(parts)
    return f"""
WITH flows AS MATERIALIZED ({EVENTS_OD_MATRIX_SQL}),
cities AS MATERIALIZED (
  SELECT DISTINCT city FROM (
    SELECT from_city AS city FROM flows
    UNION ALL SELECT to_city FROM flows)),
h0 AS MATERIALIZED (SELECT city, CAST({_HITS_SCALE} AS BIGINT) AS v FROM cities),
{iters}
SELECT c.city, h.v AS hub, a.v AS auth
FROM cities c
JOIN h{_HITS_ITERS} h ON h.city = c.city
JOIN a{_HITS_ITERS} a ON a.city = c.city
ORDER BY c.city
"""




@query(sql=_hits_sql())
def events_hits(sf_dir: str):
    """HITS HUBS & AUTHORITIES (Kleinberg, JACM'99) over the directed
    origin->destination city-flow graph — which cities FEED the
    network's top destinations (hubs) and which cities ARE those
    destinations (authorities). The weighted adjacency is the OD flow
    matrix from events_od_matrix's leg derivation; 4 synchronous
    a = W^T h / h = W a half-steps follow, each renormalized to a
    1e6 micro grid.

    Float-free parity: scores live on an INTEGER micro grid end to end
    — every half-step is an exact integer weighted sum (order-free, so
    numpy/Python vs SQL GROUP-BY sum order cannot diverge) followed by
    floor((v * 1e6) / max(v)); values are non-negative, so DuckDB's
    truncating ``//`` IS floor and both engines land on the same
    integer. The SQL mirror unrolls the 4 iterations as CTE pairs
    over the same flows CTE (events_od_matrix's SQL verbatim).
    Fail-loud: a pre-normalization sum at/above 2^62 raises on the Ray
    side before SQL's CAST(... AS BIGINT) would error at 2^63 —
    neither engine silently wraps.

    Scale shape: the leg derivation + flow aggregation is the
    distributed part (one user-hash shuffle with bounded 12x12
    per-partition combiners — events_od_matrix's shape); the power
    iteration itself runs on the driver over the BOUNDED city graph
    (#cities is a model constant, the same driver-side contract as the
    other city-matrix ops). The iteration over an UNBOUNDED node set is
    emb_pagerank's sharded path — documented there."""
    flows = events_od_matrix(sf_dir)
    if flows.num_rows == 0:
        return pa.table(
            {
                "city": pa.array([], pa.int64()),
                "hub": pa.array([], pa.int64()),
                "auth": pa.array([], pa.int64()),
            }
        )
    fc = flows["from_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    tc = flows["to_city"].to_numpy(zero_copy_only=False).astype(np.int64)
    w = flows["n_trips"].to_numpy(zero_copy_only=False).astype(np.int64)
    cities = np.unique(np.concatenate([fc, tc]))
    lookup = {int(c): i for i, c in enumerate(cities)}
    fi = [lookup[int(c)] for c in fc]
    ti = [lookup[int(c)] for c in tc]
    wl = [int(x) for x in w]
    n = len(cities)
    # Python-int arithmetic (exact, unbounded) over the <=144-edge graph;
    # the guard keeps the trajectory inside SQL's BIGINT so the mirror
    # cannot silently diverge
    h = [_HITS_SCALE] * n
    a = [0] * n
    for _ in range(_HITS_ITERS):
        a = [0] * n
        for e, we in enumerate(wl):
            a[ti[e]] += we * h[fi[e]]
        mx = max(a)
        if mx >= 1 << 62:
            raise ValueError(
                "events_hits: authority sum >= 2^62 — flow weights too "
                "large for the int64 micro grid; coarsen the weights"
            )
        if mx > 0:
            a = [(v * _HITS_SCALE) // mx for v in a]
        h = [0] * n
        for e, we in enumerate(wl):
            h[fi[e]] += we * a[ti[e]]
        mx = max(h)
        if mx >= 1 << 62:
            raise ValueError(
                "events_hits: hub sum >= 2^62 — flow weights too "
                "large for the int64 micro grid; coarsen the weights"
            )
        if mx > 0:
            h = [(v * _HITS_SCALE) // mx for v in h]
    return pa.table(
        {
            "city": pa.array(cities, pa.int64()),
            "hub": pa.array(h, pa.int64()),
            "auth": pa.array(a, pa.int64()),
        }
    ).sort_by("city")


_DSG_MAX_ROUNDS = 40  # mirrored in the SQL recursion bound; fail-loud past it


@query(sql=f"""
WITH RECURSIVE pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
kedges AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
dsg(iter, u1, u2) AS (
  SELECT 0, u1, u2 FROM kedges
  UNION ALL
  SELECT e.iter + 1, e.u1, e.u2 FROM dsg e
  WHERE e.iter < {_DSG_MAX_ROUNDS}
    AND (SELECT COUNT(*) FROM dsg x
         WHERE x.u1 = e.u1 OR x.u2 = e.u1)
        * (SELECT COUNT(DISTINCT u) FROM
           (SELECT u1 AS u FROM dsg UNION SELECT u2 FROM dsg))
        > 4 * (SELECT COUNT(*) FROM dsg)
    AND (SELECT COUNT(*) FROM dsg x
         WHERE x.u1 = e.u2 OR x.u2 = e.u2)
        * (SELECT COUNT(DISTINCT u) FROM
           (SELECT u1 AS u FROM dsg UNION SELECT u2 FROM dsg))
        > 4 * (SELECT COUNT(*) FROM dsg)),
re AS (SELECT iter, CAST(COUNT(*) AS BIGINT) AS e FROM dsg GROUP BY 1),
rv AS (SELECT iter, CAST(COUNT(DISTINCT u) AS BIGINT) AS v FROM
       (SELECT iter, u1 AS u FROM dsg UNION SELECT iter, u2 FROM dsg)
       GROUP BY 1),
rounds AS (SELECT re.iter, re.e, rv.v FROM re JOIN rv USING (iter))
SELECT CAST(r.iter AS BIGINT) AS best_iter, r.v AS n_users, r.e AS n_edges,
       (r.e * 1000000) // r.v AS density_micro
FROM rounds r
WHERE NOT EXISTS (SELECT 1 FROM rounds s
                  WHERE s.e * r.v > r.e * s.v
                     OR (s.e * r.v = r.e * s.v AND s.iter < r.iter))
""")
def events_densest_subgraph(sf_dir: str):
    """DENSEST-SUBGRAPH EXTRACTION by greedy threshold peeling (Charikar
    APPROX'00 objective E/V; the O(log V)-round batch-peeling variant of
    Bahmani/Kumar/Vassilvitskii VLDB'12 with epsilon = 1): each round
    SIMULTANEOUSLY removes every vertex whose degree * V <= 4 * E (twice
    the average degree) — survivors carry > 2x average degree, so the
    vertex set at least HALVES every round (the convergence proof, not a
    heuristic): the loop is structurally <= log2(V) rounds and the graph
    empties. The answer is the round whose snapshot maximizes E/V — a
    2(1+eps) = 4-approximation of the true densest subgraph.

    All-integer parity: the peel test (deg * V <= 4E) and the best-round
    argmax (E_a * V_b > E_b * V_a cross-multiplication, ties -> earliest
    round) are exact int64 comparisons — no density float is ever
    compared; density_micro is one final floor division. Fail-loud past
    {_DSG_MAX_ROUNDS} rounds (unreachable under the halving bound unless
    the peel rule itself is broken) — the SQL recursion stops at the
    same bound.

    Scale shape: the events_kcore contract — edges from the
    contact-family shared materialization made DISTINCT by one pair-hash
    partition; each round is one count_by_u64 degree pass + two guarded
    anti lookup_join peels (drop-set broadcast while it fits, distributed
    anti hash join above); the driver sees per-round COUNTS only. The SQL
    mirror is the kcore-style recursive CTE whose working table is the
    previous round's edge set, with per-round snapshots grouped by
    iteration."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_edges(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table(
            {
                "ua": pa.array((u >> np.uint64(32)).astype(np.int64), pa.int64()),
                "ub": pa.array(
                    (u & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()
                ),
            }
        )

    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    np.concatenate(
                        [
                            b["ua"].to_numpy(zero_copy_only=False),
                            b["ub"].to_numpy(zero_copy_only=False),
                        ]
                    ).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    edges = map_groups_partitioned(keyed, "key", distinct_edges).materialize()
    rounds: list[tuple[int, int, int]] = []
    for it in range(_DSG_MAX_ROUNDS + 1):
        n_edges = edges.count()
        if n_edges == 0:
            break
        deg = count_by_u64(
            edges.map_batches(endpoints, batch_format="pyarrow"), "key"
        ).materialize()
        n_users = deg.count()
        rounds.append((it, n_users, n_edges))

        def low_deg(b: pa.Table, v=n_users, e=n_edges) -> pa.Table:
            u = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
            c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"u": pa.array(u[c * v <= 4 * e], pa.int64())})

        bad = deg.map_batches(low_deg, batch_format="pyarrow").materialize()
        # the min-degree vertex always fails deg*V <= 4E=2*avg*V -> >= 1 peel
        u_schema_a = pa.schema([("u", pa.int64()), ("ub", pa.int64())])
        u_schema_b = pa.schema([("u", pa.int64()), ("ua", pa.int64())])
        edges = lookup_join(
            edges.map_batches(
                lambda b: pa.table({"u": b["ua"], "ub": b["ub"]}),
                batch_format="pyarrow",
            ),
            bad, on="u", how="anti", left_schema=u_schema_a,
        ).map_batches(
            lambda b: pa.table({"ua": b["u"], "ub": b["ub"]}),
            batch_format="pyarrow",
        )
        edges = lookup_join(
            edges.map_batches(
                lambda b: pa.table({"u": b["ub"], "ua": b["ua"]}),
                batch_format="pyarrow",
            ),
            bad, on="u", how="anti", left_schema=u_schema_b,
        ).map_batches(
            lambda b: pa.table({"ua": b["ua"], "ub": b["u"]}),
            batch_format="pyarrow",
        ).materialize()
    else:
        raise RuntimeError(
            f"densest-subgraph peel did not empty in {_DSG_MAX_ROUNDS} rounds"
        )
    empty = pa.table(
        {
            "best_iter": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
            "n_edges": pa.array([], pa.int64()),
            "density_micro": pa.array([], pa.int64()),
        }
    )
    if not rounds:
        return empty
    best = rounds[0]
    for r in rounds[1:]:
        # exact rational compare: E_r / V_r > E_best / V_best
        if r[2] * best[1] > best[2] * r[1]:
            best = r
    return pa.table(
        {
            "best_iter": pa.array([best[0]], pa.int64()),
            "n_users": pa.array([best[1]], pa.int64()),
            "n_edges": pa.array([best[2]], pa.int64()),
            "density_micro": pa.array(
                [(best[2] * 1_000_000) // best[1]], pa.int64()
            ),
        }
    )


_GDIA_MAX_ROUNDS = 40  # mirrored in the SQL recursion bound; fail-loud past it


@query(sql=f"""
WITH RECURSIVE pts AS (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
kedges AS (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
und AS MATERIALIZED (
  SELECT u1 AS src, u2 AS dst FROM kedges
  UNION ALL SELECT u2, u1 FROM kedges),
s0 AS MATERIALIZED (SELECT MIN(src) AS v FROM und WHERE src IS NOT NULL),
b1(node, d) AS (
  SELECT (SELECT v FROM s0), 0
  FROM (SELECT 1) WHERE EXISTS (SELECT 1 FROM und)
  UNION
  SELECT e.dst, b.d + 1 FROM b1 b JOIN und e ON e.src = b.node
  WHERE b.d < {_GDIA_MAX_ROUNDS}),
d1 AS MATERIALIZED (SELECT node, MIN(d) AS d FROM b1 GROUP BY 1),
f1 AS MATERIALIZED (SELECT node, d FROM d1 ORDER BY d DESC, node LIMIT 1),
b2(node, d) AS (
  SELECT (SELECT node FROM f1), 0
  FROM (SELECT 1) WHERE EXISTS (SELECT 1 FROM und)
  UNION
  SELECT e.dst, b.d + 1 FROM b2 b JOIN und e ON e.src = b.node
  WHERE b.d < {_GDIA_MAX_ROUNDS}),
d2 AS MATERIALIZED (SELECT node, MIN(d) AS d FROM b2 GROUP BY 1),
f2 AS MATERIALIZED (SELECT node, d FROM d2 ORDER BY d DESC, node LIMIT 1)
SELECT (SELECT v FROM s0) AS src0,
       f1.node AS far1, CAST(f1.d AS BIGINT) AS ecc1,
       f2.node AS far2, CAST(f2.d AS BIGINT) AS ecc2
FROM f1, f2
""")
def events_graph_diameter(sf_dir: str):
    """GRAPH DIAMETER LOWER BOUND by the classic DOUBLE-SWEEP BFS
    heuristic (Magnien/Latapy/Habib JEA'09 — exact on trees, within a
    small factor in practice): BFS from the smallest contact-graph node,
    hop to the farthest node found (ties -> smallest id), BFS again —
    the second eccentricity is the reported diameter bound. Output: one
    row (src0, far1, ecc1, far2, ecc2) — all hop counts exact integers.

    Scale shape: each BFS round is ONE distributed semi-join (edges
    whose src is in the current frontier) + ONE min-merge shuffle
    (agg.min_by_u64 folds candidate distances into the distance table)
    — the distance table and frontier stay DISTRIBUTED; the driver sees
    per-round row counts and block-bounded argmax partials only. Rounds
    are bounded by the eccentricity; fail-loud past {_GDIA_MAX_ROUNDS}
    (the SQL mirror's recursion cap — its UNION-recursive BFS re-emits
    (node, d) rows up to the cap and takes MIN(d) per node, exact for
    every eccentricity the engine accepts)."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_und(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        u1 = (u >> np.uint64(32)).astype(np.int64)
        u2 = (u & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([u1, u2]), pa.int64()),
                "dst": pa.array(np.concatenate([u2, u1]), pa.int64()),
            }
        )

    und = map_groups_partitioned(keyed, "key", distinct_und).materialize()
    empty = pa.table(
        {
            "src0": pa.array([], pa.int64()),
            "far1": pa.array([], pa.int64()),
            "ecc1": pa.array([], pa.int64()),
            "far2": pa.array([], pa.int64()),
            "ecc2": pa.array([], pa.int64()),
        }
    )
    if und.count() == 0:
        return empty
    src0 = int(fold_table(und, [], {"src": ("src", "min")})["src"][0].as_py())

    def bfs_far(start: int) -> tuple[int, int]:
        import ray.data as rd

        dist_ds = rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([start], pa.uint64()),
                    "d": pa.array([0], pa.uint64()),
                }
            )
        ).materialize()
        frontier = dist_ds
        for r in range(1, _GDIA_MAX_ROUNDS + 1):

            def as_src(b: pa.Table) -> pa.Table:
                return pa.table(
                    {"src": pc.cast(b["node"], pa.int64())}
                )

            front_src = frontier.map_batches(as_src, batch_format="pyarrow")
            touched = lookup_join(
                und, front_src, on="src", how="semi",
                left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
            )

            def cand(b: pa.Table, d=r) -> pa.Table:
                dst = b["dst"].to_numpy(zero_copy_only=False).astype(np.uint64)
                dst = np.unique(dst)
                return pa.table(
                    {
                        "node": pa.array(dst, pa.uint64()),
                        "d": pa.array(np.full(len(dst), d, np.uint64),
                                      pa.uint64()),
                    }
                )

            cands = touched.map_batches(cand, batch_format="pyarrow")
            dist_ds = min_by_u64(dist_ds.union(cands), "node", "d").materialize()

            def new_at(b: pa.Table, d=r) -> pa.Table:
                m = pc.equal(b["d"], pa.scalar(d, pa.uint64()))
                return b.filter(m)

            frontier = dist_ds.map_batches(
                new_at, batch_format="pyarrow"
            ).materialize()
            if frontier.count() == 0:
                break
        else:
            raise RuntimeError(
                f"graph-diameter BFS exceeded {_GDIA_MAX_ROUNDS} rounds"
            )

        def far_partial(b: pa.Table) -> pa.Table:
            node = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            dd = b["d"].to_numpy(zero_copy_only=False).astype(np.int64)
            i = int(np.lexsort((node, -dd))[0])
            return pa.table(
                {
                    "node": pa.array([node[i]], pa.int64()),
                    "d": pa.array([dd[i]], pa.int64()),
                }
            )

        parts = _collect_table(
            dist_ds.map_batches(far_partial, batch_format="pyarrow")
        )  # <= one row per block by construction
        node = parts["node"].to_numpy(zero_copy_only=False)
        dd = parts["d"].to_numpy(zero_copy_only=False)
        i = int(np.lexsort((node, -dd))[0])
        return int(node[i]), int(dd[i])

    far1, ecc1 = bfs_far(src0)
    far2, ecc2 = bfs_far(far1)
    return pa.table(
        {
            "src0": pa.array([src0], pa.int64()),
            "far1": pa.array([far1], pa.int64()),
            "ecc1": pa.array([ecc1], pa.int64()),
            "far2": pa.array([far2], pa.int64()),
            "ecc2": pa.array([ecc2], pa.int64()),
        }
    )


_LPA_ITERS = 3


def _lpa_sql() -> str:
    rounds = []
    prev = "l0"
    for k in range(1, _LPA_ITERS + 1):
        rounds.append(
            f"""c{k} AS MATERIALIZED (
  SELECT u.dst AS node, l.label AS lbl, COUNT(*) AS c
  FROM und u JOIN {prev} l ON l.node = u.src GROUP BY 1, 2),
l{k} AS MATERIALIZED (
  SELECT node, lbl AS label FROM c{k}
  QUALIFY ROW_NUMBER() OVER (PARTITION BY node ORDER BY c DESC, lbl) = 1)"""
        )
        prev = f"l{k}"
    iters = ",\n".join(rounds)
    return f"""
WITH pts AS MATERIALIZED (
  SELECT event_id, user_id, epoch_us(ts) AS us,
         {CONTACT_LAT_SQL} AS lat, {CONTACT_LON_SQL} AS lon
  FROM events),
kedges AS MATERIALIZED (
  SELECT DISTINCT LEAST(a.user_id, b.user_id) AS u1,
         GREATEST(a.user_id, b.user_id) AS u2
  FROM pts a JOIN pts b
    ON a.event_id < b.event_id AND a.user_id != b.user_id
 WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
       <= {_CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG}
   AND ABS(a.us - b.us) <= {_CONTACT_WINDOW_US}),
und AS MATERIALIZED (
  SELECT u1 AS src, u2 AS dst FROM kedges
  UNION ALL SELECT u2, u1 FROM kedges),
l0 AS MATERIALIZED (SELECT DISTINCT src AS node, src AS label FROM und),
{iters}
SELECT label AS community, CAST(COUNT(*) AS BIGINT) AS n_members
FROM l{_LPA_ITERS} GROUP BY 1 ORDER BY 1
"""




@query(sql=_lpa_sql())
def events_lpa_communities(sf_dir: str):
    """LABEL-PROPAGATION COMMUNITY DETECTION (Raghavan/Albert/Kumara,
    Phys. Rev. E'07) over the space-time contact graph — the near-linear
    community pass run after the triangle/k-core cohesion ladder. 3
    SYNCHRONOUS iterations (fixed count: async LPA's update order is
    nondeterministic by construction, synchronous-with-fixed-rounds is
    the reproducible variant): every node starts labeled by itself; each
    round it adopts the most frequent label among its neighbors, ties
    broken by SMALLEST label. Output: per-community member counts.

    All-integer parity: labels are user ids, the mode is a (count DESC,
    label ASC) argmax — no float exists anywhere; the SQL mirror unrolls
    the rounds as MATERIALIZED count/argmax CTE pairs over the same
    DISTINCT undirected edge set (the kcore kedges derivation).

    Scale shape: edges come from the contact-family shared
    materialization made DISTINCT by one pair-keyed hash partition (the
    events_kcore shape), expanded to both directions once; each round is
    ONE distributed hash_join (neighbor label attach) + ONE dst-keyed
    partition computing the vectorized per-node mode — the label table
    never reaches the driver; the driver sees only the final bounded
    per-community rollup."""
    pairs = _contact_pairs_ds(sf_dir)
    keyed = pairs.map_batches(_pack_user_pairs, batch_format="pyarrow")

    def distinct_und(g: pa.Table) -> pa.Table:
        u = np.unique(g["key"].to_numpy(zero_copy_only=False).astype(np.uint64))
        u1 = (u >> np.uint64(32)).astype(np.int64)
        u2 = (u & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([u1, u2]), pa.int64()),
                "dst": pa.array(np.concatenate([u2, u1]), pa.int64()),
            }
        )

    und = map_groups_partitioned(keyed, "key", distinct_und).materialize()
    if und.count() == 0:
        return pa.table(
            {
                "community": pa.array([], pa.int64()),
                "n_members": pa.array([], pa.int64()),
            }
        )

    def init_labels(g: pa.Table) -> pa.Table:
        s = np.unique(g["src"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"node": pa.array(s, pa.int64()), "label": pa.array(s, pa.int64())}
        )

    labels = map_groups_partitioned(und, "src", init_labels)

    def mode_per_dst(g: pa.Table) -> pa.Table:
        d = g["dst"].to_numpy(zero_copy_only=False)
        lb = g["label"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lb, d))
        d, lb = d[order], lb[order]
        new = np.r_[True, (d[1:] != d[:-1]) | (lb[1:] != lb[:-1])]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(d)))
        dd, ll = d[starts], lb[starts]
        gnew = np.r_[True, dd[1:] != dd[:-1]]
        gs = np.flatnonzero(gnew)
        ge = np.append(gs[1:], len(dd))
        out_n = np.empty(len(gs), np.int64)
        out_l = np.empty(len(gs), np.int64)
        for k, (s, e) in enumerate(zip(gs, ge)):
            # first max under label-ascending order == smallest-label tie
            best = s + int(np.argmax(counts[s:e]))
            out_n[k] = dd[s]
            out_l[k] = ll[best]
        return pa.table(
            {"node": pa.array(out_n, pa.int64()),
             "label": pa.array(out_l, pa.int64())}
        )

    for _ in range(_LPA_ITERS):
        j = hash_join(und, labels, on="src", right_on="node")
        labels = map_groups_partitioned(j, "dst", mode_per_dst).materialize()

    def comm_partial(g: pa.Table) -> pa.Table:
        lb = g["label"].to_numpy(zero_copy_only=False)
        u, c = np.unique(lb, return_counts=True)
        return pa.table(
            {
                "community": pa.array(u, pa.int64()),
                "n_members": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    out = _collect_table(map_groups_partitioned(labels, "label", comm_partial))
    return out.sort_by("community")
