"""Space-TIME band self-join (contact tracing): all pairs of points within
a spatial radius AND a time window.

Extends the 2D home+ghost distance-band plan (stages/distband.py) to a 3D
grid — (lat cell, lon cell, time bucket) — with 27x replication. Any pair
satisfying BOTH bands differs by at most one cell per axis, so it co-locates
in the smaller-id point's home cell exactly once (same single-emission
argument as distband, one hash shuffle, no cross-partition dedup).

Everything is exact IEEE / integer arithmetic: squared-degree spatial
threshold (multiply/subtract only) and int64 microsecond window — a SQL
oracle mirrors the predicate bit-exactly, no transcendental caveats.

Scale: time buckets bound partition size over any uniform stream (a cell is
radius x radius x window); hot city-hours degrade to chunked quadratic work
inside one task (distband.cell_pairs enumerates and chunks the candidate
pairs), with the same sub-cell salting escape hatch as stages/knn.py
documented for adversarial density.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import map_groups_partitioned
from core_ray.stages.distband import cell_pairs

_OFF20 = np.int64(1 << 19)


def replicate_3d(
    ids: np.ndarray, uids: np.ndarray,
    lat: np.ndarray, lon: np.ndarray, us: np.ndarray,
    radius: float, window_us: int,
) -> pa.Table:
    """27x home+ghost replication keyed by packed (lat, lon, time) cell.
    Axes pack 20+20+24 bits: spatial indices offset-biased into 20 bits,
    the time bucket masked into 24 (collisions only merge cells — never
    wrong output, just more candidate pairs; 24 bits spans ~46k years of
    hourly buckets before wrap)."""
    cx = np.floor(lat / radius).astype(np.int64)
    cy = np.floor(lon / radius).astype(np.int64)
    ct = (us // window_us).astype(np.int64)
    lim = (1 << 19) - 2
    if len(cx) and max(
        abs(int(cx.max())), abs(int(cx.min())),
        abs(int(cy.max())), abs(int(cy.min())),
    ) > lim:
        raise ValueError(f"radius {radius} too small for the coordinate extent")
    n = len(ids)
    d = np.array([-1, 0, 1], dtype=np.int64)
    dx = np.repeat(d, 9)                  # 27 offsets
    dy = np.tile(np.repeat(d, 3), 3)
    dt = np.tile(d, 9)
    # home replica first per point: reorder offsets so (0,0,0) is index 0
    order = np.argsort((dx != 0) | (dy != 0) | (dt != 0), kind="stable")
    dx, dy, dt = dx[order], dy[order], dt[order]
    rcx = (np.repeat(cx, 27) + np.tile(dx, n) + _OFF20).astype(np.uint64)
    rcy = (np.repeat(cy, 27) + np.tile(dy, n) + _OFF20).astype(np.uint64)
    rct = ((np.repeat(ct, 27) + np.tile(dt, n)) & ((1 << 24) - 1)).astype(np.uint64)
    home = np.zeros(27 * n, dtype=bool)
    home[0::27] = True
    return pa.table(
        {
            "ck": pa.array(
                (rcx << np.uint64(44)) | (rcy << np.uint64(24)) | rct, pa.uint64()
            ),
            "pid": pa.array(np.repeat(ids, 27), pa.int64()),
            "uid": pa.array(np.repeat(uids, 27), pa.int64()),
            "lat": pa.array(np.repeat(lat, 27), pa.float64()),
            "lon": pa.array(np.repeat(lon, 27), pa.float64()),
            "us": pa.array(np.repeat(us, 27), pa.int64()),
            "home": pa.array(home, pa.bool_()),
        }
    )


def contacts_in_partition(
    g: pa.Table, r2: float, window_us: int, chunk_pairs: int = 8 << 20
) -> pa.Table:
    """(pid_a, pid_b, uid_a, uid_b) for co-located qualifying pairs of
    DIFFERENT users; pid_a < pid_b, each pair exactly once (home rule)."""
    # Candidate pairs with the LEFT side restricted to home rows up front
    # (a masked-after-the-fact home[left] filter materializes 27x the
    # candidates for identical output — measured 21 s -> <1 s serial on
    # the sf0.1 contact corpus, 320 M -> 12 M candidate rows).
    order, chunks = cell_pairs(
        g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
        g["home"].to_numpy(zero_copy_only=False), chunk_pairs=chunk_pairs,
    )
    ids = g["pid"].to_numpy(zero_copy_only=False)[order]
    uid = g["uid"].to_numpy(zero_copy_only=False)[order]
    lat = g["lat"].to_numpy(zero_copy_only=False)[order]
    lon = g["lon"].to_numpy(zero_copy_only=False)[order]
    us = g["us"].to_numpy(zero_copy_only=False)[order]
    oa, ob, ua, ub = [ids[:0]], [ids[:0]], [uid[:0]], [uid[:0]]
    for left, right in chunks:
        m = (ids[right] > ids[left]) & (uid[left] != uid[right])
        i, j = left[m], right[m]
        dla = lat[i] - lat[j]
        dlo = lon[i] - lon[j]
        dt = np.abs(us[i] - us[j])
        keep = (dla * dla + dlo * dlo <= r2) & (dt <= window_us)
        oa.append(ids[i][keep])
        ob.append(ids[j][keep])
        ua.append(uid[i][keep])
        ub.append(uid[j][keep])
    return pa.table(
        {
            "pid_a": pa.array(np.concatenate(oa), pa.int64()),
            "pid_b": pa.array(np.concatenate(ob), pa.int64()),
            "uid_a": pa.array(np.concatenate(ua), pa.int64()),
            "uid_b": pa.array(np.concatenate(ub), pa.int64()),
        }
    )


def spacetime_pairs(
    ds, radius: float, window_us: int,
    id_col: str = "pid", user_col: str = "uid",
    lat_col: str = "lat", lon_col: str = "lon", us_col: str = "us",
):
    """Dataset[(pid, uid, lat, lon, us)] -> Dataset[(pid_a, pid_b, uid_a,
    uid_b)]: pairs of DIFFERENT users within ``radius`` (degree space) and
    ``window_us`` microseconds. One hash shuffle total."""
    r2 = radius * radius

    def rep(b: pa.Table) -> pa.Table:
        return replicate_3d(
            b[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
            b[user_col].to_numpy(zero_copy_only=False).astype(np.int64),
            b[lat_col].to_numpy(zero_copy_only=False),
            b[lon_col].to_numpy(zero_copy_only=False),
            b[us_col].to_numpy(zero_copy_only=False).astype(np.int64),
            radius, window_us,
        )

    rep_ds = ds.map_batches(rep, batch_format="pyarrow", batch_size=32768)
    return map_groups_partitioned(
        rep_ds, "ck", lambda g: contacts_in_partition(g, r2, window_us)
    )


def st_all_pairs_in_partition(
    g: pa.Table, r2: float, window_us: int, chunk_pairs: int = 8 << 20
) -> pa.Table:
    """(doc_a, doc_b, sq_dist) for ALL co-located qualifying pairs —
    contacts_in_partition without the different-user restriction, emitting
    the spatial distance: the eps-neighbor EDGE SET a spatio-temporal
    DBSCAN consumes (stages/dbscan.py::dbscan_from_pairs). doc_a < doc_b,
    each pair exactly once (home rule)."""
    order, chunks = cell_pairs(
        g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
        g["home"].to_numpy(zero_copy_only=False), chunk_pairs=chunk_pairs,
    )
    ids = g["pid"].to_numpy(zero_copy_only=False)[order]
    lat = g["lat"].to_numpy(zero_copy_only=False)[order]
    lon = g["lon"].to_numpy(zero_copy_only=False)[order]
    us = g["us"].to_numpy(zero_copy_only=False)[order]
    oa, ob, od = [ids[:0]], [ids[:0]], [np.zeros(0)]
    for left, right in chunks:
        m = ids[right] > ids[left]
        i, j = left[m], right[m]
        dla = lat[i] - lat[j]
        dlo = lon[i] - lon[j]
        d2 = dla * dla + dlo * dlo
        dt = np.abs(us[i] - us[j])
        keep = (d2 <= r2) & (dt <= window_us)
        oa.append(ids[i][keep])
        ob.append(ids[j][keep])
        od.append(d2[keep])
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate(oa), pa.int64()),
            "doc_b": pa.array(np.concatenate(ob), pa.int64()),
            "sq_dist": pa.array(np.concatenate(od), pa.float64()),
        }
    )


def spacetime_all_pairs(
    ds, radius: float, window_us: int,
    id_col: str = "pid", lat_col: str = "lat", lon_col: str = "lon",
    us_col: str = "us",
):
    """Dataset[(id, lat, lon, us)] -> Dataset[(doc_a, doc_b, sq_dist)]:
    ALL pairs within ``radius`` (degree space) AND ``window_us`` — the
    spatio-temporal eps-neighbor graph (no user restriction; same 27x
    home+ghost plan and single-emission argument as spacetime_pairs, one
    hash shuffle total)."""
    r2 = radius * radius

    def rep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return replicate_3d(
            ids, ids,  # uid slot unused by the all-pairs kernel
            b[lat_col].to_numpy(zero_copy_only=False),
            b[lon_col].to_numpy(zero_copy_only=False),
            b[us_col].to_numpy(zero_copy_only=False).astype(np.int64),
            radius, window_us,
        )

    rep_ds = ds.map_batches(rep, batch_format="pyarrow", batch_size=32768)
    return map_groups_partitioned(
        rep_ds, "ck", lambda g: st_all_pairs_in_partition(g, r2, window_us)
    )
