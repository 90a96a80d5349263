"""Statistics over the events table: time-series tests and models
(autocorrelation, trend, change points, smoothing, spectra, Hurst and Allan
variance), distribution and tail measures, experiment arms (KS, Mann-Whitney,
CUPED, QTE, bootstrap), user behaviour metrics and Markov transitions.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from core_ray.queries._shared import (
    _GE_CELL_MILLI, _HOUR_US, _STG_DAY_US, _TT_DAY_US, _collect_table, _first_day, _p, _read, _sf_of,
    _tdiv, query,
)
from core_ray.rounding import sql_round_np
from core_ray.stages.agg import count_by_u64, fold_table, map_groups_partitioned


@query(sql="""
WITH h AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hour,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1, 2),
m AS (
  SELECT event_type,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(n_events) AS BIGINT) AS s1,
         CAST(SUM(n_events * n_events) AS BIGINT) AS s2
  FROM h GROUP BY 1),
s AS (
  SELECT event_type,
         CAST(s1 AS DOUBLE) / n AS mean,
         sqrt(CAST(s2 AS DOUBLE) / n - (CAST(s1 AS DOUBLE) / n) * (CAST(s1 AS DOUBLE) / n)) AS std
  FROM m)
SELECT h.event_type, h.hour, h.n_events,
       ROUND((CAST(h.n_events AS DOUBLE) - s.mean) / s.std, 6) AS z
FROM h JOIN s USING (event_type)
WHERE s.std > 0 AND abs((CAST(h.n_events AS DOUBLE) - s.mean) / s.std) >= 2.0
""")
def events_hourly_anomalies(sf_dir: str, z_thresh: float = 2.0):
    """Anomaly detection over the hourly traffic series: hours whose event
    count deviates from the type's mean by >= ``z_thresh`` population
    standard deviations. The heavy pass is the distributed per-batch
    hourly-count combiner (events never leave their batch un-aggregated);
    the per-type moment pass runs on the aggregated (type, hour) table,
    which is bounded by types x hours at ANY corpus scale, so its
    driver-side numpy is scale-correct. Exact cross-engine parity: the
    moments are INTEGER sums (order-independent) and the z expression is
    the same fixed chain of correctly-rounded IEEE ops as the SQL."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def hours(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        return pa.table({"event_type": b["event_type"], "hour": pc.divide(us, _HOUR_US)})

    hourly = fold_table(
        ds.map_batches(hours, batch_format="pyarrow", batch_size=65536),
        ["event_type", "hour"],
        {"n_events": (None, "count")},
    )
    et = np.asarray(hourly["event_type"].to_pylist())
    hour = np.asarray(hourly["hour"].to_pylist(), dtype=np.int64)
    cnt = np.asarray(hourly["n_events"].to_pylist(), dtype=np.int64)
    order = np.lexsort((hour, et))
    et, hour, cnt = et[order], hour[order], cnt[order]
    new = np.ones(len(et), dtype=bool)
    new[1:] = et[1:] != et[:-1]
    starts = np.nonzero(new)[0]
    seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(et))))
    n = np.add.reduceat(np.ones(len(et), np.int64), starts)
    s1 = np.add.reduceat(cnt, starts)
    s2 = np.add.reduceat(cnt * cnt, starts)
    # identical expression structure to the SQL: mean = s1/n; var = s2/n - mean*mean
    mean = s1.astype(np.float64) / n
    var = s2.astype(np.float64) / n - mean * mean
    std = np.sqrt(var)
    ok = std[seg] > 0
    z = np.zeros(len(et))
    z[ok] = (cnt[ok].astype(np.float64) - mean[seg][ok]) / std[seg][ok]
    hit = ok & (np.abs(z) >= z_thresh)
    return pa.table(
        {
            "event_type": pa.array(et[hit], pa.string()),
            "hour": pa.array(hour[hit], pa.int64()),
            "n_events": pa.array(cnt[hit], pa.int64()),
            "z": pa.array(sql_round_np(z[hit], 6), pa.float64()),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT user_id, epoch_us(ts) AS us, event_id FROM events),
gaps AS (
  SELECT user_id,
         (us - LAG(us) OVER (PARTITION BY user_id
                             ORDER BY us, event_id)) // 1000000 AS gap
  FROM pts),
per AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(gap) AS BIGINT) AS s,
         CAST(SUM(gap * gap) AS BIGINT) AS ss
  FROM gaps WHERE gap IS NOT NULL GROUP BY 1)
SELECT user_id, n AS n_gaps, s AS sum_s, ss AS sum_ss,
       (SQRT(CAST(n * ss - s * s AS DOUBLE)) - CAST(s AS DOUBLE))
         / (SQRT(CAST(n * ss - s * s AS DOUBLE)) + CAST(s AS DOUBLE))
         AS burstiness
FROM per WHERE n >= 2
""")
def events_burstiness(sf_dir: str):
    """PER-USER BURSTINESS (Goh-Barabasi B = (sigma - mu)/(sigma + mu) of
    inter-event times: -1 = metronome, 0 = Poisson, ->1 = extreme bursts
    — the temporal-signature classifier of human activity): gaps quantize
    to integer SECONDS (keeps ss = sum of squared gaps inside int64 to
    ~10^4 gaps x 30-day spans), population sigma comes from the moment
    identity n*ss - s^2, and B collapses to ONE fixed double chain of two
    exact integers: (sqrt(n*ss - s^2) - s) / (sqrt(n*ss - s^2) + s) —
    the n divisors cancel. One user-keyed shuffle; users with < 2 gaps
    are excluded (B undefined)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_gaps": pa.array([], pa.int64()),
            "sum_s": pa.array([], pa.int64()),
            "sum_ss": pa.array([], pa.int64()),
            "burstiness": pa.array([], pa.float64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, us = uid[order], us[order]
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return _empty
        gap = (us[i] - us[i - 1]) // 1000000  # integer seconds
        gu = uid[i]
        starts = np.nonzero(np.r_[True, gu[1:] != gu[:-1]])[0]
        n = np.diff(np.r_[starts, len(gu)]).astype(np.int64)
        s = np.add.reduceat(gap, starts)
        ss = np.add.reduceat(gap * gap, starts)
        keep = n >= 2
        n, s, ss = n[keep], s[keep], ss[keep]
        root = np.sqrt((n * ss - s * s).astype(np.float64))
        return pa.table(
            {
                "user_id": pa.array(gu[starts][keep], pa.int64()),
                "n_gaps": pa.array(n, pa.int64()),
                "sum_s": pa.array(s, pa.int64()),
                "sum_ss": pa.array(ss, pa.int64()),
                "burstiness": pa.array(
                    (root - s.astype(np.float64))
                    / (root + s.astype(np.float64)),
                    pa.float64(),
                ),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


@query(sql=f"""
WITH pts AS (
  SELECT ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy,
         (epoch_us(ts) // 3600000000) % 24 AS hour
  FROM events),
cc AS (SELECT gx, gy, hour, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
tot AS (SELECT gx, gy, CAST(SUM(c) AS BIGINT) AS total
        FROM cc GROUP BY 1, 2),
best AS (
  SELECT gx, gy, hour, c,
         ROW_NUMBER() OVER (PARTITION BY gx, gy
                            ORDER BY c DESC, hour) AS rn
  FROM cc)
SELECT b.gx, b.gy, CAST(b.hour AS BIGINT) AS peak_hour,
       b.c AS peak_count, t.total,
       CAST(b.c AS DOUBLE) / CAST(t.total AS DOUBLE) AS share
FROM best b JOIN tot t ON t.gx = b.gx AND t.gy = b.gy
WHERE b.rn = 1
""")
def events_peak_hour(sf_dir: str):
    """DIURNAL PHASE MAP (peak activity hour per 10-deg cell): the
    hour-of-day with the most events in each cell (ties by lowest hour)
    plus its share of the cell's activity — the longitude-tracking
    "when is this region awake" map (timezone inference, send-time
    optimization). ONE packed (cell, hour) count pass (bounded:
    504 x 24), driver argmax under the deterministic (count desc, hour
    asc) order; share = one double division of exact integers."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        hour = (us // 3600000000) % 24
        key = ((gx * 1024 + gy).astype(np.uint64) << np.uint64(5)) | hour.astype(
            np.uint64
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 504 x 24 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key >> np.uint64(5)).astype(np.int64)
    hour = (key & np.uint64(31)).astype(np.int64)
    order = np.lexsort((hour, -c, cell))
    cs, hs, ns = cell[order], hour[order], c[order]
    first = np.r_[True, cs[1:] != cs[:-1]]
    tot = np.zeros(len(np.unique(cell)), np.int64)
    np.add.at(tot, np.searchsorted(np.unique(cell), cell), c)
    ucell = cs[first]
    return pa.table(
        {
            "gx": pa.array(ucell // 1024, pa.int64()),
            "gy": pa.array(ucell % 1024, pa.int64()),
            "peak_hour": pa.array(hs[first], pa.int64()),
            "peak_count": pa.array(ns[first], pa.int64()),
            "total": pa.array(tot, pa.int64()),
            "share": pa.array(
                ns[first].astype(np.float64) / tot.astype(np.float64),
                pa.float64(),
            ),
        }
    )


@query(sql=f"""
WITH base AS (
  SELECT MIN(epoch_us(ts) // {_TT_DAY_US}) AS d0 FROM events),
pts AS (
  SELECT ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy,
         epoch_us(ts) // {_TT_DAY_US} - base.d0 AS x
  FROM events, base),
cd AS (SELECT gx, gy, x, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
s AS (
  SELECT a.gx, a.gy,
         CAST(SUM(CASE WHEN b.c > a.c THEN 1
                       WHEN b.c < a.c THEN -1 ELSE 0 END) AS BIGINT) AS s_stat
  FROM cd a JOIN cd b ON b.gx = a.gx AND b.gy = a.gy AND b.x > a.x
  GROUP BY 1, 2),
nn AS (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS n FROM cd GROUP BY 1, 2),
ties AS (
  SELECT gx, gy,
         CAST(SUM(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS tie_term
  FROM (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS t
        FROM cd GROUP BY gx, gy, c)
  GROUP BY 1, 2),
m AS (
  SELECT n.gx, n.gy, n.n, COALESCE(s.s_stat, 0) AS s_stat,
         n.n * (n.n - 1) * (2 * n.n + 5) - t.tie_term AS var18
  FROM nn n
  LEFT JOIN s ON s.gx = n.gx AND s.gy = n.gy
  JOIN ties t ON t.gx = n.gx AND t.gy = n.gy
  WHERE n.n >= 2)
SELECT gx, gy, n AS n_days, s_stat, var18,
       CASE WHEN s_stat > 0 THEN
              CAST(s_stat - 1 AS DOUBLE)
                / SQRT(CAST(var18 AS DOUBLE) / 18.0)
            WHEN s_stat < 0 THEN
              CAST(s_stat + 1 AS DOUBLE)
                / SQRT(CAST(var18 AS DOUBLE) / 18.0)
            ELSE 0.0 END AS z
FROM m
""")
def events_mann_kendall(sf_dir: str):
    """MANN-KENDALL TREND TEST per 10-deg cell (the NONPARAMETRIC trend
    detector under "emerging hot spot" analysis — robust where the
    least-squares slope of events_tile_trend is outlier-fragile):
    S = sum over day pairs of sign(c_j - c_i), with the tie-corrected
    variance var = (n(n-1)(2n+5) - sum t(t-1)(2t+5)) / 18 and the
    continuity-corrected z. Exactness: S and 18*var are exact integers
    from the BOUNDED (cell, day) count table (one packed-u64 pass, the
    events_tile_trend shape); z = one fixed chain — (S-1)/sqrt(var),
    (S+1)/sqrt(var) or 0 — of exact integers through one correctly-
    rounded sqrt. Cells with < 2 days are excluded."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    d0 = _first_day(ds)

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        x = us // _TT_DAY_US - d0
        key = ((gx * 1024 + gy).astype(np.uint64) << np.uint64(24)) | x.astype(
            np.uint64
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= cells x horizon days rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key >> np.uint64(24)).astype(np.int64)
    day = (key & np.uint64((1 << 24) - 1)).astype(np.int64)

    order = np.lexsort((day, cell))
    cell, day, c = cell[order], day[order], c[order]
    starts = np.nonzero(np.r_[True, cell[1:] != cell[:-1]])[0]
    ends = np.r_[starts[1:], len(cell)]

    out = []
    for s_, e_ in zip(starts, ends):
        v = c[s_:e_]  # day-ordered counts (days with zero events absent —
        # the series is over OBSERVED days, documented semantics)
        n = len(v)
        if n < 2:
            continue
        diff = np.sign(v[None, :] - v[:, None])
        S = int(np.triu(diff, 1).sum())
        _, tie_c = np.unique(v, return_counts=True)
        var18 = int(n * (n - 1) * (2 * n + 5)) - int(
            (tie_c * (tie_c - 1) * (2 * tie_c + 5)).sum()
        )
        if S > 0:
            z = float(np.float64(S - 1) / np.sqrt(np.float64(var18) / 18.0))
        elif S < 0:
            z = float(np.float64(S + 1) / np.sqrt(np.float64(var18) / 18.0))
        else:
            z = 0.0
        out.append((int(cell[s_]) // 1024, int(cell[s_]) % 1024, n, S,
                    var18, z))
    return pa.table(
        {
            "gx": pa.array([r[0] for r in out], pa.int64()),
            "gy": pa.array([r[1] for r in out], pa.int64()),
            "n_days": pa.array([r[2] for r in out], pa.int64()),
            "s_stat": pa.array([r[3] for r in out], pa.int64()),
            "var18": pa.array([r[4] for r in out], pa.int64()),
            "z": pa.array([r[5] for r in out], pa.float64()),
        }
    )


@query(sql=f"""
WITH base AS (
  SELECT MIN(epoch_us(ts) // {_TT_DAY_US}) AS d0 FROM events),
pts AS (
  SELECT ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy,
         epoch_us(ts) // {_TT_DAY_US} - base.d0 AS x
  FROM events, base),
cd AS (SELECT gx, gy, x, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
slopes AS (
  SELECT a.gx, a.gy,
         (CAST(b.c AS DOUBLE) - CAST(a.c AS DOUBLE))
           / (CAST(b.x AS DOUBLE) - CAST(a.x AS DOUBLE)) AS s
  FROM cd a JOIN cd b ON b.gx = a.gx AND b.gy = a.gy AND b.x > a.x),
ranked AS (
  SELECT gx, gy, s,
         ROW_NUMBER() OVER (PARTITION BY gx, gy ORDER BY s) AS rn,
         COUNT(*) OVER (PARTITION BY gx, gy) AS m
  FROM slopes),
nn AS (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS n_days
       FROM cd GROUP BY 1, 2)
SELECT r.gx, r.gy, n.n_days, CAST(MAX(r.m) AS BIGINT) AS n_pairs,
       (MAX(CASE WHEN r.rn = (r.m + 1) // 2 THEN r.s END)
        + MAX(CASE WHEN r.rn = r.m // 2 + 1 THEN r.s END)) / 2.0 AS sen_slope
FROM ranked r JOIN nn n ON n.gx = r.gx AND n.gy = r.gy
GROUP BY r.gx, r.gy, n.n_days
""")
def events_sen_slope(sf_dir: str):
    """SEN'S SLOPE per 10-deg cell (the robust trend MAGNITUDE companion
    to Mann-Kendall's trend test: median of all pairwise day-count
    slopes — one wild day cannot move it, unlike least squares): from
    the same bounded (cell, day) count table, every i<j pair yields
    slope (c_j - c_i)/(x_j - x_i) (ONE double division, identical on
    both sides), and the median is taken by EXPLICIT rank — lo = the
    ceil(m/2)-th, hi = the (floor(m/2)+1)-th ordered slope, result
    (lo + hi) / 2.0 — never DuckDB's MEDIAN, whose interpolation
    expression could differ in the last ulp on arbitrary doubles (the
    geo_region_mad integers-and-halves case is safe; this one is not).
    Cells with < 2 observed days are excluded."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    d0 = _first_day(ds)

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        gx = ((eid * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((eid * 7919) % 140000) // _GE_CELL_MILLI
        x = us // _TT_DAY_US - d0
        key = ((gx * 1024 + gy).astype(np.uint64) << np.uint64(24)) | x.astype(
            np.uint64
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= cells x horizon days rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key >> np.uint64(24)).astype(np.int64)
    day = (key & np.uint64((1 << 24) - 1)).astype(np.int64)

    order = np.lexsort((day, cell))
    cell, day, c = cell[order], day[order], c[order]
    starts = np.nonzero(np.r_[True, cell[1:] != cell[:-1]])[0]
    ends = np.r_[starts[1:], len(cell)]

    out = []
    for s_, e_ in zip(starts, ends):
        xs = day[s_:e_].astype(np.float64)
        vs = c[s_:e_].astype(np.float64)
        n = len(xs)
        if n < 2:
            continue
        iu, ju = np.triu_indices(n, 1)
        slopes = np.sort((vs[ju] - vs[iu]) / (xs[ju] - xs[iu]))
        m = len(slopes)
        lo = slopes[(m + 1) // 2 - 1]
        hi = slopes[m // 2]
        out.append(
            (int(cell[s_]) // 1024, int(cell[s_]) % 1024, n, m,
             float((lo + hi) / 2.0))
        )
    return pa.table(
        {
            "gx": pa.array([r[0] for r in out], pa.int64()),
            "gy": pa.array([r[1] for r in out], pa.int64()),
            "n_days": pa.array([r[2] for r in out], pa.int64()),
            "n_pairs": pa.array([r[3] for r in out], pa.int64()),
            "sen_slope": pa.array([r[4] for r in out], pa.float64()),
        }
    )


@query(sql="""
WITH cents AS (
  SELECT CAST(ROUND(value * 100.0, 0) AS BIGINT) AS c FROM events),
digits AS (
  SELECT CAST(LEFT(CAST(c AS VARCHAR), 1) AS BIGINT) AS digit
  FROM cents WHERE c > 0),
cc AS (SELECT digit, CAST(COUNT(*) AS BIGINT) AS n FROM digits GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS t FROM cc)
SELECT cc.digit, cc.n,
       CAST(cc.n AS DOUBLE) / CAST(tot.t AS DOUBLE) AS share,
       CAST(ROUND(LOG10(1.0 + 1.0 / CAST(cc.digit AS DOUBLE)) * 1000000.0, 0)
            AS BIGINT) AS benford_micro
FROM cc CROSS JOIN tot
""")
def events_benford(sf_dir: str):
    """BENFORD'S LAW FIRST-DIGIT TEST (the fraud/anomaly classic: natural
    transaction amounts follow P(d) = log10(1 + 1/d); synthetic or
    manipulated values don't): first significant digit of each event's
    value, counted with observed share vs the Benford expectation and a
    micro-quantized chi-square. Digit extraction is EXACT on both sides:
    value rounds to integer cents once (sql_round semantics), and the
    first digit of an INTEGER via its decimal string (LEFT(CAST ..)) is
    deterministic — no log10 anywhere near the digit boundary. One
    map-only combiner pass to 9 digit counts."""
    ds = _read(sf_dir, "events", ["value"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        cents = sql_round_np(v * 100.0, 0).astype(np.int64)
        cents = cents[cents > 0]
        digit = cents.astype("U20").astype("U1").astype(np.int64)
        cnt = np.bincount(digit, minlength=10)[1:10]
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10), pa.int64()),
                "c": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    agg = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072), "digit", {"n": ("c", "sum")}
    )
    d = agg["digit"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = agg["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(n.sum())
    share = n.astype(np.float64) / np.float64(total)
    # Benford expectation, micro-quantized the usual way
    exp_micro = sql_round_np(
        np.log10(1.0 + 1.0 / d.astype(np.float64)) * 1000000.0, 0
    ).astype(np.int64)
    return pa.table(
        {
            "digit": pa.array(d, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "share": pa.array(share, pa.float64()),
            "benford_micro": pa.array(exp_micro, pa.int64()),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS hour FROM events),
cc AS (SELECT event_type, hour, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2),
uv AS (
  SELECT h AS hour,
         CAST(ROUND(COS(2.0 * PI() * CAST(h AS DOUBLE) / 24.0)
                    * 1000000.0, 0) AS BIGINT) AS cm,
         CAST(ROUND(SIN(2.0 * PI() * CAST(h AS DOUBLE) / 24.0)
                    * 1000000.0, 0) AS BIGINT) AS sm
  FROM range(24) t(h)),
per AS (
  SELECT cc.event_type, CAST(SUM(cc.c) AS BIGINT) AS n,
         CAST(SUM(cc.c * uv.cm) AS BIGINT) AS c_micro,
         CAST(SUM(cc.c * uv.sm) AS BIGINT) AS s_micro
  FROM cc JOIN uv ON uv.hour = cc.hour GROUP BY 1)
SELECT event_type, n AS n_events, c_micro, s_micro,
       SQRT(CAST(c_micro AS DOUBLE) * CAST(c_micro AS DOUBLE)
            + CAST(s_micro AS DOUBLE) * CAST(s_micro AS DOUBLE))
         / (1000000.0 * CAST(n AS DOUBLE)) AS resultant
FROM per
""")
def events_circular_hours(sf_dir: str):
    """CIRCULAR STATISTICS of the diurnal cycle (Rayleigh resultant length
    per event type): hour-of-day is an ANGLE, not a number — midnight sits
    next to 23:00 — so concentration is the resultant R = |mean unit
    vector| (R -> 1 = sharply peaked schedule, 0 = uniform around the
    clock; linear stddev gets this wrong at the wrap). Exactness: the 24
    unit vectors quantize ONCE to integer micro-components (sql_round_np
    == DuckDB ROUND on the same libm-correct cos/sin arguments), so the
    weighted sums are exact int64 from the bounded (type, hour) count
    table, and R = one fixed sqrt chain of two exact integers over
    1e6*n."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type"])

    ty_t = fold_table(ds.select_columns(["event_type"]), "event_type", {"n": (None, "count")})
    types = np.sort(np.asarray(ty_t["event_type"].to_pylist()))

    def pack(b: pa.Table, ts=types) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(ts, np.asarray(b["event_type"].to_pylist()))
        hour = (us // 3600000000) % 24
        key = (idx.astype(np.uint64) << np.uint64(5)) | hour.astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= types x 24 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    ti = (key >> np.uint64(5)).astype(np.int64)
    hour = (key & np.uint64(31)).astype(np.int64)

    h = np.arange(24, dtype=np.float64)
    cos_micro = sql_round_np(
        np.cos(2.0 * np.pi * h / 24.0) * 1000000.0, 0
    ).astype(np.int64)
    sin_micro = sql_round_np(
        np.sin(2.0 * np.pi * h / 24.0) * 1000000.0, 0
    ).astype(np.int64)

    n_t = np.zeros(len(types), np.int64)
    cm = np.zeros(len(types), np.int64)
    sm = np.zeros(len(types), np.int64)
    np.add.at(n_t, ti, c)
    np.add.at(cm, ti, c * cos_micro[hour])
    np.add.at(sm, ti, c * sin_micro[hour])
    r = np.sqrt(
        cm.astype(np.float64) ** 2 + sm.astype(np.float64) ** 2
    ) / (1000000.0 * n_t.astype(np.float64))
    return pa.table(
        {
            "event_type": pa.array(types.tolist(), pa.string()),
            "n_events": pa.array(n_t, pa.int64()),
            "c_micro": pa.array(cm, pa.int64()),
            "s_micro": pa.array(sm, pa.int64()),
            "resultant": pa.array(r, pa.float64()),
        }
    )


@query(sql="""
WITH seqd AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY epoch_us(ts), event_id) - 1 AS seq
  FROM events),
cities AS (
  SELECT user_id, us // 86400000000 AS day, us, event_id,
         (user_id * 7 + seq // 20) % 12 AS city
  FROM seqd),
dedup AS (
  SELECT user_id, day, us, event_id, city,
         LAG(city) OVER (PARTITION BY user_id, day
                         ORDER BY us, event_id) AS pc
  FROM cities),
moves AS (
  SELECT user_id, day, city,
         ROW_NUMBER() OVER (PARTITION BY user_id, day
                            ORDER BY us, event_id) AS p
  FROM dedup WHERE pc IS NULL OR pc != city),
ranks AS (
  SELECT user_id, day, city,
         DENSE_RANK() OVER (PARTITION BY user_id, day
                            ORDER BY fp) - 1 AS r
  FROM (SELECT user_id, day, city, MIN(p) AS fp
        FROM moves GROUP BY 1, 2, 3)),
motifs AS (
  SELECT m.user_id, m.day,
         STRING_AGG(CAST(r.r AS VARCHAR), '-' ORDER BY m.p) AS motif
  FROM moves m JOIN ranks r
    ON r.user_id = m.user_id AND r.day = m.day AND r.city = m.city
  GROUP BY 1, 2)
SELECT motif, CAST(COUNT(*) AS BIGINT) AS n_user_days
FROM motifs GROUP BY 1 ORDER BY 1
""")
def events_daily_motifs(sf_dir: str):
    """DAILY MOBILITY MOTIFS (Schneider et al.: a user-day's city
    sequence, consecutive-deduped and relabeled by first appearance —
    "0-1-0" is home-work-home whoever and wherever you are — motif
    frequencies are THE fingerprint of human daily routine): one
    user-keyed shuffle; the partition kernel orders each user's events,
    derives the od_matrix city model, splits by day, dedups consecutive
    repeats, relabels by first occurrence and counts motif strings;
    bounded final groupby over the motif vocabulary."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    _empty = pa.table(
        {"motif": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, us = uid[order], us[order]
        n = len(uid)
        first = np.r_[True, uid[1:] != uid[:-1]]
        ustart = np.nonzero(first)[0]
        seq = np.arange(n) - np.repeat(
            ustart, np.diff(np.append(ustart, n))
        )
        city = (uid * 7 + seq // 20) % 12
        day = us // _TT_DAY_US
        # segment = (user, day) runs in the sorted order
        seg = np.r_[True, (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])]
        starts = np.nonzero(seg)[0]
        ends = np.r_[starts[1:], n]
        counts: dict[str, int] = {}
        for s_, e_ in zip(starts, ends):
            cs = city[s_:e_]
            keep = np.r_[True, cs[1:] != cs[:-1]]
            cs = cs[keep]
            # relabel by first appearance
            lab: dict[int, int] = {}
            out = []
            for c_ in cs.tolist():
                if c_ not in lab:
                    lab[c_] = len(lab)
                out.append(str(lab[c_]))
            m = "-".join(out)
            counts[m] = counts.get(m, 0) + 1
        ks = sorted(counts)
        return pa.table(
            {
                "motif": pa.array(ks, pa.string()),
                "c": pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    return fold_table(map_groups_partitioned(ds, "user_id", per_part), "motif", {"n_user_days": ("c", "sum")})


@query(sql=f"""
WITH pts AS (
  SELECT epoch_us(ts) // {_TT_DAY_US} AS day,
         (epoch_us(ts) // 3600000000) % 24 AS hour
  FROM events),
cc AS (SELECT day, hour, CAST(COUNT(*) AS BIGINT) AS y
       FROM pts GROUP BY 1, 2),
span AS (
  SELECT CAST(MAX(day) - MIN(day) + 1 AS BIGINT) AS m FROM pts),
th AS (SELECT hour, CAST(SUM(y) AS BIGINT) AS t_h FROM cc GROUP BY 1),
agg AS (
  SELECT CAST(SUM(y) AS BIGINT) AS t,
         CAST(SUM(y * y) AS BIGINT) AS sy2
  FROM cc),
th2 AS (SELECT CAST(SUM(t_h * t_h) AS BIGINT) AS sth2 FROM th)
SELECT span.m AS n_days, agg.t AS n_events,
       24 * th2.sth2 - agg.t * agg.t AS ssb_num,
       24 * span.m * agg.sy2 - agg.t * agg.t AS sst_num,
       CAST(24 * th2.sth2 - agg.t * agg.t AS DOUBLE)
         / CAST(24 * span.m * agg.sy2 - agg.t * agg.t AS DOUBLE) AS eta2
FROM span, agg, th2
""")
def events_diurnal_anova(sf_dir: str):
    """DIURNAL ANOVA (eta-squared: what fraction of the day-to-day
    variance in hourly event counts is explained by the hour of day —
    the one-number answer to "how strong is the daily rhythm"): with
    per-(day, hour) observations over the full [min_day, max_day] x 24
    grid (implicit zeros contribute only through the day span m), the
    cross-multiplied identity makes BOTH sums of squares exact integers:
    eta2 = (24*sum(T_h^2) - T^2) / (24*m*sum(y^2) - T^2) — one packed
    count pass (bounded by horizon x 24), bounded driver fold, ONE
    double division."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = us // _TT_DAY_US
        hour = (us // 3600000000) % 24
        key = (day.astype(np.uint64) << np.uint64(5)) | hour.astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-days x 24 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    y = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    day = (key >> np.uint64(5)).astype(np.int64)
    hour = (key & np.uint64(31)).astype(np.int64)
    m = int(day.max() - day.min() + 1)
    T = int(y.sum())
    t_h = np.zeros(24, np.int64)
    np.add.at(t_h, hour, y)
    sum_th2 = int((t_h * t_h).sum())
    sum_y2 = int((y * y).sum())
    ssb_num = 24 * sum_th2 - T * T
    sst_num = 24 * m * sum_y2 - T * T
    return pa.table(
        {
            "n_days": pa.array([m], pa.int64()),
            "n_events": pa.array([T], pa.int64()),
            "ssb_num": pa.array([ssb_num], pa.int64()),
            "sst_num": pa.array([sst_num], pa.int64()),
            "eta2": pa.array(
                [float(np.float64(ssb_num) / np.float64(sst_num))],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH seqd AS (
  SELECT user_id, event_type, epoch_us(ts) AS us, event_id,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY epoch_us(ts), event_id) AS prev
  FROM events),
cc AS (
  SELECT prev AS from_t, event_type AS to_t, CAST(COUNT(*) AS BIGINT) AS c
  FROM seqd WHERE prev IS NOT NULL GROUP BY 1, 2),
outs AS (SELECT from_t, CAST(SUM(c) AS BIGINT) AS ci FROM cc GROUP BY 1),
m AS (
  SELECT
    (SELECT CAST(SUM(c) AS BIGINT) FROM cc) AS n,
    (SELECT CAST(SUM(CAST(ROUND(CAST(ci AS DOUBLE)
                                * LOG2(CAST(ci AS DOUBLE))
                                * 1000000.0, 0) AS BIGINT)) AS BIGINT)
     FROM outs) AS sum_out,
    (SELECT CAST(SUM(CAST(ROUND(CAST(c AS DOUBLE)
                                * LOG2(CAST(c AS DOUBLE))
                                * 1000000.0, 0) AS BIGINT)) AS BIGINT)
     FROM cc) AS sum_edge)
SELECT n AS n_transitions, sum_out AS sum_out_micro,
       sum_edge AS sum_edge_micro,
       CAST(sum_out - sum_edge AS DOUBLE)
         / (1000000.0 * CAST(n AS DOUBLE)) AS entropy_rate
FROM m
""")
def events_markov_entropy(sf_dir: str):
    """MARKOV ENTROPY RATE of the event-type process (conditional entropy
    H(next | current) over observed transitions — the sequence-
    predictability number behind next-action modeling; compare to the
    marginal entropy to measure how much history helps): the identity
    H*N = sum_i c_i*log2(c_i) - sum_ij c_ij*log2(c_ij) (c_i = outgoing
    totals) turns the whole thing into the DIFFERENCE of two
    micro-quantized c*log2(c) sums over the bounded transition matrix
    (events_transitions' one-shuffle machinery feeds it); exact int64
    arithmetic, one final division."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    _empty = pa.table(
        {
            "from_t": pa.array([], pa.string()),
            "to_t": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        }
    )

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ty = np.asarray(g["event_type"].to_pylist())
        order = np.lexsort((eid, us, uid))
        uid, ty = uid[order], ty[order]
        leg = np.zeros(len(uid), dtype=bool)
        leg[1:] = uid[1:] == uid[:-1]
        i = np.nonzero(leg)[0]
        if len(i) == 0:
            return _empty
        frm = ty[i - 1]
        too = ty[i]
        pair = np.char.add(np.char.add(frm, "|"), too)
        u, c = np.unique(pair, return_counts=True)
        parts = np.char.partition(u, "|")
        return pa.table(
            {
                "from_t": pa.array(parts[:, 0].tolist(), pa.string()),
                "to_t": pa.array(parts[:, 2].tolist(), pa.string()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    agg = fold_table(  # bounded: types x types
        map_groups_partitioned(ds, "user_id", per_part), ["from_t", "to_t"], {"c": ("c", "sum")}
    )
    frm = np.asarray(agg["from_t"].to_pylist())
    c = agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(c.sum())
    u = np.unique(frm)
    c_i = np.zeros(len(u), np.int64)
    np.add.at(c_i, np.searchsorted(u, frm), c)

    def _micro(v: np.ndarray) -> int:
        return int(
            sql_round_np(
                v.astype(np.float64) * np.log2(v.astype(np.float64))
                * 1000000.0,
                0,
            )
            .astype(np.int64)
            .sum()
        )

    sum_out = _micro(c_i)
    sum_edge = _micro(c)
    h = float(np.float64(sum_out - sum_edge) / (1000000.0 * np.float64(n)))
    return pa.table(
        {
            "n_transitions": pa.array([n], pa.int64()),
            "sum_out_micro": pa.array([sum_out], pa.int64()),
            "sum_edge_micro": pa.array([sum_edge], pa.int64()),
            "entropy_rate": pa.array([h], pa.float64()),
        }
    )


@query(sql="""
WITH cc AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1),
ranked AS (
  SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS i FROM cc),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(c) AS BIGINT) AS s,
         CAST(2 * SUM(i * c) AS BIGINT) AS wsum2
  FROM ranked)
SELECT n AS n_users, s AS n_events, wsum2,
       CAST(wsum2 AS DOUBLE) / CAST(n * s AS DOUBLE)
         - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE) AS gini
FROM m
""")
def events_user_gini(sf_dir: str):
    """USER-ACTIVITY INEQUALITY (Gini over per-user event counts — the
    80/20 check on engagement): unlike events_cell_gini's geometry-
    bounded cells, USERS are an unbounded key — so the Gini comes from
    the VALUE HISTOGRAM of per-user counts (distinct activity levels
    reach the driver, never users — the doc_quality_buckets contract):
    for a run of m users sharing count v starting after cumulative rank
    a, sum(i*c_i) over the run = v*(m*a + m*(m+1)/2) EXACTLY, because
    rank order within equal values is irrelevant to the weighted sum.
    Two packed count passes (user counts -> count-of-counts), all-
    integer moments, one fixed final chain."""
    ds = _read(sf_dir, "events", ["user_id"])

    def ukey(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False).astype(
                        np.uint64
                    ),
                    pa.uint64(),
                )
            }
        )

    per_user = count_by_u64(
        ds.map_batches(ukey, batch_format="pyarrow", batch_size=131072),
        "key",
    )

    def vkey(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(
                        np.uint64
                    ),
                    pa.uint64(),
                )
            }
        )

    hist = _collect_table(
        count_by_u64(
            per_user.map_batches(vkey, batch_format="pyarrow"), "key"
        )
    )  # <= distinct activity levels rows by construction
    v = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = hist["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(v)
    v, m = v[order], m[order]
    n = int(m.sum())
    s = int((v * m).sum())
    a = np.concatenate([[0], np.cumsum(m)])[:-1]  # users before each run
    wsum = int((v * (m * a + m * (m + 1) // 2)).sum())
    gini = float(
        np.float64(2 * wsum) / np.float64(n * s)
        - np.float64(n + 1) / np.float64(n)
    )
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "n_events": pa.array([s], pa.int64()),
            "wsum2": pa.array([2 * wsum], pa.int64()),
            "gini": pa.array([gini], pa.float64()),
        }
    )


_ACF_LAGS = (1, 24, 168)  # hour, day, week


_ACF_LAG_SQL = ", ".join(str(lag) for lag in _ACF_LAGS)



@query(sql=f"""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
lags AS (SELECT UNNEST([{_ACF_LAG_SQL}]) AS lag),
pairs AS (
  SELECT l.lag, a.c AS x, b.c AS y
  FROM lags l JOIN grid a ON TRUE JOIN grid b ON b.h = a.h + l.lag),
m AS (
  SELECT lag, CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM pairs GROUP BY 1)
SELECT CAST(lag AS BIGINT) AS lag_h, m AS n_pairs,
       m * sxy - sx * sy AS r_num,
       CAST(m * sxy - sx * sy AS DOUBLE)
         / NULLIF(SQRT(CAST(m * sxx - sx * sx AS DOUBLE))
                  * SQRT(CAST(m * syy - sy * sy AS DOUBLE)), 0) AS acf
FROM m ORDER BY 1
""")
def events_hourly_acf(sf_dir: str):
    """TEMPORAL AUTOCORRELATION of the hourly event series at the three
    structural lags (1 h persistence, 24 h diurnal, 168 h weekly — the
    seasonality fingerprint a forecaster reads first): the hourly count
    series over the full [min, max] hour span (implicit zeros included —
    they are real observations), Pearson r at each lag from EXACT integer
    moments over the lag-joined pairs (m, sx, sy, sxy, sxx, syy — the
    zero hours enter only through the span), one fixed two-sqrt chain
    per lag. One packed count pass (bounded by the horizon), driver
    fold."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": pa.array(
                    (us // 3600000000).astype(np.uint64), pa.uint64()
                )
            }
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-hours rows by construction
    rows = []
    if t.num_rows:  # empty corpus -> empty result (ADVICE r4: no h.min() crash)
        h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0, h1 = int(h.min()), int(h.max())
        series = np.zeros(h1 - h0 + 1, np.int64)
        series[h - h0] = c

        for lag in _ACF_LAGS:
            if len(series) <= lag:
                continue
            x = series[:-lag]
            y = series[lag:]
            m = len(x)
            sx, sy = int(x.sum()), int(y.sum())
            sxy = int((x * y).sum())
            sxx = int((x * x).sum())
            syy = int((y * y).sum())
            num = m * sxy - sx * sy
            vx = m * sxx - sx * sx
            vy = m * syy - sy * sy
            # zero variance on either leg: r undefined -> NULL (SQL NULLIF)
            r = (
                float(np.float64(num) / (np.sqrt(np.float64(vx)) * np.sqrt(np.float64(vy))))
                if vx != 0 and vy != 0
                else None
            )
            rows.append((lag, m, num, r))
    return pa.table(
        {
            "lag_h": pa.array([r[0] for r in rows], pa.int64()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "r_num": pa.array([r[2] for r in rows], pa.int64()),
            "acf": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (SELECT epoch_us(ts) // {_STG_DAY_US} AS d FROM events),
dd AS (SELECT CAST(MIN(d) AS BIGINT) AS d0,
              CAST(MAX(d) - MIN(d) + 1 AS BIGINT) AS nd FROM pts),
days AS (
  SELECT UNNEST(range(0, (SELECT nd FROM dd))) AS k),
cnts AS (
  SELECT p.d - dd.d0 AS k, CAST(COUNT(*) AS BIGINT) AS c
  FROM pts p, dd GROUP BY 1),
grid AS (
  SELECT days.k, CAST(COALESCE(cnts.c, 0) AS BIGINT) AS c
  FROM days LEFT JOIN cnts USING (k)),
cum AS (
  SELECT k, CAST(SUM(c) OVER (ORDER BY k) AS BIGINT) AS cum FROM grid),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM pts)
SELECT CAST(c.k AS BIGINT) AS split_day_idx,
       dd.nd AS n_days,
       tot.t AS total,
       dd.nd * c.cum - (c.k + 1) * tot.t AS cusum_num,
       CAST(c.cum AS DOUBLE) / CAST(c.k + 1 AS DOUBLE) AS mean_before,
       CAST(tot.t - c.cum AS DOUBLE)
         / CAST(dd.nd - c.k - 1 AS DOUBLE) AS mean_after
FROM cum c, dd, tot
WHERE c.k < dd.nd - 1
ORDER BY ABS(dd.nd * c.cum - (c.k + 1) * tot.t) DESC, c.k
LIMIT 1
""")
def events_changepoint(sf_dir: str):
    """CHANGE-POINT DETECTION — the single most likely level shift in the
    daily event-count series by maximum CUSUM (the monitoring primitive
    behind "did traffic change, and when": Page's cumulative-sum test,
    the offline argmax form). All-integer: with D days and total T, the
    scaled CUSUM at split k is num_k = D*cum_k - (k+1)*T (the mean-
    centered partial sum times D, so no division until the final
    means), the change point is argmax |num_k| with ties to the EARLIEST
    day — ABS over exact int64 both sides, a total order. Zero-filled
    daily grid (quiet days count). ONE count_by_u64 pass bounded by the
    horizon (days, not rows, reach the driver — the events_hourly
    contract); means emitted as one exact division each."""
    empty = pa.table(
        {
            "split_day_idx": pa.array([], pa.int64()),
            "n_days": pa.array([], pa.int64()),
            "total": pa.array([], pa.int64()),
            "cusum_num": pa.array([], pa.int64()),
            "mean_before": pa.array([], pa.float64()),
            "mean_after": pa.array([], pa.float64()),
        }
    )
    ds = _read(sf_dir, "events", ["ts"])

    def day_key(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // _STG_DAY_US).astype(np.uint64),
                             pa.uint64())}
        )

    t_ = _collect_table(  # <= horizon-days rows by construction
        count_by_u64(
            ds.map_batches(day_key, batch_format="pyarrow",
                           batch_size=131072),
            "key",
        )
    )
    if t_.num_rows == 0:
        return empty
    day = t_["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = t_["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    d0, d1 = int(day.min()), int(day.max())
    nd = d1 - d0 + 1
    if nd < 2:
        return empty
    c = np.zeros(nd, np.int64)
    c[day - d0] = cnt
    t = int(c.sum())
    cum = np.cumsum(c)
    k = np.arange(nd - 1, dtype=np.int64)  # splits AFTER day k
    num = nd * cum[:-1] - (k + 1) * t
    best = int(np.lexsort((k, -np.abs(num)))[0])
    cb = int(cum[best])
    return pa.table(
        {
            "split_day_idx": pa.array([best], pa.int64()),
            "n_days": pa.array([nd], pa.int64()),
            "total": pa.array([t], pa.int64()),
            "cusum_num": pa.array([int(num[best])], pa.int64()),
            "mean_before": pa.array(
                [float(np.float64(cb) / np.float64(best + 1))], pa.float64()),
            "mean_after": pa.array(
                [float(np.float64(t - cb) / np.float64(nd - best - 1))],
                pa.float64()),
        }
    )


_PGRAM_PERIODS = (12, 24, 168)  # hours: half-day, diurnal, weekly


@query(sql=f"""
WITH pts AS (SELECT epoch_us(ts) // 3600000000 AS h FROM events),
h0 AS (SELECT CAST(MIN(h) AS BIGINT) AS h0 FROM pts),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts),
per AS (SELECT UNNEST([12, 24, 168]) AS p),
terms AS (
  SELECT per.p,
         CAST(ROUND(COS(2 * PI() * CAST((pts.h - h0.h0) % per.p AS DOUBLE)
                        / CAST(per.p AS DOUBLE)) * 1000000.0)
              AS BIGINT) AS qc,
         CAST(ROUND(SIN(2 * PI() * CAST((pts.h - h0.h0) % per.p AS DOUBLE)
                        / CAST(per.p AS DOUBLE)) * 1000000.0)
              AS BIGINT) AS qs
  FROM pts, h0, per),
sums AS (
  SELECT p, CAST(SUM(qc) AS BIGINT) AS s_cos,
         CAST(SUM(qs) AS BIGINT) AS s_sin
  FROM terms GROUP BY 1)
SELECT CAST(s.p AS BIGINT) AS period_h, s.s_cos, s.s_sin,
       (CAST(s.s_cos AS DOUBLE) * CAST(s.s_cos AS DOUBLE)
        + CAST(s.s_sin AS DOUBLE) * CAST(s.s_sin AS DOUBLE))
         / (CAST(tot.n * 1000000 AS DOUBLE)
            * CAST(tot.n * 1000000 AS DOUBLE)) AS power_norm
FROM sums s, tot
""")
def events_periodogram(sf_dir: str):
    """PERIODOGRAM at the structural periods (12 h / 24 h / 168 h) — the
    FREQUENCY-domain sibling of events_hourly_acf's lag-domain view
    (spectral power says how much of the series' energy lives at each
    cycle; ACF says how self-similar it is at each shift — different
    statistics, both standard). Exactness: for period p, cos/sin of
    2*pi*t/p depend only on (t - h0) mod p, a FINITE set of <= 168
    arguments, so each event contributes an integer micro-quantized
    cosine table entry (ROUND(cos*1e6) — both engines round the same <=
    168 libm values, the coarse-quantize contract for transcendentals)
    and the spectral sums are order-free INTEGER sums; power is one fixed
    double chain over the two integer sums. ONE map_batches pass with
    per-batch (period, partial-sum) rows into a tiny groupby — no
    zero-fill needed (empty hours contribute zero energy by
    definition)."""
    empty = pa.table(
        {
            "period_h": pa.array([], pa.int64()),
            "s_cos": pa.array([], pa.int64()),
            "s_sin": pa.array([], pa.int64()),
            "power_norm": pa.array([], pa.float64()),
        }
    )
    ds = _read(sf_dir, "events", ["ts"])

    def hour_of(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"h": pa.array(us // 3_600_000_000, pa.int64())})

    hours = ds.map_batches(hour_of, batch_format="pyarrow", batch_size=131072)
    h0 = fold_table(hours, [], {"h0": ("h", "min")})
    if not h0.num_rows:
        return empty
    h0 = int(h0["h0"][0].as_py())
    n_total = ds.count()

    # per-period micro-quantized trig tables (the <=168 shared arguments)
    tables = {}
    for p in _PGRAM_PERIODS:
        m = np.arange(p, dtype=np.float64)
        tables[p] = (
            sql_round_np(np.cos(2.0 * np.pi * m / p) * 1e6, 0).astype(np.int64),
            sql_round_np(np.sin(2.0 * np.pi * m / p) * 1e6, 0).astype(np.int64),
        )

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        t = us // 3_600_000_000 - h0
        rows_p, rows_c, rows_s = [], [], []
        for p in _PGRAM_PERIODS:
            qc, qs = tables[p]
            m = (t % p).astype(np.int64)
            rows_p.append(p)
            rows_c.append(int(qc[m].sum()))
            rows_s.append(int(qs[m].sum()))
        return pa.table(
            {
                "period_h": pa.array(rows_p, pa.int64()),
                "c": pa.array(rows_c, pa.int64()),
                "s": pa.array(rows_s, pa.int64()),
            }
        )

    agg = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072),
        "period_h",
        {"c": ("c", "sum"), "s": ("s", "sum")},
    )
    pp = agg["period_h"].to_numpy(zero_copy_only=False).astype(np.int64)
    cc = agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    ss = agg["s"].to_numpy(zero_copy_only=False).astype(np.int64)
    den = float(np.float64(n_total) * 1e6)
    power = [
        float(
            (np.float64(int(c_)) * np.float64(int(c_))
             + np.float64(int(s_)) * np.float64(int(s_)))
            / (np.float64(den) * np.float64(den))
        )
        for c_, s_ in zip(cc, ss)
    ]
    return pa.table(
        {
            "period_h": pa.array(pp, pa.int64()),
            "s_cos": pa.array(cc, pa.int64()),
            "s_sin": pa.array(ss, pa.int64()),
            "power_norm": pa.array(power, pa.float64()),
        }
    )


_CCF_A, _CCF_B = "click", "purchase"
_CCF_LAGS = (0, 1, 2, 3)


_CCF_LAG_SQL = ", ".join(str(lag) for lag in _CCF_LAGS)



@query(sql=f"""
WITH pts AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS h FROM events
  WHERE event_type IN ('{_CCF_A}', '{_CCF_B}')),
cc AS (
  SELECT h, CAST(COUNT(CASE WHEN event_type = '{_CCF_A}' THEN 1 END)
                 AS BIGINT) AS a,
         CAST(COUNT(CASE WHEN event_type = '{_CCF_B}' THEN 1 END)
              AS BIGINT) AS b
  FROM pts GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h, COALESCE(cc.a, 0) AS a, COALESCE(cc.b, 0) AS b
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
lags AS (SELECT UNNEST([{_CCF_LAG_SQL}]) AS lag),
pairs AS (
  SELECT l.lag, x.a AS x, y.b AS y
  FROM lags l JOIN grid x ON TRUE JOIN grid y ON y.h = x.h + l.lag),
m AS (
  SELECT lag, CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM pairs GROUP BY 1)
SELECT CAST(lag AS BIGINT) AS lag_h, m AS n_pairs,
       m * sxy - sx * sy AS r_num,
       CAST(m * sxy - sx * sy AS DOUBLE)
         / NULLIF(SQRT(CAST(m * sxx - sx * sx AS DOUBLE))
                  * SQRT(CAST(m * syy - sy * sy AS DOUBLE)), 0) AS ccf
FROM m ORDER BY 1
""")
def events_type_ccf(sf_dir: str):
    """CROSS-CORRELATION between the hourly '{A}' and '{B}' series at
    lags 0-3 h ("does clicking lead purchasing, and by how long" — the
    marketing-funnel lead-lag classic): both zero-filled hourly series
    over the shared [min, max] span, Pearson r of (a_t, b_t+lag) pairs
    from EXACT integer moments per lag, one two-sqrt chain each. One
    packed (type-bit, hour) count pass bounded by the horizon."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def pack(b: pa.Table) -> pa.Table:
        ty = np.asarray(b["event_type"].to_pylist())
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hour = us // 3600000000
        is_a = ty == _CCF_A
        is_b = ty == _CCF_B
        keep = is_a | is_b
        key = (
            is_b[keep].astype(np.uint64) << np.uint64(40)
        ) | hour[keep].astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 2 x horizon-hours rows by construction
    rows = []
    if t.num_rows:  # no A/B events at all -> empty result (ADVICE r4)
        key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_b = (key >> np.uint64(40)).astype(bool)
        hour = (key & np.uint64((1 << 40) - 1)).astype(np.int64)
        h0, h1 = int(hour.min()), int(hour.max())
        sa = np.zeros(h1 - h0 + 1, np.int64)
        sb = np.zeros(h1 - h0 + 1, np.int64)
        sa[hour[~is_b] - h0] = c[~is_b]
        sb[hour[is_b] - h0] = c[is_b]

        for lag in _CCF_LAGS:
            if len(sa) <= lag:
                continue
            x = sa[: len(sa) - lag] if lag else sa
            y = sb[lag:]
            m = len(x)
            sx, sy = int(x.sum()), int(y.sum())
            sxy = int((x * y).sum())
            sxx = int((x * x).sum())
            syy = int((y * y).sum())
            num = m * sxy - sx * sy
            vx = m * sxx - sx * sx
            vy = m * syy - sy * sy
            # one series constant (e.g. zero purchases): r undefined -> NULL
            r = (
                float(np.float64(num) / (np.sqrt(np.float64(vx)) * np.sqrt(np.float64(vy))))
                if vx != 0 and vy != 0
                else None
            )
            rows.append((lag, m, num, r))
    return pa.table(
        {
            "lag_h": pa.array([r[0] for r in rows], pa.int64()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "r_num": pa.array([r[2] for r in rows], pa.int64()),
            "ccf": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


@query(sql="""
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS prev
  FROM events)
SELECT prev AS from_type, event_type AS to_type, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL GROUP BY 1, 2
""")
def events_transitions(sf_dir: str):
    """Per-user event-type transition counts (the Markov-chain / sequence-
    model view of the event stream): for every consecutive pair within a
    user's (ts, event_id)-ordered history, count (from_type -> to_type).
    One hash-partition shuffle by user; pairs reduce per partition to the
    types x types partial (bounded at any scale), then a tiny final
    groupby-sum. Same deterministic total order as the other window
    queries (ties broken by event_id)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def per_part(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid = uid[order]
        et = np.asarray(g["event_type"].to_pylist())[order]
        same = uid[1:] == uid[:-1]
        frm, to = et[:-1][same], et[1:][same]
        keys = np.char.add(np.char.add(frm, "|"), to)
        u, c = np.unique(keys, return_counts=True)
        parts = np.char.partition(u, "|")
        return pa.table(
            {
                "from_type": pa.array(parts[:, 0], pa.string()),
                "to_type": pa.array(parts[:, 2], pa.string()),
                "n_part": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return fold_table(
        map_groups_partitioned(ds, "user_id", per_part), ["from_type", "to_type"], {"n": ("n_part", "sum")}
    )


@query(sql="""
WITH base AS (
  SELECT event_type, CAST(ROUND(value * 100.0) AS BIGINT) AS cv, user_id % 97 AS u
  FROM events
), s AS (
  SELECT event_type,
         CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(cv) AS DOUBLE) AS sx, CAST(SUM(u) AS DOUBLE) AS sy,
         CAST(SUM(cv * cv) AS DOUBLE) AS sxx, CAST(SUM(u * u) AS DOUBLE) AS syy,
         CAST(SUM(cv * u) AS DOUBLE) AS sxy
  FROM base GROUP BY 1
)
SELECT event_type,
       ROUND((n * sxy - sx * sy) / SQRT((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS corr_vu
FROM s
""")
def events_corr_moments(sf_dir: str):
    """Pearson correlation per event_type via EXACT integer moment sketches
    (n, Sx, Sy, Sxx, Syy, Sxy over int cents x user bucket): the classic
    mergeable-moments pattern — per-batch int64 partials, one tiny 5-key
    reduce, closed-form corr at the end. The int sums are exact up to
    ~8.6e9 rows per key at these magnitudes; beyond that promote the
    partials to int128/float-compensated (noted, not needed at bench
    scale)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def moments(b: pa.Table) -> pa.Table:
        cv = sql_round_np(b["value"].to_numpy(zero_copy_only=False) * 100.0, 0).astype(np.int64)
        u = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64) % 97
        return pa.table(
            {"event_type": b["event_type"], "sx": cv, "sy": u, "sxx": cv * cv, "syy": u * u, "sxy": cv * u}
        )

    t = fold_table(
        ds.map_batches(moments, batch_format="pyarrow", batch_size=131072),
        "event_type",
        {"n": (None, "count"), **{c: (c, "sum") for c in ("sx", "sy", "sxx", "syy", "sxy")}},
    )
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    sx = t["sx"].to_numpy(zero_copy_only=False).astype(np.float64)
    sy = t["sy"].to_numpy(zero_copy_only=False).astype(np.float64)
    sxx = t["sxx"].to_numpy(zero_copy_only=False).astype(np.float64)
    syy = t["syy"].to_numpy(zero_copy_only=False).astype(np.float64)
    sxy = t["sxy"].to_numpy(zero_copy_only=False).astype(np.float64)
    corr = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    return pa.table(
        {
            "event_type": t["event_type"],
            "corr_vu": pa.array(sql_round_np(corr, 6), pa.float64()),
        }
    )


_HILL_K = 200


@query(sql=f"""
WITH ranked AS (
  SELECT value, ROW_NUMBER() OVER (ORDER BY value DESC, event_id) AS rn
  FROM events WHERE value > 0.0),
top AS (SELECT value, rn FROM ranked WHERE rn <= {_HILL_K + 1}),
ref AS (SELECT MAX(rn) AS m, MIN(value) AS x_ref FROM top),
t AS (
  SELECT CAST(ROUND(LN(top.value / ref.x_ref) * 1000000.0, 0) AS BIGINT)
           AS q
  FROM top, ref WHERE top.rn <= ref.m - 1),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_tail,
         CAST(SUM(q) AS BIGINT) AS sum_q
  FROM t)
SELECT s.n_tail, ref.x_ref AS x_kplus1, s.sum_q AS sum_lnratio_micro,
       CASE WHEN s.sum_q = 0 THEN NULL
            ELSE CAST(s.n_tail * 1000000 AS DOUBLE)
                   / CAST(s.sum_q AS DOUBLE) END AS hill_alpha
FROM s, ref
""")
def events_hill_tail(sf_dir: str):
    """HILL TAIL-INDEX ESTIMATOR (extreme-value statistics: the power-law
    exponent alpha of the upper tail of event values from the top-k order
    statistics — THE heavy-tail diagnostic for revenue / latency / degree
    distributions; alpha <= 2 means infinite variance and every
    mean-based statistic downstream is unstable). Hill: 1/alpha = mean of
    ln(x_(i) / x_(k+1)) over the k largest values. Plan: per-batch top-
    (k+1) prune (value desc, event_id tie-break — the global-top-k
    combiner contract), driver merges the bounded partials; each ratio
    x_i/x_ref is ONE correctly-rounded double division of raw parquet
    doubles, its ln micro-quantized (sql_round_np == DuckDB ROUND), the
    tail sum is an exact integer sum, and alpha = ONE double division.
    Boundary ties contribute ln(1) = 0 — rank-based k is tie-safe. At
    100 TB only k+1 rows per block leave the map side."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        m = v > 0.0
        v, eid = v[m], eid[m]
        order = np.lexsort((eid, -v))[: _HILL_K + 1]
        return pa.table(
            {
                "value": pa.array(v[order], pa.float64()),
                "event_id": pa.array(eid[order], pa.int64()),
            }
        )

    t = _collect_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072)
    )  # <= (k+1) x n_blocks rows
    v = t["value"].to_numpy(zero_copy_only=False)
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((eid, -v))[: _HILL_K + 1]
    v = v[order]
    if len(v) == 0:
        return pa.table(
            {
                "n_tail": pa.array([0], pa.int64()),
                "x_kplus1": pa.array([None], pa.float64()),
                "sum_lnratio_micro": pa.array([None], pa.int64()),
                "hill_alpha": pa.array([None], pa.float64()),
            }
        )
    kk = len(v) - 1  # == min(_HILL_K, n_positive - 1)
    x_ref = float(v[kk])
    terms = sql_round_np(np.log(v[:kk] / x_ref) * 1000000.0, 0).astype(
        np.int64
    )
    sum_q = int(terms.sum()) if kk > 0 else None
    alpha = (
        float(np.float64(kk * 1000000) / np.float64(sum_q))
        if sum_q
        else None
    )
    return pa.table(
        {
            "n_tail": pa.array([kk], pa.int64()),
            "x_kplus1": pa.array([x_ref], pa.float64()),
            "sum_lnratio_micro": pa.array([sum_q], pa.int64()),
            "hill_alpha": pa.array([alpha], pa.float64()),
        }
    )


_HURST_WINDOWS = (16, 64, 256)  # hours; log2 = 4, 6, 8 (equally spaced)


@query(sql="""
WITH pts AS (SELECT epoch_us(ts) // 3600000000 AS h FROM events),
hh AS (SELECT CAST(MIN(h) AS BIGINT) AS h0,
              CAST(MAX(h) - MIN(h) + 1 AS BIGINT) AS t FROM pts),
hours AS (SELECT UNNEST(range(0, (SELECT t FROM hh))) AS k),
cnts AS (SELECT p.h - hh.h0 AS k, CAST(COUNT(*) AS BIGINT) AS c
         FROM pts p, hh GROUP BY 1),
grid AS (SELECT hours.k, CAST(COALESCE(cnts.c, 0) AS BIGINT) AS c
         FROM hours LEFT JOIN cnts USING (k)),
win AS (
  SELECT w.w, grid.k // w.w AS wid, grid.k % w.w AS j, grid.c
  FROM grid, (VALUES (16), (64), (256)) w(w), hh
  WHERE grid.k < (hh.t // w.w) * w.w),
agg AS (
  SELECT w, wid, CAST(SUM(c) AS BIGINT) AS sx,
         CAST(SUM(c * c) AS BIGINT) AS sxx
  FROM win GROUP BY 1, 2),
cum AS (
  SELECT w, wid, j,
         CAST(SUM(c) OVER (PARTITION BY w, wid ORDER BY j) AS BIGINT) AS cx
  FROM win),
cd AS (
  SELECT cum.w, cum.wid, cum.w * cum.cx - (cum.j + 1) * agg.sx AS cumd
  FROM cum JOIN agg ON agg.w = cum.w AND agg.wid = cum.wid),
rng AS (
  SELECT w, wid, CAST(MAX(cumd) - MIN(cumd) AS BIGINT) AS r
  FROM cd GROUP BY 1, 2),
s2t AS (SELECT w, wid, w * sxx - sx * sx AS s2 FROM agg),
qv AS (
  SELECT rng.w,
         CAST(ROUND(LOG2(CAST(rng.r AS DOUBLE)
                         / SQRT(CAST(s2t.s2 AS DOUBLE))) * 1000000.0, 0)
              AS BIGINT) AS q
  FROM rng JOIN s2t ON s2t.w = rng.w AND s2t.wid = rng.wid
  WHERE s2t.s2 > 0 AND rng.r > 0),
per AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n,
               CAST(SUM(q) AS BIGINT) AS sq
        FROM qv GROUP BY 1),
piv AS (
  SELECT CAST(COALESCE(MAX(CASE WHEN w = 16 THEN n END), 0) AS BIGINT)
           AS n16,
         CAST(COALESCE(MAX(CASE WHEN w = 16 THEN sq END), 0) AS BIGINT)
           AS sq16,
         CAST(COALESCE(MAX(CASE WHEN w = 64 THEN n END), 0) AS BIGINT)
           AS n64,
         CAST(COALESCE(MAX(CASE WHEN w = 64 THEN sq END), 0) AS BIGINT)
           AS sq64,
         CAST(COALESCE(MAX(CASE WHEN w = 256 THEN n END), 0) AS BIGINT)
           AS n256,
         CAST(COALESCE(MAX(CASE WHEN w = 256 THEN sq END), 0) AS BIGINT)
           AS sq256
  FROM per)
SELECT hh.t AS n_hours, piv.n16 AS n_w16, piv.sq16 AS sumq_w16,
       piv.n64 AS n_w64, piv.sq64 AS sumq_w64,
       piv.n256 AS n_w256, piv.sq256 AS sumq_w256,
       CASE WHEN piv.n16 = 0 OR piv.n256 = 0 THEN NULL
            ELSE (CAST(piv.sq256 AS DOUBLE) / CAST(piv.n256 AS DOUBLE)
                  - CAST(piv.sq16 AS DOUBLE) / CAST(piv.n16 AS DOUBLE))
                 / 4000000.0 END AS hurst
FROM hh, piv
""")
def events_hurst(sf_dir: str):
    """HURST EXPONENT by rescaled-range analysis (long-range dependence
    of the hourly traffic series: H ~ 0.5 = memoryless, H -> 1 =
    persistent trends — THE self-similarity diagnostic for load
    forecasting, and the reason naive Poisson capacity models fail on
    web traffic). R/S per non-overlapping window of w hours, mean
    log2(R/S) per w in {16, 64, 256}, H = the OLS slope over log2(w) —
    with three EQUALLY-SPACED x points the slope reduces exactly to
    (y_256 - y_16) / 4 (the middle point cancels). Exactness: the
    zero-filled hourly grid comes from ONE horizon-bounded count pass
    (the events_changepoint contract); within each window the range
    statistic stays INTEGER via w-scaling (cumd_K = w*cum_K - K*sum, so
    R_scaled = max - min is exact) and S^2_scaled = w*sxx - sx^2 is
    exact; R/S = one correctly-rounded double division by SQRT, its
    log2 micro-quantized, window sums exact integers, H = one fixed
    double chain. Degenerate windows (zero range or zero variance) are
    excluded on both sides; H is NULL unless both end sizes have
    windows."""
    ds = _read(sf_dir, "events", ["ts"])

    def hour_key(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64),
                             pa.uint64())}
        )

    t_ = _collect_table(  # <= horizon-hours rows by construction
        count_by_u64(
            ds.map_batches(hour_key, batch_format="pyarrow",
                           batch_size=131072),
            "key",
        )
    )
    per: dict[int, tuple[int, int]] = {}
    if t_.num_rows == 0:
        n_hours = None
    else:
        hour = t_["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t_["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0, h1 = int(hour.min()), int(hour.max())
        n_hours = h1 - h0 + 1
        c = np.zeros(n_hours, np.int64)
        c[hour - h0] = cnt
        for w in _HURST_WINDOWS:
            nwin = n_hours // w
            if nwin == 0:
                continue
            x = c[: nwin * w].reshape(nwin, w)
            sx = x.sum(axis=1)
            sxx = (x * x).sum(axis=1)
            cum = np.cumsum(x, axis=1)
            kk = np.arange(1, w + 1, dtype=np.int64)
            cumd = w * cum - kk[None, :] * sx[:, None]
            r = cumd.max(axis=1) - cumd.min(axis=1)
            s2 = w * sxx - sx * sx
            m = (s2 > 0) & (r > 0)
            if not m.any():
                continue
            q = sql_round_np(
                np.log2(
                    r[m].astype(np.float64) / np.sqrt(s2[m].astype(np.float64))
                )
                * 1000000.0,
                0,
            ).astype(np.int64)
            per[w] = (int(m.sum()), int(q.sum()))
    n16, sq16 = per.get(16, (0, 0))
    n64, sq64 = per.get(64, (0, 0))
    n256, sq256 = per.get(256, (0, 0))
    hurst = (
        float(
            (np.float64(sq256) / np.float64(n256)
             - np.float64(sq16) / np.float64(n16))
            / 4000000.0
        )
        if n16 and n256
        else None
    )
    return pa.table(
        {
            "n_hours": pa.array([n_hours], pa.int64()),
            "n_w16": pa.array([n16], pa.int64()),
            "sumq_w16": pa.array([sq16], pa.int64()),
            "n_w64": pa.array([n64], pa.int64()),
            "sumq_w64": pa.array([sq64], pa.int64()),
            "n_w256": pa.array([n256], pa.int64()),
            "sumq_w256": pa.array([sq256], pa.int64()),
            "hurst": pa.array([hurst], pa.float64()),
        }
    )


@query(sql="""
WITH e AS (
  SELECT (epoch_us(ts) // 86400000000) % 7 AS dow,
         CAST(ROUND(value * 100.0, 0) AS BIGINT) AS cents
  FROM events),
per AS (
  SELECT CAST(dow AS BIGINT) AS dow,
         CAST(CASE WHEN dow IN (2, 3) THEN 1 ELSE 0 END AS BIGINT)
           AS is_weekend,
         CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(SUM(cents) AS BIGINT) AS sum_cents
  FROM e GROUP BY 1, 2),
tot AS (
  SELECT CAST(SUM(n_events) AS BIGINT) AS tn,
         CAST(SUM(sum_cents) AS BIGINT) AS ts_,
         CAST(SUM(CASE WHEN is_weekend = 1 THEN n_events ELSE 0 END)
              AS BIGINT) AS n_we,
         CAST(SUM(CASE WHEN is_weekend = 1 THEN sum_cents ELSE 0 END)
              AS BIGINT) AS s_we,
         CAST(SUM(CASE WHEN is_weekend = 0 THEN n_events ELSE 0 END)
              AS BIGINT) AS n_wd,
         CAST(SUM(CASE WHEN is_weekend = 0 THEN sum_cents ELSE 0 END)
              AS BIGINT) AS s_wd
  FROM per)
SELECT dow, is_weekend, n_events, sum_cents,
       CAST(sum_cents AS DOUBLE) / CAST(n_events AS DOUBLE) AS mean_cents
FROM per
UNION ALL
SELECT -1, NULL, tn, ts_,
       CASE WHEN n_we = 0 OR s_wd = 0 THEN NULL
            ELSE CAST(s_we AS DOUBLE) * CAST(n_wd AS DOUBLE)
                   / (CAST(n_we AS DOUBLE) * CAST(s_wd AS DOUBLE)) END
FROM tot
""")
def events_dow_profile(sf_dir: str):
    """DAY-OF-WEEK PROFILE + WEEKEND LIFT (the calendar complement of the
    hour-of-day views: weekly seasonality and how much monetary activity
    shifts to the weekend). dow = epoch-day % 7 (0 = Thursday, so
    weekend = dow in {2, 3} — the epoch convention, identical integer
    arithmetic both sides; no locale-dependent DAYOFWEEK). Per dow:
    exact integer event count and cents sum, mean = one division. A
    dow = -1 summary row carries totals and, in mean_cents, the weekend
    LIFT = (weekend cents * weekday events) / (weekend events * weekday
    cents) — a ratio of exact integers. One 7-bin combiner pass; the
    driver folds 7 x O(#blocks) integers."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((us // 86400000000) % 7).astype(np.int64)
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        n7 = np.bincount(dow, minlength=7).astype(np.int64)
        s7 = np.zeros(7, np.int64)
        np.add.at(s7, dow, cents)
        return pa.table(
            {
                "dow": pa.array(np.arange(7, dtype=np.int64)),
                "n": pa.array(n7, pa.int64()),
                "s": pa.array(s7, pa.int64()),
            }
        )

    parts = _collect_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072)
    )  # 7 x O(#blocks) rows
    dw = parts["dow"].to_numpy(zero_copy_only=False)
    n = np.zeros(7, np.int64)
    s = np.zeros(7, np.int64)
    np.add.at(n, dw, parts["n"].to_numpy(zero_copy_only=False))
    np.add.at(s, dw, parts["s"].to_numpy(zero_copy_only=False))
    keep = n > 0
    dows = np.arange(7, dtype=np.int64)[keep]
    we = np.isin(np.arange(7), (2, 3))
    n_we, s_we = int(n[we].sum()), int(s[we].sum())
    n_wd, s_wd = int(n[~we].sum()), int(s[~we].sum())
    lift = (
        float(
            np.float64(s_we) * np.float64(n_wd)
            / (np.float64(n_we) * np.float64(s_wd))
        )
        if (n_we and s_wd)
        else None
    )
    return pa.table(
        {
            "dow": pa.array(np.r_[dows, [-1]], pa.int64()),
            "is_weekend": pa.array(
                [int(w) for w in we[keep]] + [None], pa.int64()
            ),
            "n_events": pa.array(
                np.r_[n[keep], [int(n.sum())]], pa.int64()
            ),
            "sum_cents": pa.array(
                np.r_[s[keep], [int(s.sum())]], pa.int64()
            ),
            "mean_cents": pa.array(
                [
                    float(np.float64(sv) / np.float64(nv))
                    for sv, nv in zip(s[keep], n[keep])
                ]
                + [lift],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT epoch_us(ts) // 3600000000 AS h,
         ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
hh AS (SELECT CAST(MAX(h) - MIN(h) + 1 AS BIGINT) AS t FROM pts),
ch AS (
  SELECT mlon // 1000 AS gx, mlat // 1000 AS gy, h,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts GROUP BY 1, 2, 3),
per AS (
  SELECT gx, gy, CAST(SUM(c) AS BIGINT) AS sx,
         CAST(SUM(c * c) AS BIGINT) AS sxx
  FROM ch GROUP BY 1, 2),
q AS (
  SELECT CAST(ROUND(LOG2(CAST(per.sx AS DOUBLE) / CAST(hh.t AS DOUBLE))
                    * 1000000.0, 0) AS BIGINT) AS x,
         CAST(ROUND(LOG2(CAST(hh.t * per.sxx - per.sx * per.sx AS DOUBLE)
                         / CAST(hh.t * hh.t AS DOUBLE)) * 1000000.0, 0)
              AS BIGINT) AS y
  FROM per, hh WHERE hh.t * per.sxx - per.sx * per.sx > 0),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(x) AS BIGINT) AS sxi,
         CAST(SUM(y) AS BIGINT) AS syi, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx2
  FROM q)
SELECT m.k AS n_cells_fit, hh.t AS n_hours,
       m.k * m.sxy - m.sxi * m.syi AS slope_num,
       m.k * m.sxx2 - m.sxi * m.sxi AS slope_den,
       CASE WHEN m.k * m.sxx2 - m.sxi * m.sxi = 0 THEN NULL
            ELSE CAST(m.k * m.sxy - m.sxi * m.syi AS DOUBLE)
                   / CAST(m.k * m.sxx2 - m.sxi * m.sxi AS DOUBLE) END
         AS taylor_b
FROM m, hh
""")
def events_taylor_law(sf_dir: str):
    """TAYLOR'S POWER LAW (fluctuation scaling: per-place temporal
    variance grows as mean^b across places — b = 1 is Poisson, b -> 2
    is synchronized/bursty; the universality classic from ecology that
    web traffic obeys too, and the principled way to size per-cell
    capacity headroom). Per contact-lattice cell over the zero-filled
    hourly horizon T: mean = sx/T, var = (T*sxx - sx^2)/T^2 — both
    ratios of EXACT integers (zero hours contribute nothing to sx/sxx,
    so one (cell, hour) count pass suffices; no per-cell zero-fill
    materialized). Quantized log2s (micro-bits), integer OLS moments,
    b = ONE double division. The (cell, hour) table is bounded by
    geometry x horizon — never by event rows. Zero-variance cells are
    excluded on both sides."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (us // 3600000000).astype(np.uint64)
        mlat = (
            ((uid % 12) * 11003) % 120000
            + (uid * 7919) % 2001
            + (eid * 13) % 1001
        )
        mlon = (
            ((uid % 12) * 104729) % 340000
            + (uid * 104729) % 2001
            + (eid * 29) % 1001
        )
        cell = ((mlon // 1000) * 1024 + (mlat // 1000)).astype(np.uint64)
        return pa.table(
            {"key": pa.array((cell << np.uint64(24)) | h, pa.uint64())}
        )

    t_ = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= |cells| x horizon-hours rows by construction
    if t_.num_rows == 0:
        return pa.table(
            {
                "n_cells_fit": pa.array([0], pa.int64()),
                "n_hours": pa.array([None], pa.int64()),
                "slope_num": pa.array([None], pa.int64()),
                "slope_den": pa.array([None], pa.int64()),
                "taylor_b": pa.array([None], pa.float64()),
            }
        )
    key = t_["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t_["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key >> np.uint64(24)).astype(np.int64)
    h = (key & np.uint64((1 << 24) - 1)).astype(np.int64)
    T = int(h.max()) - int(h.min()) + 1
    order = np.argsort(cell, kind="stable")
    cell, c = cell[order], c[order]
    idx = np.nonzero(np.r_[True, cell[1:] != cell[:-1]])[0]
    sx = np.add.reduceat(c, idx)
    sxx = np.add.reduceat(c * c, idx)
    vnum = T * sxx - sx * sx
    m = vnum > 0
    k = int(m.sum())
    x = sql_round_np(
        np.log2(sx[m].astype(np.float64) / np.float64(T)) * 1000000.0, 0
    ).astype(np.int64)
    y = sql_round_np(
        np.log2(vnum[m].astype(np.float64) / np.float64(T * T))
        * 1000000.0,
        0,
    ).astype(np.int64)
    sxi, syi = int(x.sum()), int(y.sum())
    sxy = int((x * y).sum())
    sxx2 = int((x * x).sum())
    num = k * sxy - sxi * syi
    den = k * sxx2 - sxi * sxi
    return pa.table(
        {
            "n_cells_fit": pa.array([k], pa.int64()),
            "n_hours": pa.array([T], pa.int64()),
            "slope_num": pa.array([num], pa.int64()),
            "slope_den": pa.array([den], pa.int64()),
            "taylor_b": pa.array(
                [
                    float(np.float64(num) / np.float64(den))
                    if den
                    else None
                ],
                pa.float64(),
            ),
        }
    )


_AVAR_TAUS = (1, 2, 4, 8, 24)


@query(sql="""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS hn,
               CAST(SUM(c) AS BIGINT) AS total FROM grid),
ind AS (
  SELECT g.h, CASE WHEN g.c * t.hn > t.total THEN 1 ELSE 0 END AS a
  FROM grid g, tot t),
runs AS (
  SELECT CAST(1 + SUM(CASE WHEN a <> pa THEN 1 ELSE 0 END) AS BIGINT) AS r
  FROM (SELECT a, LAG(a) OVER (ORDER BY h) AS pa FROM ind)
  WHERE pa IS NOT NULL),
stat AS (
  SELECT t.hn AS h_bins,
         (SELECT CAST(SUM(a) AS BIGINT) FROM ind) AS n1,
         t.hn - (SELECT CAST(SUM(a) AS BIGINT) FROM ind) AS n2,
         COALESCE((SELECT r FROM runs), 1) AS r
  FROM tot t)
SELECT h_bins, n1 AS n_above, n2 AS n_below, r AS n_runs,
       CASE WHEN 2 * n1 * n2 * (2 * n1 * n2 - h_bins) > 0 AND h_bins > 1
            THEN CAST(h_bins * (r - 1) - 2 * n1 * n2 AS DOUBLE)
                 * SQRT(CAST(h_bins - 1 AS DOUBLE))
                 / SQRT(CAST(2 * n1 * n2 * (2 * n1 * n2 - h_bins) AS DOUBLE))
            ELSE NULL END AS z
FROM stat
""")
def events_runs_test(sf_dir: str):
    """WALD-WOLFOWITZ RUNS TEST on the hourly traffic series (is
    above-average load RANDOMLY interleaved with below-average load, or
    does it clump — the nonparametric regime-persistence check that
    needs no distributional assumption at all): the zero-filled hourly
    count series, the above-GLOBAL-MEAN indicator computed by EXACT
    integer cross-multiplication (y_i * H > total — no mean division
    ever happens), runs counted as 1 + sign changes. z is derived from
    all-integer terms: with A = H*(R-1) - 2*n1*n2 and
    B = 2*n1*n2*(2*n1*n2 - H), z = A * sqrt(H-1) / sqrt(B) — two sqrts
    of exact integers, one multiply, one divide (bit-equal when the SQL
    mirrors the tree); NULL when degenerate (B <= 0 or H < 2). One
    packed horizon-bounded count pass; driver folds the series."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    if t.num_rows == 0:  # mirror the SQL's empty-grid row exactly
        return pa.table(
            {
                "h_bins": pa.array([0], pa.int64()),
                "n_above": pa.array([None], pa.int64()),
                "n_below": pa.array([None], pa.int64()),
                "n_runs": pa.array([1], pa.int64()),
                "z": pa.array([None], pa.float64()),
            }
        )
    h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    h0 = int(h.min())
    series = np.zeros(int(h.max()) - h0 + 1, np.int64)
    series[h - h0] = c
    H = len(series)
    total = int(series.sum())
    above = (series * H > total).astype(np.int64)
    n1 = int(above.sum())
    n2 = H - n1
    runs = 1 + int((above[1:] != above[:-1]).sum()) if H > 1 else 1
    A = H * (runs - 1) - 2 * n1 * n2
    B = 2 * n1 * n2 * (2 * n1 * n2 - H)
    z = (
        float(np.float64(A) * np.sqrt(np.float64(H - 1)) / np.sqrt(np.float64(B)))
        if B > 0 and H > 1
        else None
    )
    return pa.table(
        {
            "h_bins": pa.array([H], pa.int64()),
            "n_above": pa.array([n1], pa.int64()),
            "n_below": pa.array([n2], pa.int64()),
            "n_runs": pa.array([runs], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )


@query(sql="""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
lagged AS (
  SELECT c, LAG(c) OVER (ORDER BY h) AS pc, LEAD(c) OVER (ORDER BY h) AS nc
  FROM grid),
stat AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM grid) AS h_bins,
         CAST(COALESCE(SUM(CASE WHEN (c > pc AND c > nc)
                                  OR (c < pc AND c < nc)
                                THEN 1 ELSE 0 END), 0) AS BIGINT) AS tp
  FROM lagged WHERE pc IS NOT NULL AND nc IS NOT NULL)
SELECT h_bins, tp AS n_turning,
       CASE WHEN h_bins >= 3
            THEN CAST(3 * tp - 2 * (h_bins - 2) AS DOUBLE) * SQRT(90.0)
                 / (3.0 * SQRT(CAST(16 * h_bins - 29 AS DOUBLE)))
            ELSE NULL END AS z
FROM stat
""")
def events_turning_points(sf_dir: str):
    """TURNING-POINT TEST on the hourly traffic series (the second
    classical randomness check beside the runs test — counts STRICT
    local maxima/minima; too few means trend/momentum, too many means
    oscillation): zero-filled hourly counts, tp counted vectorized on
    the interior, expectation 2(H-2)/3 and variance (16H-29)/90 folded
    into all-integer terms: with A = 3*tp - 2*(H-2),
    z = A * sqrt(90) / (3 * sqrt(16H-29)) — sqrts of exact integers,
    term-mirrored in SQL; NULL when H < 3. One packed horizon-bounded
    count pass; plateaus (ties) are not turning points on either side
    by the strict inequalities."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    if t.num_rows == 0:
        return pa.table(
            {
                "h_bins": pa.array([0], pa.int64()),
                "n_turning": pa.array([0], pa.int64()),
                "z": pa.array([None], pa.float64()),
            }
        )
    h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    h0 = int(h.min())
    series = np.zeros(int(h.max()) - h0 + 1, np.int64)
    series[h - h0] = c
    H = len(series)
    tp = 0
    if H >= 3:
        prev, cur, nxt = series[:-2], series[1:-1], series[2:]
        tp = int(
            (((cur > prev) & (cur > nxt)) | ((cur < prev) & (cur < nxt))).sum()
        )
    A = 3 * tp - 2 * (H - 2)
    z = (
        float(
            np.float64(A) * np.sqrt(np.float64(90.0))
            / (3.0 * np.sqrt(np.float64(16 * H - 29)))
        )
        if H >= 3
        else None
    )
    return pa.table(
        {
            "h_bins": pa.array([H], pa.int64()),
            "n_turning": pa.array([tp], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )


@query(sql="""
WITH uc AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1),
t AS (SELECT c, NTILE(10) OVER (ORDER BY c, user_id) AS dec FROM uc)
SELECT CAST(dec AS BIGINT) AS decile, CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(c) AS BIGINT) AS events_sum,
       CAST(CAST(SUM(c) AS BIGINT) AS DOUBLE)
         / CAST((SELECT CAST(SUM(c) AS BIGINT) FROM uc) AS DOUBLE) AS share
FROM t GROUP BY 1 ORDER BY 1
""")
def events_lorenz_deciles(sf_dir: str):
    """LORENZ DECILE TABLE of per-user activity (the distributional
    companion to events_user_gini's single number: how much of all
    traffic does each activity decile carry — the '90% of load from the
    top decile' capacity fact): users ranked by (count, user_id) and cut
    into NTILE(10) groups. The Ray side never needs user identities:
    users with equal counts are interchangeable across a decile
    boundary, so the VALUE->FREQUENCY histogram of per-user counts (a
    count_by_u64 over counts — bounded by distinct activity levels, not
    users) plus NTILE's deterministic group sizes reproduce the decile
    sums exactly. All integers until one share division per row."""
    ds = _read(sf_dir, "events", ["user_id"])

    def pack(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    uc = count_by_u64(
        ds.map_batches(pack, batch_format="pyarrow", batch_size=131072), "key"
    )
    hist = _collect_table(
        count_by_u64(
            uc.map_batches(
                lambda b: pa.table({"key": pc.cast(b["cnt"], pa.uint64())}),
                batch_format="pyarrow",
            ),
            "key",
        )
    )  # activity level -> user frequency; <= distinct levels rows
    if hist.num_rows == 0:
        return pa.table(
            {
                "decile": pa.array([], pa.int64()),
                "n_users": pa.array([], pa.int64()),
                "events_sum": pa.array([], pa.int64()),
                "share": pa.array([], pa.float64()),
            }
        )
    c = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    f = hist["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(c)
    c, f = c[order], f[order]
    n = int(f.sum())
    total = int((c * f).sum())
    q, r = divmod(n, 10)
    sizes = [q + 1 if k <= r else q for k in range(1, 11)]  # NTILE split
    rows = []
    level = 0  # index into (c, f); rem = users left at this level
    rem = int(f[0])
    for dec, size in enumerate(sizes, start=1):
        if size == 0:
            continue
        need, ev = size, 0
        while need > 0:
            take = min(need, rem)
            ev += take * int(c[level])
            rem -= take
            need -= take
            if rem == 0 and level + 1 < len(c):
                level += 1
                rem = int(f[level])
        rows.append((dec, size, ev))
    return pa.table(
        {
            "decile": pa.array([r_[0] for r_ in rows], pa.int64()),
            "n_users": pa.array([r_[1] for r_ in rows], pa.int64()),
            "events_sum": pa.array([r_[2] for r_ in rows], pa.int64()),
            "share": pa.array(
                [float(np.float64(r_[2]) / np.float64(total)) for r_ in rows],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h,
         CAST(COUNT(CASE WHEN event_type = 'click' THEN 1 END) AS BIGINT) AS x,
         CAST(COUNT(CASE WHEN event_type = 'purchase' THEN 1 END) AS BIGINT)
           AS y
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
g AS (
  SELECT gg.h, COALESCE(cc.x, 0) AS x, COALESCE(cc.y, 0) AS y
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) gg
  LEFT JOIN cc ON cc.h = gg.h),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS hn, CAST(SUM(x) AS BIGINT) AS sx,
               CAST(SUM(y) AS BIGINT) AS sy FROM g),
ind AS (
  SELECT g.h, CASE WHEN g.x * t.hn > t.sx THEN 1 ELSE 0 END AS cx,
         CASE WHEN g.y * t.hn > t.sy THEN 1 ELSE 0 END AS cy
  FROM g, tot t),
tri AS (
  SELECT LEAD(cy) OVER (ORDER BY h) AS a, cy AS b, cx AS c FROM ind
  QUALIFY a IS NOT NULL),
n AS (SELECT a, b, c, CAST(COUNT(*) AS BIGINT) AS n FROM tri GROUP BY 1, 2, 3),
mm AS (SELECT CAST(SUM(n) AS BIGINT) AS m FROM n),
nb AS (SELECT b, CAST(SUM(n) AS BIGINT) AS nb FROM n GROUP BY 1),
nab AS (SELECT a, b, CAST(SUM(n) AS BIGINT) AS nab FROM n GROUP BY 1, 2),
nbc AS (SELECT b, c, CAST(SUM(n) AS BIGINT) AS nbc FROM n GROUP BY 1, 2),
terms AS (
  SELECT n.n,
         CAST(ROUND(LOG2(CAST(n.n * nb.nb AS DOUBLE)
                         / CAST(nab.nab * nbc.nbc AS DOUBLE))
                    * 1000000.0, 0) AS BIGINT) AS lm
  FROM n
  JOIN nb ON nb.b = n.b
  JOIN nab ON nab.a = n.a AND nab.b = n.b
  JOIN nbc ON nbc.b = n.b AND nbc.c = n.c)
SELECT (SELECT m FROM mm) AS n_triples,
       CAST(SUM(n * lm) AS BIGINT) AS te_num_micro,
       CAST(CAST(SUM(n * lm) AS BIGINT) AS DOUBLE) / 1000000.0
         / CAST((SELECT m FROM mm) AS DOUBLE) AS te_bits
FROM terms
""")
def events_transfer_entropy(sf_dir: str):
    """TRANSFER ENTROPY click -> purchase (the directed,
    model-free causality cousin of events_type_ccf's symmetric
    correlation: does knowing the click regime NOW reduce uncertainty
    about the purchase regime NEXT hour beyond purchase's own history?):
    both hourly series are binarized by EXACT integer above-mean
    cross-multiplication (runs-test contract), the (y_next, y, x) triple
    counts are 8 exact integers, each term's single libm log2 is
    micro-quantized once and weighted into an EXACT integer numerator;
    te_bits = num / 1e6 / M. One packed (hour, type-code) count pass
    bounded by horizon x 3; everything after is driver arithmetic on 8
    cells."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (us // 3600000000).astype(np.uint64)
        et = np.asarray(b["event_type"].to_pylist())
        code = np.zeros(len(et), np.uint64)
        code[et == "click"] = 1
        code[et == "purchase"] = 2
        return pa.table({"key": pa.array(h * np.uint64(4) + code, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    _empty = pa.table(
        {
            "n_triples": pa.array([0], pa.int64()),
            "te_num_micro": pa.array([None], pa.int64()),
            "te_bits": pa.array([None], pa.float64()),
        }
    )
    if t.num_rows == 0:
        return _empty
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    h, code = key // 4, key % 4
    h0, h1 = int(h.min()), int(h.max())
    H = h1 - h0 + 1
    x = np.zeros(H, np.int64)
    y = np.zeros(H, np.int64)
    np.add.at(x, (h - h0)[code == 1], cnt[code == 1])
    np.add.at(y, (h - h0)[code == 2], cnt[code == 2])
    if H < 2:
        return _empty
    sx, sy = int(x.sum()), int(y.sum())
    cx = (x * H > sx).astype(np.int64)
    cy = (y * H > sy).astype(np.int64)
    a, b, c = cy[1:], cy[:-1], cx[:-1]
    cell = a * 4 + b * 2 + c
    n = np.bincount(cell, minlength=8).astype(np.int64)
    M = int(n.sum())
    n_b = np.zeros(2, np.int64)  # marginal over y_t
    n_ab = np.zeros(4, np.int64)  # (y_next, y_t)
    n_bc = np.zeros(4, np.int64)  # (y_t, x_t)
    for idx in range(8):
        ai, bi, ci = idx // 4, (idx // 2) % 2, idx % 2
        n_b[bi] += n[idx]
        n_ab[ai * 2 + bi] += n[idx]
        n_bc[bi * 2 + ci] += n[idx]
    num = 0
    for idx in range(8):
        if n[idx] == 0:
            continue
        ai, bi, ci = idx // 4, (idx // 2) % 2, idx % 2
        lm = int(
            sql_round_np(
                np.log2(
                    np.float64(int(n[idx]) * int(n_b[bi]))
                    / np.float64(int(n_ab[ai * 2 + bi]) * int(n_bc[bi * 2 + ci]))
                )
                * 1000000.0,
                0,
            )
        )
        num += int(n[idx]) * lm
    te = float(np.float64(num) / 1000000.0 / np.float64(M)) if M > 0 else None
    return pa.table(
        {
            "n_triples": pa.array([M], pa.int64()),
            "te_num_micro": pa.array([num], pa.int64()),
            "te_bits": pa.array([te], pa.float64()),
        }
    )


_POT_EIGHTHS = (4, 5, 6, 7)


_POT_EIGHTHS_SQL = ", ".join(str(t) for t in _POT_EIGHTHS)



@query(sql=f"""
WITH cents AS (
  SELECT CAST(ROUND(value * 100.0, 0) AS BIGINT) AS c FROM events),
mx AS (SELECT CAST(MAX(c) AS BIGINT) AS m FROM cents),
th AS (
  SELECT CAST(mx.m * t.t // 8 AS BIGINT) AS u
  FROM (SELECT UNNEST([{_POT_EIGHTHS_SQL}]) AS t) t, mx)
SELECT th.u AS threshold_cents,
       CAST(COUNT(CASE WHEN c.c > th.u THEN 1 END) AS BIGINT) AS n_exceed,
       CAST(COALESCE(SUM(CASE WHEN c.c > th.u THEN c.c - th.u END), 0)
            AS BIGINT) AS excess_sum,
       CASE WHEN COUNT(CASE WHEN c.c > th.u THEN 1 END) > 0
            THEN CAST(SUM(CASE WHEN c.c > th.u THEN c.c - th.u END) AS DOUBLE)
                 / CAST(COUNT(CASE WHEN c.c > th.u THEN 1 END) AS DOUBLE)
            ELSE NULL END AS mean_excess
FROM th LEFT JOIN cents c ON TRUE
GROUP BY 1 ORDER BY 1
""")
def events_mean_excess(sf_dir: str):
    """PEAKS-OVER-THRESHOLD MEAN-EXCESS PROFILE of the event values (the
    extreme-value-theory diagnostic: a mean excess that RISES with the
    threshold means a heavy/Pareto tail, flat means exponential — the
    principled way to pick what 'anomalously large transaction' means):
    values quantized to integer cents once (sql_round contract),
    thresholds at 4/8..7/8 of the GLOBAL max (exact integer u =
    max*t//8), and per threshold the exceedance count and the EXACT
    integer excess sum; mean_excess = ONE double division. Two passes:
    a max fold, then one 4-threshold partial pass (O(#blocks x 4)
    combiner rows to a tiny groupby)."""
    ds = _read(sf_dir, "events", ["value"])

    def vmax(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        if len(cents) == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table({"m": pa.array([int(cents.max())], pa.int64())})

    mt = _collect_table(ds.map_batches(vmax, batch_format="pyarrow", batch_size=131072))
    if mt.num_rows == 0:
        return pa.table(
            {
                "threshold_cents": pa.array([], pa.int64()),
                "n_exceed": pa.array([], pa.int64()),
                "excess_sum": pa.array([], pa.int64()),
                "mean_excess": pa.array([], pa.float64()),
            }
        )
    cmax = int(pc.max(mt["m"]).as_py())
    us = np.array([cmax * t // 8 for t in _POT_EIGHTHS], dtype=np.int64)

    def partial(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        n = np.zeros(len(us), np.int64)
        s = np.zeros(len(us), np.int64)
        for i, u in enumerate(us):
            exc = cents[cents > u]
            n[i] = len(exc)
            s[i] = int((exc - u).sum())
        return pa.table(
            {
                "threshold_cents": pa.array(us, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    agg = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072),
        "threshold_cents",
        {"n_exceed": ("n", "sum"), "excess_sum": ("s", "sum")},
    )
    n = agg["n_exceed"].to_numpy(zero_copy_only=False).astype(np.int64)
    s = agg["excess_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "threshold_cents": agg["threshold_cents"],
            "n_exceed": pa.array(n, pa.int64()),
            "excess_sum": pa.array(s, pa.int64()),
            "mean_excess": pa.array(
                [
                    float(np.float64(si) / np.float64(ni)) if ni > 0 else None
                    for si, ni in zip(s, n)
                ],
                pa.float64(),
            ),
        }
    )


_HAAR_MAX_LEVEL = 8


@query(sql=f"""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
pw AS (SELECT CAST(POWER(2, FLOOR(LOG2(CAST(h1 - h0 + 1 AS DOUBLE))))
              AS BIGINT) AS p FROM span),
grid AS (
  SELECT g.h - (SELECT h0 FROM span) AS i, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
levels AS (
  SELECT UNNEST(generate_series(1, {_HAAR_MAX_LEVEL})) AS j),
details AS (
  SELECT l.j, g.i // (CAST(1 AS BIGINT) << l.j) AS k,
         CAST(SUM(CASE WHEN (g.i // (CAST(1 AS BIGINT) << (l.j - 1))) % 2 = 0
                       THEN g.c ELSE -g.c END) AS BIGINT) AS d
  FROM levels l JOIN grid g ON g.i < (SELECT p FROM pw)
  WHERE (CAST(1 AS BIGINT) << l.j) <= (SELECT p FROM pw)
  GROUP BY 1, 2),
energy AS (
  SELECT j AS level, CAST(COUNT(*) AS BIGINT) AS n_coeffs,
         CAST(SUM(d * d) AS BIGINT) AS energy
  FROM details GROUP BY 1)
SELECT level, n_coeffs, energy,
       CASE WHEN CAST(SUM(energy) OVER () AS BIGINT) > 0
            THEN CAST(energy AS DOUBLE)
                 / CAST(CAST(SUM(energy) OVER () AS BIGINT) AS DOUBLE)
            ELSE NULL END AS energy_frac
FROM energy ORDER BY 1
""")
def events_haar_energy(sf_dir: str):
    """HAAR WAVELET ENERGY SPECTRUM of the hourly traffic series (which
    TIME SCALE carries the variance — the multiresolution complement of
    the periodogram: dyadic detail energies localize bursts in time
    where Fourier smears them): the zero-filled hourly series truncated
    to P = the largest power of two <= H; at level j (scale 2^j hours)
    the detail coefficient of block k is (first-half sum) - (second-half
    sum) — an EXACT integer — and energy_j = sum(d^2) is an exact
    integer too; energy_frac = energy_j / total over levels is ONE
    double division of exact integers. One packed horizon-bounded count
    pass; the driver folds a <= horizon-length series. Levels run
    1..min(8, log2 P)."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    rows = []
    if t.num_rows:
        h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0 = int(h.min())
        series = np.zeros(int(h.max()) - h0 + 1, np.int64)
        series[h - h0] = c
        H = len(series)
        P = 1 << (H.bit_length() - 1)
        x = series[:P]
        for j in range(1, _HAAR_MAX_LEVEL + 1):
            w = 1 << j
            if w > P:
                break
            blocks = x.reshape(P // w, 2, w // 2).sum(axis=2)
            d = blocks[:, 0] - blocks[:, 1]
            rows.append((j, P // w, int((d * d).sum())))
    tot = sum(r[2] for r in rows)
    return pa.table(
        {
            "level": pa.array([r[0] for r in rows], pa.int64()),
            "n_coeffs": pa.array([r[1] for r in rows], pa.int64()),
            "energy": pa.array([r[2] for r in rows], pa.int64()),
            "energy_frac": pa.array(
                [
                    (float(np.float64(r[2]) / np.float64(tot)) if tot > 0 else None)
                    for r in rows
                ],
                pa.float64(),
            ),
        }
    )


_AVAR_TAU_SQL = ", ".join(str(t) for t in _AVAR_TAUS)



@query(sql=f"""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h - (SELECT h0 FROM span) AS i, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
taus AS (SELECT UNNEST([{_AVAR_TAU_SQL}]) AS tau),
blocks AS (
  SELECT t.tau, g.i // t.tau AS k, CAST(SUM(g.c) AS BIGINT) AS y
  FROM taus t JOIN grid g
    ON g.i < ((SELECT h1 - h0 + 1 FROM span) // t.tau) * t.tau
  GROUP BY 1, 2),
agg AS (
  SELECT tau, CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM blocks GROUP BY 1)
SELECT CAST(tau AS BIGINT) AS tau_h, m AS n_blocks,
       m * syy - sy * sy AS fano_num, m * sy AS fano_den,
       CASE WHEN m * sy > 0
            THEN CAST(m * syy - sy * sy AS DOUBLE) / CAST(m * sy AS DOUBLE)
            ELSE NULL END AS fano
FROM agg WHERE m >= 2 ORDER BY 1
""")
def events_fano_profile(sf_dir: str):
    """FANO FACTOR PROFILE (index of dispersion var/mean of block counts
    vs window size — the clumping view that completes the trio:
    events_taylor_law scales across SPACE, events_allan_variance tracks
    successive-difference noise, Fano measures absolute
    over/under-dispersion per time scale; F=1 is Poisson at every tau):
    complete non-overlapping block sums over the zero-filled hourly
    series (allan contract), population-variance identity kept in EXACT
    integers — fano = (M*syy - sy*sy) / (M*sy), emitted WITH its integer
    numerator/denominator so the hash checks the algebra; one packed
    horizon-bounded count pass."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    rows = []
    if t.num_rows:
        h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0 = int(h.min())
        series = np.zeros(int(h.max()) - h0 + 1, np.int64)
        series[h - h0] = c
        for tau in _AVAR_TAUS:
            m = len(series) // tau
            if m < 2:
                continue
            y = series[: m * tau].reshape(m, tau).sum(axis=1)
            sy = int(y.sum())
            syy = int((y * y).sum())
            num = m * syy - sy * sy
            den = m * sy
            fano = float(np.float64(num) / np.float64(den)) if den > 0 else None
            rows.append((tau, m, num, den, fano))
    return pa.table(
        {
            "tau_h": pa.array([r[0] for r in rows], pa.int64()),
            "n_blocks": pa.array([r[1] for r in rows], pa.int64()),
            "fano_num": pa.array([r[2] for r in rows], pa.int64()),
            "fano_den": pa.array([r[3] for r in rows], pa.int64()),
            "fano": pa.array([r[4] for r in rows], pa.float64()),
        }
    )





@query(sql=f"""
WITH cc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS c
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cc),
grid AS (
  SELECT g.h - (SELECT h0 FROM span) AS i, COALESCE(cc.c, 0) AS c
  FROM (SELECT UNNEST(generate_series((SELECT h0 FROM span),
                                      (SELECT h1 FROM span))) AS h) g
  LEFT JOIN cc ON cc.h = g.h),
taus AS (SELECT UNNEST([{_AVAR_TAU_SQL}]) AS tau),
blocks AS (
  SELECT t.tau, g.i // t.tau AS k, CAST(SUM(g.c) AS BIGINT) AS y
  FROM taus t JOIN grid g
    ON g.i < ((SELECT h1 - h0 + 1 FROM span) // t.tau) * t.tau
  GROUP BY 1, 2),
diffs AS (
  SELECT a.tau, b.y - a.y AS d
  FROM blocks a JOIN blocks b ON b.tau = a.tau AND b.k = a.k + 1),
agg AS (
  SELECT tau, CAST(COUNT(*) + 1 AS BIGINT) AS m,
         CAST(SUM(d * d) AS BIGINT) AS num
  FROM diffs GROUP BY 1)
SELECT CAST(tau AS BIGINT) AS tau_h, m AS n_blocks, num AS avar_num,
       CAST(num AS DOUBLE) / CAST(2 * (m - 1) * tau * tau AS DOUBLE) AS avar
FROM agg WHERE m >= 2 ORDER BY 1
""")
def events_allan_variance(sf_dir: str):
    """ALLAN VARIANCE of the hourly event-rate series at averaging times
    tau = 1/2/4/8/24 h (the clock-stability statistic repurposed as the
    traffic-stability profile: white/Poisson noise falls as 1/tau, rate
    flicker flattens, drift RISES — which regime a feed is in decides
    how long a capacity average is trustworthy): the zero-filled hourly
    count series (events_hourly_acf contract), non-overlapping block
    sums y_k over tau hours (only COMPLETE blocks), numerator
    sum((y_{k+1}-y_k)^2) kept as an EXACT integer, and
    avar(tau) = num / (2*(m-1)*tau^2) as ONE double division of exact
    integers. One packed count pass bounded by the horizon; driver folds
    <= horizon-hours rows. Taus with fewer than two complete blocks are
    omitted on both sides."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((us // 3600000000).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-hours rows
    rows = []
    if t.num_rows:
        h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0 = int(h.min())
        series = np.zeros(int(h.max()) - h0 + 1, np.int64)
        series[h - h0] = c
        for tau in _AVAR_TAUS:
            m = len(series) // tau
            if m < 2:
                continue
            y = series[: m * tau].reshape(m, tau).sum(axis=1)
            d = y[1:] - y[:-1]
            num = int((d * d).sum())
            avar = float(
                np.float64(num) / np.float64(2 * (m - 1) * tau * tau)
            )
            rows.append((tau, m, num, avar))
    return pa.table(
        {
            "tau_h": pa.array([r[0] for r in rows], pa.int64()),
            "n_blocks": pa.array([r[1] for r in rows], pa.int64()),
            "avar_num": pa.array([r[2] for r in rows], pa.int64()),
            "avar": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


@query(sql="""
WITH cc AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1),
h AS (
  SELECT c AS v, CAST(COUNT(*) AS BIGINT) AS m FROM cc GROUP BY 1),
runs AS (
  SELECT v, m,
         COALESCE(SUM(m) OVER (ORDER BY v
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS a
  FROM h),
tot AS (
  SELECT CAST(SUM(m) AS BIGINT) AS n, CAST(SUM(v * m) AS BIGINT) AS s
  FROM h),
ks AS (SELECT * FROM (VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9),(10))
       AS ks(k))
SELECT CAST(ks.k AS BIGINT) AS decile,
       CAST(ks.k * tot.n // 10 AS BIGINT) AS cum_users,
       CAST((SELECT SUM(r.v * LEAST(GREATEST(ks.k * tot.n // 10 - r.a, 0),
                                    r.m))
             FROM runs r) AS BIGINT) AS cum_events,
       ROUND(CAST(ks.k * tot.n // 10 AS DOUBLE) / CAST(tot.n AS DOUBLE), 6)
         AS cum_user_share,
       ROUND(CAST((SELECT SUM(r.v * LEAST(GREATEST(
                     ks.k * tot.n // 10 - r.a, 0), r.m)) FROM runs r)
                  AS DOUBLE) / CAST(tot.s AS DOUBLE), 6)
         AS cum_event_share
FROM ks, tot
""")
def events_lorenz_curve(sf_dir: str):
    """LORENZ CURVE of user-activity concentration (the curve behind
    events_user_gini's single number: what share of events do the
    bottom k/10 of users account for?). Same scale contract as the Gini:
    users are an unbounded key, so the curve comes from the VALUE
    HISTOGRAM of per-user counts (distinct activity levels reach the
    driver, never users). Deciles are cut at exact user ranks
    j_k = (k*n)//10 over users ordered by count asc — a cut inside a
    tie run contributes v*(j - run_start), which is rank-order-free and
    therefore DETERMINISTIC where SQL NTILE would not be. All-integer
    masses, ROUND 6 shares."""
    ds = _read(sf_dir, "events", ["user_id"])

    def ukey(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["user_id"].to_numpy(zero_copy_only=False).astype(
                        np.uint64
                    ),
                    pa.uint64(),
                )
            }
        )

    per_user = count_by_u64(
        ds.map_batches(ukey, batch_format="pyarrow", batch_size=131072),
        "key",
    )

    def vkey(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(
                        np.uint64
                    ),
                    pa.uint64(),
                )
            }
        )

    hist = _collect_table(
        count_by_u64(
            per_user.map_batches(vkey, batch_format="pyarrow"), "key"
        )
    )
    v = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = hist["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(v)
    v, m = v[order], m[order]
    n = int(m.sum())
    s = int((v * m).sum())
    a = np.concatenate([[0], np.cumsum(m)])[:-1]  # users before each run
    ks = np.arange(1, 11, dtype=np.int64)
    j = ks * n // 10
    # mass of the first j users: full runs below the cut + the partial run
    full = np.minimum(np.maximum(j[:, None] - a[None, :], 0), m[None, :])
    mass = (full * v[None, :]).sum(axis=1)
    return pa.table(
        {
            "decile": pa.array(ks, pa.int64()),
            "cum_users": pa.array(j, pa.int64()),
            "cum_events": pa.array(mass, pa.int64()),
            "cum_user_share": pa.array(
                sql_round_np(j.astype(np.float64) / np.float64(n), 6),
                pa.float64(),
            ),
            "cum_event_share": pa.array(
                sql_round_np(mass.astype(np.float64) / np.float64(s), 6),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH hc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
allh AS (
  -- scalar generate_series (list + UNNEST) accepts column arguments
  -- where the table function would not
  SELECT UNNEST(generate_series(MIN(h), MAX(h))) AS g FROM hc),
dense AS (
  SELECT allh.g AS h, COALESCE(hc.n, 0) AS n,
         allh.g % 24 AS hod, (allh.g // 24 + 4) % 7 AS dow
  FROM allh LEFT JOIN hc ON hc.h = allh.g),
base AS (
  SELECT CAST(SUM(n) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS mu
  FROM dense),
ha AS (
  SELECT hod, CAST(SUM(n) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) - base.mu
           AS a
  FROM dense, base GROUP BY hod, base.mu),
da AS (
  SELECT dow, CAST(SUM(n) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) - base.mu
           AS b
  FROM dense, base GROUP BY dow, base.mu),
fit AS (
  SELECT CASE WHEN SUM((CAST(d.n AS DOUBLE) - base.mu)
                       * (CAST(d.n AS DOUBLE) - base.mu)) > 0
         THEN 1.0 - SUM((CAST(d.n AS DOUBLE) - (base.mu + ha.a + da.b))
                        * (CAST(d.n AS DOUBLE) - (base.mu + ha.a + da.b)))
                    / SUM((CAST(d.n AS DOUBLE) - base.mu)
                          * (CAST(d.n AS DOUBLE) - base.mu))
         ELSE 0.0 END AS r2
  FROM dense d
  JOIN ha ON ha.hod = d.hod
  JOIN da ON da.dow = d.dow, base)
SELECT 'hour' AS component, CAST(hod AS BIGINT) AS idx,
       ROUND(a, 6) AS effect FROM ha
UNION ALL
SELECT 'dow' AS component, CAST(dow AS BIGINT) AS idx,
       ROUND(b, 6) AS effect FROM da
UNION ALL
SELECT 'fit' AS component, CAST(0 AS BIGINT) AS idx,
       ROUND(r2, 6) AS effect FROM fit
""")
def events_seasonal_decompose(sf_dir: str):
    """ADDITIVE SEASONAL DECOMPOSITION of the hourly event series
    (STL-lite: n(t) ~ mu + hour_of_day(t) + day_of_week(t) + resid — the
    two calendar components a traffic forecaster removes first). The
    series is the full [min, max] hour span with implicit zeros (the
    events_hourly_acf convention). Output: 24 'hour' effect rows, 7 'dow'
    effect rows (group mean minus grand mean), and one 'fit' row carrying
    R^2 = 1 - SSE/SST of the two-component fit. One packed count pass
    (bounded by the horizon), driver fold from EXACT integer group sums;
    the float chain (CAST sums -> divide -> subtract) is mirrored
    operator-for-operator in the SQL, ROUND 6. Epoch day 0 is a Thursday:
    dow = (h // 24 + 4) % 7 puts Monday at 0 on both sides."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": pa.array(
                    (us // 3600000000).astype(np.uint64), pa.uint64()
                )
            }
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-hours rows by construction
    comp, idx, eff = [], [], []
    if t.num_rows:
        h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        h0, h1 = int(h.min()), int(h.max())
        series = np.zeros(h1 - h0 + 1, np.int64)
        series[h - h0] = c
        hours = np.arange(h0, h1 + 1, dtype=np.int64)
        hod = hours % 24
        dow = (hours // 24 + 4) % 7
        H = np.float64(len(series))
        S = np.float64(int(series.sum()))
        mu = S / H
        a = np.zeros(24, np.float64)
        for k in range(24):
            m = hod == k
            if m.any():
                a[k] = np.float64(int(series[m].sum())) / np.float64(
                    int(m.sum())
                ) - mu
                comp.append("hour")
                idx.append(k)
                eff.append(a[k])
        b_ = np.zeros(7, np.float64)
        for k in range(7):
            m = dow == k
            if m.any():
                b_[k] = np.float64(int(series[m].sum())) / np.float64(
                    int(m.sum())
                ) - mu
                comp.append("dow")
                idx.append(k)
                eff.append(b_[k])
        resid = series.astype(np.float64) - (mu + a[hod] + b_[dow])
        dev = series.astype(np.float64) - mu
        sst = np.float64((dev * dev).sum())
        sse = np.float64((resid * resid).sum())
        comp.append("fit")
        idx.append(0)
        eff.append(1.0 - sse / sst if sst > 0 else 0.0)
    return pa.table(
        {
            "component": pa.array(comp, pa.string()),
            "idx": pa.array(np.asarray(idx, np.int64), pa.int64()),
            "effect": pa.array(
                sql_round_np(np.asarray(eff, np.float64), 6), pa.float64()
            ),
        }
    )


@query(sql="""
WITH hc AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1),
allh AS (
  SELECT UNNEST(generate_series(MIN(h), MAX(h))) AS g FROM hc),
dense AS (
  SELECT allh.g AS h, COALESCE(hc.n, 0) AS n
  FROM allh LEFT JOIN hc ON hc.h = allh.g),
lagged AS (
  SELECT d.n AS y, p1.n AS x1, p24.n AS x2
  FROM dense d
  JOIN dense p1 ON p1.h = d.h - 1
  JOIN dense p24 ON p24.h = d.h - 24),
mom AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(x1) AS DOUBLE) AS sx1, CAST(SUM(x2) AS DOUBLE) AS sx2,
         CAST(SUM(y) AS DOUBLE) AS sy,
         CAST(SUM(x1 * x1) AS DOUBLE) AS s11,
         CAST(SUM(x1 * x2) AS DOUBLE) AS s12,
         CAST(SUM(x2 * x2) AS DOUBLE) AS s22,
         CAST(SUM(x1 * y) AS DOUBLE) AS s1y,
         CAST(SUM(x2 * y) AS DOUBLE) AS s2y,
         CAST(SUM(y * y) AS DOUBLE) AS syy
  FROM lagged),
solved AS (
  SELECT n, sy, s1y, s2y, syy,
         (n * (s11 * s22 - s12 * s12)
          - sx1 * (sx1 * s22 - s12 * sx2)
          + sx2 * (sx1 * s12 - s11 * sx2)) AS det,
         (sy * (s11 * s22 - s12 * s12)
          - sx1 * (s1y * s22 - s12 * s2y)
          + sx2 * (s1y * s12 - s11 * s2y)) AS det0,
         (n * (s1y * s22 - s12 * s2y)
          - sy * (sx1 * s22 - s12 * sx2)
          + sx2 * (sx1 * s2y - s1y * sx2)) AS det1,
         (n * (s11 * s2y - s1y * s12)
          - sx1 * (sx1 * s2y - s1y * sx2)
          + sy * (sx1 * s12 - s11 * sx2)) AS det2
  FROM mom),
coef AS (
  SELECT n, sy, s1y, s2y, syy,
         det0 / det AS b0, det1 / det AS b1, det2 / det AS b2
  FROM solved)
SELECT CAST(n AS BIGINT) AS n_hours,
       ROUND(b0, 6) AS b0, ROUND(b1, 6) AS b1, ROUND(b2, 6) AS b24,
       ROUND(1.0 - (syy - (b0 * sy + b1 * s1y + b2 * s2y))
                   / (syy - sy * sy / n), 6) AS r2
FROM coef
""")
def events_ar_fit(sf_dir: str):
    """AUTOREGRESSIVE FIT of the hourly event series: n(t) ~ b0 +
    b1*n(t-1) + b24*n(t-24) — the persistence + diurnal-memory model a
    traffic forecaster fits first (the time-series sibling of
    doc_ols_fit's closed-form OLS). The series is the dense [min, max]
    hour span with implicit zeros (events_hourly_acf convention); the
    ten normal-equation moments over t in [24, H) are EXACT int64 sums
    and the 3x3 Cramer solve + R^2 run the doc_ols_fit expression tree,
    mirrored operator-for-operator in the SQL, ROUND 6. One packed count
    pass (bounded by the horizon), driver fold."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": pa.array(
                    (us // 3600000000).astype(np.uint64), pa.uint64()
                )
            }
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )
    if t.num_rows == 0:
        return pa.table(
            {
                "n_hours": pa.array([], pa.int64()),
                "b0": pa.array([], pa.float64()),
                "b1": pa.array([], pa.float64()),
                "b24": pa.array([], pa.float64()),
                "r2": pa.array([], pa.float64()),
            }
        )
    h = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    h0, h1 = int(h.min()), int(h.max())
    series = np.zeros(h1 - h0 + 1, np.int64)
    series[h - h0] = c
    y = series[24:]
    x1 = series[23:-1]
    x2 = series[:-24]
    n = np.float64(len(y))
    sx1, sx2, sy = (np.float64(int(v.sum())) for v in (x1, x2, y))
    s11 = np.float64(int((x1 * x1).sum()))
    s12 = np.float64(int((x1 * x2).sum()))
    s22 = np.float64(int((x2 * x2).sum()))
    s1y = np.float64(int((x1 * y).sum()))
    s2y = np.float64(int((x2 * y).sum()))
    syy = np.float64(int((y * y).sum()))
    det = (
        n * (s11 * s22 - s12 * s12)
        - sx1 * (sx1 * s22 - s12 * sx2)
        + sx2 * (sx1 * s12 - s11 * sx2)
    )
    det0 = (
        sy * (s11 * s22 - s12 * s12)
        - sx1 * (s1y * s22 - s12 * s2y)
        + sx2 * (s1y * s12 - s11 * s2y)
    )
    det1 = (
        n * (s1y * s22 - s12 * s2y)
        - sy * (sx1 * s22 - s12 * sx2)
        + sx2 * (sx1 * s2y - s1y * sx2)
    )
    det2 = (
        n * (s11 * s2y - s1y * s12)
        - sx1 * (sx1 * s2y - s1y * sx2)
        + sy * (sx1 * s12 - s11 * sx2)
    )
    b0, b1, b2 = det0 / det, det1 / det, det2 / det
    sse = syy - (b0 * sy + b1 * s1y + b2 * s2y)
    sst = syy - sy * sy / n
    r2 = 1.0 - sse / sst
    return pa.table(
        {
            "n_hours": pa.array([int(n)], pa.int64()),
            "b0": pa.array(sql_round_np([b0], 6), pa.float64()),
            "b1": pa.array(sql_round_np([b1], 6), pa.float64()),
            "b24": pa.array(sql_round_np([b2], 6), pa.float64()),
            "r2": pa.array(sql_round_np([r2], 6), pa.float64()),
        }
    )


@query(sql="""
WITH ev AS (
  SELECT user_id, epoch_us(ts) AS us,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events),
gp AS (
  SELECT user_id, rn - 1 AS i,
         us - LAG(us) OVER (PARTITION BY user_id ORDER BY rn) AS g
  FROM ev QUALIFY g IS NOT NULL),
st AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS m, CAST(SUM(g) AS BIGINT) AS sg
  FROM gp GROUP BY 1 HAVING COUNT(*) >= 2),
walk AS (
  SELECT g.user_id, g.i, st.m, st.sg,
         CAST(SUM(st.sg - 2 * st.m * g.g) OVER (
              PARTITION BY g.user_id ORDER BY g.i
              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS c
  FROM gp g JOIN st USING (user_id)),
s AS (
  SELECT user_id, i, sg, m,
         c - LEAST(CAST(0 AS BIGINT),
                   MIN(c) OVER (PARTITION BY user_id ORDER BY i
                                ROWS UNBOUNDED PRECEDING)) AS sv
  FROM walk),
x AS (
  SELECT user_id, i, sg, m, sv,
         COALESCE(LAG(sv) OVER (PARTITION BY user_id ORDER BY i),
                  CAST(0 AS BIGINT)) AS prev
  FROM s)
SELECT user_id,
       MAX(m) AS n_gaps,
       CAST(SUM(CASE WHEN sv > 6 * sg AND prev <= 6 * sg
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_alarms,
       CAST(MIN(CASE WHEN sv > 6 * sg AND prev <= 6 * sg THEN i END)
            AS BIGINT) AS first_alarm,
       MAX(sv) AS s_max,
       ROUND(CAST(MAX(sv) AS DOUBLE)
             / NULLIF(CAST(6 * MAX(sg) AS DOUBLE), 0.0), 6) AS peak_ratio
FROM x GROUP BY 1 ORDER BY 1
""")
def events_cusum_alarm(sf_dir: str):
    """PER-USER SEQUENTIAL CUSUM BURST ALARMS (Page 1954 — the online
    change detector a rate-limiter/abuse system runs per entity, the
    SEQUENTIAL sibling of events_changepoint's offline argmax form):
    over each user's inter-event gaps g_1..g_m (events sorted by ts,
    event_id; users with < 2 gaps excluded), the one-sided statistic
    S_i = max(0, S_{i-1} + (mu/2 - g_i)) with slack kappa = mu/2 rises
    when events arrive faster than half the user's mean gap mu and
    alarms when S_i > h = 3*mu.

    Exactness: everything is scaled by 2m into INTEGERS — the increment
    2m*(mu/2 - g_i) = sum_g - 2m*g_i and the threshold 2m*h = 6*sum_g
    are int64, and the recursion is evaluated through the reflected-
    random-walk closed form S'_i = c_i - min(0, min_{j<=i} c_j) (c =
    prefix sums of the increments), an exact integer identity — so the
    Ray side needs no sequential loop over gaps (one cumsum + one
    minimum.accumulate per user segment) and the SQL mirror needs no
    recursive CTE (two cumulative window functions). Alarms are UPWARD
    CROSSINGS (previous S' <= 6*sum_g < current). Overflow is guarded
    fail-loud at m * sum_g >= 2^62 (the c-drift bound |c_i| <= m*sum_g
    + max increment).

    Scale shape: one hash partition by user_id; per-partition numpy
    segments (per-user closed-form kernel); the driver receives only
    the per-user result rows."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def per_part(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "n_alarms": pa.array([], pa.int64()),
                "first_alarm": pa.array([], pa.int64()),
                "s_max": pa.array([], pa.int64()),
                "peak_ratio": pa.array([], pa.float64()),
            }
        )
        if g.num_rows == 0:
            return empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, us, uid))
        u, t = uid[order], us[order]
        same = u[1:] == u[:-1]
        gaps = (t[1:] - t[:-1])[same]
        gu = u[1:][same]
        if len(gu) == 0:
            return empty
        new = np.r_[True, gu[1:] != gu[:-1]]
        starts = np.nonzero(new)[0]
        ends = np.append(starts[1:], len(gu))
        users, n_gaps, n_alarms, firsts, s_maxes, ratios = [], [], [], [], [], []
        for s, e in zip(starts, ends):
            m = int(e - s)
            if m < 2:
                continue
            gg = gaps[s:e].astype(np.int64)
            sg = int(gg.sum())
            if m * max(sg, 1) >= (1 << 62):
                raise ValueError(
                    "events_cusum_alarm: m * sum_gaps >= 2^62 — the scaled "
                    "walk would overflow int64; re-derive at coarser time "
                    "units for this user volume"
                )
            c = np.cumsum(sg - 2 * m * gg)
            sv = c - np.minimum(np.minimum.accumulate(c), 0)
            thr = 6 * sg
            over = sv > thr
            prev = np.r_[0, sv[:-1]]
            cross = over & (prev <= thr)
            na = int(cross.sum())
            users.append(int(gu[s]))
            n_gaps.append(m)
            n_alarms.append(na)
            firsts.append(int(np.nonzero(cross)[0][0]) + 1 if na else None)
            s_maxes.append(int(sv.max()))
            ratios.append(
                float(sql_round_np(np.float64(sv.max()) / np.float64(thr), 6))
                if thr > 0 else None
            )
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_gaps": pa.array(n_gaps, pa.int64()),
                "n_alarms": pa.array(n_alarms, pa.int64()),
                "first_alarm": pa.array(firsts, pa.int64()),
                "s_max": pa.array(s_maxes, pa.int64()),
                "peak_ratio": pa.array(ratios, pa.float64()),
            }
        )

    out = _collect_table(map_groups_partitioned(ds, "user_id", per_part))
    return out.sort_by("user_id")


_HOLT_SCALE = 1_000_000


@query(sql=f"""
WITH RECURSIVE cnts AS (
  SELECT epoch_us(ts) // 3600000000 AS h, CAST(COUNT(*) AS BIGINT) AS y
  FROM events GROUP BY 1),
span AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM cnts),
idx AS (
  SELECT UNNEST(generate_series(0, (SELECT h1 - h0 FROM span))) AS h),
hours AS MATERIALIZED (
  SELECT i.h, COALESCE(c.y, 0) AS y
  FROM idx i LEFT JOIN cnts c ON c.h = i.h + (SELECT h0 FROM span)),
rec AS (
  SELECT CAST(0 AS BIGINT) AS h,
         (SELECT y FROM hours WHERE h = 0) * {_HOLT_SCALE} AS l,
         ((SELECT y FROM hours WHERE h = 1)
          - (SELECT y FROM hours WHERE h = 0)) * {_HOLT_SCALE} AS b
  FROM (SELECT 1) WHERE (SELECT COUNT(*) FROM hours) >= 2
  UNION ALL
  SELECT hy.h,
         (hy.y * {_HOLT_SCALE} + 3 * (r.l + r.b)) // 4,
         (((hy.y * {_HOLT_SCALE} + 3 * (r.l + r.b)) // 4) - r.l + 7 * r.b) // 8
  FROM rec r JOIN hours hy ON hy.h = r.h + 1)
SELECT r.h, hy.y, r.l, r.b
FROM rec r JOIN hours hy ON hy.h = r.h
ORDER BY r.h
""")
def events_holt(sf_dir: str):
    """HOLT DOUBLE EXPONENTIAL SMOOTHING (level + trend, Holt 1957 — the
    workhorse short-horizon forecaster between the seasonal-decompose
    and AR(2) legs of the series family) over the zero-filled hourly
    event series: alpha = 1/4, beta = 1/8 chosen DYADIC so every
    smoothing step is one integer multiply-add and one truncating
    division on a 1e6 micro grid — l_h = (y_h*S + 3(l+b)) // 4,
    b_h = ((l_h - l) + 7b) // 8 — bit-identical on both engines
    (trend CAN go negative: the engine mirrors DuckDB's
    truncate-toward-zero ``//`` exactly via _tdiv, NOT Python's floor).
    Output: per-hour (h, y, l, b) — the full smoothed state path.

    The recurrence is genuinely SEQUENTIAL (each state feeds the next —
    no closed form once truncation is in the chain), so the oracle is a
    RECURSIVE CTE advancing one hour per step over the MATERIALIZED
    zero-filled series; the engine iterates the same integers on the
    driver. Scale shape: the unbounded pass is the one packed hourly
    count shuffle (events_hourly_acf's combiner); the state walk is
    bounded by the horizon — a model constant, not the corpus. Series
    shorter than 2 hours -> empty result on both engines. Fail-loud at
    |state| >= 2^62 before SQL's BIGINT would wrap."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": pa.array(
                    (us // 3600000000).astype(np.uint64), pa.uint64()
                )
            }
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= horizon-hours rows by construction
    empty = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "y": pa.array([], pa.int64()),
            "l": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
        }
    )
    if t.num_rows == 0:
        return empty
    hk = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    h0 = int(hk.min())
    series = np.zeros(int(hk.max()) - h0 + 1, np.int64)
    series[hk - h0] = c
    if len(series) < 2:
        return empty
    y = [int(v) for v in series]
    s = _HOLT_SCALE
    lvl = y[0] * s
    trd = (y[1] - y[0]) * s
    hs, ls, bs = [0], [lvl], [trd]
    for h in range(1, len(y)):
        lvl_new = _tdiv(y[h] * s + 3 * (lvl + trd), 4)
        trd = _tdiv((lvl_new - lvl) + 7 * trd, 8)
        lvl = lvl_new
        if abs(lvl) >= 1 << 62 or abs(trd) >= 1 << 62:
            raise ValueError(
                "events_holt: smoothing state >= 2^62 — hourly volumes too "
                "large for the micro grid; rescale"
            )
        hs.append(h)
        ls.append(lvl)
        bs.append(trd)
    return pa.table(
        {
            "h": pa.array(hs, pa.int64()),
            "y": pa.array(y, pa.int64()),
            "l": pa.array(ls, pa.int64()),
            "b": pa.array(bs, pa.int64()),
        }
    )


_MP_SWEEPS = 2


def _mp_sql() -> str:
    g = 0
    parts = []
    row_terms, col_terms = [], []
    for _ in range(_MP_SWEEPS):
        parts.append(
            f"""rm{g} AS MATERIALIZED (
  SELECT dow, v AS m FROM (
    SELECT dow, v, ROW_NUMBER() OVER (PARTITION BY dow
                                      ORDER BY v, hod) AS rn
    FROM g{g}) WHERE rn = 12),
g{g + 1} AS MATERIALIZED (
  SELECT g.dow, g.hod, g.v - r.m AS v
  FROM g{g} g JOIN rm{g} r ON r.dow = g.dow),
cm{g} AS MATERIALIZED (
  SELECT hod, v AS m FROM (
    SELECT hod, v, ROW_NUMBER() OVER (PARTITION BY hod
                                      ORDER BY v, dow) AS rn
    FROM g{g + 1}) WHERE rn = 4),
g{g + 2} AS MATERIALIZED (
  SELECT g.dow, g.hod, g.v - c.m AS v
  FROM g{g + 1} g JOIN cm{g} c ON c.hod = g.hod)"""
        )
        row_terms.append(f"rm{g}")
        col_terms.append(f"cm{g}")
        g += 2
    row_sum = " + ".join(f"(SELECT m FROM {t} WHERE {t}.dow = d.dow)"
                         for t in row_terms)
    col_sum = " + ".join(f"(SELECT m FROM {t} WHERE {t}.hod = h.hod)"
                         for t in col_terms)
    return f"""
WITH cnts AS (
  SELECT (epoch_us(ts) // 86400000000) % 7 AS dow,
         (epoch_us(ts) // 3600000000) % 24 AS hod,
         CAST(COUNT(*) AS BIGINT) AS v
  FROM events GROUP BY 1, 2),
g0 AS MATERIALIZED (
  SELECT d.dow, h.hod, COALESCE(c.v, 0) AS v
  FROM (SELECT UNNEST(range(0, 7)) AS dow) d
  CROSS JOIN (SELECT UNNEST(range(0, 24)) AS hod) h
  LEFT JOIN cnts c ON c.dow = d.dow AND c.hod = h.hod),
{",".join(parts)}
SELECT CAST(0 AS BIGINT) AS kind, d.dow AS idx,
       CAST({row_sum} AS BIGINT) AS value
FROM (SELECT UNNEST(range(0, 7)) AS dow) d
UNION ALL
SELECT 1, h.hod, CAST({col_sum} AS BIGINT)
FROM (SELECT UNNEST(range(0, 24)) AS hod) h
UNION ALL
SELECT 2, 0, CAST((SELECT MIN(v) FROM g{g}) AS BIGINT)
UNION ALL
SELECT 2, 1, CAST((SELECT MAX(v) FROM g{g}) AS BIGINT)
ORDER BY 1, 2
"""




@query(sql=_mp_sql())
def events_median_polish(sf_dir: str):
    """TUKEY MEDIAN POLISH of the day-of-week x hour-of-day count matrix
    (EDA's robust two-way decomposition — the outlier-proof sibling of
    events_diurnal_anova's mean model: iteratively subtract row then
    column medians until the table is residual): 2 full sweeps over the
    7 x 24 matrix, medians defined as the LOWER MEDIAN (the ceil(n/2)-th
    order statistic — an ELEMENT of the data, so every intermediate stays
    an exact int64; no half-sum float ever exists, the reason this
    decomposition mirrors bit-for-bit). Output: per-row and per-column
    accumulated effects plus the residual extremes.

    dow = epoch-day % 7 (0 = Thursday, the events_dow_profile
    convention), hod = epoch-hour % 24; empty (dow, hod) combos are real
    zero observations. The SQL mirror unrolls the sweeps as
    ROW_NUMBER-order-statistic CTE pairs over the zero-filled lattice.
    Scale shape: ONE packed 168-bin combiner pass is the only
    corpus-scale work; the polish iterates on the bounded matrix."""
    ds = _read(sf_dir, "events", ["ts"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((us // 86400000000) % 7).astype(np.uint64)
        hod = ((us // 3600000000) % 24).astype(np.uint64)
        return pa.table(
            {"key": pa.array(dow * np.uint64(24) + hod, pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 168 rows by construction
    m = np.zeros((7, 24), np.int64)
    if t.num_rows:
        k = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        m[k // 24, k % 24] = c

    def lower_median(v: np.ndarray) -> int:
        # the ceil(n/2)-th smallest element (1-indexed) — always a datum
        return int(np.sort(v)[(len(v) + 1) // 2 - 1])

    row_eff = np.zeros(7, np.int64)
    col_eff = np.zeros(24, np.int64)
    for _ in range(_MP_SWEEPS):
        for i in range(7):
            med = lower_median(m[i])
            m[i] -= med
            row_eff[i] += med
        for j in range(24):
            med = lower_median(m[:, j])
            m[:, j] -= med
            col_eff[j] += med
    kinds = [0] * 7 + [1] * 24 + [2, 2]
    idxs = list(range(7)) + list(range(24)) + [0, 1]
    vals = (
        row_eff.tolist() + col_eff.tolist()
        + [int(m.min()), int(m.max())]
    )
    return pa.table(
        {
            "kind": pa.array(kinds, pa.int64()),
            "idx": pa.array(idxs, pa.int64()),
            "value": pa.array(vals, pa.int64()),
        }
    )


_ABS_TARGET = "purchase"
_ABS_SF = 0.01
_ABS_VERSION = 1


def _absorbing_dir() -> str:
    return f"/tmp/core_ray_absmarkov_v{_ABS_VERSION}"


def _abs_transitions(event_ids, user_ids, ts_us, types) -> dict:
    """Reference transition counts: per-user (ts, event_id)-ordered walk."""
    by_user: dict = {}
    for e, u, t, ty in zip(event_ids, user_ids, ts_us, types):
        by_user.setdefault(u, []).append((t, e, ty))
    counts: dict = {}
    for evs in by_user.values():
        evs.sort()
        for (_, _, a), (_, _, b) in zip(evs, evs[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def _abs_expected_steps_gauss(counts: dict):
    """Expected steps to absorption at _ABS_TARGET from each transient
    type: Fraction-exact GAUSSIAN ELIMINATION on (I - Q) t = 1. Transient
    set = every type with >= 1 outgoing transition, except the target;
    fail-loud on a singular system (target unreachable)."""
    out_tot: dict = {}
    for (a, _), n in counts.items():
        out_tot[a] = out_tot.get(a, 0) + n
    trans = sorted(t for t in out_tot if t != _ABS_TARGET)
    m = len(trans)
    idx = {t: i for i, t in enumerate(trans)}
    # A = I - Q, b = 1
    a = [[Fraction(0)] * m for _ in range(m)]
    b = [Fraction(1)] * m
    for i, t in enumerate(trans):
        a[i][i] = Fraction(1)
        for j, t2 in enumerate(trans):
            q = Fraction(counts.get((t, t2), 0), out_tot[t])
            a[i][j] -= q
    # partial-pivot-free exact elimination (pivot = first nonzero)
    for col in range(m):
        piv = next(
            (r for r in range(col, m) if a[r][col] != 0), None
        )
        if piv is None:
            raise ValueError(
                "events_absorbing_markov: singular system — target "
                "unreachable from some transient type"
            )
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = a[col][col]
        for r in range(col + 1, m):
            f = a[r][col] / inv
            if f == 0:
                continue
            for c2 in range(col, m):
                a[r][c2] -= f * a[col][c2]
            b[r] -= f * b[col]
    t_vec = [Fraction(0)] * m
    for r in range(m - 1, -1, -1):
        s = b[r]
        for c2 in range(r + 1, m):
            s -= a[r][c2] * t_vec[c2]
        t_vec[r] = s / a[r][r]
    return [(t, out_tot[t], t_vec[idx[t]]) for t in trans]


def _ensure_absorbing_golden(sf_dir: str) -> None:
    if _sf_of(sf_dir) != _ABS_SF:
        return
    root = _absorbing_dir()
    marker = os.path.join(root, ".complete")
    if os.path.exists(marker):
        return
    ev = pq.read_table(
        _p(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    counts = _abs_transitions(
        ev["event_id"].to_pylist(), ev["user_id"].to_pylist(),
        [int(x.value) for x in ev["ts"]], ev["event_type"].to_pylist(),
    )
    # independent solver: CRAMER'S RULE with Fraction determinants (the
    # engine eliminates; agreeing answers certify both)
    out_tot: dict = {}
    for (s_, _), n in counts.items():
        out_tot[s_] = out_tot.get(s_, 0) + n
    trans = sorted(t for t in out_tot if t != _ABS_TARGET)
    m = len(trans)
    A = [
        [
            (Fraction(1) if i == j else Fraction(0))
            - Fraction(counts.get((trans[i], trans[j]), 0), out_tot[trans[i]])
            for j in range(m)
        ]
        for i in range(m)
    ]

    def det(mat):
        n_ = len(mat)
        if n_ == 1:
            return mat[0][0]
        s_ = Fraction(0)
        for j in range(n_):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            s_ += (-1) ** j * mat[0][j] * det(minor)
        return s_

    dA = det(A)
    if dA == 0:
        raise ValueError("singular system in golden")
    rows = []
    for i, t in enumerate(trans):
        Ai = [
            [A[r][c] if c != i else Fraction(1) for c in range(m)]
            for r in range(m)
        ]
        x = det(Ai) / dA
        rows.append(
            (t, out_tot[t], (x.numerator * 1_000_000) // x.denominator)
        )
    t_out = pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_out": pa.array([r[1] for r in rows], pa.int64()),
            "exp_steps_micro": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    os.makedirs(root, exist_ok=True)
    pq.write_table(t_out, f"{root}/absorbing.parquet")
    with open(marker, "w") as f:
        f.write("ok")


@query(sql=f"SELECT * FROM read_parquet('{_absorbing_dir()}/absorbing.parquet')")
def events_absorbing_markov(sf_dir: str):
    """ABSORBING-MARKOV-CHAIN ANALYSIS of the event-type sequence (the
    funnel question asked properly: "starting from a view/click/signup,
    how many steps until the user PURCHASES, in expectation" — the
    fundamental-matrix computation of Kemeny & Snell): '{target}' is the
    absorbing state, the empirical per-user transition counts are the
    chain, and the expected absorption times solve (I - Q) t = 1.

    Exact-rational parity: transition probabilities are Fractions of
    exact integer counts, the linear system is solved by FRACTION
    Gaussian elimination (no float enters the algebra), and only the
    final report floors each expectation onto the micro grid. Fail-loud
    on a singular system (the target unreachable from some transient
    type — a modelling error, not a number to fake). Oracle: golden
    parquet whose INDEPENDENT solver is Cramer's rule over Fraction
    determinants — two different exact algorithms certifying one answer
    (pinned to the sf0.01 gate corpus).

    Scale shape: the corpus-scale work is events_transitions' user-hash
    shuffle with bounded types x types partials; the solve is on the
    driver over the model-constant type set."""
    _ensure_absorbing_golden(sf_dir)
    tr = events_transitions(sf_dir)
    counts = {
        (f, t): int(n)
        for f, t, n in zip(
            tr["from_type"].to_pylist(), tr["to_type"].to_pylist(),
            tr["n"].to_pylist(),
        )
    }
    if not counts:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_out": pa.array([], pa.int64()),
                "exp_steps_micro": pa.array([], pa.int64()),
            }
        )
    rows = _abs_expected_steps_gauss(counts)
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_out": pa.array([r[1] for r in rows], pa.int64()),
            "exp_steps_micro": pa.array(
                [(r[2].numerator * 1_000_000) // r[2].denominator
                 for r in rows],
                pa.int64(),
            ),
        }
    )


_PB_B = 64  # bootstrap resamples
# Poisson(1) inverse-CDF thresholds on the 2^32 hash grid, capped at
# multiplicity 8 (tail mass ~1e-9): computed ONCE here and embedded
# verbatim in the SQL mirror — no runtime exp() has to agree across
# engines. t[k] = floor(P(X <= k) * 2^32).
_PB_THRESH = tuple(
    int(np.floor(p * (1 << 32)))
    for p in np.cumsum(
        [float(np.exp(-1.0) / math.factorial(k)) for k in range(9)]
    ).tolist()
)


def _pb_sql() -> str:
    mult = " + ".join(
        f"(CASE WHEN h >= {t} THEN 1 ELSE 0 END)" for t in _PB_THRESH
    )
    return f"""
WITH ev AS MATERIALIZED (
  SELECT event_id,
         CAST(ROUND(value * 100, 0) AS BIGINT) AS cents
  FROM events),
bs AS (SELECT UNNEST(range(0, {_PB_B})) AS b),
hh AS (
  SELECT cents, b, xor(h2, h2 // 65536) AS h FROM (
    SELECT cents, b, (h1 * {0x45D9F3B}) % {1 << 32} AS h2 FROM (
      SELECT cents, b, xor(h0, h0 // 65536) AS h1 FROM (
        SELECT ev.cents, bs.b,
               (ev.event_id * 40503
                + ((bs.b + 1) * 2654435761) % {1 << 32}) % {1 << 32} AS h0
        FROM ev CROSS JOIN bs)))),
agg AS MATERIALIZED (
  SELECT b, CAST(SUM(({mult}) * cents) AS BIGINT) AS s,
         CAST(SUM({mult}) AS BIGINT) AS n
  FROM hh GROUP BY 1),
means AS MATERIALIZED (
  SELECT b, (s * 1000000) // n AS mu FROM agg WHERE n > 0),
ranked AS MATERIALIZED (
  SELECT mu, ROW_NUMBER() OVER (ORDER BY mu) AS rn,
         COUNT(*) OVER () AS cnt
  FROM means),
fullt AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(COALESCE(SUM(cents), 0) AS BIGINT) AS sc
  FROM ev)
SELECT f.n_events,
       (f.sc * 1000000) // f.n_events AS mean_micro,
       (SELECT mu FROM ranked
        WHERE rn = LEAST({int(0.025 * _PB_B) + 1}, cnt)) AS boot_lo_micro,
       (SELECT mu FROM ranked
        WHERE rn = LEAST({int(0.975 * _PB_B) + 1}, cnt)) AS boot_hi_micro,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM means) AS n_resamples
FROM fullt f WHERE f.n_events > 0
"""




@query(sql=_pb_sql())
def events_poisson_bootstrap(sf_dir: str):
    """POISSON BOOTSTRAP confidence interval for the mean event value
    (Chamandy/Muralidharan/Najmi/Naidu, "Estimating uncertainty for
    massive data streams" — the bootstrap that actually runs at scale:
    instead of resampling N rows with replacement, each row enters
    resample b with an independent Poisson(1) multiplicity, so ONE
    streaming pass computes all {B} resample sums). Output: one row
    (n_events, mean_micro, boot_lo_micro, boot_hi_micro, n_resamples)
    where the bounds are the 2.5%/97.5% ORDER STATISTICS of the {B}
    resample means (sorted index int(0.025*B) / int(0.975*B) — exact
    picks, no interpolation).

    Determinism: the multiplicity is the Poisson(1) inverse CDF applied
    to the shared xorshift hash of (event_id, b) — the CDF thresholds
    are precomputed integers on the 2^32 grid (_PB_THRESH, embedded
    verbatim in SQL; multiplicity caps at 8, tail mass ~1e-9,
    documented); values are exact integer cents; each resample mean is
    one floor division onto the micro grid. No float anywhere at
    runtime.

    Scale shape: ONE map_batches pass emits {B} (sum_cents, n) partial
    rows per batch (the combiner); the driver folds {B} x O(#blocks)
    integers and sorts {B} means. The SQL mirror expands the same
    {B}-way cross join."""
    ds = _read(sf_dir, "events", ["event_id", "value"])
    thr = np.array(_PB_THRESH, np.uint64)
    m32 = np.uint64(0xFFFFFFFF)

    def partial(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        out_b = np.arange(_PB_B, dtype=np.int64)
        sums = np.zeros(_PB_B, np.int64)
        ns = np.zeros(_PB_B, np.int64)
        for bi in range(_PB_B):
            h0 = (eid * np.uint64(40503)
                  + np.uint64(((bi + 1) * 2654435761) % (1 << 32))) & m32
            h = (h0 ^ (h0 >> np.uint64(16))) & m32
            h = (h * np.uint64(0x45D9F3B)) & m32
            h = (h ^ (h >> np.uint64(16))) & m32
            m = np.searchsorted(thr, h, side="right").astype(np.int64)
            sums[bi] = int((m * cents).sum())
            ns[bi] = int(m.sum())
        full = pa.table(
            {
                "b": pa.array(np.append(out_b, -1), pa.int64()),
                "s": pa.array(np.append(sums, int(cents.sum())), pa.int64()),
                "n": pa.array(np.append(ns, len(cents)), pa.int64()),
            }
        )
        return full

    parts = _collect_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072)
    )  # (B + 1) x O(#blocks) rows
    empty = pa.table(
        {
            "n_events": pa.array([], pa.int64()),
            "mean_micro": pa.array([], pa.int64()),
            "boot_lo_micro": pa.array([], pa.int64()),
            "boot_hi_micro": pa.array([], pa.int64()),
            "n_resamples": pa.array([], pa.int64()),
        }
    )
    if parts.num_rows == 0:
        return empty
    bv = parts["b"].to_numpy(zero_copy_only=False)
    sv = parts["s"].to_numpy(zero_copy_only=False)
    nv = parts["n"].to_numpy(zero_copy_only=False)
    sums = np.zeros(_PB_B, np.int64)
    ns = np.zeros(_PB_B, np.int64)
    full_s = full_n = 0
    for b_, s_, n_ in zip(bv, sv, nv):
        if b_ < 0:
            full_s += int(s_)
            full_n += int(n_)
        else:
            sums[b_] += int(s_)
            ns[b_] += int(n_)
    if full_n == 0:
        return empty
    means = sorted(
        (int(s_) * 1_000_000) // int(n_)
        for s_, n_ in zip(sums, ns)
        if n_ > 0
    )
    if not means:
        return empty
    lo = means[int(0.025 * _PB_B)] if len(means) > int(0.025 * _PB_B) else means[0]
    hi = (
        means[int(0.975 * _PB_B)]
        if len(means) > int(0.975 * _PB_B)
        else means[-1]
    )
    return pa.table(
        {
            "n_events": pa.array([full_n], pa.int64()),
            "mean_micro": pa.array(
                [(full_s * 1_000_000) // full_n], pa.int64()
            ),
            "boot_lo_micro": pa.array([lo], pa.int64()),
            "boot_hi_micro": pa.array([hi], pa.int64()),
            "n_resamples": pa.array([len(means)], pa.int64()),
        }
    )


@query(sql="""
WITH sp AS MATERIALIZED (
  SELECT (MIN(epoch_us(ts)) + MAX(epoch_us(ts))) // 2 AS mid FROM events),
pu AS MATERIALIZED (
  SELECT user_id, user_id % 2 AS arm,
         CAST(COALESCE(SUM(CASE WHEN epoch_us(ts) < sp.mid
                    THEN CAST(ROUND(value * 100, 0) AS BIGINT) END), 0)
              AS BIGINT) AS x,
         CAST(COALESCE(SUM(CASE WHEN epoch_us(ts) >= sp.mid
                    THEN CAST(ROUND(value * 100, 0) AS BIGINT) END), 0)
              AS BIGINT) AS y
  FROM events CROSS JOIN sp GROUP BY 1, 2, sp.mid),
am AS MATERIALIZED (
  SELECT arm, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
         CAST(SUM(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy,
         CAST(SUM(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy
  FROM pu GROUP BY 1),
gm AS MATERIALIZED (
  SELECT SUM(n) AS n, SUM(sx) AS sx, SUM(sy) AS sy,
         SUM(sxx) AS sxx, SUM(sxy) AS sxy, SUM(syy) AS syy
  FROM am),
alg AS MATERIALIZED (
  SELECT n, sx, sy,
         n * sxx - CAST(sx AS HUGEINT) * sx AS vx,
         n * syy - CAST(sy AS HUGEINT) * sy AS vy,
         n * sxy - CAST(sx AS HUGEINT) * sy AS cxy
  FROM gm WHERE n >= 2),
th AS MATERIALIZED (
  SELECT n, sx, vx, vy, cxy, (cxy * 1000) // vx AS t
  FROM alg WHERE vx != 0 AND vy != 0),
vr AS MATERIALIZED (
  SELECT n, sx, t,
         ((1000000 * vy - (1000000 * vy - 2000 * t * cxy + t * t * vx))
          * 1000000) // (1000000 * vy) AS v
  FROM th)
SELECT a.arm, a.n AS n_users,
       CAST((a.sy * 1000000) // a.n AS BIGINT) AS mean_y_micro,
       CAST(((1000 * r.n * CAST(a.sy AS HUGEINT)
              - r.t * (r.n * CAST(a.sx AS HUGEINT) - a.n * r.sx)) * 1000)
            // (a.n * r.n) AS BIGINT) AS mean_cuped_micro,
       CAST(r.t AS BIGINT) AS theta_milli,
       CAST(r.v AS BIGINT) AS vr_micro
FROM am a CROSS JOIN vr r WHERE a.n > 0
ORDER BY a.arm
""")
def events_cuped(sf_dir: str):
    """CUPED VARIANCE REDUCTION for the A/B readout (Deng/Xu/Kohavi/
    Walker WSDM'13 — the pre-period covariate adjustment every modern
    experimentation platform applies before reading a treatment effect):
    arms are user_id % 2, the pre/post split is the time-span midpoint,
    per-user X = pre-period cents and Y = post-period cents,
    theta = cov(X,Y)/var(X) pooled, and the adjusted metric is
    Y - theta * (X - mean(X)). Output: one row per arm (n_users,
    mean_y_micro, mean_cuped_micro) with the pooled theta_milli and the
    variance-reduction fraction vr_micro repeated on both rows.

    Integer exactness: theta lives on a MILLI grid via one truncating
    division of exact int64 moment combinations (milli, not micro,
    keeps the variance identity's HUGEINT mirror inside int128 —
    documented); every adjusted-arm sum is then LINEAR in arm-level
    moments (sum_arm Ycup = 1e3*n*SY_a - theta*(n*SX_a - n_a*SX)), so
    no per-user value is ever re-read; var(Y - tX) expands to
    t^2 var(X) - 2t cov + var(Y) on the same moments. Fail-loud at
    2^62 on the Ray side; the SQL errors on the same HUGEINT->BIGINT
    casts.

    Scale shape: pass 1 = global (min, max) ts combiner; pass 2 = one
    user-hash shuffle whose partitions emit per-ARM moment partials
    (2 rows each) — per-user rows never reach the driver."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def span(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(us) == 0:
            return pa.table(
                {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "lo": pa.array([int(us.min())], pa.int64()),
                "hi": pa.array([int(us.max())], pa.int64()),
            }
        )

    st = _collect_table(ds.map_batches(span, batch_format="pyarrow",
                                       batch_size=131072))
    empty = pa.table(
        {
            "arm": pa.array([], pa.int64()),
            "n_users": pa.array([], pa.int64()),
            "mean_y_micro": pa.array([], pa.int64()),
            "mean_cuped_micro": pa.array([], pa.int64()),
            "theta_milli": pa.array([], pa.int64()),
            "vr_micro": pa.array([], pa.int64()),
        }
    )
    if st.num_rows == 0:
        return empty
    mid = (int(min(st["lo"].to_pylist())) + int(max(st["hi"].to_pylist()))) // 2

    def arm_moments(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        cents = sql_round_np(
            g["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        x = np.zeros(len(uu), np.int64)
        y = np.zeros(len(uu), np.int64)
        pre = us < mid
        np.add.at(x, inv[pre], cents[pre])
        np.add.at(y, inv[~pre], cents[~pre])
        arm = uu % 2
        rows = {k: [] for k in
                ("arm", "n", "sx", "sy", "sxx", "sxy", "syy")}
        for a in (0, 1):
            m = arm == a
            xa, ya = x[m], y[m]
            rows["arm"].append(a)
            rows["n"].append(int(m.sum()))
            rows["sx"].append(int(xa.sum()))
            rows["sy"].append(int(ya.sum()))
            rows["sxx"].append(int((xa * xa).sum()))
            rows["sxy"].append(int((xa * ya).sum()))
            rows["syy"].append(int((ya * ya).sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pt = _collect_table(map_groups_partitioned(ds, "user_id", arm_moments))
    arm_v = pt["arm"].to_numpy(zero_copy_only=False)
    mom = {a: {k: 0 for k in ("n", "sx", "sy", "sxx", "sxy", "syy")}
           for a in (0, 1)}
    for i, a in enumerate(arm_v):
        for k in mom[0]:
            mom[int(a)][k] += int(pt[k][i].as_py())
    n = mom[0]["n"] + mom[1]["n"]
    if n < 2:
        return empty
    sx = mom[0]["sx"] + mom[1]["sx"]
    sy = mom[0]["sy"] + mom[1]["sy"]
    sxx = mom[0]["sxx"] + mom[1]["sxx"]
    sxy = mom[0]["sxy"] + mom[1]["sxy"]
    syy = mom[0]["syy"] + mom[1]["syy"]
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    cxy = n * sxy - sx * sy
    if vx == 0 or vy == 0:
        return empty
    th = _tdiv(cxy * 1_000, vx)
    vcup6 = 1_000_000 * vy - 2_000 * th * cxy + th * th * vx
    vr = _tdiv((1_000_000 * vy - vcup6) * 1_000_000, 1_000_000 * vy)
    if abs(vcup6) >= 1 << 126 or abs(th) >= 1 << 62:
        raise ValueError("events_cuped: moment algebra out of range")
    rows = []
    for a in (0, 1):
        na = mom[a]["n"]
        if na == 0:
            continue
        s_cup = (1_000 * n * mom[a]["sy"]
                 - th * (n * mom[a]["sx"] - na * sx))
        rows.append(
            (
                a, na,
                _tdiv(mom[a]["sy"] * 1_000_000, na),
                _tdiv(s_cup * 1_000, na * n),
            )
        )
    return pa.table(
        {
            "arm": pa.array([r[0] for r in rows], pa.int64()),
            "n_users": pa.array([r[1] for r in rows], pa.int64()),
            "mean_y_micro": pa.array([r[2] for r in rows], pa.int64()),
            "mean_cuped_micro": pa.array([r[3] for r in rows], pa.int64()),
            "theta_milli": pa.array([th] * len(rows), pa.int64()),
            "vr_micro": pa.array([vr] * len(rows), pa.int64()),
        }
    )


_MW_PARTS = 32
_MW_SAMPLE_MOD = 37


@query(sql="""
WITH pu AS MATERIALIZED (
  SELECT user_id % 2 AS arm,
         CAST(SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS tot
  FROM events GROUP BY user_id),
a0 AS MATERIALIZED (SELECT tot FROM pu WHERE arm = 0),
a1 AS MATERIALIZED (SELECT tot FROM pu WHERE arm = 1),
u AS (
  SELECT CAST(SUM(CASE WHEN a1.tot > a0.tot THEN 2
                       WHEN a1.tot = a0.tot THEN 1
                       ELSE 0 END) AS BIGINT) AS u2
  FROM a1 CROSS JOIN a0)
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM a0) AS n0,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM a1) AS n1,
       u.u2,
       (u.u2 * 1000000)
         // (2 * (SELECT COUNT(*) FROM a0) * (SELECT COUNT(*) FROM a1))
         AS auc_micro
FROM u
WHERE (SELECT COUNT(*) FROM a0) > 0 AND (SELECT COUNT(*) FROM a1) > 0
""")
def events_mann_whitney(sf_dir: str):
    """MANN-WHITNEY U / AUC between the A/B arms (the nonparametric
    two-sample test every experimentation platform falls back to when
    means mislead: P(random arm-1 user outspends a random arm-0 user)):
    per-user total cents, arms = user_id % 2, exact DOUBLED U statistic
    u2 = sum over cross pairs of 2*[y1 > y0] + [y1 == y0] (doubling
    keeps ties integer — no 0.5 float ever exists), and
    auc_micro = u2 * 1e6 // (2 * n0 * n1).

    Distributed shape — the TeraSort trick applied to a STATISTIC
    instead of a sort (events_global_ranks' sampler): totals are
    range-partitioned by sampled value splitpoints (routing is a
    function of VALUE alone, so equal totals co-locate and every
    cross-partition pair is strictly ordered); each partition computes
    its local cross-pair term vectorized (sort one arm, searchsorted the
    other) and emits ONE (part, n0, n1, u2_local) row; the driver folds
    <= 32 rows with the cumulative-count identity
    u2 += 2 * n1_p * n0_below_p. Per-user rows never reach the driver.
    The SQL mirror is the direct quadratic cross join — the semantic
    spec the partitioned path must equal.

    All-integer end to end; empty arm -> empty result on both engines."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def per_user(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = sql_round_np(
            g["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        tot = np.zeros(len(uu), np.int64)
        np.add.at(tot, inv, cents)
        return pa.table(
            {
                "arm": pa.array(uu % 2, pa.int64()),
                "tot": pa.array(tot, pa.int64()),
            }
        )

    totals = map_groups_partitioned(ds, "user_id", per_user).materialize()

    def sample(b: pa.Table) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[::_MW_SAMPLE_MOD], pa.int64())})

    samp = np.sort(
        _collect_table(totals.map_batches(sample, batch_format="pyarrow"))[
            "v"
        ].to_numpy(zero_copy_only=False)
    )
    if len(samp):
        qpos = (np.arange(1, _MW_PARTS) * len(samp)) // _MW_PARTS
        bounds = np.unique(samp[qpos])
    else:
        bounds = np.zeros(0, np.int64)

    def tag(b: pa.Table, bd=bounds) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "arm": b["arm"],
                "tot": b["tot"],
                "part": pa.array(
                    np.searchsorted(bd, v, side="right").astype(np.uint64),
                    pa.uint64(),
                ),
            }
        )

    tagged = totals.map_batches(tag, batch_format="pyarrow")

    def part_stat(g: pa.Table) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        tot = g["tot"].to_numpy(zero_copy_only=False)
        rows = {"part": [], "n0": [], "n1": [], "u2l": []}
        for p in np.unique(part):
            m = part == p
            a0 = np.sort(tot[m & (arm == 0)])
            a1 = tot[m & (arm == 1)]
            lo = np.searchsorted(a0, a1, side="left")
            hi = np.searchsorted(a0, a1, side="right")
            # 2*(# strictly smaller) + (# equal)
            u2l = int((2 * lo + (hi - lo)).sum()) if len(a1) else 0
            rows["part"].append(int(p))
            rows["n0"].append(int(len(a0)))
            rows["n1"].append(int(len(a1)))
            rows["u2l"].append(u2l)
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pt = _collect_table(
        map_groups_partitioned(tagged, "part", part_stat)
    )  # <= _MW_PARTS rows by construction
    empty = pa.table(
        {
            "n0": pa.array([], pa.int64()),
            "n1": pa.array([], pa.int64()),
            "u2": pa.array([], pa.int64()),
            "auc_micro": pa.array([], pa.int64()),
        }
    )
    if pt.num_rows == 0:
        return empty
    order = np.argsort(pt["part"].to_numpy(zero_copy_only=False))
    n0s = pt["n0"].to_numpy(zero_copy_only=False)[order]
    n1s = pt["n1"].to_numpy(zero_copy_only=False)[order]
    u2ls = pt["u2l"].to_numpy(zero_copy_only=False)[order]
    u2 = 0
    n0_below = 0
    for n0p, n1p, u2l in zip(n0s, n1s, u2ls):
        u2 += int(u2l) + 2 * int(n1p) * n0_below
        n0_below += int(n0p)
    n0, n1 = int(n0s.sum()), int(n1s.sum())
    if n0 == 0 or n1 == 0:
        return empty
    return pa.table(
        {
            "n0": pa.array([n0], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "u2": pa.array([u2], pa.int64()),
            "auc_micro": pa.array(
                [(u2 * 1_000_000) // (2 * n0 * n1)], pa.int64()
            ),
        }
    )


@query(sql="""
WITH pu AS MATERIALIZED (
  SELECT user_id % 2 AS arm,
         CAST(SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS tot
  FROM events GROUP BY user_id),
ns AS MATERIALIZED (
  SELECT CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n0,
         CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1
  FROM pu),
dv AS MATERIALIZED (
  SELECT tot AS v,
         CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT) AS d0,
         CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT) AS d1
  FROM pu GROUP BY 1),
cm AS MATERIALIZED (
  SELECT v,
         SUM(d0) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c0,
         SUM(d1) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c1,
         LEAD(v) OVER (ORDER BY v) AS nxt
  FROM dv),
seg AS MATERIALIZED (
  SELECT ABS(cm.c0 * ns.n1 - cm.c1 * ns.n0) * (cm.nxt - cm.v) AS x
  FROM cm CROSS JOIN ns WHERE cm.nxt IS NOT NULL)
SELECT ns.n0, ns.n1,
       CAST(COALESCE((SELECT SUM(x) FROM seg), 0) AS BIGINT) AS w1_scaled,
       CAST(COALESCE((SELECT SUM(x) FROM seg), 0) AS BIGINT) * 1000000
         // (ns.n0 * ns.n1) AS w1_cents_micro
FROM ns WHERE ns.n0 > 0 AND ns.n1 > 0
""")
def events_wasserstein_arms(sf_dir: str):
    """EXACT 1-D WASSERSTEIN-1 (earth-mover's) DISTANCE between the two
    arms' per-user spend distributions (the optimal-transport metric the
    drift/shift literature reaches for when KS is too coarse — W1 =
    integral |F0 - F1| over the value axis, in the metric's own units:
    cents moved per unit mass): arms = user_id % 2, atoms = per-user
    total cents. Output: (n0, n1, w1_scaled, w1_cents_micro) where
    w1_scaled = sum over merged distinct values of
    |C0*n1 - C1*n0| * gap — an EXACT integer at scale n0*n1, and the
    micro division is the only rounding.

    Distributed shape — the events_mann_whitney range partitioner with a
    CUMULATIVE CARRY: totals are range-partitioned by sampled value
    splitpoints; phase A emits per-partition (masses, min/max value) so
    the driver can compute incoming cumulative counts and the
    BETWEEN-partition segments exactly (<= P integers); phase B
    re-scans each partition with its broadcast carry and folds the local
    integral in python-int arithmetic (the per-segment product
    n0*n1*gap is documented to ~1e15 at sf0.1 — inside int64, fail-loud
    is the SQL's HUGEINT cast). Per-user rows never reach the driver.
    The SQL mirror is the direct window-cumsum over merged values."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def per_user(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = sql_round_np(
            g["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        tot = np.zeros(len(uu), np.int64)
        np.add.at(tot, inv, cents)
        return pa.table(
            {
                "arm": pa.array(uu % 2, pa.int64()),
                "tot": pa.array(tot, pa.int64()),
            }
        )

    totals = map_groups_partitioned(ds, "user_id", per_user).materialize()
    empty = pa.table(
        {
            "n0": pa.array([], pa.int64()),
            "n1": pa.array([], pa.int64()),
            "w1_scaled": pa.array([], pa.int64()),
            "w1_cents_micro": pa.array([], pa.int64()),
        }
    )

    def sample(b: pa.Table) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[::_MW_SAMPLE_MOD], pa.int64())})

    samp = np.sort(
        _collect_table(totals.map_batches(sample, batch_format="pyarrow"))[
            "v"
        ].to_numpy(zero_copy_only=False)
    )
    if len(samp):
        qpos = (np.arange(1, _MW_PARTS) * len(samp)) // _MW_PARTS
        bounds = np.unique(samp[qpos])
    else:
        bounds = np.zeros(0, np.int64)

    def tag(b: pa.Table, bd=bounds) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "arm": b["arm"],
                "tot": b["tot"],
                "part": pa.array(
                    np.searchsorted(bd, v, side="right").astype(np.uint64),
                    pa.uint64(),
                ),
            }
        )

    tagged = totals.map_batches(tag, batch_format="pyarrow").materialize()

    def phase_a(g: pa.Table) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        tot = g["tot"].to_numpy(zero_copy_only=False)
        rows = {"part": [], "m0": [], "m1": [], "vmin": [], "vmax": []}
        for p in np.unique(part):
            m = part == p
            rows["part"].append(int(p))
            rows["m0"].append(int((m & (arm == 0)).sum()))
            rows["m1"].append(int((m & (arm == 1)).sum()))
            rows["vmin"].append(int(tot[m].min()))
            rows["vmax"].append(int(tot[m].max()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pa_t = _collect_table(map_groups_partitioned(tagged, "part", phase_a))
    if pa_t.num_rows == 0:
        return empty
    order = np.argsort(pa_t["part"].to_numpy(zero_copy_only=False))
    parts_v = pa_t["part"].to_numpy(zero_copy_only=False)[order]
    m0s = pa_t["m0"].to_numpy(zero_copy_only=False)[order]
    m1s = pa_t["m1"].to_numpy(zero_copy_only=False)[order]
    vmins = pa_t["vmin"].to_numpy(zero_copy_only=False)[order]
    vmaxs = pa_t["vmax"].to_numpy(zero_copy_only=False)[order]
    n0, n1 = int(m0s.sum()), int(m1s.sum())
    if n0 == 0 or n1 == 0:
        return empty
    carry = {}
    c0 = c1 = 0
    w1 = 0
    for i, p in enumerate(parts_v):
        carry[int(p)] = (c0, c1)
        c0 += int(m0s[i])
        c1 += int(m1s[i])
        if i + 1 < len(parts_v):  # between-partition segment
            w1 += abs(c0 * n1 - c1 * n0) * int(vmins[i + 1] - vmaxs[i])

    def phase_b(g: pa.Table, cy=carry, nn0=n0, nn1=n1) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        tot = g["tot"].to_numpy(zero_copy_only=False)
        out = []
        for p in np.unique(part):
            m = part == p
            vv, aa = tot[m], arm[m]
            o = np.argsort(vv, kind="stable")
            vv, aa = vv[o], aa[o]
            lc0, lc1 = cy[int(p)]
            acc = 0
            for j in range(len(vv)):
                if aa[j] == 0:
                    lc0 += 1
                else:
                    lc1 += 1
                if j + 1 < len(vv) and vv[j + 1] != vv[j]:
                    acc += abs(lc0 * nn1 - lc1 * nn0) * int(
                        vv[j + 1] - vv[j]
                    )
                elif j + 1 < len(vv):
                    continue
            out.append(acc)
        return pa.table({"w": pa.array(out, pa.int64())})

    pb = _collect_table(map_groups_partitioned(tagged, "part", phase_b))
    w1 += int(sum(pb["w"].to_pylist()))
    return pa.table(
        {
            "n0": pa.array([n0], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "w1_scaled": pa.array([w1], pa.int64()),
            "w1_cents_micro": pa.array(
                [(w1 * 1_000_000) // (n0 * n1)], pa.int64()
            ),
        }
    )


@query(sql="""
WITH RECURSIVE sp AS (SELECT MAX(epoch_us(ts)) AS hi FROM events),
pu AS MATERIALIZED (
  SELECT user_id, MIN(epoch_us(ts)) AS t0,
         MIN(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS tp
  FROM events GROUP BY 1),
delays AS MATERIALIZED (
  SELECT CASE WHEN tp IS NOT NULL
              THEN (tp - t0) // 3600000000
              ELSE ((SELECT hi FROM sp) - t0) // 3600000000 END AS h,
         CASE WHEN tp IS NOT NULL THEN 1 ELSE 0 END AS ev
  FROM pu),
hh AS MATERIALIZED (
  SELECT h, CAST(SUM(ev) AS BIGINT) AS d,
         CAST(SUM(1 - ev) AS BIGINT) AS c
  FROM delays GROUP BY 1),
ord AS MATERIALIZED (
  SELECT h, d, c, ROW_NUMBER() OVER (ORDER BY h) AS rn,
         CAST((SELECT COUNT(*) FROM delays) AS BIGINT)
           - COALESCE(CAST(SUM(d + c) OVER (ORDER BY h
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS BIGINT), 0) AS n_risk
  FROM hh),
walk AS (
  SELECT CAST(0 AS BIGINT) AS rn, CAST(1000000 AS BIGINT) AS s
  FROM (SELECT 1) WHERE EXISTS (SELECT 1 FROM ord)
  UNION ALL
  SELECT o.rn,
         CASE WHEN o.d > 0
              THEN (w.s * (o.n_risk - o.d)) // o.n_risk
              ELSE w.s END
  FROM walk w JOIN ord o ON o.rn = w.rn + 1)
SELECT o.h, o.n_risk, o.d, w.s AS s_micro
FROM walk w JOIN ord o ON o.rn = w.rn
WHERE o.d > 0
ORDER BY o.h
""")
def events_survival_km(sf_dir: str):
    """KAPLAN-MEIER SURVIVAL CURVE for time-to-first-purchase (the
    right-censored estimator product analytics borrows from clinical
    statistics: users who never purchase are CENSORED at the end of
    their observation window, not dropped — dropping them biases
    conversion time low): per user, entry = first event, event =
    first 'purchase' after entry (delay in whole hours), censor =
    span-end minus entry for never-purchasers. S(t) steps only at
    event hours: S_k = S_(k-1) * (n_k - d_k) // n_k on a 1e6 micro
    grid — the product is SEQUENTIAL, so the spec makes each step ONE
    truncating integer multiply-divide (DuckDB ``//``), mirrored by a
    RECURSIVE CTE advancing one event-hour per step (the events_holt
    contract). Output per event hour: (h, n_risk, d, s_micro).

    Scale shape: ONE user-hash shuffle folds each partition's users to
    (delay_h, is_event) pairs and pre-aggregates them into bounded
    per-hour (d, c) partials — the horizon bounds the table, users
    never reach the driver; the KM walk iterates on that bounded
    histogram."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def span(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(us) == 0:
            return pa.table({"hi": pa.array([], pa.int64())})
        return pa.table({"hi": pa.array([int(us.max())], pa.int64())})

    st = _collect_table(ds.map_batches(span, batch_format="pyarrow",
                                       batch_size=131072))
    empty = pa.table(
        {
            "h": pa.array([], pa.int64()),
            "n_risk": pa.array([], pa.int64()),
            "d": pa.array([], pa.int64()),
            "s_micro": pa.array([], pa.int64()),
        }
    )
    if st.num_rows == 0:
        return empty
    span_end = int(max(st["hi"].to_pylist()))

    def per_part(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        ty = np.asarray(g["event_type"].to_pylist())
        order = np.lexsort((us, uid))
        uid, us, ty = uid[order], us[order], ty[order]
        first = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(uid))
        rows = {"h": [], "d": [], "c": []}
        agg: dict = {}
        for s_, e_ in zip(starts, ends):
            t0 = int(us[s_])
            m = ty[s_:e_] == "purchase"
            if m.any():
                tp = int(us[s_:e_][m][0])
                h = (tp - t0) // 3600000000
                key = (int(h), 1)
            else:
                h = (span_end - t0) // 3600000000
                key = (int(h), 0)
            agg[key] = agg.get(key, 0) + 1
        for (h, ev), cnt in agg.items():
            rows["h"].append(h)
            rows["d"].append(cnt if ev else 0)
            rows["c"].append(0 if ev else cnt)
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pt = _collect_table(
        map_groups_partitioned(ds, "user_id", per_part)
    )  # <= horizon-hours x partitions rows by construction
    if pt.num_rows == 0:
        return empty
    hv = pt["h"].to_numpy(zero_copy_only=False)
    dv = pt["d"].to_numpy(zero_copy_only=False)
    cv = pt["c"].to_numpy(zero_copy_only=False)
    hours = np.unique(hv)
    dsum = np.zeros(len(hours), np.int64)
    csum = np.zeros(len(hours), np.int64)
    idx = np.searchsorted(hours, hv)
    np.add.at(dsum, idx, dv)
    np.add.at(csum, idx, cv)
    n_total = int(dsum.sum() + csum.sum())
    # KM walk: risk set shrinks by that hour's events AND censors
    s_micro = 1_000_000
    n_risk = n_total
    out = {"h": [], "n_risk": [], "d": [], "s_micro": []}
    for h, d, c in zip(hours, dsum, csum):
        if d > 0:
            s_micro = (s_micro * (n_risk - int(d))) // n_risk
            out["h"].append(int(h))
            out["n_risk"].append(n_risk)
            out["d"].append(int(d))
            out["s_micro"].append(s_micro)
        n_risk -= int(d) + int(c)
    return pa.table(
        {k: pa.array(v, pa.int64()) for k, v in out.items()}
    )


_SHAP_CHANNELS = ("click", "error", "signup", "view")  # bit order, alpha


def _shapley_sql() -> str:
    n = len(_SHAP_CHANNELS)
    fact = [1, 1, 2, 6, 24]
    bits = {c: 1 << i for i, c in enumerate(_SHAP_CHANNELS)}
    mask_expr = " + ".join(
        f"MAX(CASE WHEN event_type = '{c}' AND epoch_us(ts) < tp "
        f"THEN {b} ELSE 0 END)"
        for c, b in bits.items()
    )

    def vq(S: int) -> str:
        return (f"(SELECT COALESCE(SUM(cnt), 0) FROM mc "
                f"WHERE (mask & {(~S) & 0xF}) = 0)")

    selects = []
    for i, ch in enumerate(_SHAP_CHANNELS):
        others = [j for j in range(n) if j != i]
        terms = []
        for sub in range(1 << (n - 1)):
            S, sz = 0, 0
            for k, j in enumerate(others):
                if sub >> k & 1:
                    S |= 1 << j
                    sz += 1
            w = fact[sz] * fact[n - 1 - sz]
            terms.append(f"{w} * ({vq(S | (1 << i))} - {vq(S)})")
        selects.append(
            f"SELECT '{ch}' AS channel,\n"
            f"  CAST({' + '.join(terms)} AS BIGINT) AS phi24"
        )
    union = "\nUNION ALL\n".join(selects)
    return f"""
WITH pu AS MATERIALIZED (
  SELECT user_id,
         MIN(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END) AS tp
  FROM events GROUP BY 1),
um AS MATERIALIZED (
  SELECT e.user_id, {mask_expr} AS mask
  FROM events e JOIN pu ON pu.user_id = e.user_id AND pu.tp IS NOT NULL
  GROUP BY e.user_id),
mc AS MATERIALIZED (
  SELECT mask, CAST(COUNT(*) AS BIGINT) AS cnt FROM um GROUP BY 1)
SELECT channel, phi24, (phi24 * 1000000) // 24 AS phi_micro FROM (
{union})
ORDER BY channel
"""




@query(sql=_shapley_sql())
def events_shapley_channels(sf_dir: str):
    """SHAPLEY-VALUE CONVERSION ATTRIBUTION over the touch channels
    (the game-theoretic credit split marketing attribution converged on
    after last-click was laughed out of the room — Shapley Nobel value,
    applied a la the data-driven attribution literature): a converted
    user's coalition is the SET of channel types touched strictly
    before their first purchase; the characteristic v(S) counts
    converted users whose coalition fits inside S, and each channel's
    value is the exact Shapley sum over the 2^3 complement subsets.

    Exactness: with 4 channels the factorial weights share denominator
    4! = 24, so phi24_i = sum_S |S|!(3-|S|)!(v(S+i) - v(S)) is an EXACT
    integer (reported raw, plus one micro floor division); the
    efficiency identity sum_i phi24 = 24*(v(T) - v(empty)) is asserted
    on the engine side. The SQL mirror enumerates the same 32 terms as
    generated scalar subqueries over the 16-row mask-count table
    (subset test = (mask & ~S) = 0, plain integer bit algebra).

    Scale shape: ONE user-hash shuffle folds each partition's users to
    (converted-coalition-mask) counts — 16-row partials (types are a
    model constant); the driver folds 16 integers and runs the exact
    32-term sum. Users never reach the driver."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    bit = {c: i for i, c in enumerate(_SHAP_CHANNELS)}

    def per_part(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        ty = np.asarray(g["event_type"].to_pylist())
        order = np.lexsort((us, uid))
        uid, us, ty = uid[order], us[order], ty[order]
        first = np.r_[True, uid[1:] != uid[:-1]]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(uid))
        masks = np.zeros(1 << len(_SHAP_CHANNELS), np.int64)
        for s_, e_ in zip(starts, ends):
            tys = ty[s_:e_]
            uss = us[s_:e_]
            pm = tys == "purchase"
            if not pm.any():
                continue
            tp = uss[pm][0]
            m = 0
            for t, u_ in zip(tys, uss):
                if u_ >= tp:
                    break
                b_ = bit.get(t)
                if b_ is not None:
                    m |= 1 << b_
            masks[m] += 1
        nz = np.flatnonzero(masks)
        return pa.table(
            {
                "mask": pa.array(nz.astype(np.int64), pa.int64()),
                "cnt": pa.array(masks[nz], pa.int64()),
            }
        )

    pt = _collect_table(map_groups_partitioned(ds, "user_id", per_part))
    counts = np.zeros(1 << len(_SHAP_CHANNELS), np.int64)
    if pt.num_rows:
        np.add.at(
            counts,
            pt["mask"].to_numpy(zero_copy_only=False),
            pt["cnt"].to_numpy(zero_copy_only=False),
        )

    def v(S: int) -> int:
        return int(
            sum(int(c) for m, c in enumerate(counts) if (m & ~S) == 0)
        )

    n = len(_SHAP_CHANNELS)
    fact = [1, 1, 2, 6, 24]
    rows = []
    for i, ch in enumerate(_SHAP_CHANNELS):
        others = [j for j in range(n) if j != i]
        phi = 0
        for sub in range(1 << (n - 1)):
            S = 0
            sz = 0
            for k, j in enumerate(others):
                if sub >> k & 1:
                    S |= 1 << j
                    sz += 1
            phi += fact[sz] * fact[n - 1 - sz] * (v(S | (1 << i)) - v(S))
        rows.append((ch, phi))
    full = (1 << n) - 1
    assert sum(p for _, p in rows) == fact[n] * (v(full) - v(0)), (
        "Shapley efficiency identity violated — kernel bug"
    )
    return pa.table(
        {
            "channel": pa.array([r[0] for r in rows], pa.string()),
            "phi24": pa.array([r[1] for r in rows], pa.int64()),
            "phi_micro": pa.array(
                [_tdiv(r[1] * 1_000_000, fact[n]) for r in rows], pa.int64()
            ),
        }
    )


@query(sql="""
WITH pu AS MATERIALIZED (
  SELECT user_id % 2 AS arm,
         CAST(SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS tot
  FROM events GROUP BY user_id),
ns AS MATERIALIZED (
  SELECT CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n0,
         CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n1
  FROM pu),
dv AS MATERIALIZED (
  SELECT tot AS v,
         CAST(SUM(CASE WHEN arm = 0 THEN 1 ELSE 0 END) AS BIGINT) AS d0,
         CAST(SUM(CASE WHEN arm = 1 THEN 1 ELSE 0 END) AS BIGINT) AS d1
  FROM pu GROUP BY 1),
cm AS MATERIALIZED (
  SELECT SUM(d0) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c0,
         SUM(d1) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c1
  FROM dv)
SELECT ns.n0, ns.n1,
       CAST((SELECT MAX(ABS(c0 * ns.n1 - c1 * ns.n0)) FROM cm) AS BIGINT)
         AS ks_scaled,
       CAST((SELECT MAX(ABS(c0 * ns.n1 - c1 * ns.n0)) FROM cm) AS BIGINT)
         * 1000000 // (ns.n0 * ns.n1) AS ks_micro
FROM ns WHERE ns.n0 > 0 AND ns.n1 > 0
""")
def events_ks_arms(sf_dir: str):
    """EXACT TWO-SAMPLE KOLMOGOROV-SMIRNOV STATISTIC between the arms'
    per-user spend distributions (the sup-norm sibling of
    events_wasserstein_arms' integral — KS asks for the single worst
    CDF gap, W1 for the total transport): D = max_t |F0(t) - F1(t)|,
    reported as the exact integer ks_scaled = max |C0*n1 - C1*n0| over
    the merged distinct values (scale n0*n1) plus one micro floor.

    Distribution: the SAME range-partition-with-carry shape as the
    Wasserstein op — phase A gives the driver per-partition masses
    (incoming cumulative counts per partition are then exact), phase B
    re-scans each partition with its broadcast carry and emits ONE
    local max; the driver takes the max of <= P integers. Equal values
    co-locate by construction (routing is a function of value), so the
    CDF step at every distinct value is evaluated exactly once. The SQL
    mirror is the direct window cumsum."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def per_user(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = sql_round_np(
            g["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        tot = np.zeros(len(uu), np.int64)
        np.add.at(tot, inv, cents)
        return pa.table(
            {
                "arm": pa.array(uu % 2, pa.int64()),
                "tot": pa.array(tot, pa.int64()),
            }
        )

    totals = map_groups_partitioned(ds, "user_id", per_user).materialize()
    empty = pa.table(
        {
            "n0": pa.array([], pa.int64()),
            "n1": pa.array([], pa.int64()),
            "ks_scaled": pa.array([], pa.int64()),
            "ks_micro": pa.array([], pa.int64()),
        }
    )

    def sample(b: pa.Table) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[::_MW_SAMPLE_MOD], pa.int64())})

    samp = np.sort(
        _collect_table(totals.map_batches(sample, batch_format="pyarrow"))[
            "v"
        ].to_numpy(zero_copy_only=False)
    )
    if len(samp):
        qpos = (np.arange(1, _MW_PARTS) * len(samp)) // _MW_PARTS
        bounds = np.unique(samp[qpos])
    else:
        bounds = np.zeros(0, np.int64)

    def tag(b: pa.Table, bd=bounds) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "arm": b["arm"],
                "tot": b["tot"],
                "part": pa.array(
                    np.searchsorted(bd, v, side="right").astype(np.uint64),
                    pa.uint64(),
                ),
            }
        )

    tagged = totals.map_batches(tag, batch_format="pyarrow").materialize()

    def phase_a(g: pa.Table) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        rows = {"part": [], "m0": [], "m1": []}
        for p in np.unique(part):
            m = part == p
            rows["part"].append(int(p))
            rows["m0"].append(int((m & (arm == 0)).sum()))
            rows["m1"].append(int((m & (arm == 1)).sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pa_t = _collect_table(map_groups_partitioned(tagged, "part", phase_a))
    if pa_t.num_rows == 0:
        return empty
    order = np.argsort(pa_t["part"].to_numpy(zero_copy_only=False))
    parts_v = pa_t["part"].to_numpy(zero_copy_only=False)[order]
    m0s = pa_t["m0"].to_numpy(zero_copy_only=False)[order]
    m1s = pa_t["m1"].to_numpy(zero_copy_only=False)[order]
    n0, n1 = int(m0s.sum()), int(m1s.sum())
    if n0 == 0 or n1 == 0:
        return empty
    carry = {}
    c0 = c1 = 0
    for i, p in enumerate(parts_v):
        carry[int(p)] = (c0, c1)
        c0 += int(m0s[i])
        c1 += int(m1s[i])

    def phase_b(g: pa.Table, cy=carry, nn0=n0, nn1=n1) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        tot = g["tot"].to_numpy(zero_copy_only=False)
        out = []
        for p in np.unique(part):
            m = part == p
            vv, aa = tot[m], arm[m]
            o = np.argsort(vv, kind="stable")
            vv, aa = vv[o], aa[o]
            lc0, lc1 = cy[int(p)]
            best = 0
            for j in range(len(vv)):
                if aa[j] == 0:
                    lc0 += 1
                else:
                    lc1 += 1
                if j + 1 == len(vv) or vv[j + 1] != vv[j]:
                    gap = abs(lc0 * nn1 - lc1 * nn0)
                    if gap > best:
                        best = gap
            out.append(best)
        return pa.table({"m": pa.array(out, pa.int64())})

    pb = _collect_table(map_groups_partitioned(tagged, "part", phase_b))
    ks = int(max(pb["m"].to_pylist()))
    return pa.table(
        {
            "n0": pa.array([n0], pa.int64()),
            "n1": pa.array([n1], pa.int64()),
            "ks_scaled": pa.array([ks], pa.int64()),
            "ks_micro": pa.array(
                [(ks * 1_000_000) // (n0 * n1)], pa.int64()
            ),
        }
    )


_QTE_PS = (250, 500, 750)  # permille quantile targets


def _qte_sql() -> str:
    per_p = " UNION ALL ".join(
        f"""SELECT CAST({p} AS BIGINT) AS p_permille,
       (SELECT n FROM na WHERE arm = 0) AS n0,
       (SELECT n FROM na WHERE arm = 1) AS n1,
       (SELECT tot FROM rk WHERE arm = 0
        AND rn = GREATEST(1, ((SELECT n FROM na WHERE arm = 0) * {p} + 999)
                             // 1000)) AS q0,
       (SELECT tot FROM rk WHERE arm = 1
        AND rn = GREATEST(1, ((SELECT n FROM na WHERE arm = 1) * {p} + 999)
                             // 1000)) AS q1,
       (SELECT tot FROM rk WHERE arm = 1
        AND rn = GREATEST(1, ((SELECT n FROM na WHERE arm = 1) * {p} + 999)
                             // 1000))
       - (SELECT tot FROM rk WHERE arm = 0
          AND rn = GREATEST(1, ((SELECT n FROM na WHERE arm = 0) * {p} + 999)
                               // 1000)) AS qte"""
        for p in _QTE_PS
    )
    return f"""
WITH pu AS MATERIALIZED (
  SELECT user_id % 2 AS arm,
         CAST(SUM(CAST(ROUND(value * 100, 0) AS BIGINT)) AS BIGINT) AS tot
  FROM events GROUP BY user_id),
na AS MATERIALIZED (
  SELECT arm, CAST(COUNT(*) AS BIGINT) AS n FROM pu GROUP BY 1),
rk AS MATERIALIZED (
  SELECT arm, tot,
         ROW_NUMBER() OVER (PARTITION BY arm ORDER BY tot) AS rn
  FROM pu)
SELECT * FROM ({per_p})
WHERE (SELECT COUNT(*) FROM na) = 2
ORDER BY p_permille
"""




@query(sql=_qte_sql())
def events_qte(sf_dir: str):
    """QUANTILE TREATMENT EFFECTS between the arms (the
    heterogeneous-effect readout experimentation adds after the mean:
    does the treatment move the median user, the p25 tail, the p75
    spenders?): per-arm per-user total cents, and for each p in
    (250, 500, 750) permille the EXACT lower-quantile order statistic of each arm
    (k = ceil(p*n/1000), a datum — no interpolation float), with
    qte = q1 - q0. All-integer.

    Distributed order-statistic extraction — the range partitioner's
    third trick (after the Mann-Whitney fold and the Wasserstein carry):
    phase A gives the driver per-(partition, arm) MASSES, so each target
    rank resolves to (partition, local index) exactly; phase B ships the
    tiny (arm, part) -> local-rank request map back inside its UDF and
    each partition emits only its requested order statistics — per-user
    rows never reach the driver. The SQL mirror is the direct
    ROW_NUMBER pick per arm."""
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def per_user(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = sql_round_np(
            g["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        uu, inv = np.unique(uid, return_inverse=True)
        tot = np.zeros(len(uu), np.int64)
        np.add.at(tot, inv, cents)
        return pa.table(
            {
                "arm": pa.array(uu % 2, pa.int64()),
                "tot": pa.array(tot, pa.int64()),
            }
        )

    totals = map_groups_partitioned(ds, "user_id", per_user).materialize()
    empty = pa.table(
        {
            "p_permille": pa.array([], pa.int64()),
            "n0": pa.array([], pa.int64()),
            "n1": pa.array([], pa.int64()),
            "q0": pa.array([], pa.int64()),
            "q1": pa.array([], pa.int64()),
            "qte": pa.array([], pa.int64()),
        }
    )

    def sample(b: pa.Table) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[::_MW_SAMPLE_MOD], pa.int64())})

    samp = np.sort(
        _collect_table(totals.map_batches(sample, batch_format="pyarrow"))[
            "v"
        ].to_numpy(zero_copy_only=False)
    )
    if len(samp):
        qpos = (np.arange(1, _MW_PARTS) * len(samp)) // _MW_PARTS
        bounds = np.unique(samp[qpos])
    else:
        bounds = np.zeros(0, np.int64)

    def tag(b: pa.Table, bd=bounds) -> pa.Table:
        v = b["tot"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "arm": b["arm"],
                "tot": b["tot"],
                "part": pa.array(
                    np.searchsorted(bd, v, side="right").astype(np.uint64),
                    pa.uint64(),
                ),
            }
        )

    tagged = totals.map_batches(tag, batch_format="pyarrow").materialize()

    def phase_a(g: pa.Table) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        rows = {"part": [], "m0": [], "m1": []}
        for p in np.unique(part):
            m = part == p
            rows["part"].append(int(p))
            rows["m0"].append(int((m & (arm == 0)).sum()))
            rows["m1"].append(int((m & (arm == 1)).sum()))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in rows.items()}
        )

    pa_t = _collect_table(map_groups_partitioned(tagged, "part", phase_a))
    if pa_t.num_rows == 0:
        return empty
    order = np.argsort(pa_t["part"].to_numpy(zero_copy_only=False))
    parts_v = pa_t["part"].to_numpy(zero_copy_only=False)[order]
    masses = {
        0: pa_t["m0"].to_numpy(zero_copy_only=False)[order],
        1: pa_t["m1"].to_numpy(zero_copy_only=False)[order],
    }
    ns = {a: int(masses[a].sum()) for a in (0, 1)}
    if ns[0] == 0 or ns[1] == 0:
        return empty
    # resolve each (arm, p) target rank to (partition, local index)
    requests: dict = {}
    for a in (0, 1):
        cum = 0
        ranks = {
            p: max(1, (ns[a] * p + 999) // 1000) for p in _QTE_PS
        }
        for part, m in zip(parts_v, masses[a]):
            for p, k in ranks.items():
                if cum < k <= cum + int(m):
                    requests.setdefault((a, int(part)), []).append(
                        (k - cum, p)
                    )
            cum += int(m)

    def phase_b(g: pa.Table, req=requests) -> pa.Table:
        part = g["part"].to_numpy(zero_copy_only=False).astype(np.int64)
        arm = g["arm"].to_numpy(zero_copy_only=False)
        tot = g["tot"].to_numpy(zero_copy_only=False)
        out = {"arm": [], "p": [], "v": []}
        for pid in np.unique(part):
            for a in (0, 1):
                wants = req.get((int(a), int(pid)))
                if not wants:
                    continue
                vv = np.sort(tot[(part == pid) & (arm == a)])
                for local_k, p in wants:
                    out["arm"].append(int(a))
                    out["p"].append(int(p))
                    out["v"].append(int(vv[local_k - 1]))
        return pa.table(
            {k: pa.array(v, pa.int64()) for k, v in out.items()}
        )

    pb = _collect_table(map_groups_partitioned(tagged, "part", phase_b))
    qs: dict = {}
    for a, p, v in zip(pb["arm"].to_pylist(), pb["p"].to_pylist(),
                       pb["v"].to_pylist()):
        qs[(a, p)] = v
    rows = [
        (p, ns[0], ns[1], qs[(0, p)], qs[(1, p)], qs[(1, p)] - qs[(0, p)])
        for p in _QTE_PS
    ]
    return pa.table(
        {
            "p_permille": pa.array([r[0] for r in rows], pa.int64()),
            "n0": pa.array([r[1] for r in rows], pa.int64()),
            "n1": pa.array([r[2] for r in rows], pa.int64()),
            "q0": pa.array([r[3] for r in rows], pa.int64()),
            "q1": pa.array([r[4] for r in rows], pa.int64()),
            "qte": pa.array([r[5] for r in rows], pa.int64()),
        }
    )
