"""Event-stream operators: windows, sessions, as-of, interval and window
joins, rollups, pivots, ranks, quantiles and funnels, plus the sketch
evaluations (KMV, Count-Min, HyperLogLog, AMS, Bloom, DDSketch).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.collect import collect_table
from core_ray.queries._shared import (
    _DAY_US, _HOUR_US, _KMV_MULT, _collect_numpy, _collect_table, _read, query,
)
from core_ray.rounding import sql_round, sql_round_np
from core_ray.stages.agg import (
    _GOLD, count_by_u64, fold, fold_table, histogram_quantile_cont, map_groups_partitioned,
    max_by_u64, sum_by_u64,
)
from core_ray.stages.interval import interval_join_bucketed
from core_ray.stages.join import hash_join, lookup_join
from core_ray.stages.sketch import approx_group_quantiles
from core_ray.text.jsonops import json_field_int64


_SESSION_GAP_US = 1800 * 1000 * 1000


@query(sql="""
SELECT event_type, epoch_us(ts) // 3600000000 AS hour,
       COUNT(*) AS n_events, ROUND(SUM(value), 2) AS sum_value
FROM events GROUP BY 1, 2
""")
def events_hourly(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def hours(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        return pa.table(
            {
                "event_type": b["event_type"],
                "hour": pc.divide(us, _HOUR_US),
                "value": b["value"],
            }
        )

    t = fold_table(
        ds.map_batches(hours, batch_format="pyarrow", batch_size=65536),
        ["event_type", "hour"],
        {"n_events": (None, "count"), "sum_value": ("value", "sum")},
    )
    return t.set_column(3, "sum_value", sql_round(t["sum_value"], 2))


@query(sql="""
SELECT user_id, ROUND(SUM(value), 2) AS total_value, COUNT(*) AS n_events
FROM events GROUP BY 1
ORDER BY total_value DESC, user_id
LIMIT 10
""")
def events_top_users(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "value"])
    agg = fold(ds, "user_id", {"total_value": ("value", "sum"), "n_events": (None, "count")})
    out = agg.map_batches(
        lambda b: b.set_column(1, "total_value", sql_round(b["total_value"], 2)),
        batch_format="pyarrow",
    )
    return out.sort(["total_value", "user_id"], descending=[True, False]).limit(10)


@query(sql="""
WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
m AS (
  SELECT user_id, us,
         CASE WHEN us - LAG(us) OVER (PARTITION BY user_id ORDER BY us) > 1800000000
                OR LAG(us) OVER (PARTITION BY user_id ORDER BY us) IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM e),
s AS (
  SELECT user_id, us,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY us
                          ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
  FROM m)
SELECT user_id, CAST(session_idx AS INTEGER) AS session_idx,
       COUNT(*) AS n_events, MAX(us) - MIN(us) AS duration_us
FROM s GROUP BY 1, 2
""")
def events_sessionize(sf_dir: str):
    """Session windows (gap > 30 min) per user — the streaming-shaped op:
    hash-partition by user, then ONE fully-vectorized pass per partition
    (lexsort + segment boundaries) handles every user in it. Never the
    Python-per-user map_groups (~1.4 ms/user — the job, at 10^8 users)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "session_idx": pa.array([], pa.int32()),
                    "n_events": pa.array([], pa.int64()),
                    "duration_us": pa.array([], pa.int64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((us, uid))
        uid, us = uid[order], us[order]
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        new_s = new_user.copy()
        new_s[1:] |= (us[1:] - us[:-1]) > _SESSION_GAP_US
        s_starts = np.nonzero(new_s)[0]
        s_last = np.append(s_starts[1:], n) - 1
        n_ev = np.append(s_starts[1:], n) - s_starts
        dur = us[s_last] - us[s_starts]
        user_first = np.nonzero(new_user)[0]
        sessions_per_user = np.add.reduceat(new_s.astype(np.int64), user_first)
        # sessions are numbered 0..S-1 in sorted order; subtracting each
        # user's first session ordinal yields the per-user session_idx
        first_session_of_user = np.cumsum(np.concatenate([[0], sessions_per_user[:-1]]))
        s_idx = np.arange(len(s_starts)) - np.repeat(first_session_of_user, sessions_per_user)
        return pa.table(
            {
                "user_id": pa.array(uid[s_starts], pa.int64()),
                "session_idx": pa.array(s_idx.astype(np.int32), pa.int32()),
                "n_events": pa.array(n_ev.astype(np.int64), pa.int64()),
                "duration_us": pa.array(dur.astype(np.int64), pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", sessions_part)


@query(sql="SELECT DISTINCT event_type FROM events")
def events_distinct_types(sf_dir: str):
    """Distinct values of one column: a grouped fold with no aggregate."""
    return fold_table(_read(sf_dir, "events", ["event_type"]), "event_type", {})


@query(sql="""
SELECT event_id, user_id,
       MAX(CASE WHEN event_type = 'purchase' THEN epoch_us(ts) END)
         OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS last_purchase_us
FROM events
""")
def events_asof_purchase(sf_dir: str):
    """As-of join: for each event, the timestamp of the user's most recent
    STRICTLY EARLIER 'purchase' event (ray_guide: sort within key group +
    windowed scan; ties broken by event_id, mirrored in the SQL window)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])

    def per_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "last_purchase_us": pa.array([], pa.int64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        is_p = pc.equal(g["event_type"], "purchase").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, us, eid, is_p = uid[order], us[order], eid[order], is_p[order]
        # rows are time-sorted within user, so "last purchase strictly
        # before this row" = previous row's running max of purchase ts,
        # reset at user boundaries (vectorized via segmented cummax)
        v = np.where(is_p, us, np.int64(-1))
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        starts = np.nonzero(new_user)[0]
        cm = np.empty(n, dtype=np.int64)
        for s, e in zip(starts, np.append(starts[1:], n)):
            np.maximum.accumulate(v[s:e], out=cm[s:e])
        last = np.empty(n, dtype=np.int64)
        last[0] = -1
        last[1:] = cm[:-1]
        last[starts] = -1
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "last_purchase_us": pa.array(last, pa.int64(), mask=last < 0),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# ------------------------------------------------- extended operators (r2)
# Breadth additions, each the Ray-Data-first shape of a classic relational /
# streaming operator class, all DuckDB-oracle-checked: rolling window (O/W),
# interval join (J), grouped top-k (O2), exact percentiles (A), anti-join
# (J/set-op), histogram binning (A).


@query(sql="""
SELECT event_id, user_id,
       ROUND(MAX(value) OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 2) AS rolling_max
FROM events
""")
def events_rolling_max(sf_dir: str, frame: int = 3):
    """Rolling MAX of ``value`` over the current + 2 preceding events per
    user (ordered by ts, event_id) — the order-sensitive window-function
    shape: partition by key, sort within group, vectorized frame scan.
    MAX (not SUM) keeps the oracle float-exact: it is order-independent."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "rolling_max": pa.array([], pa.float64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        val = g["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, eid, v = uid[order], eid[order], val[order]
        out = v.copy()
        same_user = np.zeros(n, dtype=bool)
        same_user[1:] = uid[1:] == uid[:-1]
        run = same_user.copy()  # row s positions where the s-step shift stays in-user
        for s in range(1, frame):
            np.maximum(out[s:], np.where(run[s:], v[:-s], -np.inf), out=out[s:])
            if s + 1 < frame:
                run[s + 1 :] = run[s + 1 :] & same_user[1:-s]
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "rolling_max": pa.array(sql_round_np(out, 2), pa.float64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# deterministic overlapping windows over the events span (interval join):
# 120 windows, 8h long, stepping 6h across the events month — an event can
# land in up to two windows.
_WIN_START_US = 1704067200000000  # 2024-01-01T00:00:00 in epoch-us
_WIN_STEP_US = 6 * 3600 * 1000 * 1000
_WIN_LEN_US = 8 * 3600 * 1000 * 1000
_N_WINDOWS = 120


@query(sql=f"""
WITH w AS (
  SELECT i AS window_id,
         {_WIN_START_US} + i * {_WIN_STEP_US} AS start_us,
         {_WIN_START_US} + i * {_WIN_STEP_US} + {_WIN_LEN_US} AS end_us
  FROM (SELECT UNNEST(GENERATE_SERIES(0, {_N_WINDOWS - 1})) AS i))
SELECT w.window_id, COUNT(*) AS n_events, ROUND(SUM(e.value), 2) AS sum_value
FROM events e JOIN w ON epoch_us(e.ts) >= w.start_us AND epoch_us(e.ts) < w.end_us
GROUP BY 1
""")
def events_window_join(sf_dir: str):
    """Interval (range) join: events ⋈ overlapping time windows, then a
    per-window rollup. The window table is the broadcast small side; the
    match is vectorized comparisons per batch (no shuffle beyond the tiny
    final aggregate)."""
    ds = _read(sf_dir, "events", ["ts", "value"])
    n_cover = -(-_WIN_LEN_US // _WIN_STEP_US)  # windows that can cover one t

    def match(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        rel = us - _WIN_START_US
        w_hi = rel // _WIN_STEP_US  # latest window starting at/before t
        out_w, out_v = [], []
        for d in range(n_cover):
            w = w_hi - d
            ok = (
                (w >= 0)
                & (w < _N_WINDOWS)
                & (rel < w * _WIN_STEP_US + _WIN_LEN_US)
            )
            if ok.any():
                out_w.append(w[ok])
                out_v.append(val[ok])
        if not out_w:
            return pa.table({"window_id": pa.array([], pa.int64()), "value": pa.array([], pa.float64())})
        return pa.table(
            {
                "window_id": pa.array(np.concatenate(out_w), pa.int64()),
                "value": pa.array(np.concatenate(out_v), pa.float64()),
            }
        )

    t = fold_table(
        ds.map_batches(match, batch_format="pyarrow", batch_size=65536),
        "window_id",
        {"n_events": (None, "count"), "sum_value": ("value", "sum")},
    )
    return t.set_column(2, "sum_value", sql_round(t["sum_value"], 2))


@query(sql="""
SELECT event_type,
       ROUND(QUANTILE_CONT(value, 0.5), 6) AS p50,
       ROUND(QUANTILE_CONT(value, 0.9), 6) AS p90
FROM events GROUP BY 1
""")
def events_value_quantiles(sf_dir: str):
    """Exact per-group percentiles (p50/p90, linear interpolation — the same
    definition as SQL QUANTILE_CONT): groupby + one vectorized np.quantile
    per group; rounded to 6 on both sides.

    Scale note: exact per-group quantiles hold one group's values in one
    task — fine here (5 groups), wrong at 10^12 rows. The documented scale
    path is the mergeable DDSketch-style log-linear histogram
    (stages/sketch.py::approx_group_quantiles — relative-error alpha,
    combiner + one sum_by_u64 shuffle), the quantile sibling of the HLL
    tile sketch and Bloom dedup hatches."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def q(g: pa.Table) -> pa.Table:
        v = g["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": pa.array([g["event_type"][0].as_py()], pa.string()),
                "p50": pa.array([float(sql_round_np(np.quantile(v, 0.5), 6))], pa.float64()),
                "p90": pa.array([float(sql_round_np(np.quantile(v, 0.9), 6))], pa.float64()),
            }
        )

    return ds.groupby("event_type").map_groups(q, batch_format="pyarrow")


_IVB_BASE_US = int(np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64))
_IVB_N = 50
_IVB_STEP_H = 12
_IVB_BUCKET_US = 12 * 3600 * 1_000_000


def _ivb_intervals() -> pa.Table:
    i = np.arange(_IVB_N, dtype=np.int64)
    lo = _IVB_BASE_US + i * (_IVB_STEP_H * 3600 * 1_000_000)
    length = (2 + (i % 5) * 6) * 3600 * 1_000_000  # 2h..26h, overlapping
    return pa.table(
        {
            "interval_id": pa.array(i, pa.int64()),
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(lo + length, pa.int64()),
        }
    )


@query(sql=f"""
WITH iv AS (
  SELECT i AS interval_id,
         TIMESTAMP '2024-01-01' + INTERVAL (i * {_IVB_STEP_H}) HOUR AS lo,
         TIMESTAMP '2024-01-01' + INTERVAL (i * {_IVB_STEP_H}) HOUR
           + INTERVAL (2 + (i % 5) * 6) HOUR AS hi
  FROM (SELECT UNNEST(generate_series(0, {_IVB_N - 1})) AS i))
SELECT iv.interval_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(CAST(ROUND(e.value * 100.0) AS BIGINT)) / 100.0, 2) AS value_sum
FROM iv JOIN events e ON e.ts >= iv.lo AND e.ts < iv.hi
GROUP BY 1
""")
def events_interval_agg(sf_dir: str):
    """Arbitrary-interval range join on the BUCKETED scale path
    (stages/interval.py::interval_join_bucketed — points map to one time
    bucket, intervals replicate per overlapped bucket, one all-to-all,
    vectorized per-partition match): 50 fixed OVERLAPPING windows of
    varying length over the events month, then an exact integer-cents
    rollup per window. The broadcast path would also work here (50
    intervals); the query pins the bucketed machinery under the driver
    hash — same-output equivalence between the two paths is unit-tested in
    tests/test_interval.py."""
    def prep(b: pa.Table) -> pa.Table:
        ts = (
            b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        )
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {"p": pa.array(ts, pa.int64()), "cents": pa.array(cents, pa.int64())}
        )

    pts = _read(sf_dir, "events", ["ts", "value"]).map_batches(
        prep, batch_format="pyarrow", batch_size=131072
    )
    j = interval_join_bucketed(
        pts, _ivb_intervals(), point_col="p", id_col="interval_id",
        lo_col="lo", hi_col="hi", bucket_width=_IVB_BUCKET_US,
    )

    t = fold_table(j, "interval_id", {"n_events": (None, "count"), "c": ("cents", "sum")})
    return pa.table(
        {
            "interval_id": t["interval_id"],
            "n_events": t["n_events"],
            "value_sum": pa.array(
                sql_round_np(t["c"].to_numpy(zero_copy_only=False) / 100.0, 2),
                pa.float64(),
            ),
        }
    )


_WEIGHTS = (("click", 3), ("error", 1), ("purchase", 7), ("signup", 2), ("view", 5))


@query(sql=f"""
WITH dim(event_type, weight) AS (VALUES {", ".join(f"('{k}', {v})" for k, v in _WEIGHTS)})
SELECT e.event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(SUM(d.weight * CAST(ROUND(e.value * 100.0) AS BIGINT)) / 100.0, 2)
         AS weighted_sum
FROM events e JOIN dim d USING (event_type)
GROUP BY 1 ORDER BY 1
""")
def events_weighted_salted(sf_dir: str):
    """Skew-salted equi-join under the driver hash: the events fact joins a
    tiny type->weight dim on the SKEWED string key through
    stages/join.py::hash_join with ``salt_keys`` splitting the hottest key
    across 8 salted partitions (build rows replicate into each). On a real
    zipf key this is what keeps one partition from serializing the join;
    here it pins the salted machinery end-to-end (salted == unsalted
    multiset is also unit-tested). Weighted sum in exact integer cents."""
    import ray.data

    def prep(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {"event_type": b["event_type"], "cents": pa.array(cents, pa.int64())}
        )

    fact = _read(sf_dir, "events", ["event_type", "value"]).map_batches(
        prep, batch_format="pyarrow", batch_size=131072
    )
    dim = ray.data.from_arrow(
        pa.table(
            {
                "event_type": pa.array([w[0] for w in _WEIGHTS], pa.string()),
                "weight": pa.array([w[1] for w in _WEIGHTS], pa.int64()),
            }
        )
    )
    j = hash_join(fact, dim, on="event_type", salt_keys={"click": 8})

    def weighted(b: pa.Table) -> pa.Table:
        w = b["weight"].to_numpy(zero_copy_only=False)
        c = b["cents"].to_numpy(zero_copy_only=False)
        return pa.table({"event_type": b["event_type"], "wc": pa.array(w * c, pa.int64())})

    t = fold_table(
        j.map_batches(weighted, batch_format="pyarrow", batch_size=131072),
        "event_type",
        {"n_events": (None, "count"), "wc": ("wc", "sum")},
    )
    return pa.table(
        {
            "event_type": t["event_type"],
            "n_events": t["n_events"],
            "weighted_sum": pa.array(
                sql_round_np(t["wc"].to_numpy(zero_copy_only=False) / 100.0, 2),
                pa.float64(),
            ),
        }
    ).sort_by("event_type")


@query(sql="""
SELECT event_id,
       CAST(ROUND(value * 100.0) AS BIGINT) AS value_cents,
       ROUND(PERCENT_RANK() OVER (ORDER BY CAST(ROUND(value * 100.0) AS BIGINT)), 6)
         AS pct_rank
FROM events
""")
def events_value_percentile(sf_dir: str):
    """GLOBAL order statistics without a global sort: every event's
    PERCENT_RANK among ALL events. A window function over the whole corpus
    would need one total-order sort; instead a value->count histogram
    (count_by_u64 over integer cents — distinct values, not rows, leave
    the workers) yields cumulative counts-below, which broadcast back as a
    sorted lookup so each row computes cnt_less / (N-1) locally — exact,
    two passes, no all-to-all over rows. The division uses the same
    integers as SQL's (rank-1)/(N-1), so the doubles are bit-identical."""
    ds = _read(sf_dir, "events", ["event_id", "value"])

    def cents_of(b: pa.Table) -> np.ndarray:
        return sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)

    hist = count_by_u64(
        ds.map_batches(
            lambda b: pa.table({"key": pa.array(cents_of(b).astype(np.uint64), pa.uint64())}),
            batch_format="pyarrow",
            batch_size=131072,
        ),
        "key",
    )
    h = _collect_table(hist)
    vals = h["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = h["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    below = np.concatenate([[0], np.cumsum(cnts)[:-1]])
    n_total = int(cnts.sum())

    def rank(b: pa.Table, vs=vals, bl=below) -> pa.Table:
        c = cents_of(b)
        pos = np.searchsorted(vs, c)  # every value exists in the histogram
        # SQL PERCENT_RANK of a single-row table is 0, not 0/0
        pr = bl[pos].astype(np.float64) / float(max(n_total - 1, 1))
        return pa.table(
            {
                "event_id": b["event_id"],
                "value_cents": pa.array(c, pa.int64()),
                "pct_rank": pa.array(sql_round_np(pr, 6), pa.float64()),
            }
        )

    return ds.map_batches(rank, batch_format="pyarrow", batch_size=131072)


@query(sql="""
WITH c AS (SELECT CAST(ROUND(value * 100.0) AS BIGINT) AS cents FROM events),
m AS (SELECT CAST(ROUND(2.0 * QUANTILE_CONT(cents, 0.5)) AS BIGINT) AS med2 FROM c),
d AS (SELECT ABS(2 * c.cents - m.med2) AS dev2 FROM c, m)
SELECT ROUND((SELECT med2 FROM m) / 2.0 / 100.0, 6) AS median,
       ROUND(QUANTILE_CONT(dev2, 0.5) / 2.0 / 100.0, 6) AS mad
FROM d
""")
def events_value_mad(sf_dir: str):
    """Robust statistics: the median absolute deviation of event values —
    TWO chained GLOBAL order statistics, each computed as a distributed
    value->count histogram (count_by_u64) + driver-side QUANTILE_CONT
    interpolation, with the median broadcast into the second pass's
    deviation map. Everything stays integer until the final /2 divisions:
    cents, then |2*cents - 2*median| (2x units absorb the .5-interpolated
    median exactly), so the SQL mirror has no float-summation hazard."""
    ds = _read(sf_dir, "events", ["value"])

    def cents_of(b: pa.Table) -> np.ndarray:
        return sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)

    def hist_of(fn) -> tuple[np.ndarray, np.ndarray]:
        h = _collect_table(
            count_by_u64(
                ds.map_batches(
                    lambda b: pa.table(
                        {"key": pa.array(fn(b).astype(np.uint64), pa.uint64())}
                    ),
                    batch_format="pyarrow",
                    batch_size=131072,
                ),
                "key",
            )
        )
        return (
            h["key"].to_numpy(zero_copy_only=False).astype(np.int64),
            h["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
        )

    vals, cnts = hist_of(cents_of)
    med2 = int(round(2.0 * histogram_quantile_cont(vals, cnts, 0.5)))
    dvals, dcnts = hist_of(lambda b: np.abs(2 * cents_of(b) - med2))
    mad2 = histogram_quantile_cont(dvals, dcnts, 0.5)
    return pa.table(
        {
            "median": pa.array([float(sql_round_np(med2 / 2.0 / 100.0, 6))], pa.float64()),
            "mad": pa.array([float(sql_round_np(mad2 / 2.0 / 100.0, 6))], pa.float64()),
        }
    )


@query(sql="""
SELECT CAST(FLOOR(value / 10.0) AS BIGINT) AS bin, COUNT(*) AS n
FROM events GROUP BY 1
""")
def events_value_histogram(sf_dir: str, bin_width: float = 10.0):
    """Fixed-width histogram: per-batch vectorized binning, one grouped
    count (identical FLOOR(value/width) arithmetic in SQL)."""
    ds = _read(sf_dir, "events", ["value"])

    def binit(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        return pa.table({"bin": pa.array(np.floor(v / bin_width).astype(np.int64), pa.int64())})

    return fold_table(
        ds.map_batches(binit, batch_format="pyarrow", batch_size=131072), "bin", {"n": (None, "count")}
    )


@query(sql="""
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY 1
""")
def events_props_stats(sf_dir: str):
    """Semi-structured extraction (JSON properties column): pull the integer
    field 'k' out of props per event — ONE vectorized extract_regex kernel
    per batch with an exact json.loads fallback (text/jsonops.py) — then a
    tiny per-type rollup. Mirrors DuckDB json_extract semantics."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": b["event_type"],
                "k": json_field_int64(b["props"], "k"),
            }
        )

    return fold_table(
        ds.map_batches(extract, batch_format="pyarrow", batch_size=65536),
        "event_type",
        {"n": (None, "count"), "sum_k": ("k", "sum")},
    )


_HOP_US = 30 * 60 * 1000 * 1000  # 30-minute hop
_WIN_HOPS = 2  # 1-hour windows -> each event lands in exactly 2 hops


@query(sql="""
WITH hops AS (
  SELECT time_bucket(INTERVAL '30 minutes', ts) AS h,
         CAST(ROUND(value * 100.0) AS BIGINT) AS cents
  FROM events
), w AS (
  SELECT h AS window_start, cents FROM hops
  UNION ALL
  SELECT h - INTERVAL '30 minutes' AS window_start, cents FROM hops
)
SELECT window_start, COUNT(*) AS n, SUM(cents) / 100.0 AS sum_value
FROM w GROUP BY 1
""")
def events_hopping(sf_dir: str):
    """Hopping (sliding) window aggregate — 1 h windows every 30 min, the
    OVERLAPPING sibling of events_hourly's tumbling windows: each event is
    fanned to its 2 covering window starts inside the batch combiner (pure
    integer arithmetic mirrored in SQL), value summed as exact integer
    cents, then one small groupby over ~2x-hourly keys."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def combine(b: pa.Table) -> pa.Table:
        us = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        base = us - us % _HOP_US
        ws = np.concatenate([base - h * _HOP_US for h in range(_WIN_HOPS)])
        return pa.table(
            {
                "window_start": pa.array(ws.astype("datetime64[us]"), pa.timestamp("us")),
                "cents": pa.array(np.tile(cents, _WIN_HOPS), pa.int64()),
            }
        )

    t = fold_table(
        ds.map_batches(combine, batch_format="pyarrow", batch_size=131072),
        "window_start",
        {"n": (None, "count"), "cents": ("cents", "sum")},
    )
    return pa.table(
        {
            "window_start": t["window_start"],
            "n": t["n"],
            "sum_value": pc.divide(pc.cast(t["cents"], pa.float64()), 100.0),
        }
    )


@query(sql="""
SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hod, COUNT(*) AS n
FROM events GROUP BY ROLLUP(event_type, hod)
""")
def events_rollup(sf_dir: str):
    """GROUPING SETS / ROLLUP(event_type, hour-of-day): the hierarchical
    re-aggregation shape — the FINEST level is computed distributed once
    (one grouped fold over ~120 keys), the coarser levels derive from
    that small result by re-aggregation (never a second corpus scan), with
    SQL ROLLUP's NULL group markers."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def hours(b: pa.Table) -> pa.Table:
        us = b["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        return pa.table({"event_type": b["event_type"], "hod": pa.array((us // _HOUR_US) % 24, pa.int64())})

    # ~#types x 24 rows — the rollup input is tiny
    t = fold_table(
        ds.map_batches(hours, batch_format="pyarrow", batch_size=131072),
        ["event_type", "hod"],
        {"n": (None, "count")},
    )
    et = np.asarray(t["event_type"].to_pylist())
    hod = t["hod"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    rows_e, rows_h, rows_n = list(et), [int(x) for x in hod], [int(x) for x in n]
    for e in np.unique(et):  # level 1: per event_type
        rows_e.append(str(e))
        rows_h.append(None)
        rows_n.append(int(n[et == e].sum()))
    rows_e.append(None)  # level 0: grand total
    rows_h.append(None)
    rows_n.append(int(n.sum()))
    return pa.table(
        {
            "event_type": pa.array(rows_e, pa.string()),
            "hod": pa.array(rows_h, pa.int64()),
            "n": pa.array(rows_n, pa.int64()),
        }
    )


@query(sql="""
WITH v AS (
  SELECT user_id, MIN(ts) AS t FROM events WHERE event_type = 'view' GROUP BY 1
),
c AS (
  SELECT e.user_id, MIN(e.ts) AS t
  FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t
  WHERE e.event_type = 'click' GROUP BY 1
),
p AS (
  SELECT e.user_id, MIN(e.ts) AS t
  FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t
  WHERE e.event_type = 'purchase' GROUP BY 1
)
SELECT 'view' AS stage, COUNT(*) AS n_users FROM v
UNION ALL SELECT 'view>click', COUNT(*) FROM c
UNION ALL SELECT 'view>click>purchase', COUNT(*) FROM p
""")
def events_funnel(sf_dir: str, stages=("view", "click", "purchase")):
    """Ordered sequence-pattern match (the funnel / MATCH_RECOGNIZE-lite
    operator class): per user, stage k+1 counts only if an event of that
    type occurs STRICTLY AFTER the user's earliest qualifying stage-k event.
    Shape: one hash-partition shuffle by user, then a fully vectorized
    per-partition pass (sorted segments + masked reduceat per stage — no
    Python per user); stage totals via a 3-key fold on the driver."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    stage_names = [">".join(stages[: k + 1]) for k in range(len(stages))]

    def funnel_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {"stage": pa.array([], pa.string()), "n_users": pa.array([], pa.int64())}
            )
        user = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        etype = np.asarray(g["event_type"].to_pylist())
        order = np.lexsort((ts, user))
        user, ts, etype = user[order], ts[order], etype[order]
        new = np.ones(n, dtype=bool)
        new[1:] = user[1:] != user[:-1]
        starts = np.nonzero(new)[0]
        uidx = np.cumsum(new) - 1  # per-row user segment index
        n_users = len(starts)
        big = np.int64(np.iinfo(np.int64).max)
        # stage-0 threshold: strictly after -inf — int64 min, NOT -1 (an
        # event before 1970 has a negative epoch-us and must still qualify)
        prev = np.full(n_users, np.iinfo(np.int64).min)
        counts = []
        for k, st in enumerate(stages):
            # earliest event of this type strictly after the user's previous
            # stage time: masked min via reduceat over the sorted segments
            x = np.where((etype == st) & (ts > prev[uidx]), ts, big)
            cur = np.minimum.reduceat(x, starts)
            counts.append(int((cur < big).sum()))
            prev = cur
        return pa.table(
            {
                "stage": pa.array(stage_names, pa.string()),
                "n_users": pa.array(counts, pa.int64()),
            }
        )

    partial = map_groups_partitioned(ds, "user_id", funnel_partition)
    return fold_table(partial, "stage", {"n_users": ("n_users", "sum")})


# ========================================================== window wave 2
# LAG delta, RANK/DENSE_RANK/ROW_NUMBER, running total — the remaining
# order-sensitive window shapes, each one hash-partition shuffle by user +
# a fully vectorized per-partition pass (the events_rolling_max pattern).


def _events_sorted_arrays(g: pa.Table):
    """(uid, eid, value, order-applied) sorted by (user, ts, event_id)."""
    uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    us = pc.cast(g["ts"], pa.int64()).to_numpy(zero_copy_only=False)
    eid = g["event_id"].to_numpy(zero_copy_only=False)
    val = g["value"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, us, uid))
    return uid[order], eid[order], val[order]


@query(sql="""
SELECT event_id, user_id,
       ROUND(value - LAG(value) OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id),
             2) AS delta
FROM events
""")
def events_lag_delta(sf_dir: str):
    """value - LAG(value) per user ordered by (ts, event_id); NULL on each
    user's first event. The subtraction is the same IEEE op on the same
    doubles on both sides, then ROUND(.,2)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "delta": pa.array([], pa.float64()),
                }
            )
        uid, eid, v = _events_sorted_arrays(g)
        same = np.zeros(n, dtype=bool)
        same[1:] = uid[1:] == uid[:-1]
        delta = np.full(n, np.nan)
        delta[1:] = v[1:] - v[:-1]
        out = sql_round_np(delta, 2)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "delta": pa.array(np.where(same, out, np.nan), pa.float64(), mask=~same),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


@query(sql="""
WITH hops AS (
  SELECT time_bucket(INTERVAL '30 minutes', ts) AS h, user_id FROM events
), w AS (
  SELECT h AS window_start, user_id FROM hops
  UNION ALL
  SELECT h - INTERVAL '30 minutes' AS window_start, user_id FROM hops
)
SELECT window_start, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM w GROUP BY 1
""")
def events_hopping_users(sf_dir: str):
    """EXACT distinct users per hopping window (1 h windows every 30 min) —
    the windowed-COUNT-DISTINCT sibling of events_hopping's windowed sums.
    Scale shape: events fan to their 2 covering windows and dedupe to
    batch-local (window, user) pairs in the combiner; one shuffle keyed by
    a hash MIX of the pair co-locates every copy of a pair (collisions only
    co-locate extra rows — the dedupe compares real values), each partition
    emits exact per-window partial distinct counts, and a tiny final
    fold over the bounded window set sums them."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def combine(b: pa.Table) -> pa.Table:
        us = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = us - us % _HOP_US
        ws = np.concatenate([base - h * _HOP_US for h in range(_WIN_HOPS)])
        uu = np.tile(uid, _WIN_HOPS)
        order = np.lexsort((uu, ws))
        ws, uu = ws[order], uu[order]
        new = np.ones(len(ws), dtype=bool)
        new[1:] = (ws[1:] != ws[:-1]) | (uu[1:] != uu[:-1])
        ws, uu = ws[new], uu[new]
        mix = (ws.astype(np.uint64) * _GOLD) ^ (uu.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        return pa.table(
            {
                "w": pa.array(ws, pa.int64()),
                "u": pa.array(uu, pa.int64()),
                "__mix": pa.array(mix, pa.uint64()),
            }
        )

    def per_part(g: pa.Table) -> pa.Table:
        ws = g["w"].to_numpy(zero_copy_only=False)
        uu = g["u"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uu, ws))
        ws, uu = ws[order], uu[order]
        new = np.ones(len(ws), dtype=bool)
        new[1:] = (ws[1:] != ws[:-1]) | (uu[1:] != uu[:-1])
        ws = ws[new]  # globally-distinct pairs (each pair lives here only)
        uw, c = np.unique(ws, return_counts=True)
        return pa.table(
            {
                "window_start": pa.array(
                    uw.astype("datetime64[us]"), pa.timestamp("us")
                ),
                "n_part": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return fold_table(
        map_groups_partitioned(
            ds.map_batches(combine, batch_format="pyarrow", batch_size=131072),
            "__mix", per_part,
        ),
        "window_start",
        {"n_users": ("n_part", "sum")},
    )


@query(sql="""
SELECT event_id, user_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY value DESC, event_id) AS BIGINT) AS rn,
       CAST(RANK()       OVER (PARTITION BY user_id ORDER BY value DESC) AS BIGINT) AS rnk,
       CAST(DENSE_RANK() OVER (PARTITION BY user_id ORDER BY value DESC) AS BIGINT) AS drnk
FROM events
""")
def events_user_rank(sf_dir: str):
    """ROW_NUMBER / RANK / DENSE_RANK per user over value DESC (row_number
    tie-broken by event_id). One shuffle; ranks from vectorized run masks —
    rank = offset of the value-run start inside the user segment,
    dense_rank = cumulative run count inside the segment."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def per_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "rn": pa.array([], pa.int64()),
                    "rnk": pa.array([], pa.int64()),
                    "drnk": pa.array([], pa.int64()),
                }
            )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        val = g["value"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, -val, uid))
        uid, eid, v = uid[order], eid[order], val[order]
        idx = np.arange(n, dtype=np.int64)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        new_val = new_user.copy()
        new_val[1:] |= v[1:] != v[:-1]
        seg_start = np.maximum.accumulate(np.where(new_user, idx, 0))
        run_start = np.maximum.accumulate(np.where(new_val, idx, 0))
        rn = idx - seg_start + 1
        rnk = run_start - seg_start + 1
        c = np.cumsum(new_val.astype(np.int64))
        drnk = c - c[seg_start] + 1
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "rn": pa.array(rn, pa.int64()),
                "rnk": pa.array(rnk, pa.int64()),
                "drnk": pa.array(drnk, pa.int64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


@query(sql="""
SELECT event_id, user_id,
       SUM(CAST(ROUND(value * 100.0) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
               ROWS UNBOUNDED PRECEDING) / 100.0 AS run_total
FROM events
""")
def events_cumsum(sf_dir: str):
    """Running total of value per user ordered by (ts, event_id) — SUM OVER
    ROWS UNBOUNDED PRECEDING. Cents-exact: both sides round to int cents
    FIRST, so the running sum is integer arithmetic with no
    accumulation-order hazard, divided back to dollars at the end."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_part(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "run_total": pa.array([], pa.float64()),
                }
            )
        uid, eid, v = _events_sorted_arrays(g)
        cv = sql_round_np(v * 100.0, 0).astype(np.int64)
        c = np.cumsum(cv)
        idx = np.arange(n, dtype=np.int64)
        new_user = np.ones(n, dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        seg_start = np.maximum.accumulate(np.where(new_user, idx, 0))
        run = c - c[seg_start] + cv[seg_start]
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "run_total": pa.array(run / 100.0, pa.float64()),
            }
        )

    return map_groups_partitioned(ds, "user_id", per_part)


# watermark / late-data triage (streaming §2.8): the events fixture arrives
# perfectly time-ordered, so disorder is derived deterministically — each
# event suffers a hash-based network delay in [0, 1h) and its EFFECTIVE
# event time is ts minus that delay; arrival order stays event_id.
_LATE_DELAY_SQL = "((event_id * 104729) % 3600) * 1000000"
_LATE_L_US = 900_000_000  # allowed lateness: 15 min
_LATE_BUCKET_BITS = 10  # arrival buckets of 1024 events (see docstring)


@query(sql=f"""
WITH e AS (
  SELECT event_id, epoch_us(ts) - {_LATE_DELAY_SQL} AS ets FROM events),
w AS (
  SELECT ets,
         MAX(ets) OVER (ORDER BY event_id ROWS UNBOUNDED PRECEDING) AS wm
  FROM e),
c AS (
  SELECT ets // 3600000000 AS hr,
         CASE WHEN wm - ets = 0 THEN 0
              WHEN wm - ets <= {_LATE_L_US} THEN 1 ELSE 2 END AS cls
  FROM w)
SELECT make_timestamp(hr * 3600000000) AS window_start,
       CAST(COALESCE(SUM(CASE WHEN cls = 0 THEN 1 END), 0) AS BIGINT) AS n_on_time,
       CAST(COALESCE(SUM(CASE WHEN cls = 1 THEN 1 END), 0) AS BIGINT) AS n_late,
       CAST(COALESCE(SUM(CASE WHEN cls = 2 THEN 1 END), 0) AS BIGINT) AS n_dropped
FROM c GROUP BY hr
""")
def events_late_data(sf_dir: str):
    """Watermark-based late-data triage — the streaming semantics a windowed
    engine owes its users (Beam/Flink allowed-lateness): watermark = running
    MAX of effective event time over ARRIVAL order; per hourly window, count
    events that were on time (at the watermark), late-but-admitted (within
    the 15-min allowed lateness) and dropped (beyond it).

    A global running max is a sequential scan, so it distributes as a
    two-pass prefix: arrival ids split into contiguous buckets (1024 events
    each); pass 1 reduces per-bucket maxima through the max_by_u64 combiner
    and the driver folds them into EXCLUSIVE prefix maxima (one u64 per
    bucket — at 10^12 events widen the bucket, the prefix table stays tiny);
    pass 2 hash-partitions by bucket, cummaxes each bucket segment locally
    and ORs in the broadcast carry. Classified rows collapse to per-(hour,
    class) partial counts inside the same pass — only O(hours x 3) rows ever
    shuffle after that."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def with_ets(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            b["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        ets = ts - ((eid * 104729) % 3600) * 1_000_000
        return pa.table(
            {
                "bucket": pa.array(
                    (eid >> _LATE_BUCKET_BITS).astype(np.uint64), pa.uint64()),
                "event_id": pa.array(eid, pa.int64()),
                "ets": pa.array(ets.astype(np.uint64), pa.uint64()),
            }
        )

    tagged = ds.map_batches(with_ets, batch_format="pyarrow", batch_size=131072)

    bmax = collect_table(max_by_u64(tagged, "bucket", "ets"))
    bk = bmax["bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
    bv = bmax["ets"].to_numpy(zero_copy_only=False).astype(np.uint64)
    order = np.argsort(bk)
    bk, bv = bk[order], bv[order]
    # exclusive prefix max per bucket (0 for the first: ets values are
    # epoch-us, always > 0, so 0 == "no prior event")
    prefix = np.zeros(len(bv), dtype=np.uint64)
    if len(bv) > 1:
        prefix[1:] = np.maximum.accumulate(bv)[:-1]

    def per_part(g: pa.Table, bks=bk, pfx=prefix) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {"key": pa.array([], pa.uint64()), "cnt": pa.array([], pa.int64())}
            )
        bu = g["bucket"].to_numpy(zero_copy_only=False).astype(np.uint64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        ets = g["ets"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((eid, bu))
        bu, ets = bu[order], ets[order]
        wm = np.empty(len(ets), dtype=np.uint64)
        new = np.ones(len(bu), dtype=bool)
        new[1:] = bu[1:] != bu[:-1]
        starts = np.nonzero(new)[0]
        bounds = np.append(starts, len(bu))
        for i, s in enumerate(starts):  # few buckets per partition, not rows
            e = bounds[i + 1]
            seg = np.maximum.accumulate(ets[s:e])
            wm[s:e] = np.maximum(seg, pfx[np.searchsorted(bks, bu[s])])
        late = wm - ets
        cls = np.where(
            late == 0, 0, np.where(late <= np.uint64(_LATE_L_US), 1, 2)
        ).astype(np.uint64)
        hour = ets // np.uint64(3_600_000_000)
        key = (hour << np.uint64(2)) | cls
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "key": pa.array(u, pa.uint64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    partials = map_groups_partitioned(tagged, "bucket", per_part)
    totals = sum_by_u64(partials, "key", "cnt")

    def decode(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "hour": pa.array(k >> np.uint64(2), pa.uint64()),
                "cls": pa.array((k & np.uint64(3)).astype(np.int64), pa.int64()),
                "cnt": pa.array(
                    b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64()),
            }
        )

    def pivot(g: pa.Table) -> pa.Table:
        hour = g["hour"].to_numpy(zero_copy_only=False).astype(np.int64)
        cls = g["cls"].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False)
        hours = np.unique(hour)
        pos = np.searchsorted(hours, hour)
        out = np.zeros((len(hours), 3), dtype=np.int64)
        out[pos, cls] = cnt
        return pa.table(
            {
                "window_start": pa.array(
                    (hours * 3_600_000_000).astype("datetime64[us]")),
                "n_on_time": pa.array(out[:, 0], pa.int64()),
                "n_late": pa.array(out[:, 1], pa.int64()),
                "n_dropped": pa.array(out[:, 2], pa.int64()),
            }
        )

    return map_groups_partitioned(
        totals.map_batches(decode, batch_format="pyarrow"), "hour", pivot
    )


_PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


@query(sql="""
SELECT epoch_us(ts) // 3600000000 % 24 AS hh,
       COUNT(*) FILTER (WHERE event_type = 'click')    AS n_click,
       COUNT(*) FILTER (WHERE event_type = 'error')    AS n_error,
       COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       COUNT(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       COUNT(*) FILTER (WHERE event_type = 'view')     AS n_view
FROM events
GROUP BY 1
""")
def events_pivot_hourly(sf_dir: str):
    """Pivot (long -> wide): event counts per hour-of-day x event-type as
    one row per hour with a column per type. Per-batch combiner is a single
    np.bincount over hh*n_types+code (<=24 rows leave each batch); final
    24-key fold sums the partials."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])
    types = pa.array(list(_PIVOT_TYPES))
    ntyp = len(_PIVOT_TYPES)

    def combine(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hh = (us // 3_600_000_000) % 24
        code = pc.index_in(b["event_type"], value_set=types).to_numpy(zero_copy_only=False)
        cnt = np.bincount(hh * ntyp + code, minlength=24 * ntyp).reshape(24, ntyp)
        cols = {"hh": pa.array(np.arange(24, dtype=np.int64), pa.int64())}
        for i, t in enumerate(_PIVOT_TYPES):
            cols[f"n_{t}"] = pa.array(cnt[:, i].astype(np.int64), pa.int64())
        return pa.table(cols)

    return fold_table(
        ds.map_batches(combine, batch_format="pyarrow", batch_size=131072),
        "hh",
        {f"n_{t}": (f"n_{t}", "sum") for t in _PIVOT_TYPES},
    )


@query(sql="""
SELECT user_id FROM events WHERE event_type = 'purchase'
EXCEPT
SELECT user_id FROM events WHERE event_type = 'error' AND value > 100.0
""")
def events_purchasers_except(sf_dir: str):
    """Set difference (EXCEPT): distinct purchasing users minus users with
    a high-value error. Per-batch combiner ORs two flags per user (np.unique
    + maximum.at), one hash partition, per-partition flag reduce — the
    DISTINCT + anti-join fused into one boolean-flag aggregate."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def tag(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        et = b["event_type"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        is_p = (et == "purchase").astype(np.int8)
        is_e = ((et == "error") & (val > 100.0)).astype(np.int8)
        u, inv = np.unique(uid, return_inverse=True)
        p = np.zeros(len(u), dtype=np.int8)
        e = np.zeros(len(u), dtype=np.int8)
        np.maximum.at(p, inv, is_p)
        np.maximum.at(e, inv, is_e)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "p": pa.array(p, pa.int8()),
                "e": pa.array(e, pa.int8()),
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow", batch_size=131072)

    def per_part(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"user_id": pa.array([], pa.int64())})
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        p = g["p"].to_numpy(zero_copy_only=False)
        e = g["e"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(uid, return_inverse=True)
        pm = np.zeros(len(u), dtype=np.int8)
        em = np.zeros(len(u), dtype=np.int8)
        np.maximum.at(pm, inv, p)
        np.maximum.at(em, inv, e)
        keep = (pm == 1) & (em == 0)
        return pa.table({"user_id": pa.array(u[keep], pa.int64())})

    return map_groups_partitioned(tagged, "user_id", per_part)


@query(sql=f"""
WITH ud AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {_DAY_US} AS day FROM events)
SELECT a.day, CAST(COUNT(*) AS BIGINT) AS retained
FROM ud a JOIN ud b ON b.user_id = a.user_id AND b.day = a.day + 1
GROUP BY 1
""")
def events_retention(sf_dir: str):
    """Day-over-day cohort retention (the analytics class behind every
    retention matrix): for each day d, how many users were active on BOTH d
    and d+1. One shuffle total: per-batch (user, day) dedupe combiner, hash
    partition by user (each user's full day set co-locates), per-partition
    vectorized consecutive-day detection on the sorted distinct pairs, then
    a tiny per-day rollup. Day = integer epoch-day on both sides (the
    events_hourly convention — no date-type parity risk)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        day = pc.divide(pc.cast(b["ts"], pa.int64()), _DAY_US).to_numpy(
            zero_copy_only=False
        )
        # packing contract: day must fit 20 bits and be non-negative (epoch
        # days through year ~4840); fail loudly rather than corrupt the key
        if len(day) and (day.min() < 0 or day.max() >= (1 << 20)):
            raise ValueError("events_retention: epoch day outside [0, 2^20)")
        key = np.unique((u.astype(np.uint64) << np.uint64(20)) | day.astype(np.uint64))
        return pa.table(
            {
                "user_id": pa.array((key >> np.uint64(20)).astype(np.int64), pa.int64()),
                "day": pa.array(
                    (key & np.uint64((1 << 20) - 1)).astype(np.int64), pa.int64()
                ),
            }
        )

    def retained(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, u))
        u, day = u[order], day[order]
        keep = np.ones(len(u), dtype=bool)  # cross-batch distinct per partition
        keep[1:] = (u[1:] != u[:-1]) | (day[1:] != day[:-1])
        u, day = u[keep], day[keep]
        hit = (u[1:] == u[:-1]) & (day[1:] == day[:-1] + 1)
        d0 = day[:-1][hit]
        ud, c = np.unique(d0, return_counts=True)
        return pa.table(
            {
                "day": pa.array(ud, pa.int64()),
                "retained_part": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    parts = map_groups_partitioned(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=65536),
        "user_id",
        retained,
    )

    def finish(g: pa.Table) -> pa.Table:
        day = g["day"].to_numpy(zero_copy_only=False)
        c = g["retained_part"].to_numpy(zero_copy_only=False)
        order = np.argsort(day, kind="stable")
        day, c = day[order], c[order]
        new = np.ones(len(day), dtype=bool)
        new[1:] = day[1:] != day[:-1]
        starts = np.nonzero(new)[0]
        return pa.table(
            {
                "day": pa.array(day[starts], pa.int64()),
                "retained": pa.array(
                    np.add.reduceat(c, starts).astype(np.int64), pa.int64()
                ),
            }
        )

    return map_groups_partitioned(parts, "day", finish)


@query(sql="""
WITH e AS (
  SELECT user_id, CAST(ROUND(value * 100.0, 0) AS BIGINT) AS cents,
         epoch_us(ts) // 86400000000 AS day
  FROM events),
u AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS f,
         CAST(SUM(cents) AS BIGINT) AS m, MAX(day) AS lastd
  FROM e GROUP BY 1),
g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nu, CAST(SUM(f) AS BIGINT) AS tf,
         CAST(SUM(m) AS BIGINT) AS tm, CAST(SUM(lastd) AS BIGINT) AS sl,
         MAX(lastd) AS maxd
  FROM u),
thr AS (
  SELECT tf // nu AS thr_f, tm // nu AS thr_m,
         (nu * maxd - sl) // nu AS thr_r, maxd
  FROM g),
seg AS (
  SELECT CASE WHEN (thr.maxd - u.lastd) <= thr.thr_r THEN 4 ELSE 0 END
       + CASE WHEN u.f > thr.thr_f THEN 2 ELSE 0 END
       + CASE WHEN u.m > thr.thr_m THEN 1 ELSE 0 END AS sg, u.m
  FROM u, thr)
SELECT CAST(sg AS BIGINT) AS segment,
       'R' || CASE WHEN sg >= 4 THEN '+' ELSE '-' END
         || 'F' || CASE WHEN (sg // 2) % 2 = 1 THEN '+' ELSE '-' END
         || 'M' || CASE WHEN sg % 2 = 1 THEN '+' ELSE '-' END AS rfm_label,
       CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(m) AS BIGINT) AS sum_cents
FROM seg GROUP BY 1, 2 ORDER BY 1
""")
def events_rfm_segments(sf_dir: str):
    """RFM BEHAVIORAL SEGMENTATION (recency / frequency / monetary — the
    classic user-value grid every growth team cuts first): each user is
    scored +/- on all three axes against the population mean, giving 8
    segments from R+F+M+ (champions) to R-F-M- (lost). Exactness: the
    mean splits use FLOOR-division thresholds (total // n_users — exact
    integers both sides, no float means), monetary is exact integer
    cents (ROUND(value*100) == sql_round), recency needs no second pass:
    sum over users of (maxd - last_day) == n_users*maxd - sum(last_day),
    so ONE scalar aggregate over the per-user table yields every
    threshold. Plan: one user-keyed hash shuffle (map_groups_partitioned
    reduceat fold) -> materialized per-user table (output-scale, stays
    in the object store) -> two map-only passes (5-scalar fold, then
    8-bin bincount partials); the driver sees O(#blocks) integer rows."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def pre(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["value"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        day = (
            pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
            // 86400000000
        )
        return pa.table(
            {
                "user_id": b["user_id"],
                "cents": pa.array(cents, pa.int64()),
                "day": pa.array(day, pa.int64()),
            }
        )

    _u_empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "f": pa.array([], pa.int64()),
            "m": pa.array([], pa.int64()),
            "lastd": pa.array([], pa.int64()),
        }
    )

    def per_user(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _u_empty
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        day = g["day"].to_numpy(zero_copy_only=False)
        order = np.argsort(uid, kind="stable")
        uid, cents, day = uid[order], cents[order], day[order]
        idx = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        f = np.diff(np.r_[idx, len(uid)])
        m = np.add.reduceat(cents, idx)
        lastd = np.maximum.reduceat(day, idx)
        return pa.table(
            {
                "user_id": pa.array(uid[idx], pa.int64()),
                "f": pa.array(f, pa.int64()),
                "m": pa.array(m, pa.int64()),
                "lastd": pa.array(lastd, pa.int64()),
            }
        )

    users = map_groups_partitioned(
        ds.map_batches(pre, batch_format="pyarrow", batch_size=131072),
        "user_id",
        per_user,
    ).materialize()

    def scalar_partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nu": pa.array([b.num_rows], pa.int64()),
                "tf": pa.array([int(pc.sum(b["f"]).as_py() or 0)], pa.int64()),
                "tm": pa.array([int(pc.sum(b["m"]).as_py() or 0)], pa.int64()),
                "sl": pa.array(
                    [int(pc.sum(b["lastd"]).as_py() or 0)], pa.int64()
                ),
                "maxd": pa.array(
                    [pc.max(b["lastd"]).as_py()], pa.int64()
                ),
            }
        )

    sc = _collect_table(
        users.map_batches(
            scalar_partial, batch_format="pyarrow", batch_size=1 << 20
        )
    )  # O(#blocks) rows
    nu = int(pc.sum(sc["nu"]).as_py() or 0)
    if nu == 0:
        return pa.table(
            {
                "segment": pa.array([], pa.int64()),
                "rfm_label": pa.array([], pa.string()),
                "n_users": pa.array([], pa.int64()),
                "sum_cents": pa.array([], pa.int64()),
            }
        )
    tf = int(pc.sum(sc["tf"]).as_py())
    tm = int(pc.sum(sc["tm"]).as_py())
    sl = int(pc.sum(sc["sl"]).as_py())
    maxd = int(pc.max(sc["maxd"]).as_py())
    thr_f, thr_m = tf // nu, tm // nu
    thr_r = (nu * maxd - sl) // nu

    def seg_partial(b: pa.Table) -> pa.Table:
        f = b["f"].to_numpy(zero_copy_only=False)
        m = b["m"].to_numpy(zero_copy_only=False)
        lastd = b["lastd"].to_numpy(zero_copy_only=False)
        seg = (
            ((maxd - lastd) <= thr_r).astype(np.int64) * 4
            + (f > thr_f).astype(np.int64) * 2
            + (m > thr_m).astype(np.int64)
        )
        n8 = np.bincount(seg, minlength=8).astype(np.int64)
        s8 = np.zeros(8, np.int64)
        np.add.at(s8, seg, m)
        return pa.table(
            {
                "segment": pa.array(np.arange(8, dtype=np.int64)),
                "n": pa.array(n8, pa.int64()),
                "s": pa.array(s8, pa.int64()),
            }
        )

    parts = _collect_table(
        users.map_batches(
            seg_partial, batch_format="pyarrow", batch_size=1 << 20
        )
    )  # 8 x O(#blocks) rows
    seg = parts["segment"].to_numpy(zero_copy_only=False)
    n = np.zeros(8, np.int64)
    s = np.zeros(8, np.int64)
    np.add.at(n, seg, parts["n"].to_numpy(zero_copy_only=False))
    np.add.at(s, seg, parts["s"].to_numpy(zero_copy_only=False))
    keep = n > 0
    segs = np.arange(8, dtype=np.int64)[keep]
    labels = [
        "R" + ("+" if g & 4 else "-")
        + "F" + ("+" if g & 2 else "-")
        + "M" + ("+" if g & 1 else "-")
        for g in segs
    ]
    return pa.table(
        {
            "segment": pa.array(segs, pa.int64()),
            "rfm_label": pa.array(labels, pa.string()),
            "n_users": pa.array(n[keep], pa.int64()),
            "sum_cents": pa.array(s[keep], pa.int64()),
        }
    )


@query(sql="""
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(COUNT(*) AS BIGINT) AS n_both
  FROM ut a JOIN ut b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2),
c AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM ut GROUP BY 1)
SELECT p.type_a, p.type_b, ca.n AS n_a, cb.n AS n_b, p.n_both,
       CAST(p.n_both AS DOUBLE)
         / CAST(ca.n + cb.n - p.n_both AS DOUBLE) AS jaccard
FROM p
JOIN c ca ON ca.event_type = p.type_a
JOIN c cb ON cb.event_type = p.type_b
ORDER BY 1, 2
""")
def events_audience_overlap(sf_dir: str):
    """AUDIENCE-OVERLAP MATRIX (pairwise Jaccard between the distinct
    USER SETS of each event type — do clickers also purchase, or are the
    audiences disjoint? The cross-sell / cannibalization table product
    teams read first). Exactness and scale in one trick: instead of a
    distinct-pair self-join, fold each user's types into ONE bitmask
    (types are bounded; discovery pass sorted), then count users per
    mask — a <=2^T-row integer histogram from which EVERY pairwise
    intersection/union is exact integer arithmetic. Plan: per-batch
    (user, bit) dedup -> one user-keyed shuffle (bitwise_or reduceat
    fold) -> bounded mask histogram partials; the driver sees
    O(2^T x blocks) integers, never a user row. Zero-overlap pairs are
    dropped (the SQL join emits no row for them)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    ty_t = fold_table(ds.select_columns(["event_type"]), "event_type", {"n": (None, "count")})
    types = np.sort(np.asarray(ty_t["event_type"].to_pylist()))
    nt = len(types)
    if nt == 0:
        return pa.table(
            {
                "type_a": pa.array([], pa.string()),
                "type_b": pa.array([], pa.string()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "n_both": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    if nt > 16:
        raise ValueError(
            f"audience bitmask fold assumes a bounded type domain "
            f"(got {nt} > 16 types; the 2^T mask histogram would blow up)"
        )

    def to_bits(b: pa.Table, ts=types) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ts, np.asarray(b["event_type"].to_pylist()))
        pair = np.unique(
            (uid.astype(np.uint64) << np.uint64(8))
            | idx.astype(np.uint64)
        )
        return pa.table(
            {
                "user_id": pa.array(
                    (pair >> np.uint64(8)).astype(np.int64), pa.int64()
                ),
                "bit": pa.array(
                    np.left_shift(
                        np.int64(1),
                        (pair & np.uint64(255)).astype(np.int64),
                    ),
                    pa.int64(),
                ),
            }
        )

    _m_empty = pa.table(
        {
            "mask": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )

    def mask_partial(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _m_empty
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        bit = g["bit"].to_numpy(zero_copy_only=False)
        order = np.argsort(uid, kind="stable")
        uid, bit = uid[order], bit[order]
        idx = np.nonzero(np.r_[True, uid[1:] != uid[:-1]])[0]
        masks = np.bitwise_or.reduceat(bit, idx)
        um, cnts = np.unique(masks, return_counts=True)
        return pa.table(
            {
                "mask": pa.array(um, pa.int64()),
                "n": pa.array(cnts.astype(np.int64), pa.int64()),
            }
        )

    parts = _collect_table(
        map_groups_partitioned(
            ds.map_batches(to_bits, batch_format="pyarrow", batch_size=131072),
            "user_id",
            mask_partial,
        )
    )  # <= 2^T x n_parts rows
    hist = np.zeros(1 << nt, np.int64)
    np.add.at(
        hist,
        parts["mask"].to_numpy(zero_copy_only=False),
        parts["n"].to_numpy(zero_copy_only=False),
    )
    all_masks = np.arange(1 << nt, dtype=np.int64)
    rows = []
    for a in range(nt):
        na = int(hist[(all_masks >> a) & 1 == 1].sum())
        for b in range(a + 1, nt):
            nb = int(hist[(all_masks >> b) & 1 == 1].sum())
            nab = int(
                hist[
                    (((all_masks >> a) & 1) & ((all_masks >> b) & 1)) == 1
                ].sum()
            )
            if nab == 0:
                continue
            rows.append(
                (
                    str(types[a]),
                    str(types[b]),
                    na,
                    nb,
                    nab,
                    float(np.float64(nab) / np.float64(na + nb - nab)),
                )
            )
    return pa.table(
        {
            "type_a": pa.array([r[0] for r in rows], pa.string()),
            "type_b": pa.array([r[1] for r in rows], pa.string()),
            "n_a": pa.array([r[2] for r in rows], pa.int64()),
            "n_b": pa.array([r[3] for r in rows], pa.int64()),
            "n_both": pa.array([r[4] for r in rows], pa.int64()),
            "jaccard": pa.array([r[5] for r in rows], pa.float64()),
        }
    )


@query(sql="""
WITH du AS (
  SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id FROM events),
span AS (SELECT MIN(day) AS d0, MAX(day) AS d1 FROM du),
grid AS (
  SELECT UNNEST(generate_series((SELECT d0 + 6 FROM span),
                                (SELECT d1 FROM span))) AS d),
dau AS (SELECT day, CAST(COUNT(*) AS BIGINT) AS dau FROM du GROUP BY 1),
wau AS (
  SELECT g.d, CAST(COUNT(DISTINCT du.user_id) AS BIGINT) AS wau
  FROM grid g LEFT JOIN du ON du.day BETWEEN g.d - 6 AND g.d
  GROUP BY 1)
SELECT g.d AS day, COALESCE(dau.dau, 0) AS dau, w.wau,
       CASE WHEN w.wau > 0
            THEN CAST(COALESCE(dau.dau, 0) AS DOUBLE) / CAST(w.wau AS DOUBLE)
            ELSE NULL END AS stickiness
FROM grid g
LEFT JOIN dau ON dau.day = g.d
JOIN wau w ON w.d = g.d
ORDER BY 1
""")
def events_stickiness(sf_dir: str):
    """DAU/WAU STICKINESS per day (the product-analytics retention pulse:
    what fraction of the week's active users showed up today — the daily
    complement of events_retention's cohort view): distinct (day, user)
    pairs via one packed count_by_u64 dedup, WAU by replicating each
    distinct pair to its 7 covered target days and deduping again (the
    hopping-window contract — replication is x7 on DISTINCT pairs, not
    events), DAU and WAU as exact integer counts per day, stickiness =
    ONE double division. Only days with a FULL trailing window are
    emitted (mirrored). user_id < 2^32 asserted before packing (fail
    loud, the documented hatch)."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pack(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        assert (uid < (1 << 32)).all(), "user_id >= 2^32 breaks day-packing"
        day = (us // 86400000000).astype(np.uint64)
        return pa.table(
            {"key": pa.array((day << np.uint64(32)) | uid, pa.uint64())}
        )

    du = count_by_u64(
        ds.map_batches(pack, batch_format="pyarrow", batch_size=131072), "key"
    )  # distinct (day, user)

    def dau_key(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    >> np.uint64(32),
                    pa.uint64(),
                )
            }
        )

    dau_t = _collect_table(
        count_by_u64(du.map_batches(dau_key, batch_format="pyarrow"), "key")
    )

    def replicate(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        day = k >> np.uint64(32)
        uid = k & np.uint64(0xFFFFFFFF)
        outs = [
            ((day + np.uint64(off)) << np.uint64(32)) | uid for off in range(7)
        ]
        return pa.table({"key": pa.array(np.concatenate(outs), pa.uint64())})

    wk = count_by_u64(
        du.map_batches(replicate, batch_format="pyarrow", batch_size=131072),
        "key",
    )  # distinct (target_day, user)
    wau_t = _collect_table(
        count_by_u64(wk.map_batches(dau_key, batch_format="pyarrow"), "key")
    )
    if dau_t.num_rows == 0:
        return pa.table(
            {
                "day": pa.array([], pa.int64()),
                "dau": pa.array([], pa.int64()),
                "wau": pa.array([], pa.int64()),
                "stickiness": pa.array([], pa.float64()),
            }
        )
    dau_map = dict(
        zip(
            dau_t["key"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
            dau_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
        )
    )
    wau_map = dict(
        zip(
            wau_t["key"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
            wau_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
        )
    )
    d0, d1 = min(dau_map), max(dau_map)
    days = list(range(d0 + 6, d1 + 1))
    dau = [dau_map.get(d, 0) for d in days]
    wau = [wau_map.get(d, 0) for d in days]
    return pa.table(
        {
            "day": pa.array(days, pa.int64()),
            "dau": pa.array(dau, pa.int64()),
            "wau": pa.array(wau, pa.int64()),
            "stickiness": pa.array(
                [
                    float(np.float64(a) / np.float64(w)) if w > 0 else None
                    for a, w in zip(dau, wau)
                ],
                pa.float64(),
            ),
        }
    )


_KMV_K = 64
_KMV_MOD = 1 << 32


@query(sql=f"""
WITH dh AS (
  SELECT DISTINCT event_type,
         (user_id * {_KMV_MULT}) % {_KMV_MOD} AS h
  FROM events),
ranked AS (
  SELECT event_type, h,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h) AS r
  FROM dh),
kth AS (SELECT event_type, h AS hk FROM ranked WHERE r = {_KMV_K}),
exact AS (
  SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS exact_distinct
  FROM events GROUP BY 1)
SELECT e.event_type, e.exact_distinct,
       ROUND(CASE WHEN k.hk IS NOT NULL
                  THEN {float(_KMV_K - 1)} * {float(_KMV_MOD)} / CAST(k.hk AS DOUBLE)
                  ELSE CAST(e.exact_distinct AS DOUBLE) END, 6) AS kmv_estimate
FROM exact e LEFT JOIN kth k USING (event_type)
ORDER BY 1
""")
def events_kmv_distinct(sf_dir: str):
    """KMV (k-minimum-values) DISTINCT-COUNT SKETCH vs exact, per
    event_type (the bottom-k companion that completes the mergeable-
    sketch family — HLL estimates via register maxima, KMV via the k-th
    smallest hash: est = (k-1) * M / h_k — and unlike HLL its state IS a
    plain sorted u64 list, so the merge law is just k-smallest-of-union,
    trivially exact under any partitioning). Hash is the Knuth
    multiplicative (uid * 2654435761) mod 2^32, mirrored digit-for-digit
    in the SQL (uid < 2^32 asserted so the product stays inside int64 —
    the documented fail-loud hatch). Distributed shape: distinct
    (type, hash) via ONE count_by_u64 hash-partition, then per-batch
    bottom-k partials (<= n_types * k rows each) merge on the driver —
    the sketch contract: the driver sees k values per type, never users.
    Types themselves are a bounded dimension (collected first)."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def batch_types(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": pa.array(sorted(set(b["event_type"].to_pylist())), pa.string())}
        )

    types = sorted(
        set(
            _collect_table(
                ds.map_batches(batch_types, batch_format="pyarrow", batch_size=131072)
            )["event_type"].to_pylist()
        )
    )
    t_idx = {t: i for i, t in enumerate(types)}

    def pack(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (uid >= 0).all() and (uid < _KMV_MOD).all(), (
            "user_id outside [0, 2^32) breaks the KMV hash mirror"
        )
        h = ((uid * _KMV_MULT) % _KMV_MOD).astype(np.uint64)
        ti = np.array(
            [t_idx[t] for t in b["event_type"].to_pylist()], dtype=np.uint64
        )
        return pa.table({"key": pa.array((ti << np.uint64(32)) | h, pa.uint64())})

    distinct = count_by_u64(
        ds.map_batches(pack, batch_format="pyarrow", batch_size=131072), "key"
    )  # distinct (type, hash) pairs; cnt unused

    def bottomk(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = (k >> np.uint64(32)).astype(np.int64)
        h = (k & np.uint64(0xFFFFFFFF)).astype(np.int64)
        outs_t, outs_h = [], []
        for t in np.unique(ti):
            hs = np.sort(h[ti == t])[:_KMV_K]
            outs_t.append(np.full(len(hs), t, np.int64))
            outs_h.append(hs)
        return pa.table(
            {
                "ti": pa.array(np.concatenate(outs_t) if outs_t else [], pa.int64()),
                "h": pa.array(np.concatenate(outs_h) if outs_h else [], pa.int64()),
            }
        )

    partials = _collect_table(
        distinct.map_batches(bottomk, batch_format="pyarrow")
    )  # <= n_blocks * n_types * k rows: sketch partials, not data

    # exact distinct users per type: second distinct pass on (type, uid)
    def pack_uid(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = np.array(
            [t_idx[t] for t in b["event_type"].to_pylist()], dtype=np.uint64
        )
        return pa.table({"key": pa.array((ti << np.uint64(32)) | uid, pa.uint64())})

    du = count_by_u64(
        ds.map_batches(pack_uid, batch_format="pyarrow", batch_size=131072), "key"
    )

    def type_of(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": pa.array(
                    b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
                    >> np.uint64(32),
                    pa.uint64(),
                )
            }
        )

    exact_t = _collect_table(
        count_by_u64(du.map_batches(type_of, batch_format="pyarrow"), "key")
    )
    exact = dict(
        zip(
            exact_t["key"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
            exact_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64).tolist(),
        )
    )

    ti_all = partials["ti"].to_numpy(zero_copy_only=False)
    h_all = partials["h"].to_numpy(zero_copy_only=False)
    rows = []
    for i, t in enumerate(types):
        hs = np.unique(h_all[ti_all == i])  # merge law: union, then k smallest
        nd = exact.get(i, 0)
        if len(hs) >= _KMV_K:
            hk = int(hs[_KMV_K - 1])
            est = float(np.float64((_KMV_K - 1) * float(_KMV_MOD)) / np.float64(hk))
        else:
            est = float(nd)
        rows.append((t, nd, est))
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "exact_distinct": pa.array([r[1] for r in rows], pa.int64()),
            "kmv_estimate": pa.array(
                sql_round_np([r[2] for r in rows], 6), pa.float64()
            ),
        }
    )


_CM_W = 1024
_CM_P = 2147483647  # Mersenne prime 2^31 - 1
# A_j < 2^30 so uid (< 2^32, asserted) * A_j + B_j stays inside int64 on both
# the numpy and the BIGINT side — no wraparound divergence possible
_CM_A = (1000003, 998244353, 633910099, 369060583)
_CM_B = (12289, 786433, 40961, 65537)


def _cm_sql() -> str:
    bucket_cols = ", ".join(
        f"((user_id * {a} + {b}) % {_CM_P}) % {_CM_W} AS b{j}"
        for j, (a, b) in enumerate(zip(_CM_A, _CM_B))
    )
    sums = ", ".join(
        f"s{j} AS (SELECT b{j} AS b, CAST(SUM(c) AS BIGINT) AS s FROM h GROUP BY 1)"
        for j in range(len(_CM_A))
    )
    joins = " ".join(f"JOIN s{j} ON s{j}.b = h.b{j}" for j in range(len(_CM_A)))
    least = ", ".join(f"s{j}.s" for j in range(len(_CM_A)))
    return f"""
WITH cnts AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS c FROM events GROUP BY 1),
h AS (SELECT user_id, c, {bucket_cols} FROM cnts),
{sums}
SELECT h.user_id, h.c AS exact_cnt,
       LEAST({least}) AS cm_estimate,
       LEAST({least}) - h.c AS overestimate
FROM h {joins}
ORDER BY exact_cnt DESC, user_id
LIMIT 20
"""




@query(sql=_cm_sql())
def events_countmin_eval(sf_dir: str):
    """COUNT-MIN SKETCH EVALUATION (the OTHER half of the heavy-hitter
    toolbox: Misra-Gries tracks candidates exactly but forgets the tail;
    Count-Min answers point queries for EVERY key with a one-sided
    (over-estimate only) error, and its state is a fixed d x w integer
    grid whose merge law is elementwise addition — the ideal mergeable
    shape for a 256-node combine tree). Sketch: d=4 rows, w=1024,
    universal hashes ((u*A_j + B_j) mod P) mod w with A_j < 2^30 so the
    arithmetic is int64-exact and mirrored verbatim in the SQL (which
    re-derives the same grid from exact per-user counts — a true double
    implementation). Distributed shape: per-batch partial grids become
    (slot, partial_count) rows summed by ONE sum_by_u64 hash partition
    (<= 4096 distinct slots); the exact top-20 users come from
    count_by_u64 + per-batch top-k partials. The driver sees the 4096-
    cell grid and 20 rows — never per-event data. Output: the top-20
    heavy hitters with exact count, CM estimate and the (always >= 0)
    overestimate."""
    ds = _read(sf_dir, "events", ["user_id"])

    per_user = count_by_u64(
        ds.map_batches(
            lambda b: pa.table(
                {
                    "key": pa.array(
                        b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
                        pa.uint64(),
                    )
                }
            ),
            batch_format="pyarrow",
            batch_size=131072,
        ),
        "key",
    )  # (user, exact count)

    def to_slots(b: pa.Table) -> pa.Table:
        uid = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (uid >= 0).all() and (uid < (1 << 32)).all(), (
            "user_id outside [0, 2^32) breaks the CM hash mirror"
        )
        c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        slots, vals = [], []
        for j, (a_j, b_j) in enumerate(zip(_CM_A, _CM_B)):
            bucket = ((uid * a_j + b_j) % _CM_P) % _CM_W
            slots.append((j * _CM_W + bucket).astype(np.uint64))
            vals.append(c)
        return pa.table(
            {
                "key": pa.array(np.concatenate(slots), pa.uint64()),
                "val": pa.array(np.concatenate(vals), pa.int64()),
            }
        )

    grid_t = _collect_table(
        sum_by_u64(
            per_user.map_batches(to_slots, batch_format="pyarrow"), "key", "val"
        )
    )  # <= d*w = 4096 rows: the sketch itself
    grid = np.zeros(len(_CM_A) * _CM_W, np.int64)
    grid[grid_t["key"].to_numpy(zero_copy_only=False).astype(np.int64)] = grid_t[
        grid_t.column_names[1]
    ].to_numpy(zero_copy_only=False).astype(np.int64)

    def topk_partial(b: pa.Table) -> pa.Table:
        uid = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((uid, -c))[:20]
        return pa.table(
            {
                "uid": pa.array(uid[order], pa.int64()),
                "c": pa.array(c[order], pa.int64()),
            }
        )

    cand = _collect_table(
        per_user.map_batches(topk_partial, batch_format="pyarrow")
    )  # <= 20 per block
    uid = cand["uid"].to_numpy(zero_copy_only=False)
    c = cand["c"].to_numpy(zero_copy_only=False)
    order = np.lexsort((uid, -c))[:20]
    uid, c = uid[order], c[order]
    est = np.min(
        np.stack(
            [
                grid[j * _CM_W + ((uid * a_j + b_j) % _CM_P) % _CM_W]
                for j, (a_j, b_j) in enumerate(zip(_CM_A, _CM_B))
            ]
        ),
        axis=0,
    )
    return pa.table(
        {
            "user_id": pa.array(uid, pa.int64()),
            "exact_cnt": pa.array(c, pa.int64()),
            "cm_estimate": pa.array(est, pa.int64()),
            "overestimate": pa.array(est - c, pa.int64()),
        }
    )


@query(sql="""
WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
m AS (
  SELECT user_id, us,
         CASE WHEN us - LAG(us) OVER (PARTITION BY user_id ORDER BY us) > 1800000000
                OR LAG(us) OVER (PARTITION BY user_id ORDER BY us) IS NULL
              THEN 1 ELSE 0 END AS new_s
  FROM e),
s AS (
  SELECT user_id, us,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY us
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM m),
sess AS (
  SELECT user_id, sid, CAST(COUNT(*) AS BIGINT) AS n_events,
         MAX(us) - MIN(us) AS duration_us
  FROM s GROUP BY 1, 2),
bucketed AS (
  SELECT CAST(FLOOR(LOG2(CAST(n_events AS DOUBLE))) AS BIGINT) AS bucket,
         n_events, duration_us
  FROM sess)
SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_sessions,
       CAST(SUM(n_events) AS BIGINT) AS total_events,
       ROUND(CAST(SUM(duration_us) AS DOUBLE) / COUNT(*) / 1000000.0, 6)
         AS mean_duration_s
FROM bucketed GROUP BY 1 ORDER BY 1
""")
def events_session_stats(sf_dir: str):
    """SESSION-SIZE PROFILE (the product-analytics read on the sessionize
    output: sessions bucketed by floor(log2(n_events)) — bucket 0 is the
    bounce bucket — with session count, event mass and mean duration per
    bucket; the session-quality histogram every engagement dashboard
    opens with). Downstream of the same one-pass vectorized sessionizer
    (hash-partition by user, lexsort + segment boundaries — never
    per-user Python); the profile itself is a bounded-bucket mergeable
    fold: per-batch (bucket, n, sum_events, sum_duration) partials,
    driver sees <= ~20 bucket rows. log2 of an exact power of two is
    exact in every IEEE libm, so the integer bucket is engine-stable."""
    sessions = events_sessionize(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        n_ev = b["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
        dur = b["duration_us"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = np.floor(np.log2(n_ev.astype(np.float64))).astype(np.int64)
        u = np.unique(bucket)
        idx = np.searchsorted(u, bucket)
        cnt = np.bincount(idx, minlength=len(u)).astype(np.int64)
        sev = np.zeros(len(u), np.int64)
        np.add.at(sev, idx, n_ev)
        sdu = np.zeros(len(u), np.int64)
        np.add.at(sdu, idx, dur)
        return pa.table(
            {
                "bucket": pa.array(u, pa.int64()),
                "n": pa.array(cnt, pa.int64()),
                "sev": pa.array(sev, pa.int64()),
                "sdu": pa.array(sdu, pa.int64()),
            }
        )

    pt = _collect_table(sessions.map_batches(partial, batch_format="pyarrow"))
    b = pt["bucket"].to_numpy(zero_copy_only=False)
    u = np.unique(b)
    idx = np.searchsorted(u, b)
    n = np.zeros(len(u), np.int64)
    np.add.at(n, idx, pt["n"].to_numpy(zero_copy_only=False))
    sev = np.zeros(len(u), np.int64)
    np.add.at(sev, idx, pt["sev"].to_numpy(zero_copy_only=False))
    sdu = np.zeros(len(u), np.int64)
    np.add.at(sdu, idx, pt["sdu"].to_numpy(zero_copy_only=False))
    mean_s = sql_round_np(sdu.astype(np.float64) / n / 1000000.0, 6)
    return pa.table(
        {
            "bucket": pa.array(u, pa.int64()),
            "n_sessions": pa.array(n, pa.int64()),
            "total_events": pa.array(sev, pa.int64()),
            "mean_duration_s": pa.array(mean_s, pa.float64()),
        }
    )


@query(sql=f"""
WITH dh AS (
  SELECT DISTINCT event_type, (user_id * {_KMV_MULT}) % {_KMV_MOD} AS h
  FROM events),
ranked AS (
  SELECT event_type, h,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY h) AS r
  FROM dh),
sk AS (SELECT event_type, h FROM ranked WHERE r <= {_KMV_K}),
theta AS (
  SELECT event_type,
         CASE WHEN MAX(r) >= {_KMV_K}
              THEN MAX(CASE WHEN r = {_KMV_K} THEN h END)
              ELSE {_KMV_MOD} END AS th
  FROM ranked GROUP BY 1),
tp AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         LEAST(a.th, b.th) AS theta
  FROM theta a JOIN theta b ON a.event_type < b.event_type),
icnt AS (
  SELECT tp.type_a, tp.type_b,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM tp
  JOIN sk sa ON sa.event_type = tp.type_a
  JOIN sk sb ON sb.event_type = tp.type_b AND sb.h = sa.h
  WHERE sa.h < tp.theta
  GROUP BY 1, 2),
exact AS (
  SELECT x.event_type AS type_a, y.event_type AS type_b,
         CAST(COUNT(*) AS BIGINT) AS exact_overlap
  FROM (SELECT DISTINCT event_type, user_id FROM events) x
  JOIN (SELECT DISTINCT event_type, user_id FROM events) y
    ON x.user_id = y.user_id AND x.event_type < y.event_type
  GROUP BY 1, 2)
SELECT tp.type_a, tp.type_b,
       COALESCE(e.exact_overlap, 0) AS exact_overlap,
       ROUND(COALESCE(i.cnt, 0) * {float(_KMV_MOD)} / CAST(tp.theta AS DOUBLE), 6)
         AS kmv_estimate
FROM tp
LEFT JOIN icnt i ON i.type_a = tp.type_a AND i.type_b = tp.type_b
LEFT JOIN exact e ON e.type_a = tp.type_a AND e.type_b = tp.type_b
ORDER BY 1, 2
""")
def events_kmv_overlap(sf_dir: str):
    """KMV / THETA-SKETCH SET INTERSECTION (the algebra that makes
    bottom-k sketches composable: audience overlap between event types
    WITHOUT a distinct-pair join — at 256 nodes each type keeps one
    64-value sketch and any pairwise overlap is driver arithmetic; the
    sketch-algebra completion of events_kmv_distinct). Spec: per type,
    S = bottom-{_KMV_K} distinct Knuth hashes; for a pair,
    theta = min(kth(A), kth(B)) (a side with < k distinct keeps
    theta = M), est = |S_A ∩ S_B ∩ [0, theta)| * M / theta — integer
    counting plus ONE double division, mirrored in the SQL. Exact
    overlap (the evaluation column) is one packed distinct pass per
    type pair via the same count_by_u64 machinery."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def batch_types(b: pa.Table) -> pa.Table:
        return pa.table(
            {"event_type": pa.array(sorted(set(b["event_type"].to_pylist())), pa.string())}
        )

    types = sorted(
        set(
            _collect_table(
                ds.map_batches(batch_types, batch_format="pyarrow", batch_size=131072)
            )["event_type"].to_pylist()
        )
    )
    t_idx = {t: i for i, t in enumerate(types)}

    def pack(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (uid >= 0).all() and (uid < _KMV_MOD).all(), (
            "user_id outside [0, 2^32) breaks the KMV hash mirror"
        )
        h = ((uid * _KMV_MULT) % _KMV_MOD).astype(np.uint64)
        ti = np.array([t_idx[t] for t in b["event_type"].to_pylist()], dtype=np.uint64)
        return pa.table({"key": pa.array((ti << np.uint64(32)) | h, pa.uint64())})

    distinct = count_by_u64(
        ds.map_batches(pack, batch_format="pyarrow", batch_size=131072), "key"
    )

    def bottomk(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = (k >> np.uint64(32)).astype(np.int64)
        h = (k & np.uint64(0xFFFFFFFF)).astype(np.int64)
        outs_t, outs_h = [], []
        for t in np.unique(ti):
            hs = np.sort(h[ti == t])[:_KMV_K]
            outs_t.append(np.full(len(hs), t, np.int64))
            outs_h.append(hs)
        return pa.table(
            {
                "ti": pa.array(np.concatenate(outs_t) if outs_t else [], pa.int64()),
                "h": pa.array(np.concatenate(outs_h) if outs_h else [], pa.int64()),
            }
        )

    partials = _collect_table(distinct.map_batches(bottomk, batch_format="pyarrow"))
    ti_all = partials["ti"].to_numpy(zero_copy_only=False)
    h_all = partials["h"].to_numpy(zero_copy_only=False)
    sketches = {}
    for i in range(len(types)):
        hs = np.unique(h_all[ti_all == i])[:_KMV_K]
        sketches[i] = hs

    # exact pairwise overlaps: one distinct (user, typeA, typeB) pass per
    # packed (a, b, uid) triple — types are bounded so the per-user type
    # SET fits a bitmask and pairs enumerate inside the kernel
    def pack_pairs(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = np.array([t_idx[t] for t in b["event_type"].to_pylist()], dtype=np.uint64)
        return pa.table({"key": pa.array((ti << np.uint64(32)) | uid, pa.uint64())})

    du = count_by_u64(
        ds.map_batches(pack_pairs, batch_format="pyarrow", batch_size=131072), "key"
    )

    def user_masks(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = (k >> np.uint64(32)).astype(np.int64)
        uid = (k & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        return pa.table(
            {
                "key": pa.array(uid, pa.uint64()),
                "val": pa.array((np.int64(1) << ti).astype(np.int64), pa.int64()),
            }
        )

    masks = sum_by_u64(
        du.map_batches(user_masks, batch_format="pyarrow"), "key", "val"
    )  # distinct types per user never repeat -> sum == OR

    def overlap_partial(b: pa.Table) -> pa.Table:
        m = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        nt = len(types)
        out_a, out_b, out_n = [], [], []
        for a in range(nt):
            for bb in range(a + 1, nt):
                both = np.int64((1 << a) | (1 << bb))
                out_a.append(a)
                out_b.append(bb)
                out_n.append(int(((m & both) == both).sum()))
        return pa.table(
            {
                "a": pa.array(out_a, pa.int64()),
                "b": pa.array(out_b, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    ov = _collect_table(masks.map_batches(overlap_partial, batch_format="pyarrow"))
    agg: dict = {}
    for a, bb, n in zip(
        ov["a"].to_pylist(), ov["b"].to_pylist(), ov["n"].to_pylist()
    ):
        agg[(a, bb)] = agg.get((a, bb), 0) + n

    rows = []
    for a in range(len(types)):
        for bb in range(a + 1, len(types)):
            sa, sb = sketches[a], sketches[bb]
            th_a = int(sa[_KMV_K - 1]) if len(sa) >= _KMV_K else _KMV_MOD
            th_b = int(sb[_KMV_K - 1]) if len(sb) >= _KMV_K else _KMV_MOD
            theta = min(th_a, th_b)
            inter = np.intersect1d(sa, sb)
            cnt = int((inter < theta).sum())
            est = float(np.float64(cnt * float(_KMV_MOD)) / np.float64(theta))
            rows.append((types[a], types[bb], agg.get((a, bb), 0), est))
    return pa.table(
        {
            "type_a": pa.array([r[0] for r in rows], pa.string()),
            "type_b": pa.array([r[1] for r in rows], pa.string()),
            "exact_overlap": pa.array([r[2] for r in rows], pa.int64()),
            "kmv_estimate": pa.array(
                sql_round_np([r[3] for r in rows], 6), pa.float64()
            ),
        }
    )


_WEEK_US = 7 * 86_400_000_000


@query(sql="""
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
  FROM events),
w0 AS (
  SELECT user_id, MIN(week) AS cohort FROM uw GROUP BY 1),
m AS (
  SELECT w.cohort, u.week - w.cohort AS off,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM uw u JOIN w0 w ON w.user_id = u.user_id
  GROUP BY 1, 2),
base AS (
  SELECT cohort, n AS n0 FROM m WHERE off = 0)
SELECT CAST(m.cohort AS BIGINT) AS cohort_week,
       CAST(m.off AS BIGINT) AS week_offset,
       m.n AS n_users,
       ROUND(CAST(m.n AS DOUBLE) / CAST(b.n0 AS DOUBLE), 6) AS retention
FROM m JOIN base b ON b.cohort = m.cohort
""")
def events_cohort_matrix(sf_dir: str):
    """WEEKLY COHORT RETENTION MATRIX (the product-analytics staple
    events_retention's day-over-day view doesn't give): users are
    cohorted by their FIRST active epoch-week; for each (cohort_week,
    week_offset) cell, the count of distinct cohort users active that
    many weeks later, plus the retention ratio vs the cohort's week-0
    size. Plan: per-batch distinct (user, week) combiner, ONE user-keyed
    hash shuffle (each user's full week set co-locates so week-0 is the
    true global min), per-partition vectorized offset expansion to
    bounded (cohort, offset) partials, tiny final groupby-sum; the
    retention division is driver arithmetic over the weeks^2-bounded
    matrix. Week = integer epoch-week on both sides (the events_retention
    convention — no date-type parity risk)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        wk = (
            pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
            // _WEEK_US
        )
        # packing contract: week fits 20 bits, non-negative (epoch weeks
        # through year ~21k); fail loudly rather than corrupt the key
        if len(wk) and (wk.min() < 0 or wk.max() >= (1 << 20)):
            raise ValueError("epoch week out of 20-bit packing range")
        key = np.unique(u * (1 << 20) + wk)
        return pa.table(
            {
                "user_id": pa.array(key >> 20, pa.int64()),
                "week": pa.array(key & ((1 << 20) - 1), pa.int64()),
            }
        )

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "cohort_week": pa.array([], pa.int64()),
            "week_offset": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        u = g["user_id"].to_numpy(zero_copy_only=False)
        w = g["week"].to_numpy(zero_copy_only=False)
        key = np.unique(u * (1 << 20) + w)  # cross-batch dedupe
        u, w = key >> 20, key & ((1 << 20) - 1)
        first = np.r_[True, u[1:] != u[:-1]]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, len(u)))
        w0 = np.repeat(w[starts], sizes)  # per-user min week (sorted)
        cells, counts = np.unique(w0 * (1 << 20) + (w - w0), return_counts=True)
        return pa.table(
            {
                "cohort_week": pa.array(cells >> 20, pa.int64()),
                "week_offset": pa.array(
                    cells & ((1 << 20) - 1), pa.int64()
                ),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    m = fold_table(
        map_groups_partitioned(
            ds.map_batches(pairs, batch_format="pyarrow", batch_size=131072),
            "user_id",
            per_part,
        ),
        ["cohort_week", "week_offset"],
        {"n_users": ("n", "sum")},
    )
    cw = m["cohort_week"].to_numpy(zero_copy_only=False).astype(np.int64)
    off = m["week_offset"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = m["n_users"].to_numpy(zero_copy_only=False).astype(np.int64)
    base = {c: v for c, o, v in zip(cw, off, n) if o == 0}
    n0 = np.asarray([base[c] for c in cw], np.int64)
    return pa.table(
        {
            "cohort_week": pa.array(cw, pa.int64()),
            "week_offset": pa.array(off, pa.int64()),
            "n_users": pa.array(n, pa.int64()),
            "retention": pa.array(
                sql_round_np(n.astype(np.float64) / n0.astype(np.float64), 6),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH b AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day, event_type
  FROM events),
nb AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_baskets
  FROM (SELECT DISTINCT user_id, day FROM b)),
m AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM b GROUP BY 1),
p AS (
  SELECT x.event_type AS a, y.event_type AS c,
         CAST(COUNT(*) AS BIGINT) AS n_ab
  FROM b x JOIN b y
    ON y.user_id = x.user_id AND y.day = x.day
   AND y.event_type <> x.event_type
  GROUP BY 1, 2)
SELECT p.a AS antecedent, p.c AS consequent, p.n_ab,
       ROUND(CAST(p.n_ab AS DOUBLE) / CAST(nb.n_baskets AS DOUBLE), 6)
         AS support,
       ROUND(CAST(p.n_ab AS DOUBLE) / CAST(ma.n AS DOUBLE), 6)
         AS confidence,
       ROUND(CAST(p.n_ab AS DOUBLE) * CAST(nb.n_baskets AS DOUBLE)
             / (CAST(ma.n AS DOUBLE) * CAST(mc.n AS DOUBLE)), 6) AS lift
FROM p, nb
JOIN m ma ON ma.event_type = p.a
JOIN m mc ON mc.event_type = p.c
""")
def events_assoc_rules(sf_dir: str):
    """ASSOCIATION RULES over user-day baskets (market-basket analysis on
    the event stream): a basket is the DISTINCT set of event types a user
    fires on one epoch-day; for every ordered type pair a -> b, report
    joint basket count, support n_ab/N, confidence n_ab/n_a, and lift
    N*n_ab/(n_a*n_b). Plan: tiny distinct-type pass (the event-type
    universe is bounded), per-batch distinct (basket, type) combiner
    packed to u64, ONE basket-keyed hash shuffle, per-partition
    vectorized ordered-pair expansion (sum of m^2 over baskets, m <=
    #types) to bounded (a, b) partials with marginals and the basket
    count riding as sentinel rows, driver fold over the <= #types^2
    matrix. The item universe bounds every partial at ANY corpus scale."""
    types = np.unique(
        _collect_numpy(
            _read(sf_dir, "events", ["event_type"]).map_batches(
                lambda b: pa.table(
                    {"event_type": pc.unique(b["event_type"])}
                ),
                batch_format="pyarrow",
            ),
            "event_type",
        )
    )
    if len(types) >= 63:
        raise ValueError("event-type universe exceeds 6-bit packing")
    tmap = {t: i for i, t in enumerate(types)}

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def pre(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        if len(day) and (day.min() < 0 or day.max() >= (1 << 20)):
            raise ValueError("epoch day out of 20-bit packing range")
        tid = np.asarray(
            [tmap[t] for t in b["event_type"].to_pylist()], np.int64
        )
        key = np.unique((u * (1 << 20) + day) * 64 + tid)
        return pa.table(
            {
                "basket": pa.array(key // 64, pa.int64()),
                "tid": pa.array(key % 64, pa.int64()),
            }
        )

    def per_part(g: pa.Table) -> pa.Table:
        cols = {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
        if g.num_rows == 0:
            return pa.table(cols)
        bk = g["basket"].to_numpy(zero_copy_only=False)
        td = g["tid"].to_numpy(zero_copy_only=False)
        key = np.unique(bk * 64 + td)  # cross-batch dedupe
        bk, td = key // 64, key % 64
        first = np.r_[True, bk[1:] != bk[:-1]]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, len(bk)))
        # ordered-pair expansion: for a basket of m types, all m^2
        # (i, j) index pairs, diagonal dropped
        sq = sizes * sizes
        block0 = np.cumsum(sq) - sq
        p = np.arange(sq.sum()) - np.repeat(block0, sq)
        m_rep = np.repeat(sizes, sq)
        s_rep = np.repeat(starts, sq)
        li = s_rep + p // m_rep
        ri = s_rep + p % m_rep
        keep = li != ri
        pair_keys, pair_n = np.unique(
            td[li[keep]] * 64 + td[ri[keep]], return_counts=True
        )
        marg, marg_n = np.unique(td, return_counts=True)
        a = np.concatenate([pair_keys // 64, marg, [63]])
        b_ = np.concatenate([pair_keys % 64, marg, [63]])
        n = np.concatenate(
            [pair_n.astype(np.int64), marg_n.astype(np.int64), [len(starts)]]
        )
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b_, pa.int64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    agg = fold_table(
        map_groups_partitioned(
            ds.map_batches(pre, batch_format="pyarrow", batch_size=131072),
            "basket",
            per_part,
        ),
        ["a", "b"],
        {"n": ("n", "sum")},
    )
    a = agg["a"].to_numpy(zero_copy_only=False)
    b = agg["b"].to_numpy(zero_copy_only=False)
    n = agg["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_baskets = int(n[(a == 63) & (b == 63)][0])
    marg = {int(x): int(v) for x, y, v in zip(a, b, n) if x == y and x != 63}
    keep = a != b
    ap, bp, np_ = a[keep], b[keep], n[keep]
    na = np.asarray([marg[int(x)] for x in ap], np.int64)
    nb = np.asarray([marg[int(x)] for x in bp], np.int64)
    nf = np_.astype(np.float64)
    return pa.table(
        {
            "antecedent": pa.array([types[int(x)] for x in ap], pa.string()),
            "consequent": pa.array([types[int(x)] for x in bp], pa.string()),
            "n_ab": pa.array(np_, pa.int64()),
            "support": pa.array(
                sql_round_np(nf / np.float64(n_baskets), 6), pa.float64()
            ),
            "confidence": pa.array(
                sql_round_np(nf / na.astype(np.float64), 6), pa.float64()
            ),
            "lift": pa.array(
                sql_round_np(
                    (nf * np.float64(n_baskets))
                    / (na.astype(np.float64) * nb.astype(np.float64)),
                    6,
                ),
                pa.float64(),
            ),
        }
    )


@query(sql="""
SELECT e.user_id, CAST(COUNT(*) AS BIGINT) AS n_clicks
FROM events e
WHERE e.event_type = 'click'
  AND e.user_id IN (SELECT user_id FROM events WHERE event_type = 'purchase')
GROUP BY 1 ORDER BY 1
""")
def events_bloom_semijoin(sf_dir: str):
    """BLOOM-PREFILTERED SEMI-JOIN (the classic Bloom-pushdown of a
    distributed query engine: per-user click counts for users who ever
    purchased, where the purchase-user keep set is assumed TOO BIG to
    broadcast). The probe side is filtered through a distributedly-built
    Bloom filter (stages/join.bloom_of_ds: driver traffic bounded by the
    bit-array size, never O(keys)) BEFORE the all-to-all, so only true
    members + ~4e-4 false positives pay the shuffle; the exact hash semi
    join then removes the false positives — the OUTPUT is exact (no
    false negatives by construction), which is why a SQL oracle can
    check it at all. ``bloom_prefilter=True`` forces the scale regime
    here (at 10^12 events the purchaser set exceeds any broadcast budget);
    the bloom-on/off equivalence is a unit in tests/test_join.py.
    Reference analog: candidate pre-filtering before the expensive exact
    phase (pkg/parser/detector.go's cheap-check cascade)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    purchasers = count_by_u64(
        ev.map_batches(
            lambda b: pa.table(
                {"key": b.filter(pc.equal(b["event_type"], "purchase"))[
                    "user_id"
                ].cast(pa.uint64())}
            ),
            batch_format="pyarrow",
        ),
        "key",
    ).map_batches(
        lambda b: pa.table({"user_id": b["key"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    clicks = ev.map_batches(
        lambda b: pa.table(
            {"user_id": b.filter(pc.equal(b["event_type"], "click"))["user_id"]}
        ),
        batch_format="pyarrow",
    )
    hits = lookup_join(
        clicks, purchasers, on="user_id", how="semi",
        left_schema=pa.schema([("user_id", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64())]),
        bloom_prefilter=True,
    )
    t = _collect_table(
        count_by_u64(
            hits.map_batches(
                lambda b: pa.table({"key": b["user_id"].cast(pa.uint64())}),
                batch_format="pyarrow",
            ),
            "key",
        )
    )
    if t.num_rows == 0 or "key" not in t.schema.names:
        return pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_clicks": pa.array([], pa.int64()),
            }
        )
    uid = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(uid, kind="stable")
    return pa.table(
        {
            "user_id": pa.array(uid[order], pa.int64()),
            "n_clicks": pa.array(cnt[order], pa.int64()),
        }
    )


_DDS_QS = (0.5, 0.9, 0.99)


@query(sql="""
WITH pos AS (SELECT event_type, value FROM events WHERE value > 0),
n AS (SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n FROM pos GROUP BY 1),
qs AS (SELECT CAST(UNNEST([0.5, 0.9, 0.99]) AS DOUBLE) AS q),
ranked AS (
  SELECT event_type, value,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY value) - 1 AS r
  FROM pos),
exact AS (
  SELECT n.event_type, qs.q, rk.value AS exact
  FROM n CROSS JOIN qs
  JOIN ranked rk ON rk.event_type = n.event_type
                AND rk.r = CAST(CEIL(qs.q * (n.n - 1)) AS BIGINT)),
bins AS (
  SELECT event_type,
         CAST(CEIL(LN(value) / LN((1+0.01)/(1-0.01))) AS BIGINT) AS b,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pos GROUP BY 1, 2),
cum AS (
  SELECT event_type, b,
         SUM(c) OVER (PARTITION BY event_type ORDER BY b) AS cum
  FROM bins),
qb AS (
  SELECT n.event_type, qs.q, MIN(cum.b) AS b
  FROM n CROSS JOIN qs
  JOIN cum ON cum.event_type = n.event_type
          AND cum.cum >= qs.q * (n.n - 1) + 1
  GROUP BY 1, 2),
est AS (
  SELECT event_type, q,
         2 * POWER((1+0.01)/(1-0.01), b) / ((1+0.01)/(1-0.01) + 1) AS est
  FROM qb)
SELECT e.event_type, e.q, ROUND(est.est, 6) AS est, e.exact,
       ROUND(ABS(est.est - e.exact) / e.exact, 6) AS rel_err
FROM exact e JOIN est USING (event_type, q)
ORDER BY 1, 2
""")
def events_ddsketch_eval(sf_dir: str):
    """DDSKETCH QUANTILE EVALUATION (the QA harness for the engine's
    mergeable-quantile scale hatch: per event type, the sketch's p50/p90/
    p99 estimate next to the EXACT order statistic and the realized
    relative error — the published guarantee is rel_err <= alpha = 0.01
    plus rank quantization, and this query makes that measurable and
    oracle-checkable instead of asserted). Sketch side is the production
    path (stages/sketch.approx_group_quantiles: per-batch bin combiner ->
    one sum_by_u64 shuffle -> driver sees types x occupied-bins rows);
    exact side is the per-group order statistic (bounded groups — the
    documented events_value_quantiles scale note applies: it is the EVAL
    harness, not the production path). SQL mirror re-derives the sketch
    arithmetic itself — bin = CEIL(LN(v)/LN(g)), estimate =
    2*POWER(g, bin)/(g+1), rank rule cum >= q*(n-1)+1 — so a drift in
    either the binning or the rank convention fails the hash, not just
    the bound. gamma is written (1+0.01)/(1-0.01) on BOTH sides so the
    doubles agree bit-for-bit; exact index is the lower-rank order
    statistic ceil(q*(n-1)), zero-indexed, on both sides."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    pos = ds.map_batches(
        lambda b: b.filter(pc.greater(b["value"], 0.0)),
        batch_format="pyarrow",
    )
    sk = approx_group_quantiles(pos, "event_type", "value", qs=_DDS_QS)

    def exact_group(g: pa.Table) -> pa.Table:
        v = np.sort(g["value"].to_numpy(zero_copy_only=False))
        n = len(v)
        ex = [float(v[int(np.ceil(q * (n - 1)))]) for q in _DDS_QS]
        return pa.table(
            {
                "event_type": pa.array(
                    [g["event_type"][0].as_py()] * len(_DDS_QS), pa.string()
                ),
                "q": pa.array(list(_DDS_QS), pa.float64()),
                "exact": pa.array(ex, pa.float64()),
            }
        )

    ex_t = _collect_table(
        pos.groupby("event_type").map_groups(exact_group, batch_format="pyarrow")
    )
    ex_map = {
        (t, q): x
        for t, q, x in zip(
            ex_t["event_type"].to_pylist(),
            ex_t["q"].to_pylist(),
            ex_t["exact"].to_pylist(),
        )
    }
    types = sorted(set(sk["event_type"].to_pylist()))
    est_map = {
        (t, q): e
        for q in _DDS_QS
        for t, e in zip(sk["event_type"].to_pylist(), sk[f"q_{q}"].to_pylist())
    }
    rows_t, rows_q, rows_e, rows_x, rows_r = [], [], [], [], []
    for t in types:
        for q in _DDS_QS:
            est, ex = est_map[(t, q)], ex_map[(t, q)]
            rows_t.append(t)
            rows_q.append(q)
            rows_e.append(float(sql_round_np(est, 6)))
            rows_x.append(ex)
            rows_r.append(float(sql_round_np(abs(est - ex) / ex, 6)))
    return pa.table(
        {
            "event_type": pa.array(rows_t, pa.string()),
            "q": pa.array(rows_q, pa.float64()),
            "est": pa.array(rows_e, pa.float64()),
            "exact": pa.array(rows_x, pa.float64()),
            "rel_err": pa.array(rows_r, pa.float64()),
        }
    )


_HLL_P = 8                  # 2^8 = 256 registers
_HLL_M = 1 << _HLL_P
_HLL_MAXRANK = 32 - _HLL_P + 1  # w has 24 bits; w == 0 -> rank 25


@query(sql=f"""
WITH h0 AS (
  SELECT event_type, (user_id * {_KMV_MULT}) % {1 << 32} AS h
  FROM events),
h1 AS (SELECT event_type, xor(h, h // 65536) AS h FROM h0),
h2 AS (SELECT event_type, (h * {0x45D9F3B}) % {1 << 32} AS h FROM h1),
dh AS (SELECT DISTINCT event_type, xor(h, h // 65536) AS h FROM h2),
reg AS (
  SELECT event_type, h % {_HLL_M} AS j,
         CASE WHEN h // {_HLL_M} = 0 THEN {_HLL_MAXRANK}
              ELSE {32 - _HLL_P} - CAST(FLOOR(LOG2(h // {_HLL_M})) AS BIGINT)
         END AS rank
  FROM dh),
mx AS (SELECT event_type, j, MAX(rank) AS m FROM reg GROUP BY 1, 2),
grid AS (
  SELECT t.event_type, g.j
  FROM (SELECT DISTINCT event_type FROM events) t
  CROSS JOIN (SELECT UNNEST(range(0, {_HLL_M})) AS j) g),
filled AS (
  SELECT g.event_type, COALESCE(mx.m, 0) AS m
  FROM grid g LEFT JOIN mx ON mx.event_type = g.event_type AND mx.j = g.j),
s AS (
  SELECT event_type, SUM(POWER(2.0, -CAST(m AS DOUBLE))) AS z,
         CAST(SUM(CASE WHEN m = 0 THEN 1 ELSE 0 END) AS BIGINT) AS v
  FROM filled GROUP BY 1),
est AS (
  SELECT event_type,
         (0.7213 / (1.0 + 1.079 / {float(_HLL_M)}))
           * {float(_HLL_M)} * {float(_HLL_M)} / z AS e_raw, v
  FROM s),
corr AS (
  SELECT event_type,
         CASE WHEN e_raw <= {2.5 * _HLL_M} AND v > 0
              THEN {float(_HLL_M)} * LN({float(_HLL_M)} / v)
              ELSE e_raw END AS e
  FROM est),
exact AS (
  SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS exact_distinct
  FROM events GROUP BY 1)
SELECT x.event_type, x.exact_distinct, ROUND(c.e, 6) AS hll_estimate,
       ROUND(ABS(c.e - x.exact_distinct) / x.exact_distinct, 6) AS rel_err
FROM exact x JOIN corr c USING (event_type)
ORDER BY 1
""")
def events_hll_eval(sf_dir: str):
    """HYPERLOGLOG DISTINCT-COUNT EVALUATION per event type (the
    register-maxima sibling of events_kmv_distinct, closing the QA loop
    on the engine's HLL hatch the way events_ddsketch_eval closed the
    quantile one: estimate, exact, realized relative error — with the
    SQL oracle re-deriving the SKETCH ARITHMETIC itself, registers,
    small-range correction and all, so a drift in the rank rule or the
    alpha constant fails the value hash). Flajolet et al. 2007
    estimator: m={_HLL_M} registers, register j = h % m, rank =
    leading-zero position of the remaining 24 bits (25 - floor(log2(w)) -
    1 for w>=1, 25 for w=0), E = alpha * m^2 / sum(2^-M_j), small-range
    E <= 2.5m with V empty registers -> m*ln(m/V). The harmonic-mean
    denominator is a sum of 256 dyadic rationals (multiples of 2^-25,
    total < 2^9) — EXACT in double under ANY summation order, so no
    micro-rounding is needed anywhere.

    Hash is the KMV Knuth multiply followed by the standard 32-bit
    xorshift-multiply finalizer (h ^= h>>16; h *= 0x45d9f3b; h ^= h>>16
    — the raw multiply alone leaves lattice structure in the high bits
    that biases the leading-zero statistic ~10 sigma; measured before
    fixing). Every step is a mod-2^32 BIJECTION for uid < 2^32
    (asserted), so the distinct-(type, hash) pass that feeds the
    registers IS the exact distinct count too: one count_by_u64 serves
    both sides of the comparison. All stages stay inside int64 on the
    SQL side (h * 0x45d9f3b < 2^58). Driver traffic: the bounded
    (type, register, rank) triple table and the per-type counts —
    never users."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def batch_types(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": pa.array(
                    sorted(set(b["event_type"].to_pylist())), pa.string()
                )
            }
        )

    types = sorted(
        set(
            _collect_table(
                ds.map_batches(batch_types, batch_format="pyarrow",
                               batch_size=131072)
            )["event_type"].to_pylist()
        )
    )
    t_idx = {t: i for i, t in enumerate(types)}

    def key_of(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(uid) and int(uid.max()) >= 1 << 32:
            raise ValueError("user_id >= 2^32: widen the HLL hash")
        m32 = np.uint64(0xFFFFFFFF)
        h = ((uid * _KMV_MULT) % (1 << 32)).astype(np.uint64)
        h = (h ^ (h >> np.uint64(16))) & m32
        h = (h * np.uint64(0x45D9F3B)) & m32
        h = (h ^ (h >> np.uint64(16))) & m32
        ti = np.fromiter(
            (t_idx[t] for t in b["event_type"].to_pylist()), np.uint64,
            b.num_rows,
        )
        return pa.table(
            {"key": pa.array((ti << np.uint64(32)) | h, pa.uint64())}
        )

    distinct = count_by_u64(
        ds.map_batches(key_of, batch_format="pyarrow", batch_size=131072),
        "key",
    ).materialize()  # feeds registers AND the exact count

    exact_t = _collect_table(
        count_by_u64(
            distinct.map_batches(
                lambda b: pa.table(
                    {
                        "key": pa.array(
                            b["key"].to_numpy(zero_copy_only=False).astype(
                                np.uint64
                            )
                            >> np.uint64(32),
                            pa.uint64(),
                        )
                    }
                ),
                batch_format="pyarrow",
            ),
            "key",
        )
    )
    exact = {
        int(k): int(c)
        for k, c in zip(
            exact_t["key"].to_numpy(zero_copy_only=False),
            exact_t["cnt"].to_numpy(zero_copy_only=False),
        )
    }

    def triple_of(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = k >> np.uint64(32)
        h = k & np.uint64(0xFFFFFFFF)
        j = h & np.uint64(_HLL_M - 1)
        w = (h >> np.uint64(_HLL_P)).astype(np.int64)
        rank = np.full(len(w), _HLL_MAXRANK, np.int64)
        nz = w > 0
        rank[nz] = (32 - _HLL_P) - np.floor(
            np.log2(w[nz].astype(np.float64))
        ).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(
                    (ti << np.uint64(16))
                    | (j << np.uint64(8))
                    | rank.astype(np.uint64),
                    pa.uint64(),
                )
            }
        )

    trip = _collect_table(
        count_by_u64(
            distinct.map_batches(triple_of, batch_format="pyarrow"), "key"
        )
    )
    tk = trip["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    regs = np.zeros((len(types), _HLL_M), np.int64)
    np.maximum.at(
        regs,
        (
            (tk >> np.uint64(16)).astype(np.int64),
            ((tk >> np.uint64(8)) & np.uint64(0xFF)).astype(np.int64),
        ),
        (tk & np.uint64(0xFF)).astype(np.int64),
    )
    alpha = 0.7213 / (1.0 + 1.079 / float(_HLL_M))
    rows = []
    for i, t in enumerate(types):
        z = float(np.power(2.0, -regs[i].astype(np.float64)).sum())
        v = int((regs[i] == 0).sum())
        e = alpha * float(_HLL_M) * float(_HLL_M) / z
        if e <= 2.5 * _HLL_M and v > 0:
            e = float(_HLL_M) * float(np.log(float(_HLL_M) / v))
        ex = exact.get(i, 0)
        rows.append(
            (
                t,
                ex,
                float(sql_round_np(e, 6)),
                float(sql_round_np(abs(e - ex) / ex, 6)) if ex else None,
            )
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "exact_distinct": pa.array([r[1] for r in rows], pa.int64()),
            "hll_estimate": pa.array([r[2] for r in rows], pa.float64()),
            "rel_err": pa.array([r[3] for r in rows], pa.float64()),
        }
    )


_GRANK_PARTS = 32
_GRANK_SAMPLE_MOD = 17  # every 17th row per batch feeds the split sampler


@query(sql="""
SELECT event_id, value,
       CAST(ROW_NUMBER() OVER (ORDER BY value, event_id) AS BIGINT) AS rnk
FROM events ORDER BY event_id
""")
def events_global_ranks(sf_dir: str):
    """GLOBAL ROW RANKING via SAMPLED RANGE PARTITIONING — the TeraSort
    primitive (sample -> splitpoints -> contiguous value-range partitions
    -> local sort + broadcast base offsets), which is how a distributed
    engine produces a total order WITHOUT one monolithic sort owning all
    rows. Output: every event's exact global rank by (value, event_id).

    Why not ds.sort + a block scan: Ray Data's sort gives ordered blocks
    but map_batches exposes no block index to chain offsets through; the
    range partitioner makes the offsets explicit and mergeable — per-
    partition counts cumsum on the driver ({_GRANK_PARTS} integers), each
    partition then ranks locally. Ties are safe by construction: routing
    is a function of VALUE alone (searchsorted over the splitpoints), so
    equal values always co-locate; (value, event_id) breaks ties inside.
    The sample is bounded (every {_GRANK_SAMPLE_MOD}th row per batch,
    quantile-thinned on the driver), and a skewed sample only unbalances
    partitions — never corrupts ranks."""
    ds = _read(sf_dir, "events", ["event_id", "value"]).materialize()

    def sample(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"v": pa.array(v[:: _GRANK_SAMPLE_MOD], pa.float64())}
        )

    samp = np.sort(
        _collect_table(ds.map_batches(sample, batch_format="pyarrow"))[
            "v"
        ].to_numpy(zero_copy_only=False)
    )
    if len(samp):
        qpos = (np.arange(1, _GRANK_PARTS) * len(samp)) // _GRANK_PARTS
        bounds = np.unique(samp[qpos])
    else:
        bounds = np.zeros(0, np.float64)

    def tag(b: pa.Table, bd=bounds) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        part = np.searchsorted(bd, v, side="right").astype(np.int32)
        return pa.table(
            {
                "event_id": b["event_id"],
                "value": b["value"],
                "part": pa.array(part, pa.int32()),
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            batch_size=131072).materialize()

    cnt_t = _collect_table(
        tagged.map_batches(
            lambda b: pa.table(
                {
                    "key": b["part"].cast(pa.uint64()),
                }
            ),
            batch_format="pyarrow",
        ).map_batches(
            lambda b: (
                lambda u, c: pa.table(
                    {
                        "key": pa.array(u, pa.uint64()),
                        "cnt": pa.array(c.astype(np.int64), pa.int64()),
                    }
                )
            )(*np.unique(b["key"].to_numpy(zero_copy_only=False),
                         return_counts=True)),
            batch_format="pyarrow",
        )
    )
    n_parts = len(bounds) + 1
    counts = np.zeros(n_parts, np.int64)
    np.add.at(
        counts,
        cnt_t["key"].to_numpy(zero_copy_only=False).astype(np.int64),
        cnt_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
    )
    base = np.zeros(n_parts, np.int64)
    if n_parts > 1:
        base[1:] = np.cumsum(counts)[:-1]

    def local_rank(g: pa.Table, bs=base) -> pa.Table:
        p = int(g["part"][0].as_py())
        v = g["value"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((eid, v))
        rnk = np.empty(len(v), np.int64)
        rnk[order] = bs[p] + 1 + np.arange(len(v), dtype=np.int64)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "value": pa.array(v, pa.float64()),
                "rnk": pa.array(rnk, pa.int64()),
            }
        )

    # Hand-rolled shuffle, not agg.map_groups_partitioned: a RANGE partition,
    # and local_rank needs the partition id for its rank base.
    return tagged.groupby("part").map_groups(local_rank,
                                             batch_format="pyarrow")


_DECAY_HALFLIFE_US = 7 * 86400 * 1_000_000  # 7-day half-life


@query(sql=f"""
WITH w AS (SELECT MAX(epoch_us(ts)) AS t FROM events),
term AS (
  SELECT user_id,
         CAST(ROUND(EXP(-(LN(2) / {float(_DECAY_HALFLIFE_US)})
                        * (w.t - epoch_us(ts))) * 1000000.0, 0) AS BIGINT)
           AS dm
  FROM events CROSS JOIN w)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(dm) AS BIGINT) AS decay_micro,
       CAST(SUM(dm) AS DOUBLE) / 1000000.0 AS decay_score
FROM term GROUP BY 1 ORDER BY 1
""")
def events_decayed_activity(sf_dir: str):
    """EXPONENTIALLY TIME-DECAYED ACTIVITY COUNTERS (the streaming
    'decaying window' primitive — recency-weighted engagement scored at
    the corpus watermark T: S(u) = sum_i exp(-lambda * (T - t_i)),
    half-life {_DECAY_HALFLIFE_US // 86400000000} days — the score a
    ranking/abuse system keeps per user instead of a raw count, because
    it is MERGEABLE: partial sums decay-shift to any common reference
    time, so per-batch partials add exactly like counts do).

    Float discipline: each event's decay term is micro-rounded to an
    INTEGER (round(exp(.)*1e6) — the doc_unigram_surprisal convention),
    so per-user scores are order-free int64 sums on both sides; terms
    <= 1e6 so 10^12 events per user stay inside int64. Two passes: a
    per-batch max fold finds T (one scalar), then one combiner +
    sum_by_u64 shuffle keyed by user. Driver sees per-user rows — the
    query RESULT — and one scalar watermark."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def max_partial(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"t": pa.array([int(us.max())] if len(us) else [], pa.int64())}
        )

    mx = _collect_table(
        ds.map_batches(max_partial, batch_format="pyarrow", batch_size=131072)
    )
    big_t = int(mx["t"].to_numpy(zero_copy_only=False).max())
    lam = np.log(2.0) / float(_DECAY_HALFLIFE_US)

    def partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        term = sql_round_np(
            np.exp(-lam * (big_t - us).astype(np.float64)) * 1e6, 0
        ).astype(np.int64)
        order = np.argsort(uid, kind="stable")
        u, t = uid[order], term[order]
        new = np.r_[True, u[1:] != u[:-1]]
        starts = np.nonzero(new)[0]
        sums = np.add.reduceat(t, starts) if len(starts) else t[:0]
        ones = np.add.reduceat(np.ones(len(t), np.int64), starts) if len(starts) else t[:0]
        return pa.table(
            {
                "key": pa.array(u[starts].astype(np.uint64), pa.uint64()),
                "dm": pa.array(sums, pa.int64()),
                "n": pa.array(ones, pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=131072
    ).materialize()
    dm = _collect_table(
        sum_by_u64(parts.select_columns(["key", "dm"]), "key", "dm")
    )
    nn = _collect_table(
        sum_by_u64(parts.select_columns(["key", "n"]), "key", "n")
    )
    n_of = {
        int(k): int(v)
        for k, v in zip(
            nn["key"].to_numpy(zero_copy_only=False),
            nn["cnt"].to_numpy(zero_copy_only=False),
        )
    }
    uid = dm["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    micro = dm["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(uid, kind="stable")
    uid, micro = uid[order], micro[order]
    return pa.table(
        {
            "user_id": pa.array(uid, pa.int64()),
            "n_events": pa.array([n_of[int(u)] for u in uid], pa.int64()),
            "decay_micro": pa.array(micro, pa.int64()),
            "decay_score": pa.array(micro.astype(np.float64) / 1e6,
                                    pa.float64()),
        }
    )


_BF_M = 1 << 16  # Bloom bits
_BF_K = 4        # Bloom hash functions


@query(sql=f"""
WITH kk AS (SELECT UNNEST(range(0, {_BF_K})) AS i),
members AS (
  SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'),
nonmem AS (
  SELECT DISTINCT user_id FROM events
  WHERE user_id NOT IN (SELECT user_id FROM members)),
mpos AS (
  SELECT DISTINCT pos FROM (
    SELECT xor(h2, h2 // 65536) % {_BF_M} AS pos FROM (
      SELECT (h1 * {0x45D9F3B}) % {1 << 32} AS h2 FROM (
        SELECT xor(h0, h0 // 65536) AS h1 FROM (
          SELECT (m.user_id * {_KMV_MULT} + (i + 1) * 40503) % {1 << 32} AS h0
          FROM members m CROSS JOIN kk))))),
ppos AS (
  SELECT n.user_id, xor(h2, h2 // 65536) % {_BF_M} AS pos FROM (
    SELECT user_id, (h1 * {0x45D9F3B}) % {1 << 32} AS h2 FROM (
      SELECT user_id, xor(h0, h0 // 65536) AS h1 FROM (
        SELECT n.user_id,
               (n.user_id * {_KMV_MULT} + (i + 1) * 40503) % {1 << 32} AS h0
        FROM nonmem n CROSS JOIN kk))) n),
fp AS (
  SELECT p.user_id
  FROM ppos p JOIN mpos b ON b.pos = p.pos
  GROUP BY 1 HAVING COUNT(*) = {_BF_K}),
c AS (
  SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM members) AS n_members,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM nonmem) AS n_probes,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM fp) AS false_pos)
SELECT n_members, n_probes, false_pos,
       ROUND(CAST(false_pos AS DOUBLE) / CAST(n_probes AS DOUBLE), 6)
         AS fpr_emp,
       ROUND(POWER(1.0 - EXP(-{float(_BF_K)} * n_members / {float(_BF_M)}),
                   {_BF_K}), 6) AS fpr_theory
FROM c
""")
def events_bloom_fpr_eval(sf_dir: str):
    """BLOOM FILTER FALSE-POSITIVE-RATE EVALUATION (the QA loop on the
    engine's Bloom hatch — realized FPR vs the (1 - e^(-kn/m))^k theory
    every sizing decision is based on): build an m={_BF_M}, k={_BF_K}
    filter over the distinct PURCHASING user_ids, probe every distinct
    NON-purchasing user, and report how many false-positive.

    All bit arithmetic is exact integer and re-derived step for step in
    SQL (the hll_eval discipline): position_i(u) = xorshift-multiply mix
    of (u * KMV_MULT + (i+1) * 40503) mod m. Distribution: member bit
    positions reduce via count_by_u64 (bounded by m = {_BF_M} distinct
    positions — the FILTER, not the members, reaches the driver, 8 KiB);
    the probe side stays distributed — distinct users with a
    purchase-flag max-fold via count_by_u64 on packed (user, flag),
    then a map with the broadcast bitset emits per-batch (probes,
    false_pos) integer partials. Driver traffic: the bitset + four
    scalars. fpr_emp is one int/int division; fpr_theory one float
    expression, both ROUND 6 on both sides."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    m32 = np.uint64(0xFFFFFFFF)

    def positions(uid: np.ndarray) -> np.ndarray:
        """(n, k) bit positions via the shared xorshift-multiply mix."""
        salts = (np.arange(_BF_K, dtype=np.uint64) + np.uint64(1)) * np.uint64(40503)
        h0 = ((uid.astype(np.uint64) * np.uint64(_KMV_MULT))[:, None]
              + salts[None, :]) & m32
        h = (h0 ^ (h0 >> np.uint64(16))) & m32
        h = (h * np.uint64(0x45D9F3B)) & m32
        h = (h ^ (h >> np.uint64(16))) & m32
        return (h % np.uint64(_BF_M)).astype(np.int64)

    def member_bits(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["event_type"], "purchase")
        uid = b.filter(keep)["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(uid) and int(uid.max()) >= 1 << 32:
            raise ValueError("user_id >= 2^32: widen the Bloom hash")
        if not len(uid):
            return pa.table({"key": pa.array([], pa.uint64())})
        pos = np.unique(positions(np.unique(uid)).ravel())
        return pa.table({"key": pa.array(pos.astype(np.uint64), pa.uint64())})

    bits_t = _collect_table(
        count_by_u64(
            ds.map_batches(member_bits, batch_format="pyarrow",
                           batch_size=131072),
            "key",
        )
    )
    bitset = np.zeros(_BF_M, bool)
    bitset[bits_t["key"].to_numpy(zero_copy_only=False).astype(np.int64)] = True

    def user_flag(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        is_p = pc.equal(b["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        return pa.table(
            {"key": pa.array((uid << np.uint64(1)) | is_p, pa.uint64())}
        )

    # distinct (user, flag) rows; a purchaser contributes (u,1) and maybe
    # (u,0) — resolved per batch below by checking the (u,1) sibling
    user_rows = count_by_u64(
        ds.map_batches(user_flag, batch_format="pyarrow", batch_size=131072),
        "key",
    ).materialize()

    # member count: distinct users with flag 1
    def member_partial(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {"n": pa.array([int((k & np.uint64(1)).sum())], pa.int64())}
        )

    n_members = int(
        _collect_table(
            user_rows.map_batches(member_partial, batch_format="pyarrow")
        )["n"].to_numpy(zero_copy_only=False).sum()
    )

    # non-member probes: users with a (u,0) row and NO (u,1) row anywhere.
    # count_by_u64 hash-partitions by the full key; (u,0) and (u,1) can land
    # in different partitions, so re-key by USER and resolve per partition.
    def rekey(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "user": pa.array(k >> np.uint64(1), pa.uint64()),
                "flag": pa.array((k & np.uint64(1)).astype(np.int8), pa.int8()),
            }
        )

    def probe_partial(g: pa.Table, bset=bitset) -> pa.Table:
        u = g["user"].to_numpy(zero_copy_only=False).astype(np.int64)
        f = g["flag"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(u, kind="stable")
        u, f = u[order], f[order]
        starts = np.nonzero(np.r_[True, u[1:] != u[:-1]])[0]
        has_p = np.maximum.reduceat(f, starts) if len(starts) else f[:0]
        nonmem = u[starts][has_p == 0]
        if not len(nonmem):
            return pa.table(
                {"probes": pa.array([0], pa.int64()),
                 "fp": pa.array([0], pa.int64())}
            )
        pos = positions(nonmem)
        hit = bset[pos].all(axis=1)
        return pa.table(
            {
                "probes": pa.array([len(nonmem)], pa.int64()),
                "fp": pa.array([int(hit.sum())], pa.int64()),
            }
        )

    parts = _collect_table(
        map_groups_partitioned(
            user_rows.map_batches(rekey, batch_format="pyarrow"),
            "user",
            probe_partial,
        )
    )
    n_probes = int(parts["probes"].to_numpy(zero_copy_only=False).sum())
    n_fp = int(parts["fp"].to_numpy(zero_copy_only=False).sum())
    fpr_emp = (
        float(sql_round_np(np.float64(n_fp) / np.float64(n_probes), 6))
        if n_probes
        else None
    )
    fpr_theory = float(
        sql_round_np(
            (1.0 - np.exp(-float(_BF_K) * n_members / float(_BF_M)))
            ** _BF_K,
            6,
        )
    )
    return pa.table(
        {
            "n_members": pa.array([n_members], pa.int64()),
            "n_probes": pa.array([n_probes], pa.int64()),
            "false_pos": pa.array([n_fp], pa.int64()),
            "fpr_emp": pa.array([fpr_emp], pa.float64()),
            "fpr_theory": pa.array([fpr_theory], pa.float64()),
        }
    )


_AMS_R = 64  # AMS sketch rows


@query(sql=f"""
WITH rr AS (SELECT UNNEST(range(0, {_AMS_R})) AS r),
h0 AS (
  SELECT event_type, r,
         (user_id * {_KMV_MULT} + (r + 1) * 40503) % {1 << 32} AS h
  FROM events CROSS JOIN rr),
h1 AS (SELECT event_type, r, xor(h, h // 65536) AS h FROM h0),
h2 AS (SELECT event_type, r, (h * {0x45D9F3B}) % {1 << 32} AS h FROM h1),
sg AS (
  SELECT event_type, r,
         CASE WHEN xor(h, h // 65536) % 2 = 1 THEN 1 ELSE -1 END AS s
  FROM h2),
srow AS (
  SELECT event_type, r, CAST(SUM(s) AS BIGINT) AS sr
  FROM sg GROUP BY 1, 2),
est AS (
  SELECT event_type, CAST(SUM(sr * sr) AS BIGINT) AS est_num
  FROM srow GROUP BY 1),
ex AS (
  SELECT event_type, CAST(SUM(c * c) AS BIGINT) AS f2_exact
  FROM (SELECT event_type, user_id, CAST(COUNT(*) AS BIGINT) AS c
        FROM events GROUP BY 1, 2)
  GROUP BY 1)
SELECT ex.event_type, ex.f2_exact, est.est_num,
       ROUND((CAST(est.est_num AS DOUBLE) / {float(_AMS_R)}
              - CAST(ex.f2_exact AS DOUBLE))
             / CAST(ex.f2_exact AS DOUBLE), 6) AS rel_err
FROM ex JOIN est USING (event_type)
ORDER BY 1
""")
def events_ams_f2_eval(sf_dir: str):
    """AMS SECOND-FREQUENCY-MOMENT SKETCH EVALUATION per event type
    (Alon, Matias & Szegedy 1996 — the tug-of-war sketch that opened
    streaming moment estimation: each of {_AMS_R} rows keeps the signed
    counter S_r = sum over events of sign_r(user), and E[S_r^2] = F2 =
    sum over users of count^2, the self-join size / repeat-rate moment
    a skew-aware planner wants. Closes the moment leg of the sketch-QA
    family next to events_hll_eval (distinct), events_ddsketch_eval
    (quantiles), events_countmin_eval (point freq), events_kmv_*.)

    EVERYTHING IS EXACT INTEGER: sign_r(u) is the low bit of the shared
    xorshift-multiply mix of (u * KMV_MULT + (r+1) * 40503) — the SQL
    re-derives the same lattice-free bits step for step (the hll_eval
    discipline) — S_r and S_r^2 are int64 (guarded fail-loud at |S_r| >
    3e9, the int64 square bound), the estimator numerator sum_r S_r^2
    is one BIGINT, and the single double division + ROUND happens
    identically on both sides. Exact F2 comes from count_by_u64 over
    packed (type, user) keys with the per-type sum of squares folded
    DISTRIBUTED (users are unbounded; only per-type scalars reach the
    driver). Driver traffic: the (types x {_AMS_R}) S_r table and two
    scalars per type."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def batch_types(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": pa.array(
                    sorted(set(b["event_type"].to_pylist())), pa.string()
                )
            }
        )

    types = sorted(
        set(
            _collect_table(
                ds.map_batches(batch_types, batch_format="pyarrow",
                               batch_size=131072)
            )["event_type"].to_pylist()
        )
    )
    t_idx = {t: i for i, t in enumerate(types)}
    m32 = np.uint64(0xFFFFFFFF)
    r_salt = (np.arange(_AMS_R, dtype=np.uint64) + np.uint64(1)) * np.uint64(40503)

    def sign_partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(uid) and int(uid.max()) >= 1 << 32:
            raise ValueError("user_id >= 2^32: widen the AMS hash")
        ti = np.fromiter(
            (t_idx[t] for t in b["event_type"].to_pylist()), np.int64,
            b.num_rows,
        )
        h0 = ((uid.astype(np.uint64) * np.uint64(_KMV_MULT))[:, None]
              + r_salt[None, :]) & m32
        h = (h0 ^ (h0 >> np.uint64(16))) & m32
        h = (h * np.uint64(0x45D9F3B)) & m32
        h = (h ^ (h >> np.uint64(16))) & m32
        bits = (h & np.uint64(1)).astype(np.int64)  # (rows, R) in {0, 1}
        # fold to per-(type, r) partials: one row-indexed scatter-add of the
        # whole 64-wide bit row (no per-key sort); S contribution per cell is
        # 2 * ones - n (each +1 bit adds +1, each 0 bit adds -1)
        nt = len(types)
        acc = np.zeros((nt, _AMS_R), np.int64)
        np.add.at(acc, ti, bits)
        n_rows = np.bincount(ti, minlength=nt).astype(np.int64)
        sums = 2 * acc - n_rows[:, None]
        keys = (
            np.arange(nt, dtype=np.uint64)[:, None] * np.uint64(_AMS_R)
            + np.arange(_AMS_R, dtype=np.uint64)[None, :]
        ).ravel()
        return pa.table(
            {
                "key": pa.array(keys, pa.uint64()),
                "cnt": pa.array(sums.ravel(), pa.int64()),
            }
        )

    srows = _collect_table(
        sum_by_u64(
            ds.map_batches(sign_partial, batch_format="pyarrow",
                           batch_size=65536),
            "key",
            "cnt",
        )
    )
    sr = np.zeros((len(types), _AMS_R), np.int64)
    kk = srows["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    vv = srows["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(vv) and int(np.abs(vv).max()) > 3_000_000_000:
        raise ValueError(
            "events_ams_f2_eval: |S_r| > 3e9 — S_r^2 would overflow int64; "
            "shard the sketch rows before squaring at this volume"
        )
    sr[kk // _AMS_R, kk % _AMS_R] = vv
    est_num = (sr * sr).sum(axis=1)

    def tu_key(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ti = np.fromiter(
            (t_idx[t] for t in b["event_type"].to_pylist()), np.uint64,
            b.num_rows,
        )
        return pa.table(
            {"key": pa.array((ti << np.uint64(32)) | uid, pa.uint64())}
        )

    per_user = count_by_u64(
        ds.map_batches(tu_key, batch_format="pyarrow", batch_size=131072),
        "key",
    )

    def sq_fold(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        ti = (k >> np.uint64(32)).astype(np.int64)
        order = np.argsort(ti, kind="stable")
        ti_o, c_o = ti[order], c[order]
        starts = np.nonzero(np.r_[True, ti_o[1:] != ti_o[:-1]])[0]
        return pa.table(
            {
                "key": pa.array(ti_o[starts].astype(np.uint64), pa.uint64()),
                "cnt": pa.array(
                    np.add.reduceat(c_o * c_o, starts), pa.int64()
                ),
            }
        )

    f2_t = _collect_table(
        sum_by_u64(
            per_user.map_batches(sq_fold, batch_format="pyarrow",
                                 batch_size=131072),
            "key",
            "cnt",
        )
    )
    f2 = np.zeros(len(types), np.int64)
    f2[f2_t["key"].to_numpy(zero_copy_only=False).astype(np.int64)] = (
        f2_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    rel = sql_round_np(
        (est_num.astype(np.float64) / float(_AMS_R) - f2.astype(np.float64))
        / f2.astype(np.float64),
        6,
    )
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "f2_exact": pa.array(f2, pa.int64()),
            "est_num": pa.array(est_num, pa.int64()),
            "rel_err": pa.array(rel, pa.float64()),
        }
    )
