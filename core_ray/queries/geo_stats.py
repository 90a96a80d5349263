"""Spatial statistics: autocorrelation (Moran, Getis-Ord, LISA, join counts,
correlograms), point-pattern functions (Ripley K, G, pair correlation,
quadrats, nearest-neighbour ratios), centrography, co-location, inequality
and natural-breaks classification.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from core_ray.queries._shared import (
    _GE_CELL_MILLI, _GEO_PAIR_RADIUS_DEG, _GT_CELL_MILLI, _MORAN_NLAT, _MORAN_NLON, _QT_LMAX,
    GEO_LAT_SQL, GEO_LON_SQL, _collect_table, _derive_coords, _p, _read, _sf_of, _tdiv, _with_coords,
    query,
)
from core_ray.rounding import sql_round_np
from core_ray.stages.agg import count_by_u64, fold, fold_table, map_groups_partitioned, min_by_u64
from core_ray.stages.distband import (
    bipartite_band_pairs, cell_pairs, distance_pairs, haversine_km, replicate_to_cells,
)
from core_ray.stages.join import hash_join


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, lang, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
hits AS (
  SELECT LEAST(a.lang, b.lang) AS l1, GREATEST(a.lang, b.lang) AS l2
  FROM pts a JOIN pts b ON a.doc_id < b.doc_id
  WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_GEO_PAIR_RADIUS_DEG * _GEO_PAIR_RADIUS_DEG}),
totals AS (SELECT lang, COUNT(*) AS n FROM documents GROUP BY 1),
agg AS (SELECT l1, l2, COUNT(*) AS n_pairs FROM hits GROUP BY 1, 2)
SELECT a.l1, a.l2, CAST(a.n_pairs AS BIGINT) AS n_pairs,
       CAST(t1.n AS BIGINT) AS n1, CAST(t2.n AS BIGINT) AS n2,
       CAST(a.n_pairs AS DOUBLE) / (CAST(t1.n AS DOUBLE) * CAST(t2.n AS DOUBLE))
         AS ratio
FROM agg a JOIN totals t1 ON a.l1 = t1.lang JOIN totals t2 ON a.l2 = t2.lang
""")
def geo_colocation(sf_dir: str, radius: float = _GEO_PAIR_RADIUS_DEG):
    """CO-LOCATION PATTERN MINING: which language pairs cluster together in
    space? Counts distance-band document pairs per unordered (lang, lang)
    combination and normalizes by the category-size product — the
    participation-style signal spatial-association mining uses. Shape:
    ``lang`` rides the 9x home+ghost replication (one short string column —
    far cheaper than the two corpus-sized lang-attach shuffles the hash-join
    formulation costs), and the partition kernel reduces straight to
    (l1, l2, n) partials, so PAIRS NEVER MATERIALIZE outside a task; the
    final groupby runs over <= lang^2 x n_parts partial rows. Per-lang
    totals are bounded by language cardinality, so that side is a driver
    lookup. ratio = n_pairs / (n1 * n2) is a fixed chain of exact
    int->double casts, one multiply, one divide — mirrored bit-exactly in
    SQL (int64 counts stay below 2^53 here; beyond that the documented
    form is log-space)."""
    r2 = radius * radius
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])

    def rep(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        t = replicate_to_cells(doc_id.astype(np.int64), lat, lon, radius)
        idx = np.repeat(np.arange(len(doc_id), dtype=np.int64), 9)
        return t.append_column("lang", pc.take(b["lang"], pa.array(idx)))

    _empty = pa.table(
        {
            "l1": pa.array([], pa.string()),
            "l2": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def part(g: pa.Table) -> pa.Table:
        order, chunks = cell_pairs(
            g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
            g["home"].to_numpy(zero_copy_only=False),
        )
        ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
        lat = g["lat"].to_numpy(zero_copy_only=False)[order]
        lon = g["lon"].to_numpy(zero_copy_only=False)[order]
        lang = np.asarray(g["lang"].to_pylist())[order]
        l1s, l2s, cnts = [], [], []
        for left, right in chunks:
            m = ids[right] > ids[left]
            i, j = left[m], right[m]
            dla = lat[i] - lat[j]
            dlo = lon[i] - lon[j]
            keep = dla * dla + dlo * dlo <= r2
            a, bl = lang[i][keep], lang[j][keep]
            lo = np.where(a <= bl, a, bl)
            hi2 = np.where(a <= bl, bl, a)
            u, cnt = np.unique(np.char.add(np.char.add(lo, "|"), hi2),
                               return_counts=True)
            if len(u) == 0:
                continue
            parts = np.char.partition(u, "|")
            l1s.append(parts[:, 0])
            l2s.append(parts[:, 2])
            cnts.append(cnt.astype(np.int64))
        if not l1s:
            return _empty
        return pa.table(
            {
                "l1": pa.array(np.concatenate(l1s), pa.string()),
                "l2": pa.array(np.concatenate(l2s), pa.string()),
                "n": pa.array(np.concatenate(cnts), pa.int64()),
            }
        )

    rep_ds = docs.map_batches(rep, batch_format="pyarrow", batch_size=65536)
    t = fold_table(
        map_groups_partitioned(rep_ds, "ck", part), ["l1", "l2"], {"n_pairs": ("n", "sum")}
    )
    # bounded by language cardinality — genuinely small at any scale
    lt = fold_table(docs.select_columns(["lang"]), "lang", {"n": (None, "count")})
    totals = dict(zip(lt["lang"].to_pylist(), lt["n"].to_pylist()))
    l1 = t["l1"].to_pylist()
    l2 = t["l2"].to_pylist()
    n1 = np.array([totals[x] for x in l1], np.int64)
    n2 = np.array([totals[x] for x in l2], np.int64)
    npair = t["n_pairs"].to_numpy(zero_copy_only=False)
    ratio = npair.astype(np.float64) / (
        n1.astype(np.float64) * n2.astype(np.float64)
    )
    return pa.table(
        {
            "l1": t["l1"],
            "l2": t["l2"],
            "n_pairs": pa.array(npair, pa.int64()),
            "n1": pa.array(n1, pa.int64()),
            "n2": pa.array(n2, pa.int64()),
            "ratio": pa.array(ratio, pa.float64()),
        }
    )


def _moran_cells(sf_dir: str):
    """Dataset[(cell, x)]: documents per occupied 1-degree Moran cell."""

    def cell_of(b: pa.Table) -> pa.Table:
        lat, lon = _derive_coords(b["doc_id"].to_numpy(zero_copy_only=False))
        gx = np.floor(lon).astype(np.int64) + 180
        gy = np.floor(lat).astype(np.int64) + 70
        return pa.table({"cell": pa.array(gy * _MORAN_NLON + gx, pa.int64())})

    return fold(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(cell_of, batch_format="pyarrow", batch_size=65536),
        "cell",
        {"x": (None, "count")},
    )


@query(sql=f"""
WITH pts AS (
  SELECT CAST(FLOOR({GEO_LON_SQL}) AS BIGINT) + 180 AS gx,
         CAST(FLOOR({GEO_LAT_SQL}) AS BIGINT) + 70 AS gy
  FROM documents),
cells AS (
  SELECT gy * {_MORAN_NLON} + gx AS cell, gx, gy, COUNT(*) AS x
  FROM pts GROUP BY 1, 2, 3),
adj AS (
  SELECT CAST(COALESCE(SUM(a.x * b.x), 0) AS BIGINT) AS sum_adj
  FROM cells a JOIN cells b
    ON b.cell = a.cell + 1 AND a.gx < {_MORAN_NLON - 1}
    OR b.cell = a.cell + {_MORAN_NLON} AND a.gy < {_MORAN_NLAT - 1}),
sc AS (
  SELECT CAST(SUM(x) AS BIGINT) AS t,
         CAST(SUM(x * x) AS BIGINT) AS sum_sq,
         CAST(SUM(((CASE WHEN gx > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gx < {_MORAN_NLON - 1} THEN 1 ELSE 0 END)
                   + (CASE WHEN gy > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gy < {_MORAN_NLAT - 1} THEN 1 ELSE 0 END)) * x)
              AS BIGINT) AS sum_deg_x
  FROM cells),
k AS (
  SELECT CAST({_MORAN_NLON * _MORAN_NLAT} AS BIGINT) AS n,
         CAST({_MORAN_NLAT * (_MORAN_NLON - 1) + (_MORAN_NLAT - 1) * _MORAN_NLON}
              AS BIGINT) AS w)
SELECT k.n AS n_cells, k.w AS w_pairs, sc.t AS t_docs, sc.sum_sq,
       adj.sum_adj AS sum_adj_xx, sc.sum_deg_x,
       (CAST(k.n AS DOUBLE) / CAST(k.w AS DOUBLE))
         * (CAST(k.n * k.n * adj.sum_adj - k.n * sc.t * sc.sum_deg_x
                 + k.w * sc.t * sc.t AS DOUBLE)
            / CAST(k.n * k.n * sc.sum_sq - k.n * sc.t * sc.t AS DOUBLE))
         AS moran_i
FROM k, sc, adj
""")
def geo_moran_i(sf_dir: str):
    """MORAN'S I spatial autocorrelation of document density over the
    1-degree raster with rook (4-neighbor) weights — THE classic global
    spatial statistic. Everything reduces to FOUR integer aggregates over
    occupied cells only, because deviations scale to integers:
    z_i*N = x_i*N - T (N cells, T total docs), so

      num*N^2 = N^2*S_adj(x_i x_j) - N*T*S(deg_i x_i) + W*T^2
      den*N^2 = N^2*S(x_i^2)       - N*T^2

    where W and deg_i are closed-form grid constants — the zero cells'
    contribution is analytic, never materialized. Shape: one combiner
    groupby builds cell counts; S_adj comes from ONE hash join of each
    cell against its right/down neighbor keys (each unordered adjacent
    pair counted exactly once); the final I = (N/W) * num/den is a fixed
    chain of exact int->double ops, bit-equal to the SQL. Integer sums
    are order-independent — no float accumulates anywhere. Overflow
    bound: |x_i*N - T| <= T*N ~ 2^42 at sf1000, products fit int64
    through ~10^5 docs/cell on this grid (documented contract)."""
    nlon, nlat = _MORAN_NLON, _MORAN_NLAT
    n_cells = nlon * nlat
    w_pairs = nlat * (nlon - 1) + (nlat - 1) * nlon

    cells = _moran_cells(sf_dir).materialize()

    def scalars(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        gx = cell % nlon
        gy = cell // nlon
        deg = (
            (gx > 0).astype(np.int64) + (gx < nlon - 1)
            + (gy > 0) + (gy < nlat - 1)
        )
        return pa.table({"t": x, "sum_sq": x * x, "sum_deg_x": deg * x})

    sc = fold_table(
        cells.map_batches(scalars, batch_format="pyarrow"),
        [],
        {c: (c, "sum") for c in ("t", "sum_sq", "sum_deg_x")},
    )
    t, sum_sq, sum_deg_x = (sc[c][0].as_py() for c in ("t", "sum_sq", "sum_deg_x"))

    # S_adj(x_i x_j): join each cell against its right and down neighbors
    def probes(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        gx = cell % nlon
        gy = cell // nlon
        right = np.where(gx < nlon - 1, cell + 1, -1)
        down = np.where(gy < nlat - 1, cell + nlon, -1)
        nb = np.concatenate([right, down])
        xx = np.concatenate([x, x])
        keep = nb >= 0
        return pa.table(
            {"cell": pa.array(nb[keep], pa.int64()),
             "x_src": pa.array(xx[keep], pa.int64())}
        )

    joined = hash_join(
        cells.map_batches(probes, batch_format="pyarrow"), cells, on="cell"
    )

    def prod(b: pa.Table) -> pa.Table:
        return pa.table({"p": pc.multiply(b["x_src"], b["x"])})

    adj = fold_table(joined.map_batches(prod, batch_format="pyarrow"), [], {"p": ("p", "sum")})
    sum_adj = int(adj["p"][0].as_py() or 0) if adj.num_rows else 0
    t, sum_sq, sum_deg_x = int(t), int(sum_sq), int(sum_deg_x)

    n = n_cells
    num = n * n * sum_adj - n * t * sum_deg_x + w_pairs * t * t
    den = n * n * sum_sq - n * t * t
    moran = (float(n) / float(w_pairs)) * (float(num) / float(den))
    return pa.table(
        {
            "n_cells": pa.array([n], pa.int64()),
            "w_pairs": pa.array([w_pairs], pa.int64()),
            "t_docs": pa.array([t], pa.int64()),
            "sum_sq": pa.array([sum_sq], pa.int64()),
            "sum_adj_xx": pa.array([sum_adj], pa.int64()),
            "sum_deg_x": pa.array([sum_deg_x], pa.int64()),
            "moran_i": pa.array([moran], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT CAST(FLOOR({GEO_LON_SQL}) AS BIGINT) + 180 AS gx,
         CAST(FLOOR({GEO_LAT_SQL}) AS BIGINT) + 70 AS gy
  FROM documents),
cells AS (
  SELECT gy * {_MORAN_NLON} + gx AS cell, gx, gy, COUNT(*) AS x
  FROM pts GROUP BY 1, 2, 3),
sc AS (
  SELECT CAST(SUM(x) AS BIGINT) AS t, CAST(SUM(x * x) AS BIGINT) AS sum_sq
  FROM cells),
contrib AS (
  SELECT cell, x, CAST(0 AS BIGINT) AS nbx FROM cells
  UNION ALL
  SELECT cell + 1, CAST(0 AS BIGINT), x FROM cells WHERE gx < {_MORAN_NLON - 1}
  UNION ALL
  SELECT cell - 1, CAST(0 AS BIGINT), x FROM cells WHERE gx > 0
  UNION ALL
  SELECT cell + {_MORAN_NLON}, CAST(0 AS BIGINT), x
  FROM cells WHERE gy < {_MORAN_NLAT - 1}
  UNION ALL
  SELECT cell - {_MORAN_NLON}, CAST(0 AS BIGINT), x FROM cells WHERE gy > 0),
agg AS (
  SELECT cell, CAST(SUM(x) AS BIGINT) AS x, CAST(SUM(nbx) AS BIGINT) AS nbr_sum
  FROM contrib GROUP BY 1),
k AS (SELECT CAST({_MORAN_NLON * _MORAN_NLAT} AS BIGINT) AS n),
g AS (
  SELECT a.cell, a.cell % {_MORAN_NLON} AS gx, a.cell // {_MORAN_NLON} AS gy,
         a.x, a.nbr_sum,
         ((CASE WHEN a.cell % {_MORAN_NLON} > 0 THEN 1 ELSE 0 END)
          + (CASE WHEN a.cell % {_MORAN_NLON} < {_MORAN_NLON - 1} THEN 1 ELSE 0 END)
          + (CASE WHEN a.cell // {_MORAN_NLON} > 0 THEN 1 ELSE 0 END)
          + (CASE WHEN a.cell // {_MORAN_NLON} < {_MORAN_NLAT - 1} THEN 1 ELSE 0 END)
          + 1) AS w
  FROM agg a)
SELECT gx, gy, x, nbr_sum,
       CAST(k.n * (g.x + g.nbr_sum) - sc.t * g.w AS DOUBLE)
         / (SQRT(CAST(k.n * sc.sum_sq - sc.t * sc.t AS DOUBLE))
            * SQRT(CAST(k.n * g.w - g.w * g.w AS DOUBLE)
                   / CAST(k.n - 1 AS DOUBLE))) AS z
FROM g, k, sc
ORDER BY z DESC, g.cell
LIMIT 20
""")
def geo_getis_gi(sf_dir: str):
    """GETIS-ORD Gi* HOT-SPOT z-scores over the 1-degree raster with
    binary rook+self weights — Moran's I's local sibling, THE standard
    hot-spot-detection statistic. Same integer-exact strategy as
    geo_moran_i: with w_i = deg_i + 1 and mean T/N, the numerator scales
    to the integer N*(x_i + nbr_sum_i) - T*w_i, and the denominator's two
    square roots take INTEGER arguments (A = N*sum_sq - T^2 and
    N*w - w^2), so the whole z is a fixed chain of correctly-rounded
    double ops — bit-equal to the SQL mirror, no rounding needed.

    Shape: one combiner groupby builds occupied-cell counts; neighbor
    sums come from a second combiner groupby over (cell, x, 0) union
    4-direction (neighbor_cell, 0, x) contribution rows — no join, no
    neighbor materialization beyond occupied cells x 5; zero cells with
    no occupied neighbor never exist as rows (their Gi* is an analytic
    per-degree constant, excluded by contract). Output: top 20 hottest
    cells by z (tie-break cell id — total order, both sides bit-equal).
    Overflow contract: T^2 < 2^63 (same ~10^5 docs/cell bound as
    geo_moran_i, documented there)."""
    nlon, nlat = _MORAN_NLON, _MORAN_NLAT
    n_cells = nlon * nlat

    cells = _moran_cells(sf_dir).materialize()

    def scalars(b: pa.Table) -> pa.Table:
        return pa.table({"t": b["x"], "sum_sq": pc.multiply(b["x"], b["x"])})

    sc = fold_table(
        cells.map_batches(scalars, batch_format="pyarrow"), [], {c: (c, "sum") for c in ("t", "sum_sq")}
    )
    t, sum_sq = int(sc["t"][0].as_py()), int(sc["sum_sq"][0].as_py())
    a_const = n_cells * sum_sq - t * t

    def contribs(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        gx = cell % nlon
        gy = cell // nlon
        outc, outx, outn = [cell], [x], [np.zeros(len(x), np.int64)]
        for delta, ok in (
            (1, gx < nlon - 1),
            (-1, gx > 0),
            (nlon, gy < nlat - 1),
            (-nlon, gy > 0),
        ):
            outc.append(cell[ok] + delta)
            outx.append(np.zeros(int(ok.sum()), np.int64))
            outn.append(x[ok])
        return pa.table(
            {
                "cell": pa.array(np.concatenate(outc), pa.int64()),
                "x": pa.array(np.concatenate(outx), pa.int64()),
                "nbx": pa.array(np.concatenate(outn), pa.int64()),
            }
        )

    agg = fold(
        cells.map_batches(contribs, batch_format="pyarrow"),
        "cell",
        {"x": ("x", "sum"), "nbr_sum": ("nbx", "sum")},
    )

    def zscore(b: pa.Table) -> pa.Table:
        cell = b["cell"].to_numpy(zero_copy_only=False)
        x = b["x"].to_numpy(zero_copy_only=False)
        nb = b["nbr_sum"].to_numpy(zero_copy_only=False)
        gx = cell % nlon
        gy = cell // nlon
        deg = (
            (gx > 0).astype(np.int64) + (gx < nlon - 1)
            + (gy > 0) + (gy < nlat - 1)
        )
        w = deg + 1
        num = n_cells * (x + nb) - t * w
        z = num.astype(np.float64) / (
            np.sqrt(float(a_const))
            * np.sqrt((n_cells * w - w * w).astype(np.float64) / float(n_cells - 1))
        )
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "gx": pa.array(gx, pa.int64()),
                "gy": pa.array(gy, pa.int64()),
                "x": pa.array(x, pa.int64()),
                "nbr_sum": pa.array(nb, pa.int64()),
                "z": pa.array(z, pa.float64()),
            }
        )

    return (
        agg.map_batches(zscore, batch_format="pyarrow")
        .sort(["z", "cell"], descending=[True, False])
        .limit(20)
        .drop_columns(["cell"])
    )


_VARIO_LAG_DEG = 0.5  # lag-bin width (deg)
_VARIO_RADIUS_DEG = 10.0  # wider band than the 5-deg pair query: the test
# corpus's derived-coordinate lattice concentrates pair distances near
# ~0.9/6.6/7.8 deg, so 10 deg exercises multiple lag bins


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, CAST(n_chars AS BIGINT) AS chars,
         {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
pairs AS (
  SELECT CAST(FLOOR(SQRT((a.lat - b.lat) * (a.lat - b.lat)
                          + (a.lon - b.lon) * (a.lon - b.lon))
                    / {_VARIO_LAG_DEG}) AS BIGINT) AS lag_bin,
         (a.chars - b.chars) * (a.chars - b.chars) AS sqdiff
  FROM pts a JOIN pts b ON a.doc_id < b.doc_id
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_VARIO_RADIUS_DEG * _VARIO_RADIUS_DEG})
SELECT lag_bin, CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(sqdiff) AS BIGINT) AS sum_sqdiff,
       CAST(CAST(SUM(sqdiff) AS BIGINT) AS DOUBLE)
         / CAST(2 * COUNT(*) AS DOUBLE) AS gamma
FROM pairs GROUP BY 1 ORDER BY 1
""")
def geo_semivariogram(sf_dir: str, radius: float = _VARIO_RADIUS_DEG):
    """EMPIRICAL SEMIVARIOGRAM (Matheron): gamma(h) = sum((v_a - v_b)^2)
    / (2 * N(h)) over document pairs within the distance band, binned by
    lag floor(sqrt(d2)/width) — the spatial-continuity curve kriging and
    IDW parameter fitting start from; the natural companion to
    geo_idw_interp. Shape is geo_colocation's: the value column (n_chars)
    RIDES the 9x home+ghost replication, one hash shuffle, and the
    partition kernel reduces home-left candidate pairs straight to
    (lag_bin, n, sum_sqdiff) integer partials — pairs never materialize
    outside a task, and the final groupby sums <= 11 bins x n_parts rows.
    Exactness: diffs are int64 so per-bin sums are exact order-free
    integers (np.add.at, not float bincount weights); gamma is ONE double
    division of two exact integers, mirrored bit-identically in SQL; the
    lag index floor(sqrt(d2)/width) uses the same correctly-rounded
    IEEE sqrt chain both sides."""
    r2 = radius * radius
    n_bins = int(np.floor(radius / _VARIO_LAG_DEG)) + 1
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def rep(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        t = replicate_to_cells(doc_id.astype(np.int64), lat, lon, radius)
        chars = pc.cast(b["n_chars"], pa.int64())
        idx = np.repeat(np.arange(len(doc_id), dtype=np.int64), 9)
        return t.append_column("chars", pc.take(chars, pa.array(idx)))

    _empty = pa.table(
        {
            "lag_bin": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "ssq": pa.array([], pa.int64()),
        }
    )

    def part(g: pa.Table) -> pa.Table:
        order, chunks = cell_pairs(
            g["ck"].to_numpy(zero_copy_only=False).astype(np.uint64),
            g["home"].to_numpy(zero_copy_only=False),
        )
        ids = g["doc_id"].to_numpy(zero_copy_only=False)[order]
        lat = g["lat"].to_numpy(zero_copy_only=False)[order]
        lon = g["lon"].to_numpy(zero_copy_only=False)[order]
        chars = g["chars"].to_numpy(zero_copy_only=False)[order]
        cnt_acc = np.zeros(n_bins, np.int64)
        ssq_acc = np.zeros(n_bins, np.int64)
        for left, right in chunks:
            m = ids[right] > ids[left]
            i, j = left[m], right[m]
            dla = lat[i] - lat[j]
            dlo = lon[i] - lon[j]
            d2 = dla * dla + dlo * dlo
            keep = d2 <= r2
            i, j, d2 = i[keep], j[keep], d2[keep]
            lag = np.floor(np.sqrt(d2) / _VARIO_LAG_DEG).astype(np.int64)
            diff = chars[i] - chars[j]
            np.add.at(cnt_acc, lag, 1)
            np.add.at(ssq_acc, lag, diff * diff)
        present = np.nonzero(cnt_acc)[0]
        if len(present) == 0:
            return _empty
        return pa.table(
            {
                "lag_bin": pa.array(present, pa.int64()),
                "n": pa.array(cnt_acc[present], pa.int64()),
                "ssq": pa.array(ssq_acc[present], pa.int64()),
            }
        )

    rep_ds = docs.map_batches(rep, batch_format="pyarrow", batch_size=65536)
    t = fold_table(  # <= 11 rows by construction
        map_groups_partitioned(rep_ds, "ck", part),
        "lag_bin",
        {"n_pairs": ("n", "sum"), "sum_sqdiff": ("ssq", "sum")},
    )
    npair = t["n_pairs"].to_numpy(zero_copy_only=False).astype(np.float64)
    ssq = t["sum_sqdiff"].to_numpy(zero_copy_only=False).astype(np.float64)
    return t.append_column("gamma", pa.array(ssq / (2 * npair), pa.float64()))


@query(sql=f"""
WITH pts AS (
  SELECT lang,
         ((doc_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((doc_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM documents),
cc AS (SELECT gx, gy, lang, COUNT(*) AS c FROM pts GROUP BY 1, 2, 3),
dom AS (
  SELECT gx, gy, lang FROM (
    SELECT gx, gy, lang,
           ROW_NUMBER() OVER (PARTITION BY gx, gy
                              ORDER BY c DESC, lang) AS rn
    FROM cc) WHERE rn = 1)
SELECT a.gx, a.gy, b.gx AS nbr_gx, b.gy AS nbr_gy,
       a.lang AS lang_a, b.lang AS lang_b
FROM dom a JOIN dom b
  ON ((b.gx = a.gx + 1 AND b.gy = a.gy)
      OR (b.gx = a.gx AND b.gy = a.gy + 1))
WHERE a.lang <> b.lang
""")
def geo_lang_boundaries(sf_dir: str):
    """LINGUISTIC FRONTIER DETECTION: adjacent 10-deg cell pairs whose
    DOMINANT document language differs — the dialect/language boundary
    map a localization or crawl-routing team reads off the corpus.
    Dominance = most documents, ties by lexicographically smallest lang
    (the deterministic argmax contract). One packed (lang_idx, cell)
    count pass (bounded: langs x 504 at any corpus scale), driver fold:
    dominant per cell via lexsort-first, then right/down neighbor
    comparison (each boundary edge emitted ONCE, at its left/upper
    cell — the raster-adjacency single-emission rule shared with
    geo_moran_i's neighbor join)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    lang_t = fold_table(ds.select_columns(["lang"]), "lang", {"n": (None, "count")})
    langs = np.sort(np.asarray(lang_t["lang"].to_pylist()))

    def pack(b: pa.Table, ls=langs) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ls, np.asarray(b["lang"].to_pylist()))
        gx = ((doc_id * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((doc_id * 7919) % 140000) // _GE_CELL_MILLI
        key = (idx.astype(np.uint64) << np.uint64(16)) | (
            (gx * 1024 + gy).astype(np.uint64)
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= langs x 504 rows by construction
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    lidx = (key >> np.uint64(16)).astype(np.int64)
    cell = (key & np.uint64((1 << 16) - 1)).astype(np.int64)
    # dominant per cell under (count desc, lang asc)
    order = np.lexsort((lidx, -c, cell))
    cs, ls_ = cell[order], lidx[order]
    first = np.r_[True, cs[1:] != cs[:-1]]
    dom = dict(zip(cs[first].tolist(), ls_[first].tolist()))

    rows = []
    for cl, la in dom.items():
        gx, gy = cl // 1024, cl % 1024
        for nb in (cl + 1024, cl + 1):  # right (gx+1), down (gy+1)
            if nb == cl + 1 and gy + 1 >= 14:
                continue
            if nb == cl + 1024 and gx + 1 >= 36:
                continue
            lb = dom.get(nb)
            if lb is not None and lb != la:
                rows.append((gx, gy, nb // 1024, nb % 1024, la, lb))
    rows.sort()
    return pa.table(
        {
            "gx": pa.array([r[0] for r in rows], pa.int64()),
            "gy": pa.array([r[1] for r in rows], pa.int64()),
            "nbr_gx": pa.array([r[2] for r in rows], pa.int64()),
            "nbr_gy": pa.array([r[3] for r in rows], pa.int64()),
            "lang_a": pa.array([str(langs[r[4]]) for r in rows], pa.string()),
            "lang_b": pa.array([str(langs[r[5]]) for r in rows], pa.string()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
cc AS (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS c FROM pts GROUP BY 1, 2),
q AS (
  SELECT gx // 3 AS rx, gy // 3 AS ry, c,
         CAST(ROUND(CAST(c AS DOUBLE) * LOG2(CAST(c AS DOUBLE))
                    * 1000000.0, 0) AS BIGINT) AS r
  FROM cc),
per AS (
  SELECT rx, ry, CAST(COUNT(*) AS BIGINT) AS n_g,
         CAST(SUM(c) AS BIGINT) AS s_g, CAST(SUM(r) AS BIGINT) AS m_g
  FROM q GROUP BY 1, 2),
tot AS (
  SELECT CAST(SUM(n_g) AS BIGINT) AS n, CAST(SUM(s_g) AS BIGINT) AS s
  FROM per),
lg AS (
  SELECT p.*, CAST(ROUND(LOG2(CAST(p.s_g AS DOUBLE)
                              / CAST(p.n_g AS DOUBLE))
                         * 1000000.0, 0) AS BIGINT) AS lg_g,
         CAST(ROUND(LOG2(CAST(t.s AS DOUBLE) / CAST(t.n AS DOUBLE))
                    * 1000000.0, 0) AS BIGINT) AS lg_all,
         t.s AS s_tot, t.n AS n_tot
  FROM per p CROSS JOIN tot t)
SELECT CAST(rx AS BIGINT) AS rx, CAST(ry AS BIGINT) AS ry,
       n_g AS n_cells, s_g AS n_events, m_g AS sum_micro,
       CAST(m_g AS DOUBLE) / (1000000.0 * CAST(s_g AS DOUBLE))
         - CAST(lg_g AS DOUBLE) / 1000000.0 AS theil
FROM lg
UNION ALL
SELECT CAST(-1 AS BIGINT), CAST(-1 AS BIGINT),
       MAX(n_tot), MAX(s_tot), CAST(0 AS BIGINT),
       CAST(CAST(SUM(s_g * (lg_g - lg_all)) AS BIGINT) AS DOUBLE)
         / (1000000.0 * CAST(MAX(s_tot) AS DOUBLE))
FROM lg
""")
def geo_theil_decomp(sf_dir: str):
    """THEIL INEQUALITY DECOMPOSITION (in bits): how unequal are per-cell
    event counts, and how much of that inequality is BETWEEN 30-deg
    regions vs WITHIN them — the additive-decomposition property that
    makes Theil (not Gini) the regional-analysis standard. Per region g:
    T_g = sum(c*log2 c)/S_g/1e6_q - log2(S_g/n_g); between-component
    T_b = sum_g (S_g/S) * (log2(S_g/n_g) - log2(S/n)). Exactness: integer
    (region, cell) counts from ONE packed count pass (bounded), per-cell
    c*log2(c) quantized to micro-bits (the entropy contract), and every
    log2-of-ratio argument is the SAME correctly-rounded double division
    on both sides before the micro-bit ROUND. Output: one row per region
    + a (-1, -1) summary row carrying T_between."""
    ds = _read(sf_dir, "events", ["event_id"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mlon = (eid * 104729) % 360000
        mlat = (eid * 7919) % 140000
        gx = mlon // _GE_CELL_MILLI
        gy = mlat // _GE_CELL_MILLI
        key = (gx * 1024 + gy).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 504 rows by construction
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    gx, gy = key // 1024, key % 1024
    # 30-deg region of a 10-deg cell
    rx, ry = gx // 3, gy // 3
    reg = rx * 16 + ry
    micro = sql_round_np(
        c.astype(np.float64) * np.log2(c.astype(np.float64)) * 1000000.0, 0
    ).astype(np.int64)

    regs = np.unique(reg)
    pos = np.searchsorted(regs, reg)
    n_g = np.zeros(len(regs), np.int64)
    s_g = np.zeros(len(regs), np.int64)
    m_g = np.zeros(len(regs), np.int64)
    np.add.at(n_g, pos, 1)
    np.add.at(s_g, pos, c)
    np.add.at(m_g, pos, micro)
    S, n = int(s_g.sum()), int(n_g.sum())

    def _lg_ratio_micro(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return sql_round_np(
            np.log2(a.astype(np.float64) / b.astype(np.float64)) * 1000000.0,
            0,
        ).astype(np.int64)

    lg_g = _lg_ratio_micro(s_g, n_g)
    lg_all = int(_lg_ratio_micro(np.array([S]), np.array([n]))[0])
    theil_within = m_g.astype(np.float64) / (
        1000000.0 * s_g.astype(np.float64)
    ) - lg_g.astype(np.float64) / 1000000.0
    # integer numerator: SUM of doubles is order-nondeterministic across
    # engines (the BM25 lesson); s_g * lg-diff stays exact int64 to
    # ~1e11 events per region
    t_between = float(
        np.float64(int((s_g * (lg_g - lg_all)).sum()))
        / (1000000.0 * np.float64(S))
    )
    return pa.table(
        {
            "rx": pa.array(
                np.concatenate([regs // 16, [-1]]), pa.int64()
            ),
            "ry": pa.array(
                np.concatenate([regs % 16, [-1]]), pa.int64()
            ),
            "n_cells": pa.array(np.concatenate([n_g, [n]]), pa.int64()),
            "n_events": pa.array(np.concatenate([s_g, [S]]), pa.int64()),
            "sum_micro": pa.array(np.concatenate([m_g, [0]]), pa.int64()),
            "theil": pa.array(
                np.concatenate([theil_within, [t_between]]), pa.float64()
            ),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT ((doc_id * 104729) % 360000) // {_GT_CELL_MILLI} AS rx,
         ((doc_id * 7919) % 140000) // {_GT_CELL_MILLI} AS ry,
         n_chars
  FROM documents),
med AS (
  SELECT rx, ry, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(MEDIAN(CAST(n_chars AS DOUBLE)) AS DOUBLE) AS median_chars
  FROM pts GROUP BY 1, 2),
mad AS (
  SELECT p.rx, p.ry,
         CAST(MEDIAN(ABS(CAST(p.n_chars AS DOUBLE) - m.median_chars))
              AS DOUBLE) AS mad_chars
  FROM pts p JOIN med m ON m.rx = p.rx AND m.ry = p.ry
  GROUP BY 1, 2)
SELECT CAST(m.rx AS BIGINT) AS rx, CAST(m.ry AS BIGINT) AS ry,
       m.n_docs, m.median_chars, d.mad_chars
FROM med m JOIN mad d ON d.rx = m.rx AND d.ry = m.ry
""")
def geo_region_mad(sf_dir: str):
    """ROBUST REGIONAL STATISTICS (median + MAD of document length per
    30-deg region): the outlier-resistant pair every data-quality monitor
    prefers over mean/stddev when crawl spam skews a region. Plan: the
    doc_quality_buckets contract regionalized — ONE packed (region,
    n_chars) count pass (DISTINCT VALUES, not rows, reach the driver;
    bounded by regions x distinct lengths), then exact median/MAD from
    the value->count histograms. Float parity: every median is either an
    exact integer or the exact mean of two integers (and MAD's deviation
    values are exact integers-or-halves in double), so interpolation is
    bit-exact against DuckDB MEDIAN — all doubles, no DECIMAL (the
    MEDIAN-of-DECIMAL type trap is mirrored away with explicit DOUBLE
    casts)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def pack(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((doc_id * 104729) % 360000) // _GT_CELL_MILLI
        gy = ((doc_id * 7919) % 140000) // _GT_CELL_MILLI
        key = ((gx * 16 + gy).astype(np.uint64) << np.uint64(20)) | nch.astype(
            np.uint64
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= regions x distinct lengths rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    reg = (key >> np.uint64(20)).astype(np.int64)
    val = (key & np.uint64((1 << 20) - 1)).astype(np.int64)

    def _hist_median(vals: np.ndarray, cnts: np.ndarray) -> float:
        o = np.argsort(vals, kind="stable")
        v, n = vals[o].astype(np.float64), cnts[o]
        cum = np.cumsum(n)
        m = int(cum[-1])
        if m % 2 == 1:
            return float(v[np.searchsorted(cum, m // 2 + 1)])
        lo = float(v[np.searchsorted(cum, m // 2)])
        hi = float(v[np.searchsorted(cum, m // 2 + 1)])
        return (lo + hi) / 2.0

    regs = np.unique(reg)
    out_med, out_mad, out_n = [], [], []
    for r in regs:
        m_ = reg == r
        med = _hist_median(val[m_], c[m_])
        dev = np.abs(val[m_].astype(np.float64) - med)
        mad = _hist_median(dev, c[m_])
        out_med.append(med)
        out_mad.append(mad)
        out_n.append(int(c[m_].sum()))
    return pa.table(
        {
            "rx": pa.array(regs // 16, pa.int64()),
            "ry": pa.array(regs % 16, pa.int64()),
            "n_docs": pa.array(out_n, pa.int64()),
            "median_chars": pa.array(out_med, pa.float64()),
            "mad_chars": pa.array(out_mad, pa.float64()),
        }
    )


_CDC_Q = 10.0  # distance quantizer: keeps n * sum(x^2) inside int64
# (max min-d2 ~7.6e3 deg^2 -> x <= 7.6e4, n*sxx < 2e17 at sf0.1; a corpus
# past ~1e8 docs widens the moments to two-limb accumulators)


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, n_chars, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
facs AS (
  SELECT k AS fac_id,
         ((k * 11003) % 120000) / 1000.0 - 60.0 AS flat,
         ((k * 104729) % 340000) / 1000.0 - 170.0 AS flon
  FROM range(12) t(k)),
nearest AS (
  SELECT p.doc_id, p.n_chars AS y,
         CAST(FLOOR(MIN((p.lat - f.flat) * (p.lat - f.flat)
                        + (p.lon - f.flon) * (p.lon - f.flon))
                    * {_CDC_Q}) AS BIGINT) AS x
  FROM pts p CROSS JOIN facs f GROUP BY 1, 2),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy
  FROM nearest)
SELECT n AS n_docs, n * sxy - sx * sy AS corr_num,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / (SQRT(CAST(n * sxx - sx * sx AS DOUBLE))
            * SQRT(CAST(n * syy - sy * sy AS DOUBLE))) AS pearson_r
FROM m
""")
def geo_chars_dist_corr(sf_dir: str):
    """SPATIAL CORRELATION TEST (Pearson r between document length and
    distance to the nearest facility): "is content thinner far from the
    hubs?" — the hypothesis-test primitive behind coverage-equity
    audits. Exactness: the distance quantizes to integer micro-units
    (floor(d2*Q), the nearest-facility contract), n_chars is already
    integer, all five moments (n, sx, sy, sxy, sxx, syy) are exact
    order-free int64 partials from ONE map-only pass (no shuffle —
    6 scalars per batch reach the tiny groupby), and
    r = (n*sxy - sx*sy) / (sqrt(n*sxx - sx^2) * sqrt(n*syy - sy^2)) is
    one fixed chain of two correctly-rounded sqrts over exact
    integers."""
    k = np.arange(12, dtype=np.int64)
    f_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    f_lon = ((k * 104729) % 340000) / 1000.0 - 170.0

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        dla = lat[:, None] - f_lat[None, :]
        dlo = lon[:, None] - f_lon[None, :]
        d2 = dla * dla + dlo * dlo
        x = np.floor(d2.min(axis=1) * _CDC_Q).astype(np.int64)
        return pa.table({"sx": x, "sy": y, "sxy": x * y, "sxx": x * x, "syy": y * y})

    agg = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        [],
        {"n": (None, "count"), **{c: (c, "sum") for c in ("sx", "sy", "sxy", "sxx", "syy")}},
    )
    n = int(agg["n"][0].as_py())
    sx = int(agg["sx"][0].as_py())
    sy = int(agg["sy"][0].as_py())
    sxy = int(agg["sxy"][0].as_py())
    sxx = int(agg["sxx"][0].as_py())
    syy = int(agg["syy"][0].as_py())
    num = n * sxy - sx * sy
    r = float(
        np.float64(num)
        / (
            np.sqrt(np.float64(n * sxx - sx * sx))
            * np.sqrt(np.float64(n * syy - sy * sy))
        )
    )
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "corr_num": pa.array([num], pa.int64()),
            "pearson_r": pa.array([r], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT ((doc_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((doc_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM documents),
cc AS (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS c FROM pts GROUP BY 1, 2),
med AS (
  SELECT (MAX(CASE WHEN rn = (m + 1) // 2 THEN cd END)
          + MAX(CASE WHEN rn = m // 2 + 1 THEN cd END)) / 2.0 AS v
  FROM (SELECT CAST(c AS DOUBLE) AS cd,
               ROW_NUMBER() OVER (ORDER BY c) AS rn,
               COUNT(*) OVER () AS m
        FROM cc)),
col AS (
  SELECT gx, gy, CAST(cc.c AS DOUBLE) > med.v AS b
  FROM cc CROSS JOIN med),
edges AS (
  SELECT a.b AS ba, n.b AS bn
  FROM col a JOIN col n
    ON ((n.gx = a.gx + 1 AND n.gy = a.gy)
        OR (n.gx = a.gx AND n.gy = a.gy + 1)))
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM cc) AS n_cells,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM col WHERE b) AS n_black,
       CAST(COUNT(CASE WHEN ba AND bn THEN 1 END) AS BIGINT) AS bb,
       CAST(COUNT(CASE WHEN ba <> bn THEN 1 END) AS BIGINT) AS bw,
       CAST(COUNT(CASE WHEN NOT ba AND NOT bn THEN 1 END) AS BIGINT) AS ww
FROM edges
""")
def geo_join_counts(sf_dir: str):
    """CLIFF-ORD JOIN-COUNT STATISTICS (the binary spatial-autocorrelation
    test): cells are colored Black (document count STRICTLY above the
    global occupied-cell median) or White, and rook-adjacent pairs are
    counted as BB / BW / WW — clustered hot spots inflate BB, a
    checkerboard inflates BW. Exactness: all-integer — exact cell counts
    from one packed pass (geometry-bounded), the median threshold from
    the value histogram (integer-or-half, exact), pair counts by the
    right/down single-emission adjacency rule (each edge once, at its
    left/upper cell — the geo_moran_i convention); only OCCUPIED cells
    participate (empty cells are outside the lattice, documented
    semantics)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def pack(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((doc_id * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((doc_id * 7919) % 140000) // _GE_CELL_MILLI
        return pa.table(
            {"key": pa.array((gx * 1024 + gy).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 504 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cs = np.sort(c)
    m = len(cs)
    med = (
        float(cs[(m - 1) // 2])
        if m % 2 == 1
        else (float(cs[m // 2 - 1]) + float(cs[m // 2])) / 2.0
    )
    black = dict(zip(key.tolist(), (c.astype(np.float64) > med).tolist()))

    bb = bw = ww = 0
    for cl, isb in black.items():
        for nb in (cl + 1024, cl + 1):  # right, down
            nbv = black.get(nb)
            if nbv is None:
                continue
            if isb and nbv:
                bb += 1
            elif isb != nbv:
                bw += 1
            else:
                ww += 1
    return pa.table(
        {
            "n_cells": pa.array([m], pa.int64()),
            "n_black": pa.array([int(sum(black.values()))], pa.int64()),
            "bb": pa.array([bb], pa.int64()),
            "bw": pa.array([bw], pa.int64()),
            "ww": pa.array([ww], pa.int64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT lang,
         ((doc_id * 104729) % 360000) // {_GT_CELL_MILLI} AS rx,
         ((doc_id * 7919) % 140000) // {_GT_CELL_MILLI} AS ry
  FROM documents),
cc AS (SELECT rx, ry, lang, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
per AS (
  SELECT rx, ry, CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(c * (c - 1)) AS BIGINT) AS num
  FROM cc GROUP BY 1, 2)
SELECT CAST(rx AS BIGINT) AS rx, CAST(ry AS BIGINT) AS ry,
       n AS n_docs, num, n * (n - 1) AS den,
       CAST(num AS DOUBLE) / CAST(n * (n - 1) AS DOUBLE) AS simpson
FROM per WHERE n >= 2
""")
def geo_lang_simpson(sf_dir: str):
    """SIMPSON DIVERSITY INDEX per 30-deg region (the ecology-standard
    "probability two random documents share a language" — 1-D is the
    diversity; the concentration lens that complements entropy's
    information lens): lambda = sum c*(c-1) / (n*(n-1)) is EXACTLY
    rational — per-(region, lang) integer counts from one packed pass
    (bounded), integer numerator/denominator emitted, ONE double
    division. No quantizer needed anywhere: the rare all-integer
    diversity statistic."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    lang_t = fold_table(ds.select_columns(["lang"]), "lang", {"n": (None, "count")})
    langs = np.sort(np.asarray(lang_t["lang"].to_pylist()))

    def pack(b: pa.Table, ls=langs) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(ls, np.asarray(b["lang"].to_pylist()))
        rx = ((doc_id * 104729) % 360000) // _GT_CELL_MILLI
        ry = ((doc_id * 7919) % 140000) // _GT_CELL_MILLI
        key = (idx.astype(np.uint64) << np.uint64(16)) | (
            (rx * 16 + ry).astype(np.uint64)
        )
        return pa.table({"key": pa.array(key, pa.uint64())})

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= langs x regions rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    reg = (key & np.uint64((1 << 16) - 1)).astype(np.int64)
    regs = np.unique(reg)
    pos = np.searchsorted(regs, reg)
    n_g = np.zeros(len(regs), np.int64)
    num = np.zeros(len(regs), np.int64)
    np.add.at(n_g, pos, c)
    np.add.at(num, pos, c * (c - 1))
    keep = n_g >= 2
    regs, n_g, num = regs[keep], n_g[keep], num[keep]
    den = n_g * (n_g - 1)
    return pa.table(
        {
            "rx": pa.array(regs // 16, pa.int64()),
            "ry": pa.array(regs % 16, pa.int64()),
            "n_docs": pa.array(n_g, pa.int64()),
            "num": pa.array(num, pa.int64()),
            "den": pa.array(den, pa.int64()),
            "simpson": pa.array(
                num.astype(np.float64) / den.astype(np.float64), pa.float64()
            ),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT ((doc_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((doc_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM documents),
cc AS (SELECT gx, gy, CAST(COUNT(*) AS BIGINT) AS c FROM pts GROUP BY 1, 2),
grid AS (
  SELECT x.gx, y.gy, COALESCE(cc.c, 0) AS x
  FROM (SELECT UNNEST(generate_series(0, 35)) AS gx) x
  CROSS JOIN (SELECT UNNEST(generate_series(0, 13)) AS gy) y
  LEFT JOIN cc ON cc.gx = x.gx AND cc.gy = y.gy),
tot AS (SELECT CAST(SUM(x) AS BIGINT) AS t FROM grid),
lagd AS (
  SELECT g.gx, g.gy, g.x,
         CAST(SUM(n.x) AS BIGINT) AS nbr, CAST(COUNT(n.x) AS BIGINT) AS deg
  FROM grid g JOIN grid n
    ON (n.gx = g.gx + 1 AND n.gy = g.gy) OR (n.gx = g.gx - 1 AND n.gy = g.gy)
    OR (n.gx = g.gx AND n.gy = g.gy + 1) OR (n.gx = g.gx AND n.gy = g.gy - 1)
  GROUP BY 1, 2, 3)
SELECT CAST(l.gx AS BIGINT) AS gx, CAST(l.gy AS BIGINT) AS gy,
       l.x AS n_docs,
       l.x * 504 - tot.t AS z_num,
       504 * l.nbr - l.deg * tot.t AS lag_num,
       CASE WHEN l.x * 504 - tot.t > 0 AND 504 * l.nbr - l.deg * tot.t > 0
              THEN 'HH'
            WHEN l.x * 504 - tot.t < 0 AND 504 * l.nbr - l.deg * tot.t < 0
              THEN 'LL'
            WHEN l.x * 504 - tot.t > 0 AND 504 * l.nbr - l.deg * tot.t < 0
              THEN 'HL'
            WHEN l.x * 504 - tot.t < 0 AND 504 * l.nbr - l.deg * tot.t > 0
              THEN 'LH'
            ELSE 'NS' END AS quadrant
FROM lagd l CROSS JOIN tot
""")
def geo_lisa_quadrants(sf_dir: str):
    """LISA / MORAN-SCATTER QUADRANT CLASSIFICATION (the local companion
    of geo_moran_i's global statistic: each cell labeled HH hot-in-hot,
    LL cold-in-cold, HL hot outlier, LH cold pocket — the map behind
    every cluster-and-outlier choropleth). ALL-INTEGER over the full
    10-deg grid (zero cells participate — their deviations are real):
    z_i*N = x_i*N - T and lag_i*N = N*sum(x_nbr) - deg_i*T, so quadrant
    signs come from exact int64 products; the emitted columns ARE those
    integers plus the label (ties-on-the-mean labeled 'NS'). One packed
    count pass; the 36 x 14 grid fold is geometry-bounded."""
    w, h = 36, 14
    ds = _read(sf_dir, "documents", ["doc_id"])

    def pack(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        gx = ((doc_id * 104729) % 360000) // _GE_CELL_MILLI
        gy = ((doc_id * 7919) % 140000) // _GE_CELL_MILLI
        return pa.table(
            {"key": pa.array((gx * 1024 + gy).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 504 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    grid = np.zeros((w, h), np.int64)
    grid[key // 1024, key % 1024] = c
    n_cells = w * h
    total = int(grid.sum())

    nbr = np.zeros((w, h), np.int64)
    deg = np.zeros((w, h), np.int64)
    nbr[1:, :] += grid[:-1, :]
    nbr[:-1, :] += grid[1:, :]
    nbr[:, 1:] += grid[:, :-1]
    nbr[:, :-1] += grid[:, 1:]
    deg[1:, :] += 1
    deg[:-1, :] += 1
    deg[:, 1:] += 1
    deg[:, :-1] += 1

    z_num = grid * n_cells - total
    lag_num = n_cells * nbr - deg * total
    lab = np.where(
        (z_num > 0) & (lag_num > 0), "HH",
        np.where(
            (z_num < 0) & (lag_num < 0), "LL",
            np.where(
                (z_num > 0) & (lag_num < 0), "HL",
                np.where((z_num < 0) & (lag_num > 0), "LH", "NS"),
            ),
        ),
    )
    gx, gy = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    return pa.table(
        {
            "gx": pa.array(gx.ravel().astype(np.int64), pa.int64()),
            "gy": pa.array(gy.ravel().astype(np.int64), pa.int64()),
            "n_docs": pa.array(grid.ravel(), pa.int64()),
            "z_num": pa.array(z_num.ravel(), pa.int64()),
            "lag_num": pa.array(lag_num.ravel(), pa.int64()),
            "quadrant": pa.array(lab.ravel().tolist(), pa.string()),
        }
    )


@query(sql="WITH lv AS ("
    + " UNION ALL ".join(
        f"SELECT CAST({L} AS BIGINT) AS level, CAST(COUNT(*) AS BIGINT)"
        f" AS n_boxes FROM (SELECT DISTINCT"
        f" (((doc_id * 104729) % 360000) * {1 << L}) // 360000 AS qx,"
        f" (((doc_id * 7919) % 140000) * {1 << L}) // 140000 AS qy"
        f" FROM documents)"
        for L in range(_QT_LMAX + 1)
    )
    + """),
q AS (
  SELECT level, n_boxes, level * 1000000 AS x,
         CAST(ROUND(LOG2(CAST(n_boxes AS DOUBLE)) * 1000000.0, 0)
              AS BIGINT) AS y
  FROM lv),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM q)
SELECT q.level, q.n_boxes,
       m.k * m.sxy - m.sx * m.sy AS dim_num,
       m.k * m.sxx - m.sx * m.sx AS dim_den,
       CAST(m.k * m.sxy - m.sx * m.sy AS DOUBLE)
         / CAST(m.k * m.sxx - m.sx * m.sx AS DOUBLE) AS box_dim
FROM q CROSS JOIN m""")
def geo_boxcount_dimension(sf_dir: str):
    """BOX-COUNTING FRACTAL DIMENSION of the document footprint (how
    space-filling is the corpus's geography — D -> 2 uniform sheet,
    D -> 0 isolated points; the settlement-geography classic for urban
    sprawl and coverage texture): occupied-box counts N_L at quadtree
    levels 0..8 from ONE finest-level count pass (the geo_quadtree
    pyramid — parents by reshape block-OR), then D = the micro-bit
    regression slope of log2(N_L) on level (x = L is already an exact
    integer; only the y side needs the quantizer)."""
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
        count_by_u64(
            ds.map_batches(finest, batch_format="pyarrow",
                           batch_size=131072)
        )
    )  # <= side^2 rows by construction
    key = cells["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    grid = np.zeros((side, side), bool)
    grid[key // side, key % side] = True

    n_l = []
    g = grid
    for L in range(_QT_LMAX, -1, -1):
        n_l.append(int(g.sum()))
        if L:
            h = 1 << (L - 1)
            g = g.reshape(h, 2, h, 2).any(axis=(1, 3))
    n_l = np.asarray(n_l[::-1], np.int64)  # index = level 0..8

    lev = np.arange(_QT_LMAX + 1, dtype=np.int64)
    x = lev * 1000000
    y = sql_round_np(
        np.log2(n_l.astype(np.float64)) * 1000000.0, 0
    ).astype(np.int64)
    k = len(x)
    sx, sy = int(x.sum()), int(y.sum())
    sxy, sxx = int((x * y).sum()), int((x * x).sum())
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    return pa.table(
        {
            "level": pa.array(lev, pa.int64()),
            "n_boxes": pa.array(n_l, pa.int64()),
            "dim_num": pa.array(np.full(k, num, np.int64), pa.int64()),
            "dim_den": pa.array(np.full(k, den, np.int64), pa.int64()),
            "box_dim": pa.array(
                np.full(k, float(np.float64(num) / np.float64(den))),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT (doc_id * 104729) % 360000 - 180000 AS x,
         (doc_id * 7919) % 140000 - 70000 AS y
  FROM documents),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy,
         CAST(SUM(x * y) AS BIGINT) AS sxy
  FROM pts)
SELECT n AS n_docs,
       CAST(sx + n * 180000 AS DOUBLE) / CAST(n AS DOUBLE) AS cx_milli,
       CAST(sy + n * 70000 AS DOUBLE) / CAST(n AS DOUBLE) AS cy_milli,
       n * sxx - sx * sx AS var_x_num,
       n * syy - sy * sy AS var_y_num,
       n * sxy - sx * sy AS cov_num,
       CAST(2 * (n * sxy - sx * sy) AS DOUBLE)
         / CAST((n * sxx - sx * sx) - (n * syy - sy * sy) AS DOUBLE)
         AS tan_2theta
FROM m
""")
def geo_std_ellipse(sf_dir: str):
    """STANDARD DEVIATIONAL ELLIPSE of the document distribution (the
    ArcGIS directional-distribution classic: centroid + axis variances +
    orientation — is the corpus footprint stretched along a coastline or
    isotropic?): ALL-INTEGER milli-degree moments (n, sx, sy, sxx, syy,
    sxy), variance/covariance numerators by the n*sxx - sx^2 identity,
    and the orientation emitted WITHOUT atan2 — tan(2*theta) =
    2*cov/(var_x - var_y) is an EXACT rational of integer numerators
    (the atan2 libm step is the caller's one-liner); one map-only
    combiner pass. Moments are CENTERED on the fixed mid-range offsets
    (180000/70000 milli-deg; ADVICE r4) — variance numerators are
    shift-invariant so outputs are unchanged, but the intermediate
    n*sxx product no longer overflows before the OUTPUT itself would:
    int64 now holds to ~1.7e4 docs worst-case / ~2.9e4 uniform, exactly
    where var_x_num stops fitting the column type, and both engines
    fail loud (pa.int64 OverflowError / DuckDB BIGINT overflow) at that
    same point rather than on an internal product."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def partial(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = (doc_id * 104729) % 360000 - 180000
        y = (doc_id * 7919) % 140000 - 70000
        return pa.table({"sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y})

    agg = fold_table(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=131072),
        [],
        {"n": (None, "count"), **{c: (c, "sum") for c in ("sx", "sy", "sxx", "syy", "sxy")}},
    )
    n = int(agg["n"][0].as_py())
    sx = int(agg["sx"][0].as_py())
    sy = int(agg["sy"][0].as_py())
    sxx = int(agg["sxx"][0].as_py())
    syy = int(agg["syy"][0].as_py())
    sxy = int(agg["sxy"][0].as_py())
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    cov = n * sxy - sx * sy
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            # centroid in the UNCENTERED frame: undo the fixed offset with
            # exact integer arithmetic before the single division
            "cx_milli": pa.array(
                [float(np.float64(sx + n * 180000) / np.float64(n))],
                pa.float64(),
            ),
            "cy_milli": pa.array(
                [float(np.float64(sy + n * 70000) / np.float64(n))],
                pa.float64(),
            ),
            "var_x_num": pa.array([var_x], pa.int64()),
            "var_y_num": pa.array([var_y], pa.int64()),
            "cov_num": pa.array([cov], pa.int64()),
            "tan_2theta": pa.array(
                [float(np.float64(2 * cov) / np.float64(var_x - var_y))],
                pa.float64(),
            ),
        }
    )


_RIPLEY_RMAX = 3.0  # Ripley K max radius (degrees)


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
pr AS (
  SELECT (a.lat - b.lat) * (a.lat - b.lat)
           + (a.lon - b.lon) * (a.lon - b.lon) AS d2
  FROM pts a JOIN pts b
    ON b.doc_id > a.doc_id
   AND b.lat BETWEEN a.lat - {_RIPLEY_RMAX} AND a.lat + {_RIPLEY_RMAX}
   AND b.lon BETWEEN a.lon - {_RIPLEY_RMAX} AND a.lon + {_RIPLEY_RMAX}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_RIPLEY_RMAX * _RIPLEY_RMAX}),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts),
cum AS (
  SELECT r.r,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM pr
          WHERE pr.d2 <= CAST(r.r * r.r AS DOUBLE)) AS n_pairs
  FROM (SELECT UNNEST([1, 2, 3]) AS r) r)
SELECT CAST(c.r AS BIGINT) AS r, c.n_pairs,
       360.0 * 140.0 * 2.0 * CAST(c.n_pairs AS DOUBLE)
         / (CAST(nn.n AS DOUBLE) * CAST(nn.n AS DOUBLE)) AS k,
       PI() * CAST(c.r AS DOUBLE) * CAST(c.r AS DOUBLE) AS csr_expect
FROM cum c CROSS JOIN nn
""")
def geo_ripley_k(sf_dir: str):
    """RIPLEY'S K FUNCTION (the canonical multi-scale point-pattern
    statistic: K(r) vs pi*r^2 says clustered/random/dispersed AT EACH
    radius — one number per scale where Moran/Gini give one number
    total): cumulative pair counts within r = 1, 2, 3 deg from the
    distance-band join (ONE shuffle at the largest radius), bands by
    integer-exact d2-threshold comparisons (no sqrt), K(r) = A * 2 *
    n_pairs(r) / n^2 with the study area A = 360*140 deg^2 — per radius
    ONE double chain over exact integers (border correction omitted —
    documented, mirrored)."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def shape(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    n = docs.count()
    pairs = distance_pairs(
        docs.map_batches(shape, batch_format="pyarrow"), _RIPLEY_RMAX
    )

    def band_partial(b: pa.Table) -> pa.Table:
        d2 = b["sq_dist"].to_numpy(zero_copy_only=False)
        band = np.where(d2 <= 1.0, 1, np.where(d2 <= 4.0, 2, 3))
        return pa.table({"r": pa.array(band.astype(np.int64), pa.int64())})

    agg = fold_table(pairs.map_batches(band_partial, batch_format="pyarrow"), "r", {"c": (None, "count")})
    rb = agg["r"].to_numpy(zero_copy_only=False).astype(np.int64)
    cb = agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.zeros(3, np.int64)
    counts[rb - 1] = cb
    cum = np.cumsum(counts)
    area = 360.0 * 140.0
    rows = []
    for i, r in enumerate((1, 2, 3)):
        k = float(
            area * 2.0 * np.float64(int(cum[i]))
            / (np.float64(n) * np.float64(n))
        )
        rows.append((r, int(cum[i]), k,
                     float(np.pi * np.float64(r) * np.float64(r))))
    return pa.table(
        {
            "r": pa.array([x[0] for x in rows], pa.int64()),
            "n_pairs": pa.array([x[1] for x in rows], pa.int64()),
            "k": pa.array([x[2] for x in rows], pa.float64()),
            "csr_expect": pa.array([x[3] for x in rows], pa.float64()),
        }
    )


_CROSS_K_RMAX = 3.0  # bivariate cross-K max radius (degrees)


@query(sql=f"""
WITH d AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
e AS (
  SELECT event_id,
         {GEO_LAT_SQL.replace('doc_id', 'event_id')} AS lat,
         {GEO_LON_SQL.replace('doc_id', 'event_id')} AS lon FROM events),
pr AS (
  SELECT (d.lat - e.lat) * (d.lat - e.lat)
           + (d.lon - e.lon) * (d.lon - e.lon) AS d2
  FROM d JOIN e
    ON e.lat BETWEEN d.lat - {_CROSS_K_RMAX} AND d.lat + {_CROSS_K_RMAX}
   AND e.lon BETWEEN d.lon - {_CROSS_K_RMAX} AND d.lon + {_CROSS_K_RMAX}
  WHERE (d.lat - e.lat) * (d.lat - e.lat)
          + (d.lon - e.lon) * (d.lon - e.lon)
        <= {_CROSS_K_RMAX * _CROSS_K_RMAX}),
nn AS (SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM d) AS nd,
              (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS ne),
cum AS (
  SELECT r.r,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM pr
          WHERE pr.d2 <= CAST(r.r * r.r AS DOUBLE)) AS n_pairs
  FROM (SELECT UNNEST([1, 2, 3]) AS r) r)
SELECT CAST(c.r AS BIGINT) AS r, c.n_pairs,
       360.0 * 140.0 * CAST(c.n_pairs AS DOUBLE)
         / (CAST(nn.nd AS DOUBLE) * CAST(nn.ne AS DOUBLE)) AS k_ab,
       PI() * CAST(c.r AS DOUBLE) * CAST(c.r AS DOUBLE) AS csr_expect
FROM cum c CROSS JOIN nn
""")
def geo_cross_k(sf_dir: str):
    """BIVARIATE CROSS-K FUNCTION (Ripley's K between TWO point types —
    "are events clustered AROUND documents beyond chance", the canonical
    attraction/repulsion test between heterogeneous layers; the univariate
    geo_ripley_k above cannot see cross-type structure): cumulative
    (doc, event) pair counts within r = 1, 2, 3 deg from ONE bipartite
    distance-band join at the largest radius (stages/distband.py
    bipartite_band_pairs: asymmetric 1x + 9x home+ghost replication, one
    hash shuffle), bands by exact d2-threshold comparisons (no sqrt),
    K_ab(r) = A * n_pairs(r) / (n_a * n_b) — cross pairs are ordered
    once per (doc, event) so there is NO factor 2 (unlike the self-join
    K); per radius ONE double chain over exact integers. Border
    correction omitted — documented, mirrored in the SQL."""
    docs = _read(sf_dir, "documents", ["doc_id"])
    evs = _read(sf_dir, "events", ["event_id"])

    n_d = docs.count()
    n_e = evs.count()
    pairs = bipartite_band_pairs(
        _with_coords(docs, "doc_id"), _with_coords(evs, "event_id"),
        _CROSS_K_RMAX,
    )

    def band_partial(b: pa.Table) -> pa.Table:
        d2 = b["sq_dist"].to_numpy(zero_copy_only=False)
        band = np.where(d2 <= 1.0, 1, np.where(d2 <= 4.0, 2, 3))
        return pa.table({"r": pa.array(band.astype(np.int64), pa.int64())})

    agg = fold_table(pairs.map_batches(band_partial, batch_format="pyarrow"), "r", {"c": (None, "count")})
    counts = np.zeros(3, np.int64)
    if agg.num_rows:
        rb = agg["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = agg["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts[rb - 1] = cb
    cum = np.cumsum(counts)
    area = 360.0 * 140.0
    rows = []
    for i, r in enumerate((1, 2, 3)):
        k = float(
            area * np.float64(int(cum[i]))
            / (np.float64(n_d) * np.float64(n_e))
        )
        rows.append((r, int(cum[i]), k,
                     float(np.pi * np.float64(r) * np.float64(r))))
    return pa.table(
        {
            "r": pa.array([x[0] for x in rows], pa.int64()),
            "n_pairs": pa.array([x[1] for x in rows], pa.int64()),
            "k_ab": pa.array([x[2] for x in rows], pa.float64()),
            "csr_expect": pa.array([x[3] for x in rows], pa.float64()),
        }
    )


_QUADRAT_MILLI = 10000  # 10-degree quadrats, in milli-degrees
_QUADRAT_CELLS = 36 * 14  # fixed study frame [-180,180) x [-70,70)


@query(sql=f"""
WITH cells AS (
  SELECT ((doc_id * 7919) % 140000) // {_QUADRAT_MILLI} AS cx,
         ((doc_id * 104729) % 360000) // {_QUADRAT_MILLI} AS cy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS occupied,
         CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(c * c) AS BIGINT) AS sum_c2
  FROM cells)
SELECT CAST({_QUADRAT_CELLS} AS BIGINT) AS q_cells,
       n AS n_points,
       occupied AS occupied_cells,
       sum_c2,
       {_QUADRAT_CELLS} * sum_c2 - n * n AS vmr_num,
       {_QUADRAT_CELLS} * n AS vmr_den,
       CAST({_QUADRAT_CELLS} * sum_c2 - n * n AS DOUBLE)
         / CAST({_QUADRAT_CELLS} * n AS DOUBLE) AS vmr
FROM m
""")
def geo_quadrat_vmr(sf_dir: str):
    """QUADRAT-COUNT VARIANCE-TO-MEAN RATIO (the classic first-pass
    point-pattern test: partition the study frame into equal quadrats,
    count points per quadrat, VMR = 1 under CSR / > 1 clustered / < 1
    dispersed — the global single-number complement to geo_ripley_k's
    per-scale curve): cells come from EXACT integer milli-degree
    arithmetic (doc_id hash mod // 10000 — no float floor anywhere), one
    vectorized count_by_u64 over the 504 packed cells, and the driver
    folds the BOUNDED-BY-CONSTRUCTION <=504-row count table. EMPTY
    quadrats enter the variance as zeros via the moment identity over all
    Q cells: vmr = (Q*sum_c2 - n^2) / (Q*n) — the Ray-side fold uses
    Python ints (arbitrary precision, no overflow at any scale); the SQL
    mirror's BIGINT chain is the binding bound (Q*sum_c2 overflows at
    n ~ 1.35e8 docs in the worst all-one-cell case — DuckDB fails loud,
    the engine itself does not)."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def cell(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = ((doc_id * 7919) % 140000) // _QUADRAT_MILLI  # 0..13
        cy = ((doc_id * 104729) % 360000) // _QUADRAT_MILLI  # 0..35
        return pa.table(
            {"key": pa.array((cx * 36 + cy).astype(np.uint64), pa.uint64())}
        )

    t = _collect_table(
        count_by_u64(
            ds.map_batches(cell, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 504 rows by construction
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    q = _QUADRAT_CELLS
    n = int(c.sum())
    occupied = int(t.num_rows)
    sum_c2 = int((c * c).sum())
    vmr_num = q * sum_c2 - n * n  # Python ints: exact at every scale
    vmr_den = q * n
    return pa.table(
        {
            "q_cells": pa.array([q], pa.int64()),
            "n_points": pa.array([n], pa.int64()),
            "occupied_cells": pa.array([occupied], pa.int64()),
            "sum_c2": pa.array([sum_c2], pa.int64()),
            "vmr_num": pa.array([vmr_num], pa.int64()),
            "vmr_den": pa.array([vmr_den], pa.int64()),
            "vmr": pa.array(
                [float(np.float64(vmr_num) / np.float64(vmr_den))],
                pa.float64(),
            ),
        }
    )


_CE_RMAX = 2.0  # Clark-Evans censoring radius (degrees)


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
nn AS (
  SELECT a.doc_id,
         MIN((a.lat - b.lat) * (a.lat - b.lat)
               + (a.lon - b.lon) * (a.lon - b.lon)) AS d2
  FROM pts a JOIN pts b
    ON b.doc_id <> a.doc_id
   AND b.lat BETWEEN a.lat - {_CE_RMAX} AND a.lat + {_CE_RMAX}
   AND b.lon BETWEEN a.lon - {_CE_RMAX} AND a.lon + {_CE_RMAX}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon) <= {_CE_RMAX * _CE_RMAX}
  GROUP BY a.doc_id),
q AS (
  SELECT CAST(ROUND(SQRT(d2) * 1000000.0) AS BIGINT) AS micro FROM nn),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_obs,
         CAST(SUM(micro) AS BIGINT) AS s FROM q),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts)
SELECT t.n AS n_points,
       t.n - m.n_obs AS n_censored,
       m.s AS sum_nn_micro,
       CAST(m.s AS DOUBLE) / CAST(NULLIF(m.n_obs, 0) AS DOUBLE)
         / 1000000.0 AS mean_nn_deg,
       CAST(m.s AS DOUBLE) / CAST(NULLIF(m.n_obs, 0) AS DOUBLE)
         / 1000000.0
         / (0.5 / SQRT(CAST(t.n AS DOUBLE) / 50400.0)) AS r_index
FROM m CROSS JOIN t
""")
def geo_clark_evans(sf_dir: str):
    """CLARK-EVANS NEAREST-NEIGHBOR INDEX, censored at rmax (the third
    classic point-pattern test, completing geo_ripley_k's per-scale curve
    and geo_quadrat_vmr's quadrat ratio with the NN-distance view: R =
    mean observed 1-NN distance / CSR expectation 0.5/sqrt(n/A); R < 1
    clustered, R > 1 dispersed): exact per-doc nearest-neighbor distance
    within rmax from ONE distance-band shuffle (each emitted pair feeds
    BOTH endpoints' minima), per-doc min via min_by_u64 on the
    ORDER-PRESERVING IEEE bit pattern (non-negative float64 bit-cast to
    u64 is monotone — no quantization in the min itself), then NN
    distances quantized to integer micro-degrees (sql_round_np == DuckDB
    ROUND) so the final mean is an order-free INTEGER sum; docs with no
    neighbor within rmax are CENSORED (counted, excluded — documented,
    mirrored; at production density rmax is a few mean spacings so pairs
    stay O(n), the band join's documented contract)."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def shape(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    n = docs.count()
    pairs = distance_pairs(
        docs.map_batches(shape, batch_format="pyarrow"), _CE_RMAX
    )

    def both_ends(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bb = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d2 = b["sq_dist"].to_numpy(zero_copy_only=False)
        bits = d2.view(np.uint64)  # monotone for non-negative float64
        return pa.table(
            {
                "key": pa.array(np.concatenate([a, bb]), pa.uint64()),
                "val": pa.array(np.concatenate([bits, bits]), pa.uint64()),
            }
        )

    mins = min_by_u64(
        pairs.map_batches(both_ends, batch_format="pyarrow",
                          batch_size=131072),
        "key", "val",
    )

    def partial(b: pa.Table) -> pa.Table:
        d2 = b["val"].to_numpy(zero_copy_only=False).astype(np.uint64).view(
            np.float64
        )
        return pa.table({"s": sql_round_np(np.sqrt(d2) * 1e6, 0).astype(np.int64)})

    agg = fold_table(
        mins.map_batches(partial, batch_format="pyarrow", batch_size=131072),
        [],
        {"n_obs": (None, "count"), "s": ("s", "sum")},
    )
    n_obs = int(agg["n_obs"][0].as_py()) if agg.num_rows else 0
    s = int(agg["s"][0].as_py()) if agg.num_rows else 0
    if n_obs == 0:
        return pa.table(
            {
                "n_points": pa.array([n], pa.int64()),
                "n_censored": pa.array([n], pa.int64()),
                "sum_nn_micro": pa.array([None], pa.int64()),
                "mean_nn_deg": pa.array([None], pa.float64()),
                "r_index": pa.array([None], pa.float64()),
            }
        )
    mean_nn = float(np.float64(s) / np.float64(n_obs) / 1000000.0)
    r_index = float(
        np.float64(mean_nn)
        / (0.5 / np.sqrt(np.float64(n) / 50400.0))
    )
    return pa.table(
        {
            "n_points": pa.array([n], pa.int64()),
            "n_censored": pa.array([n - n_obs], pa.int64()),
            "sum_nn_micro": pa.array([s], pa.int64()),
            "mean_nn_deg": pa.array([mean_nn], pa.float64()),
            "r_index": pa.array([r_index], pa.float64()),
        }
    )


@query(sql=f"""
WITH px AS (
  SELECT CAST(FLOOR({GEO_LON_SQL}) AS BIGINT) + 180 AS gx,
         CAST(FLOOR({GEO_LAT_SQL}) AS BIGINT) + 70 AS gy
  FROM documents),
py AS (
  SELECT CAST(FLOOR({GEO_LON_SQL.replace('doc_id', 'event_id')}) AS BIGINT)
           + 180 AS gx,
         CAST(FLOOR({GEO_LAT_SQL.replace('doc_id', 'event_id')}) AS BIGINT)
           + 70 AS gy
  FROM events),
cx AS (
  SELECT gy * {_MORAN_NLON} + gx AS cell, gx, gy, COUNT(*) AS x
  FROM px GROUP BY 1, 2, 3),
cy AS (
  SELECT gy * {_MORAN_NLON} + gx AS cell, gx, gy, COUNT(*) AS y
  FROM py GROUP BY 1, 2, 3),
adj AS (
  SELECT CAST(COALESCE(SUM(a.x * b.y), 0) AS BIGINT) AS s_adj
  FROM cx a JOIN cy b
    ON (b.cell = a.cell + 1 AND a.gx < {_MORAN_NLON - 1})
    OR (b.cell = a.cell - 1 AND a.gx > 0)
    OR (b.cell = a.cell + {_MORAN_NLON} AND a.gy < {_MORAN_NLAT - 1})
    OR (b.cell = a.cell - {_MORAN_NLON} AND a.gy > 0)),
mx AS (
  SELECT CAST(SUM(x) AS BIGINT) AS t, CAST(SUM(x * x) AS BIGINT) AS sq,
         CAST(SUM(((CASE WHEN gx > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gx < {_MORAN_NLON - 1} THEN 1 ELSE 0 END)
                   + (CASE WHEN gy > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gy < {_MORAN_NLAT - 1} THEN 1 ELSE 0 END)) * x)
              AS BIGINT) AS sdeg
  FROM cx),
my AS (
  SELECT CAST(SUM(y) AS BIGINT) AS t, CAST(SUM(y * y) AS BIGINT) AS sq,
         CAST(SUM(((CASE WHEN gx > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gx < {_MORAN_NLON - 1} THEN 1 ELSE 0 END)
                   + (CASE WHEN gy > 0 THEN 1 ELSE 0 END)
                   + (CASE WHEN gy < {_MORAN_NLAT - 1} THEN 1 ELSE 0 END)) * y)
              AS BIGINT) AS sdeg
  FROM cy),
k AS (
  SELECT CAST({_MORAN_NLON * _MORAN_NLAT} AS BIGINT) AS n,
         CAST({2 * (_MORAN_NLAT * (_MORAN_NLON - 1) + (_MORAN_NLAT - 1) * _MORAN_NLON)}
              AS BIGINT) AS w)
SELECT k.n AS n_cells, k.w AS w_ord, mx.t AS t_docs, my.t AS t_events,
       adj.s_adj AS s_adj_xy,
       k.n * mx.sq - mx.t * mx.t AS ax,
       k.n * my.sq - my.t * my.t AS ay,
       k.n * k.n * adj.s_adj - k.n * my.t * mx.sdeg
         - k.n * mx.t * my.sdeg + k.w * mx.t * my.t AS num,
       (CAST(k.n AS DOUBLE) / CAST(k.w AS DOUBLE))
         * (CAST(k.n * k.n * adj.s_adj - k.n * my.t * mx.sdeg
                 - k.n * mx.t * my.sdeg + k.w * mx.t * my.t AS DOUBLE)
            / (CAST(k.n AS DOUBLE)
               * SQRT(CAST(NULLIF(k.n * mx.sq - mx.t * mx.t, 0) AS DOUBLE))
               * SQRT(CAST(NULLIF(k.n * my.sq - my.t * my.t, 0) AS DOUBLE))))
         AS moran_xy
FROM k, mx, my, adj
""")
def geo_bivariate_moran(sf_dir: str):
    """BIVARIATE MORAN'S I (Anselin's cross-variable spatial correlation:
    "is DOCUMENT density high where neighboring EVENT density is high" —
    the univariate geo_moran_i sees only one layer): 1-degree raster,
    rook weights over ORDERED adjacent pairs (W = 2 * unordered), and the
    same all-integer closed form as geo_moran_i — deviations scale to
    integers (zx_i*N = x_i*N - Tx), so

      num*N^2 = N^2*S_adj(x_i y_j) - N*Ty*S(deg_i x_i)
                - N*Tx*S(deg_j y_j) + W*Tx*Ty

    over OCCUPIED cells only (empty cells' contribution is analytic,
    never materialized), and I_xy = (N/W) * num / (N * sqrt(Ax) *
    sqrt(Ay)) with Ax = N*S(x^2) - Tx^2 — two correctly-rounded sqrts of
    exact integers, one fixed double chain, bit-equal to the SQL. Shape:
    two combiner groupbys (doc cells, event cells) are the only
    distributed passes over the unbounded corpus; both RESULT tables are
    bounded by the FIXED 50,400-cell frame BY CONSTRUCTION (the
    geo_quadrat_vmr contract), so the remaining algebra — per-axis
    scalars and the 4-direction S_adj(x_i y_j) lookup (ordered edges need
    all four directions; the bivariate product is not symmetric) — folds
    driver-side in numpy instead of paying four more serial dataset
    executions. The cell counts themselves go through count_by_u64, not
    Ray's native groupby-aggregate (the documented ~33 us/row trap —
    measured 9.6 -> 1.8 s warm at sf0.1 for this query). Same ~10^5
    docs/cell int64 bound as geo_moran_i."""
    nlon, nlat = _MORAN_NLON, _MORAN_NLAT
    n = nlon * nlat
    w_ord = 2 * (nlat * (nlon - 1) + (nlat - 1) * nlon)

    def cell_counts(ds, id_col: str):
        def keyed(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False)
            lat, lon = _derive_coords(ids)
            gx = np.floor(lon).astype(np.int64) + 180
            gy = np.floor(lat).astype(np.int64) + 70
            return pa.table(
                {"key": pa.array((gy * nlon + gx).astype(np.uint64),
                                 pa.uint64())}
            )

        t = _collect_table(  # <= 50400 rows by construction
            count_by_u64(
                ds.map_batches(keyed, batch_format="pyarrow",
                               batch_size=65536),
                "key",
            )
        )
        return (
            t["key"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
        )

    xcell, x = cell_counts(_read(sf_dir, "documents", ["doc_id"]), "doc_id")
    ycell, y = cell_counts(_read(sf_dir, "events", ["event_id"]), "event_id")

    def axis_scalars(cell, v):
        gx = cell % nlon
        gy = cell // nlon
        deg = (
            (gx > 0).astype(np.int64) + (gx < nlon - 1)
            + (gy > 0) + (gy < nlat - 1)
        )
        return int(v.sum()), int((v * v).sum()), int((deg * v).sum())

    tx, sqx, degx = axis_scalars(xcell, x)
    ty, sqy, degy = axis_scalars(ycell, y)

    # S_adj(x_i y_j) over ORDERED edges: 4-direction probes from x looked
    # up in y via searchsorted (both arrays sorted <=50400-cell tables)
    yorder = np.argsort(ycell)
    ycell_s, y_s = ycell[yorder], y[yorder]
    gx = xcell % nlon
    gy = xcell // nlon
    nb = np.concatenate(
        [
            np.where(gx < nlon - 1, xcell + 1, -1),
            np.where(gx > 0, xcell - 1, -1),
            np.where(gy < nlat - 1, xcell + nlon, -1),
            np.where(gy > 0, xcell - nlon, -1),
        ]
    )
    xx = np.concatenate([x, x, x, x])
    keep = nb >= 0
    nb, xx = nb[keep], xx[keep]
    pos = np.searchsorted(ycell_s, nb)
    pos_ok = (pos < len(ycell_s))
    pos_c = np.minimum(pos, len(ycell_s) - 1) if len(ycell_s) else pos
    hit = pos_ok & (len(ycell_s) > 0)
    if len(ycell_s):
        hit &= ycell_s[pos_c] == nb
    s_adj = int((xx[hit] * y_s[pos_c[hit]]).sum()) if len(ycell_s) else 0

    num = n * n * s_adj - n * ty * degx - n * tx * degy + w_ord * tx * ty
    ax = n * sqx - tx * tx
    ay = n * sqy - ty * ty
    if ax == 0 or ay == 0:
        moran = None
    else:
        den = float(
            np.float64(n) * np.sqrt(np.float64(ax)) * np.sqrt(np.float64(ay))
        )
        moran = float(
            (np.float64(n) / np.float64(w_ord)) * (np.float64(num) / den)
        )
    return pa.table(
        {
            "n_cells": pa.array([n], pa.int64()),
            "w_ord": pa.array([w_ord], pa.int64()),
            "t_docs": pa.array([tx], pa.int64()),
            "t_events": pa.array([ty], pa.int64()),
            "s_adj_xy": pa.array([s_adj], pa.int64()),
            "ax": pa.array([ax], pa.int64()),
            "ay": pa.array([ay], pa.int64()),
            "num": pa.array([num], pa.int64()),
            "moran_xy": pa.array([moran], pa.float64()),
        }
    )


_CORR_LAGS = (1, 2, 3, 4)  # Moran correlogram Chebyshev lags


@query(sql=f"""
WITH pts AS (
  SELECT CAST(FLOOR({GEO_LON_SQL}) AS BIGINT) + 180 AS gx,
         CAST(FLOOR({GEO_LAT_SQL}) AS BIGINT) + 70 AS gy
  FROM documents),
cells AS (
  SELECT gy * {_MORAN_NLON} + gx AS cell, gx, gy,
         CAST(COUNT(*) AS BIGINT) AS x
  FROM pts GROUP BY 1, 2, 3),
sc AS (
  SELECT CAST(SUM(x) AS BIGINT) AS t, CAST(SUM(x * x) AS BIGINT) AS sum_sq
  FROM cells),
lags AS (SELECT UNNEST([1, 2, 3, 4]) AS k),
offs AS (
  SELECT l.k, dx.o AS dx, dy.o AS dy
  FROM lags l,
       (SELECT UNNEST(range(-4, 5)) AS o) dx,
       (SELECT UNNEST(range(-4, 5)) AS o) dy
  WHERE GREATEST(ABS(dx.o), ABS(dy.o)) = l.k
    AND (dx.o > 0 OR (dx.o = 0 AND dy.o > 0))),
wk AS (
  SELECT k, CAST(SUM(({_MORAN_NLON} - ABS(dx))
                     * ({_MORAN_NLAT} - ABS(dy))) AS BIGINT) AS w_pairs
  FROM offs GROUP BY 1),
adj AS (
  SELECT o.k, CAST(COALESCE(SUM(a.x * b.x), 0) AS BIGINT) AS s_adj
  FROM offs o
  JOIN cells a ON a.gx + o.dx BETWEEN 0 AND {_MORAN_NLON - 1}
              AND a.gy + o.dy BETWEEN 0 AND {_MORAN_NLAT - 1}
  JOIN cells b ON b.cell = a.cell + o.dy * {_MORAN_NLON} + o.dx
  GROUP BY 1),
degx AS (
  SELECT l.k,
         CAST(SUM(((LEAST(c.gx + l.k, {_MORAN_NLON - 1})
                    - GREATEST(c.gx - l.k, 0) + 1)
                   * (LEAST(c.gy + l.k, {_MORAN_NLAT - 1})
                      - GREATEST(c.gy - l.k, 0) + 1)
                   - (LEAST(c.gx + l.k - 1, {_MORAN_NLON - 1})
                      - GREATEST(c.gx - l.k + 1, 0) + 1)
                     * (LEAST(c.gy + l.k - 1, {_MORAN_NLAT - 1})
                        - GREATEST(c.gy - l.k + 1, 0) + 1)) * c.x)
              AS BIGINT) AS s_deg_x
  FROM lags l CROSS JOIN cells c GROUP BY 1),
k_ AS (SELECT CAST({_MORAN_NLON * _MORAN_NLAT} AS BIGINT) AS n)
SELECT CAST(w.k AS BIGINT) AS lag, w.w_pairs,
       CAST(COALESCE(adj.s_adj, 0) AS BIGINT) AS s_adj, degx.s_deg_x,
       k_.n * k_.n * COALESCE(adj.s_adj, 0) - k_.n * sc.t * degx.s_deg_x
         + w.w_pairs * sc.t * sc.t AS num,
       (CAST(k_.n AS DOUBLE) / CAST(w.w_pairs AS DOUBLE))
         * (CAST(k_.n * k_.n * COALESCE(adj.s_adj, 0)
                 - k_.n * sc.t * degx.s_deg_x
                 + w.w_pairs * sc.t * sc.t AS DOUBLE)
            / CAST(k_.n * k_.n * sc.sum_sq - k_.n * sc.t * sc.t AS DOUBLE))
         AS moran_i
FROM wk w
LEFT JOIN adj ON adj.k = w.k
JOIN degx ON degx.k = w.k, k_, sc
""")
def geo_correlogram(sf_dir: str):
    """MORAN CORRELOGRAM — Moran's I at Chebyshev lag rings 1-4 over the
    1-degree doc-density raster ("at what DISTANCE does spatial structure
    die out" — geo_moran_i gives one number at lag 1; the correlogram is
    the multi-scale curve, the autocorrelation sibling of geo_ripley_k's
    K curve and geo_semivariogram's variogram). All-integer closed form
    per lag over UNORDERED ring pairs: the ring degree has an exact
    clipped-box identity deg_k(i) = |box_k(i)| - |box_(k-1)(i)| (so empty
    cells never materialize), the total ring weight W_k is the exact
    offset sum of (nlon-|dx|)*(nlat-|dy|), S_adj_k folds over the <=4k
    half-ring offsets, and I_k = (N/W_k) * num_k / den is geo_moran_i's
    fixed int->double chain per lag. ONE distributed pass total (the
    count_by_u64 cell counts); everything after folds driver-side over
    the frame-bounded <=50,400-row cell table (the geo_bivariate_moran
    contract). Same ~10^5 docs/cell int64 bound as geo_moran_i."""
    nlon, nlat = _MORAN_NLON, _MORAN_NLAT
    n = nlon * nlat

    def keyed(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False)
        lat, lon = _derive_coords(doc_id)
        gx = np.floor(lon).astype(np.int64) + 180
        gy = np.floor(lat).astype(np.int64) + 70
        return pa.table(
            {"key": pa.array((gy * nlon + gx).astype(np.uint64), pa.uint64())}
        )

    t_ = _collect_table(  # <= 50400 rows by construction
        count_by_u64(
            _read(sf_dir, "documents", ["doc_id"])
            .map_batches(keyed, batch_format="pyarrow", batch_size=65536),
            "key",
        )
    )
    cell = t_["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    x = t_["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(cell)
    cell, x = cell[order], x[order]
    gx = cell % nlon
    gy = cell // nlon
    t = int(x.sum())
    sum_sq = int((x * x).sum())
    den = n * n * sum_sq - n * t * t

    rows = []
    for k in _CORR_LAGS:
        # exact clipped-box ring degree per occupied cell
        def box(r):
            w = (np.minimum(gx + r, nlon - 1) - np.maximum(gx - r, 0) + 1)
            h = (np.minimum(gy + r, nlat - 1) - np.maximum(gy - r, 0) + 1)
            return w * h

        deg = box(k) - box(k - 1)
        s_degx = int((deg * x).sum())
        # half-ring offsets (dx > 0, or dx == 0 and dy > 0): each unordered
        # pair at Chebyshev distance k counted exactly once
        offs = [
            (dx, dy)
            for dx in range(-k, k + 1)
            for dy in range(-k, k + 1)
            if max(abs(dx), abs(dy)) == k
            and (dx > 0 or (dx == 0 and dy > 0))
        ]
        w_k = sum((nlon - abs(dx)) * (nlat - abs(dy)) for dx, dy in offs)
        s_adj = 0
        for dx, dy in offs:
            ok = (
                (gx + dx >= 0) & (gx + dx < nlon)
                & (gy + dy >= 0) & (gy + dy < nlat)
            )
            nb = cell[ok] + dy * nlon + dx
            pos = np.searchsorted(cell, nb)
            pos_ok = pos < len(cell)
            pos_c = np.minimum(pos, len(cell) - 1)
            hit = pos_ok & (cell[pos_c] == nb)
            s_adj += int((x[ok][hit] * x[pos_c[hit]]).sum())
        num = n * n * s_adj - n * t * s_degx + w_k * t * t
        moran = (float(n) / float(w_k)) * (float(num) / float(den))
        rows.append((k, w_k, s_adj, s_degx, num, moran))
    return pa.table(
        {
            "lag": pa.array([r[0] for r in rows], pa.int64()),
            "w_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "s_adj": pa.array([r[2] for r in rows], pa.int64()),
            "s_deg_x": pa.array([r[3] for r in rows], pa.int64()),
            "num": pa.array([r[4] for r in rows], pa.int64()),
            "moran_i": pa.array([r[5] for r in rows], pa.float64()),
        }
    )


_WEISZFELD_ITERS = 5
_WEISZFELD_EPS = 1e-3  # singularity guard (degrees): points this close skip


def _weiszfeld_sql() -> str:
    """Chained-CTE mirror: iteration t scans pts against the (t-1) center
    scalar; MATERIALIZED so DuckDB never inlines the chain exponentially
    (the GEO_ISOCHRONE_SQL lesson)."""
    head = f"""
WITH pts AS (
  SELECT (doc_id * 7919) % 140000 - 70000 AS lm,
         (doc_id * 104729) % 360000 - 180000 AS om,
         {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
it0 AS (SELECT 0.0 AS clat, 0.0 AS clon)"""
    body = ""
    for t in range(1, _WEISZFELD_ITERS + 1):
        body += f""",
s{t} AS MATERIALIZED (
  SELECT CAST(SUM(w * lm) AS BIGINT) AS s_lat,
         CAST(SUM(w * om) AS BIGINT) AS s_lon,
         CAST(SUM(w) AS BIGINT) AS s_w,
         CAST(SUM(skip) AS BIGINT) AS n_skip
  FROM (
    SELECT p.lm, p.om,
           CASE WHEN d >= {_WEISZFELD_EPS}
                THEN CAST(ROUND(1000000000.0 / d) AS BIGINT)
                ELSE 0 END AS w,
           CASE WHEN d >= {_WEISZFELD_EPS} THEN 0 ELSE 1 END AS skip
    FROM (
      SELECT p.lm, p.om,
             SQRT((p.lat - i.clat) * (p.lat - i.clat)
                  + (p.lon - i.clon) * (p.lon - i.clon)) AS d
      FROM pts p, it{t - 1} i) p)),
it{t} AS (
  SELECT ROUND(CAST(s_lat AS DOUBLE) / CAST(s_w AS DOUBLE) / 1000.0, 6)
           AS clat,
         ROUND(CAST(s_lon AS DOUBLE) / CAST(s_w AS DOUBLE) / 1000.0, 6)
           AS clon
  FROM s{t})"""
    tail = f"""
SELECT CAST({_WEISZFELD_ITERS} AS BIGINT) AS iters,
       it{_WEISZFELD_ITERS}.clat AS median_lat,
       it{_WEISZFELD_ITERS}.clon AS median_lon,
       s{_WEISZFELD_ITERS}.s_w AS s_w_final,
       s{_WEISZFELD_ITERS}.n_skip AS n_skip_final
FROM it{_WEISZFELD_ITERS}, s{_WEISZFELD_ITERS}
"""
    return head + body + tail




@query(sql=_weiszfeld_sql())
def geo_geometric_median(sf_dir: str):
    """GEOMETRIC MEDIAN by Weiszfeld iteration (the robust center: the
    point minimizing the SUM of distances — the L2 mean geo_std_ellipse
    reports is pulled by outliers, the geometric median is not; facility
    location's 1-median): {I} fixed iterations from c0 = (0, 0), each a
    distributed weighted mean with the ITERATIVE-EXACTNESS contract the
    engine's other fixed-point ops pin (kmeans rounds centers to 6dp per
    iteration, pagerank to 1e-12): distances to the CURRENT center are
    bit-equal doubles (exact milli-degree points, center pinned to 6dp),
    per-point weights quantize to integers w = ROUND(1e9/d) so the
    numerator/denominator sums are ORDER-FREE integer sums (milli-degree
    coords x integer weights), and the new center is two exact divisions
    rounded to 6dp — bit-equal to the SQL's chained MATERIALIZED-CTE
    iterations. Points within {eps} deg of the center skip (the standard
    Weiszfeld singularity handling, mirrored). int64 bound: sum(w*|lm|)
    <= n * 1e12 * 1.8e5 only under adversarial total concentration; at
    uniform density terms are ~1e13 (documented contract, same class as
    geo_moran_i). One map_batches partial + tiny groupby per iteration —
    {I} passes total, constant driver state."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    clat, clon = 0.0, 0.0
    out_sw = out_skip = 0
    for _ in range(_WEISZFELD_ITERS):

        def partial(b: pa.Table, clat=clat, clon=clon) -> pa.Table:
            doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(
                np.int64)
            lm = (doc_id * 7919) % 140000 - 70000
            om = (doc_id * 104729) % 360000 - 180000
            lat = lm / 1000.0
            lon = om / 1000.0
            dla = lat - clat
            dlo = lon - clon
            d = np.sqrt(dla * dla + dlo * dlo)
            ok = d >= _WEISZFELD_EPS
            w = np.zeros(len(d), np.int64)
            w[ok] = sql_round_np(1e9 / d[ok], 0).astype(np.int64)
            return pa.table({"s_lat": w * lm, "s_lon": w * om, "s_w": w, "n_skip": ~ok})

        agg = fold_table(
            ds.map_batches(partial, batch_format="pyarrow", batch_size=131072),
            [],
            {c: (c, "sum") for c in ("s_lat", "s_lon", "s_w", "n_skip")},
        )
        s_lat = int(agg["s_lat"][0].as_py())
        s_lon = int(agg["s_lon"][0].as_py())
        out_sw = int(agg["s_w"][0].as_py())
        out_skip = int(agg["n_skip"][0].as_py())
        clat = float(sql_round_np(
            np.float64(s_lat) / np.float64(out_sw) / 1000.0, 6))
        clon = float(sql_round_np(
            np.float64(s_lon) / np.float64(out_sw) / 1000.0, 6))
    return pa.table(
        {
            "iters": pa.array([_WEISZFELD_ITERS], pa.int64()),
            "median_lat": pa.array([clat], pa.float64()),
            "median_lon": pa.array([clon], pa.float64()),
            "s_w_final": pa.array([out_sw], pa.int64()),
            "n_skip_final": pa.array([out_skip], pa.int64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT event_type,
         ((event_id * 104729) % 360000) // {_GE_CELL_MILLI} AS gx,
         ((event_id * 7919) % 140000) // {_GE_CELL_MILLI} AS gy
  FROM events),
cc AS (SELECT gx, gy, event_type, CAST(COUNT(*) AS BIGINT) AS c
       FROM pts GROUP BY 1, 2, 3),
per AS (
  SELECT gx, gy, CAST(SUM(c) AS BIGINT) AS n,
         CAST(SUM(c * c) AS BIGINT) AS sq
  FROM cc GROUP BY 1, 2)
SELECT gx, gy, n AS n_events, sq AS sumsq,
       CAST(sq AS DOUBLE) / CAST(n * n AS DOUBLE) AS hhi
FROM per
""")
def geo_type_hhi(sf_dir: str):
    """HERFINDAHL-HIRSCHMAN INDEX of event-type concentration per 10-deg
    cell (the antitrust-standard concentration ratio applied to behavior
    mix: 1 = single-activity cell, 1/k = perfectly mixed): HHI =
    sum(c_t^2)/n^2 is EXACTLY rational — integer numerator/denominator
    from one packed (cell, type) count pass (bounded), one double
    division; no quantizer anywhere (the Simpson-index trick on squared
    shares)."""
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

    t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= types x 504 rows by construction
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    cell = (key & np.uint64((1 << 16) - 1)).astype(np.int64)
    cells = np.unique(cell)
    pos = np.searchsorted(cells, cell)
    n_c = np.zeros(len(cells), np.int64)
    sq = np.zeros(len(cells), np.int64)
    np.add.at(n_c, pos, c)
    np.add.at(sq, pos, c * c)
    return pa.table(
        {
            "gx": pa.array(cells // 1024, pa.int64()),
            "gy": pa.array(cells % 1024, pa.int64()),
            "n_events": pa.array(n_c, pa.int64()),
            "sumsq": pa.array(sq, pa.int64()),
            "hhi": pa.array(
                sq.astype(np.float64) / (n_c * n_c).astype(np.float64),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
cc AS (
  SELECT mlon // 1000 AS gx, mlat // 1000 AS gy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts GROUP BY 1, 2),
top AS (
  SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, gx, gy) AS rank
  FROM cc ORDER BY c DESC, gx, gy LIMIT 50),
q AS (
  SELECT CAST(ROUND(LOG2(CAST(rank AS DOUBLE)) * 1000000.0, 0) AS BIGINT)
           AS x,
         CAST(ROUND(LOG2(CAST(c AS DOUBLE)) * 1000000.0, 0) AS BIGINT) AS y
  FROM top),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k, CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy, CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM q),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_cells FROM cc)
SELECT n.n_cells, m.k AS n_ranks, k * sxy - sx * sy AS slope_num,
       k * sxx - sx * sx AS slope_den,
       CAST(k * sxy - sx * sy AS DOUBLE)
         / CAST(k * sxx - sx * sx AS DOUBLE) AS rank_size_slope
FROM m, n
""")
def geo_rank_size(sf_dir: str):
    """URBAN RANK-SIZE RULE (Zipf's law for settlement sizes): the
    least-squares slope of log2(cell population) on log2(rank) over the
    top-50 most-populated 1-degree cells of the city-skewed contact
    model — the canonical spatial-hierarchy statistic (a natural urban
    system sits near -1; flatter means the hierarchy is missing, steeper
    means one primate city dominates). The spatial sibling of
    doc_zipf_fit's vocabulary law. Plan: cell ids come from the EXACT
    integer milli-degree contact lattice (the float -60/-170 offsets are
    pure translations, so gridding the integer sums directly is the same
    partition — and keeps both sides float-free until the logs); one
    packed count_by_u64 pass (cells geometry-bounded), driver ranks the
    bounded table (count desc, cell asc — defensive: equal counts
    contribute identical y to the fit) and runs the doc_zipf_fit
    micro-bit regression: logs quantized to integer micro-bits
    (sql_round_np == DuckDB ROUND), moments exact integer sums, slope =
    ONE double division. At 100 TB the count pass is the only corpus
    touch; everything after is <=50 rows."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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
        key = ((mlon // 1000) * 1024 + (mlat // 1000)).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # bounded by the lattice geometry (~12 city blobs of 1-deg cells)
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    gx = (key // np.uint64(1024)).astype(np.int64)
    gy = (key % np.uint64(1024)).astype(np.int64)
    order = np.lexsort((gy, gx, -c))
    c = c[order]
    n_cells = len(c)
    k = min(50, n_cells)
    c = c[:k]
    rank = np.arange(1, k + 1, dtype=np.int64)
    x = sql_round_np(np.log2(rank.astype(np.float64)) * 1000000.0, 0).astype(
        np.int64
    )
    y = sql_round_np(np.log2(c.astype(np.float64)) * 1000000.0, 0).astype(
        np.int64
    )
    sx, sy = int(x.sum()), int(y.sum())
    sxy = int((x * y).sum())
    sxx = int((x * x).sum())
    num = k * sxy - sx * sy
    den = k * sxx - sx * sx
    return pa.table(
        {
            "n_cells": pa.array([n_cells], pa.int64()),
            "n_ranks": pa.array([k], pa.int64()),
            "slope_num": pa.array([num], pa.int64()),
            "slope_den": pa.array([den], pa.int64()),
            "rank_size_slope": pa.array(
                [float(np.float64(num) / np.float64(den))], pa.float64()
            ),
        }
    )


@query(sql="""
WITH RECURSIVE
pts AS (
  SELECT ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
cc AS (
  SELECT mlon // 1000 AS gx, mlat // 1000 AS gy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts GROUP BY 1, 2),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS nc, CAST(SUM(c) AS BIGINT) AS tot
      FROM cc),
taus AS (
  SELECT 1 AS ti, CAST(1 AS BIGINT) AS tau FROM g
  UNION ALL SELECT 2, GREATEST(tot // nc // 4, 1) FROM g
  UNION ALL SELECT 3, GREATEST(tot // nc // 2, 1) FROM g
  UNION ALL SELECT 4, GREATEST(tot // nc, 1) FROM g),
occ AS (
  SELECT t.ti, t.tau, cc.gx, cc.gy,
         CAST(t.ti AS BIGINT) * 1099511627776 + cc.gx * 1024 + cc.gy AS k
  FROM cc, taus t WHERE cc.c >= t.tau),
e0 AS (
  SELECT a.k AS u, b.k AS v FROM occ a JOIN occ b
    ON a.ti = b.ti
   AND ((b.gx = a.gx + 1 AND b.gy = a.gy)
     OR (b.gx = a.gx AND b.gy = a.gy + 1))),
e AS (SELECT u, v FROM e0 UNION SELECT v, u FROM e0),
reach(node, comp) AS (
  SELECT k, k FROM occ
  UNION
  SELECT e.u, r.comp FROM e JOIN reach r ON r.node = e.v),
lab AS (SELECT node, MIN(comp) AS comp FROM reach GROUP BY node),
comps AS (
  SELECT occ.ti, occ.tau, lab.comp, CAST(COUNT(*) AS BIGINT) AS sz
  FROM occ JOIN lab ON lab.node = occ.k GROUP BY 1, 2, 3),
per AS (
  SELECT ti, tau, CAST(SUM(sz) AS BIGINT) AS n_occupied,
         CAST(COUNT(*) AS BIGINT) AS n_clusters,
         CAST(MAX(sz) AS BIGINT) AS largest
  FROM comps GROUP BY 1, 2)
SELECT CAST(ti AS BIGINT) AS thr_idx, tau, n_occupied, n_clusters, largest,
       CAST(largest AS DOUBLE) / CAST(n_occupied AS DOUBLE) AS giant_frac
FROM per ORDER BY 1
""")
def geo_percolation(sf_dir: str):
    """OCCUPANCY-THRESHOLD PERCOLATION PROFILE (does the settled area
    form one connected landmass or an archipelago, and at what density
    does the giant component break up?): sweep four occupancy thresholds
    tau in {1, avg/4, avg/2, avg} (avg = FLOOR-mean cell count — exact
    integers both sides), keep cells with count >= tau, and report the
    rook-connected component census per tau — occupied cells, cluster
    count, largest cluster, giant fraction. The tile_regions CC machinery
    turned into the statistical-physics curve. Plan: ONE packed count
    pass over the contact lattice (cells geometry-bounded), then a
    driver union-find over the <=4x|cells| bounded node set; at 100 TB
    the count pass is the only corpus touch. The tau=max(avg,1) row is
    always non-empty (max cell count >= floor mean)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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
        key = ((mlon // 1000) * 1024 + (mlat // 1000)).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # bounded by the lattice geometry
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    gx = (key // np.uint64(1024)).astype(np.int64)
    gy = (key % np.uint64(1024)).astype(np.int64)
    nc, tot = len(c), int(c.sum())
    if nc == 0:
        return pa.table(
            {
                "thr_idx": pa.array([], pa.int64()),
                "tau": pa.array([], pa.int64()),
                "n_occupied": pa.array([], pa.int64()),
                "n_clusters": pa.array([], pa.int64()),
                "largest": pa.array([], pa.int64()),
                "giant_frac": pa.array([], pa.float64()),
            }
        )
    avg = tot // nc
    taus = [1, max(avg // 4, 1), max(avg // 2, 1), max(avg, 1)]

    out = {k: [] for k in ("ti", "tau", "occ", "ncl", "big")}
    for ti, tau in enumerate(taus, start=1):
        m = c >= tau
        ox, oy = gx[m], gy[m]
        n = len(ox)
        if n == 0:
            continue
        cell2i = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(ox, oy))}
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for (a, b), i in cell2i.items():
            for nb in ((a + 1, b), (a, b + 1)):
                j = cell2i.get(nb)
                if j is not None:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        roots = np.array([find(i) for i in range(n)], np.int64)
        _, sizes = np.unique(roots, return_counts=True)
        out["ti"].append(ti)
        out["tau"].append(tau)
        out["occ"].append(n)
        out["ncl"].append(len(sizes))
        out["big"].append(int(sizes.max()))
    return pa.table(
        {
            "thr_idx": pa.array(out["ti"], pa.int64()),
            "tau": pa.array(out["tau"], pa.int64()),
            "n_occupied": pa.array(out["occ"], pa.int64()),
            "n_clusters": pa.array(out["ncl"], pa.int64()),
            "largest": pa.array(out["big"], pa.int64()),
            "giant_frac": pa.array(
                [
                    float(np.float64(b) / np.float64(o))
                    for b, o in zip(out["big"], out["occ"])
                ],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(mlat) AS BIGINT) AS sla,
         CAST(SUM(mlon) AS BIGINT) AS slo
  FROM pts),
ctr AS (SELECT n, sla // n AS cmlat, slo // n AS cmlon FROM g),
d AS (
  SELECT 2.0 * 6371.0088 * ASIN(SQRT(
           SIN(RADIANS((CAST(p.mlat AS DOUBLE) / 1000.0 - 61.5)
                       - (CAST(c.cmlat AS DOUBLE) / 1000.0 - 61.5)) / 2.0)
           * SIN(RADIANS((CAST(p.mlat AS DOUBLE) / 1000.0 - 61.5)
                         - (CAST(c.cmlat AS DOUBLE) / 1000.0 - 61.5)) / 2.0)
           + COS(RADIANS(CAST(c.cmlat AS DOUBLE) / 1000.0 - 61.5))
             * COS(RADIANS(CAST(p.mlat AS DOUBLE) / 1000.0 - 61.5))
             * SIN(RADIANS((CAST(p.mlon AS DOUBLE) / 1000.0 - 171.5)
                           - (CAST(c.cmlon AS DOUBLE) / 1000.0 - 171.5)) / 2.0)
             * SIN(RADIANS((CAST(p.mlon AS DOUBLE) / 1000.0 - 171.5)
                           - (CAST(c.cmlon AS DOUBLE) / 1000.0 - 171.5)) / 2.0)
         )) AS dist
  FROM pts p, ctr c),
hist AS (
  SELECT CAST(FLOOR(dist) AS BIGINT) AS km, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM d GROUP BY 1),
cum AS (SELECT km, SUM(cnt) OVER (ORDER BY km) AS cum FROM hist)
SELECT ctr.n AS n_events, ctr.cmlat, ctr.cmlon,
       (SELECT MIN(km) FROM cum WHERE cum.cum >= (ctr.n + 1) // 2)
         AS r50_km,
       (SELECT MIN(km) FROM cum WHERE cum.cum >= (9 * ctr.n + 9) // 10)
         AS r90_km
FROM ctr
""")
def geo_median_radius(sf_dir: str):
    """POPULATION-CONCENTRATION RADII (the smallest great-circle radii
    around the mean center containing 50% and 90% of all activity — the
    'how far must the CDN reach' / catchment-compactness statistic that
    complements std_ellipse's directional spread). Exactness: the center
    is the FLOOR-mean of exact integer milli-degree sums (no float
    mean); distances use the term-mirrored haversine and FLOOR-quantize
    to integer km (the geo_haversine_pairs contract); the radius ranks
    are exact integer positions (r50 at ceil(n/2), r90 at ceil(9n/10))
    read off a cumulative over the VALUE->COUNT km histogram — distinct
    km values (<=~20,015) reach the driver, never a point row. Plan: one
    integer-moment pass, one map + bounded count_by_u64 pass."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def _milli(b: pa.Table):
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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
        return mlat, mlon

    def moment_partial(b: pa.Table) -> pa.Table:
        mlat, mlon = _milli(b)
        return pa.table(
            {
                "n": pa.array([len(mlat)], pa.int64()),
                "sla": pa.array([int(mlat.sum())], pa.int64()),
                "slo": pa.array([int(mlon.sum())], pa.int64()),
            }
        )

    mom = _collect_table(
        ds.map_batches(
            moment_partial, batch_format="pyarrow", batch_size=131072
        )
    )  # O(#blocks) rows
    n = int(pc.sum(mom["n"]).as_py() or 0)
    if n == 0:
        return pa.table(
            {
                "n_events": pa.array([0], pa.int64()),
                "cmlat": pa.array([None], pa.int64()),
                "cmlon": pa.array([None], pa.int64()),
                "r50_km": pa.array([None], pa.int64()),
                "r90_km": pa.array([None], pa.int64()),
            }
        )
    cmlat = int(pc.sum(mom["sla"]).as_py()) // n
    cmlon = int(pc.sum(mom["slo"]).as_py()) // n
    clat = float(np.float64(cmlat) / 1000.0 - 61.5)
    clon = float(np.float64(cmlon) / 1000.0 - 171.5)

    def km_pass(b: pa.Table) -> pa.Table:
        mlat, mlon = _milli(b)
        lat = mlat.astype(np.float64) / 1000.0 - 61.5
        lon = mlon.astype(np.float64) / 1000.0 - 171.5
        km = np.floor(
            haversine_km(
                np.full(len(lat), clat),
                np.full(len(lat), clon),
                lat,
                lon,
            )
        ).astype(np.uint64)
        return pa.table({"key": pa.array(km, pa.uint64())})

    hist = _collect_table(
        count_by_u64(
            ds.map_batches(km_pass, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= ~20,015 distinct km values
    km = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = hist["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(km)
    km, cnt = km[order], cnt[order]
    cum = np.cumsum(cnt)
    pos50 = (n + 1) // 2
    pos90 = (9 * n + 9) // 10
    r50 = int(km[np.searchsorted(cum, pos50)])
    r90 = int(km[np.searchsorted(cum, pos90)])
    return pa.table(
        {
            "n_events": pa.array([n], pa.int64()),
            "cmlat": pa.array([cmlat], pa.int64()),
            "cmlon": pa.array([cmlon], pa.int64()),
            "r50_km": pa.array([r50], pa.int64()),
            "r90_km": pa.array([r90], pa.int64()),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
cc AS (
  SELECT mlon // 1000 AS gx, mlat // 1000 AS gy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts GROUP BY 1, 2),
ex AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         COALESCE(CAST(SUM((a.c - b.c) * (a.c - b.c)) AS BIGINT), 0) AS ssd
  FROM cc a JOIN cc b ON b.gx = a.gx + 1 AND b.gy = a.gy),
ey AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         COALESCE(CAST(SUM((a.c - b.c) * (a.c - b.c)) AS BIGINT), 0) AS ssd
  FROM cc a JOIN cc b ON b.gx = a.gx AND b.gy = a.gy + 1)
SELECT ex.n AS n_pairs_x, ey.n AS n_pairs_y, ex.ssd AS ssd_x,
       ey.ssd AS ssd_y,
       CASE WHEN ex.n = 0 THEN NULL
            ELSE CAST(ex.ssd AS DOUBLE) / CAST(2 * ex.n AS DOUBLE) END
         AS gamma_x,
       CASE WHEN ey.n = 0 THEN NULL
            ELSE CAST(ey.ssd AS DOUBLE) / CAST(2 * ey.n AS DOUBLE) END
         AS gamma_y,
       CASE WHEN ex.n = 0 OR ey.n = 0 OR ey.ssd = 0 THEN NULL
            ELSE CAST(ex.ssd AS DOUBLE) * CAST(2 * ey.n AS DOUBLE)
                   / (CAST(2 * ex.n AS DOUBLE) * CAST(ey.ssd AS DOUBLE)) END
         AS anisotropy
FROM ex, ey
""")
def geo_anisotropy(sf_dir: str):
    """DIRECTIONAL SEMIVARIANCE ANISOTROPY (is spatial structure the same
    east-west as north-south? The geostatistics sanity check before any
    isotropic model like geo_semivariogram is trusted): lag-1 rook
    semivariance computed separately along the x and y axes over
    OBSERVED contact-lattice cells — gamma_dir = sum((c_a - c_b)^2) /
    (2 * n_pairs_dir); anisotropy = gamma_x / gamma_y. Exactness: the
    squared diffs fold in PYTHON ints on the geometry-bounded driver
    table (numpy int64 would overflow SILENTLY at extreme per-cell
    counts; the explicit > 2^63 guard fails loud instead — the
    std_ellipse hatch convention), gammas are ONE double division each.
    Plan: ONE packed count pass; adjacency by sorted-key searchsorted."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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
        key = ((mlon // 1000) * 1024 + (mlat // 1000)).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # bounded by the lattice geometry
    key = np.sort(
        cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    )
    order = np.argsort(cc_t["key"].to_numpy(zero_copy_only=False))
    cnt = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)[order]

    def _dir_fold(offset: np.uint64):
        nb = key + offset
        pos = np.searchsorted(key, nb)
        pos_c = np.minimum(pos, len(key) - 1)
        hit = key[pos_c] == nb
        ssd, n = 0, 0
        for i in np.nonzero(hit)[0]:
            d = int(cnt[i]) - int(cnt[pos[i]])
            ssd += d * d
            n += 1
        if ssd >= 1 << 63:
            raise OverflowError(
                "directional SSD exceeds int64 — cell counts too large "
                "for the exact fold (re-cell or pre-scale)"
            )
        return n, ssd

    nx, sx = _dir_fold(np.uint64(1024))  # +x: gx + 1
    ny, sy = _dir_fold(np.uint64(1))  # +y: gy + 1
    gx = float(np.float64(sx) / np.float64(2 * nx)) if nx else None
    gy = float(np.float64(sy) / np.float64(2 * ny)) if ny else None
    aniso = (
        float(np.float64(sx) * np.float64(2 * ny)
              / (np.float64(2 * nx) * np.float64(sy)))
        if (nx and ny and sy) else None
    )
    return pa.table(
        {
            "n_pairs_x": pa.array([nx], pa.int64()),
            "n_pairs_y": pa.array([ny], pa.int64()),
            "ssd_x": pa.array([sx], pa.int64()),
            "ssd_y": pa.array([sy], pa.int64()),
            "gamma_x": pa.array([gx], pa.float64()),
            "gamma_y": pa.array([gy], pa.float64()),
            "anisotropy": pa.array([aniso], pa.float64()),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
cc AS (
  SELECT mlon // 1000 AS gx, mlat // 1000 AS gy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts GROUP BY 1, 2),
boxes AS (
  SELECT r.r, cc.gx // r.r AS bx, cc.gy // r.r AS by_,
         CAST(SUM(cc.c) AS BIGINT) AS m
  FROM cc, (VALUES (1), (2), (4), (8)) r(r)
  GROUP BY 1, 2, 3),
mo AS (
  SELECT r, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(m) AS BIGINT) AS sm,
         CAST(SUM(m * m) AS BIGINT) AS sm2
  FROM boxes GROUP BY 1)
SELECT CAST(r AS BIGINT) AS box_r, n AS n_boxes, sm AS sum_m,
       sm2 AS sum_m2,
       CAST(n AS DOUBLE) * CAST(sm2 AS DOUBLE)
         / (CAST(sm AS DOUBLE) * CAST(sm AS DOUBLE)) AS lacunarity
FROM mo ORDER BY 1
""")
def geo_lacunarity(sf_dir: str):
    """LACUNARITY PROFILE (the texture statistic fractal dimension
    misses: two patterns with the SAME boxcount dimension can differ in
    gappiness — lacunarity L(r) = n*sum(m^2)/(sum m)^2 over box masses m
    at box size r reads the hole structure; L -> 1 = translationally
    uniform). Fixed non-overlapping r x r cell blocks at r in {1, 2, 4,
    8} over the contact lattice — deterministic, and every moment is an
    exact integer (box masses are integer sums of integer cell counts).
    Empty boxes inside the pattern's bounding set are excluded (observed
    boxes only — both sides identically, the anisotropy convention).
    Plan: ONE packed count pass (cells geometry-bounded), driver folds
    the <=|cells| table per r; L = one double chain of exact integers."""
    ds = _read(sf_dir, "events", ["event_id", "user_id"])

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
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
        key = ((mlon // 1000) * 1024 + (mlat // 1000)).astype(np.uint64)
        return pa.table({"key": pa.array(key, pa.uint64())})

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # bounded by the lattice geometry
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    gx = (key // np.uint64(1024)).astype(np.int64)
    gy = (key % np.uint64(1024)).astype(np.int64)
    out = {k: [] for k in ("r", "n", "sm", "sm2")}
    for r in (1, 2, 4, 8):
        bk = (gx // r) * 1024 + (gy // r)
        ub, inv = np.unique(bk, return_inverse=True)
        m = np.zeros(len(ub), np.int64)
        np.add.at(m, inv, c)
        sm = int(m.sum())
        sm2 = sum(int(v) * int(v) for v in m)  # python ints: no silent wrap
        if sm2 >= 1 << 63:
            raise OverflowError(
                "lacunarity second moment exceeds int64 — box masses too "
                "large for the exact fold (re-cell or pre-scale)"
            )
        out["r"].append(r)
        out["n"].append(len(ub))
        out["sm"].append(sm)
        out["sm2"].append(sm2)
    return pa.table(
        {
            "box_r": pa.array(out["r"], pa.int64()),
            "n_boxes": pa.array(out["n"], pa.int64()),
            "sum_m": pa.array(out["sm"], pa.int64()),
            "sum_m2": pa.array(out["sm2"], pa.int64()),
            "lacunarity": pa.array(
                [
                    float(
                        np.float64(n) * np.float64(s2)
                        / (np.float64(s) * np.float64(s))
                    )
                    for n, s, s2 in zip(out["n"], out["sm"], out["sm2"])
                ],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
dd AS (SELECT CAST(MIN(day) AS BIGINT) AS d0,
              CAST(MAX(day) AS BIGINT) AS d1 FROM pts),
pcnt AS (
  SELECT CASE WHEN p.day < (dd.d0 + dd.d1 + 1) // 2 THEN 0 ELSE 1 END
           AS per,
         p.mlon // 1000 AS gx, p.mlat // 1000 AS gy,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM pts p, dd GROUP BY 1, 2, 3),
th AS (
  SELECT per, CAST(SUM(c) AS BIGINT) // CAST(COUNT(*) AS BIGINT) AS thr
  FROM pcnt GROUP BY 1),
cl AS (
  SELECT pcnt.per, gx, gy,
         CASE WHEN pcnt.c > th.thr THEN 2 ELSE 1 END AS k
  FROM pcnt JOIN th USING (per)),
u AS (
  SELECT COALESCE(a.k, 0) AS k0, COALESCE(b.k, 0) AS k1
  FROM (SELECT gx, gy, k FROM cl WHERE per = 0) a
  FULL OUTER JOIN (SELECT gx, gy, k FROM cl WHERE per = 1) b
    USING (gx, gy)),
t AS (SELECT k0, k1, CAST(COUNT(*) AS BIGINT) AS n FROM u GROUP BY 1, 2),
r AS (SELECT k0, CAST(SUM(n) AS BIGINT) AS rn FROM t GROUP BY 1)
SELECT CAST(t.k0 AS BIGINT) AS from_class, CAST(t.k1 AS BIGINT) AS to_class,
       t.n AS n_cells, CAST(t.n AS DOUBLE) / CAST(r.rn AS DOUBLE) AS row_frac
FROM t JOIN r USING (k0) ORDER BY 1, 2
""")
def geo_spatial_markov(sf_dir: str):
    """SPATIAL MARKOV TRANSITIONS (how places MOVE between density
    classes over time — the regional-dynamics matrix behind 'is the
    urban hierarchy stable, churning, or polarizing'): split the horizon
    at the exact integer midpoint day, classify every contact-lattice
    cell per period as absent (0) / low (1) / high (2) against the
    period's own FLOOR-mean occupied-cell threshold, and count
    class->class transitions over the union of observed cells with
    row-normalized fractions. All-integer until the final row fractions
    (exact FLOOR thresholds; integer class compares). Plan: one scalar
    day-range pass, ONE packed (period, cell) count pass (cells
    geometry-bounded), driver folds the <=2|cells| table."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def day_minmax(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        d = us // 86400000000
        return pa.table(
            {
                "d0": pa.array([int(d.min())], pa.int64()),
                "d1": pa.array([int(d.max())], pa.int64()),
            }
        )

    mm = _collect_table(
        ds.select_columns(["ts"]).map_batches(
            day_minmax, batch_format="pyarrow", batch_size=131072
        )
    )
    if mm.num_rows == 0:
        return pa.table(
            {
                "from_class": pa.array([], pa.int64()),
                "to_class": pa.array([], pa.int64()),
                "n_cells": pa.array([], pa.int64()),
                "row_frac": pa.array([], pa.float64()),
            }
        )
    d0 = int(pc.min(mm["d0"]).as_py())
    d1 = int(pc.max(mm["d1"]).as_py())
    split = (d0 + d1 + 1) // 2

    def pack(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        p = (us // 86400000000 >= split).astype(np.uint64)
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
            {"key": pa.array((p << np.uint64(20)) | cell, pa.uint64())}
        )

    cc_t = _collect_table(
        count_by_u64(
            ds.map_batches(pack, batch_format="pyarrow", batch_size=131072),
            "key",
        )
    )  # <= 2 x |cells|, geometry-bounded
    key = cc_t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    c = cc_t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    p = (key >> np.uint64(20)).astype(np.int64)
    cell = (key & np.uint64((1 << 20) - 1)).astype(np.int64)
    cls: list[dict] = [{}, {}]
    for period in (0, 1):
        m = p == period
        if not m.any():
            continue
        thr = int(c[m].sum()) // int(m.sum())
        for cl_cell, cl_c in zip(cell[m], c[m]):
            cls[period][int(cl_cell)] = 2 if int(cl_c) > thr else 1
    trans = np.zeros((3, 3), np.int64)
    for u in set(cls[0]) | set(cls[1]):
        trans[cls[0].get(u, 0), cls[1].get(u, 0)] += 1
    rows = [
        (a, b, int(trans[a, b]))
        for a in range(3)
        for b in range(3)
        if trans[a, b] > 0
    ]
    rowsum = trans.sum(axis=1)
    return pa.table(
        {
            "from_class": pa.array([r[0] for r in rows], pa.int64()),
            "to_class": pa.array([r[1] for r in rows], pa.int64()),
            "n_cells": pa.array([r[2] for r in rows], pa.int64()),
            "row_frac": pa.array(
                [
                    float(np.float64(r[2]) / np.float64(rowsum[r[0]]))
                    for r in rows
                ],
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH pts AS (
  SELECT epoch_us(ts) // 86400000000 AS day,
         ((user_id % 12) * 11003) % 120000
           + (user_id * 7919) % 2001 + (event_id * 13) % 1001 AS mlat,
         ((user_id % 12) * 104729) % 340000
           + (user_id * 104729) % 2001 + (event_id * 29) % 1001 AS mlon
  FROM events),
dd AS (SELECT CAST(MIN(day) AS BIGINT) AS d0,
              CAST(MAX(day) AS BIGINT) AS d1 FROM pts),
per AS (
  SELECT CASE WHEN p.day < (dd.d0 + dd.d1 + 1) // 2 THEN 0 ELSE 1 END
           AS pp,
         CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(p.mlat) AS BIGINT) AS sla,
         CAST(SUM(p.mlon) AS BIGINT) AS slo
  FROM pts p, dd GROUP BY 1),
ctr AS (
  SELECT pp, n, sla // n AS cmlat, slo // n AS cmlon,
         CAST(sla // n AS DOUBLE) / 1000.0 - 61.5 AS lat,
         CAST(slo // n AS DOUBLE) / 1000.0 - 171.5 AS lon
  FROM per),
pair AS (
  SELECT a.n AS n0, b.n AS n1, a.cmlat AS cmlat0, a.cmlon AS cmlon0,
         b.cmlat AS cmlat1, b.cmlon AS cmlon1,
         a.lat AS lat0, a.lon AS lon0, b.lat AS lat1, b.lon AS lon1
  FROM (SELECT * FROM ctr WHERE pp = 0) a,
       (SELECT * FROM ctr WHERE pp = 1) b)
SELECT n0 AS n_first, n1 AS n_second,
       cmlat0 AS cmlat_first, cmlon0 AS cmlon_first,
       cmlat1 AS cmlat_second, cmlon1 AS cmlon_second,
       CAST(FLOOR(2.0 * 6371.0088 * ASIN(SQRT(
         SIN(RADIANS(lat1 - lat0) / 2.0) * SIN(RADIANS(lat1 - lat0) / 2.0)
         + COS(RADIANS(lat0)) * COS(RADIANS(lat1))
           * SIN(RADIANS(lon1 - lon0) / 2.0)
           * SIN(RADIANS(lon1 - lon0) / 2.0)
       ))) AS BIGINT) AS drift_km,
       CAST(ROUND((DEGREES(ATAN2(
         SIN(RADIANS(lon1) - RADIANS(lon0)) * COS(RADIANS(lat1)),
         COS(RADIANS(lat0)) * SIN(RADIANS(lat1))
           - SIN(RADIANS(lat0)) * COS(RADIANS(lat1))
             * COS(RADIANS(lon1) - RADIANS(lon0))))
         + 360.0) % 360.0 * 1000000.0, 0) AS BIGINT) AS bearing_micro
FROM pair
""")
def geo_center_drift(sf_dir: str):
    """CENTROGRAPHIC DRIFT (did the center of gravity of activity MOVE
    between the two horizon halves, how far and in which compass
    direction — the one-number migration summary that pairs with
    geo_spatial_markov's class-churn matrix): per period, the FLOOR-mean
    integer milli-degree center (exact integer sums); drift = the
    FLOOR-km term-mirrored haversine between the two centers
    (geo_haversine_pairs contract); bearing = the great-circle initial
    bearing (the geo_bearing_rose formula), normalized to [0, 360) and
    micro-quantized (ATAN2/DEGREES are libm — micro-ROUND absorbs the
    ULPs). Plan: one scalar day-range pass + one 2-row per-period moment
    pass; the driver sees O(#blocks) integers."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def day_minmax(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        d = us // 86400000000
        return pa.table(
            {
                "d0": pa.array([int(d.min())], pa.int64()),
                "d1": pa.array([int(d.max())], pa.int64()),
            }
        )

    mm = _collect_table(
        ds.select_columns(["ts"]).map_batches(
            day_minmax, batch_format="pyarrow", batch_size=131072
        )
    )
    _empty = pa.table(
        {
            "n_first": pa.array([0], pa.int64()),
            "n_second": pa.array([0], pa.int64()),
            "cmlat_first": pa.array([None], pa.int64()),
            "cmlon_first": pa.array([None], pa.int64()),
            "cmlat_second": pa.array([None], pa.int64()),
            "cmlon_second": pa.array([None], pa.int64()),
            "drift_km": pa.array([None], pa.int64()),
            "bearing_micro": pa.array([None], pa.int64()),
        }
    )
    if mm.num_rows == 0:
        return _empty
    d0 = int(pc.min(mm["d0"]).as_py())
    d1 = int(pc.max(mm["d1"]).as_py())
    split = (d0 + d1 + 1) // 2

    def moments(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        p = (us // 86400000000 >= split).astype(np.int64)
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
        n2 = np.bincount(p, minlength=2).astype(np.int64)
        sla = np.zeros(2, np.int64)
        slo = np.zeros(2, np.int64)
        np.add.at(sla, p, mlat)
        np.add.at(slo, p, mlon)
        return pa.table(
            {
                "p": pa.array(np.arange(2, dtype=np.int64)),
                "n": pa.array(n2, pa.int64()),
                "sla": pa.array(sla, pa.int64()),
                "slo": pa.array(slo, pa.int64()),
            }
        )

    parts = _collect_table(
        ds.map_batches(moments, batch_format="pyarrow", batch_size=131072)
    )  # 2 x O(#blocks) rows
    pcol = parts["p"].to_numpy(zero_copy_only=False)
    n = np.zeros(2, np.int64)
    sla = np.zeros(2, np.int64)
    slo = np.zeros(2, np.int64)
    np.add.at(n, pcol, parts["n"].to_numpy(zero_copy_only=False))
    np.add.at(sla, pcol, parts["sla"].to_numpy(zero_copy_only=False))
    np.add.at(slo, pcol, parts["slo"].to_numpy(zero_copy_only=False))
    if n[0] == 0 or n[1] == 0:
        return _empty
    cmlat = [int(sla[i]) // int(n[i]) for i in (0, 1)]
    cmlon = [int(slo[i]) // int(n[i]) for i in (0, 1)]
    lat = [np.float64(v) / 1000.0 - 61.5 for v in cmlat]
    lon = [np.float64(v) / 1000.0 - 171.5 for v in cmlon]
    km = int(
        np.floor(
            haversine_km(
                np.array([lat[0]]), np.array([lon[0]]),
                np.array([lat[1]]), np.array([lon[1]]),
            )
        )[0]
    )
    la1, lo1 = np.radians(lat[0]), np.radians(lon[0])
    la2, lo2 = np.radians(lat[1]), np.radians(lon[1])
    y = np.sin(lo2 - lo1) * np.cos(la2)
    x = (
        np.cos(la1) * np.sin(la2)
        - np.sin(la1) * np.cos(la2) * np.cos(lo2 - lo1)
    )
    deg = np.degrees(np.arctan2(y, x))
    bearing = int(
        sql_round_np(np.array([(deg + 360.0) % 360.0]) * 1000000.0, 0)[0]
    )
    return pa.table(
        {
            "n_first": pa.array([int(n[0])], pa.int64()),
            "n_second": pa.array([int(n[1])], pa.int64()),
            "cmlat_first": pa.array([cmlat[0]], pa.int64()),
            "cmlon_first": pa.array([cmlon[0]], pa.int64()),
            "cmlat_second": pa.array([cmlat[1]], pa.int64()),
            "cmlon_second": pa.array([cmlon[1]], pa.int64()),
            "drift_km": pa.array([km], pa.int64()),
            "bearing_micro": pa.array([bearing], pa.int64()),
        }
    )


_GFN_R2 = (0.0625, 0.25, 1.0, 2.25, 4.0)  # G-function radii^2 (0.25..2 deg)


_GFN_ROWS = ", ".join(f"({i + 1}, {v})" for i, v in enumerate(_GFN_R2))



@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
nn AS (
  SELECT a.doc_id,
         MIN((a.lat - b.lat) * (a.lat - b.lat)
               + (a.lon - b.lon) * (a.lon - b.lon)) AS d2
  FROM pts a JOIN pts b
    ON b.doc_id <> a.doc_id
   AND b.lat BETWEEN a.lat - {_CE_RMAX} AND a.lat + {_CE_RMAX}
   AND b.lon BETWEEN a.lon - {_CE_RMAX} AND a.lon + {_CE_RMAX}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon) <= {_CE_RMAX * _CE_RMAX}
  GROUP BY a.doc_id),
t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts),
bands AS (SELECT * FROM (VALUES {_GFN_ROWS}) b(band, r2))
SELECT CAST(b.band AS BIGINT) AS band, CAST(b.r2 AS DOUBLE) AS r2,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM nn WHERE nn.d2 <= b.r2)
         AS n_within,
       CAST((SELECT CAST(COUNT(*) AS BIGINT) FROM nn WHERE nn.d2 <= b.r2)
            AS DOUBLE) / CAST(t.n AS DOUBLE) AS g_hat
FROM bands b CROSS JOIN t ORDER BY 1
""")
def geo_g_function(sf_dir: str):
    """G FUNCTION (the nearest-neighbor distance CDF — the fourth classic
    point-pattern view beside Ripley K (all-pair), the pair-correlation
    ring and Clark-Evans' single mean: what FRACTION of points has a
    neighbor within r, read against the CSR expectation
    1 - exp(-lambda*pi*r^2)): exact per-doc 1-NN squared distance from
    ONE distance-band shuffle (the geo_clark_evans min_by_u64 kernel on
    the order-preserving float64 bit pattern), then per-radius
    exceedance counts by EXACT d2-threshold comparison — no sqrt, no
    quantizer anywhere; g_hat = count/n is ONE division. Censoring at
    rmax = 2 deg is inherited and mirrored (NN farther than rmax counts
    as 'none within any r')."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def shape(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    n = docs.count()
    pairs = distance_pairs(
        docs.map_batches(shape, batch_format="pyarrow"), _CE_RMAX
    )

    def both_ends(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bb = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d2 = b["sq_dist"].to_numpy(zero_copy_only=False)
        bits = d2.view(np.uint64)
        return pa.table(
            {
                "key": pa.array(np.concatenate([a, bb]), pa.uint64()),
                "val": pa.array(np.concatenate([bits, bits]), pa.uint64()),
            }
        )

    mins = min_by_u64(
        pairs.map_batches(both_ends, batch_format="pyarrow", batch_size=131072),
        "key", "val",
    )
    r2 = np.array(_GFN_R2, np.float64)

    def partial(b: pa.Table) -> pa.Table:
        d2 = (
            b["val"].to_numpy(zero_copy_only=False).astype(np.uint64)
            .view(np.float64)
        )
        cnt = (d2[:, None] <= r2[None, :]).sum(axis=0).astype(np.int64)
        return pa.table(
            {
                "band": pa.array(np.arange(len(r2), dtype=np.int64), pa.int64()),
                "c": pa.array(cnt, pa.int64()),
            }
        )

    agg = fold_table(
        mins.map_batches(partial, batch_format="pyarrow", batch_size=131072), "band", {"c": ("c", "sum")}
    )
    counts = np.zeros(len(r2), np.int64)
    bi = agg["band"].to_numpy(zero_copy_only=False).astype(np.int64)
    counts[bi] = agg["c"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "band": pa.array(np.arange(1, len(r2) + 1), pa.int64()),
            "r2": pa.array(r2, pa.float64()),
            "n_within": pa.array(counts, pa.int64()),
            "g_hat": pa.array(
                [float(np.float64(int(c)) / np.float64(n)) for c in counts],
                pa.float64(),
            ),
        }
    )


_ORING_EDGES = (0.0, 0.25, 1.0, 2.25, 4.0, 6.25, 9.0)  # squared-deg ring edges


_ORING_CASE = " ".join(
    f"WHEN d2 <= {e} THEN {i + 1}"
    for i, e in enumerate(_ORING_EDGES[1:])
)
_ORING_RING_ROWS = ", ".join(
    f"({i + 1}, {_ORING_EDGES[i]}, {_ORING_EDGES[i + 1]})"
    for i in range(len(_ORING_EDGES) - 1)
)



@query(sql=f"""
WITH pts AS (
  SELECT doc_id, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon FROM documents),
pr AS (
  SELECT (a.lat - b.lat) * (a.lat - b.lat)
           + (a.lon - b.lon) * (a.lon - b.lon) AS d2
  FROM pts a JOIN pts b
    ON b.doc_id > a.doc_id
   AND b.lat BETWEEN a.lat - {_RIPLEY_RMAX} AND a.lat + {_RIPLEY_RMAX}
   AND b.lon BETWEEN a.lon - {_RIPLEY_RMAX} AND a.lon + {_RIPLEY_RMAX}
  WHERE (a.lat - b.lat) * (a.lat - b.lat)
          + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_RIPLEY_RMAX * _RIPLEY_RMAX}),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pts),
rings AS (SELECT * FROM (VALUES {_ORING_RING_ROWS}) t(ring, ri2, ro2)),
cnt AS (
  SELECT r.ring, r.ri2, r.ro2,
         (SELECT CAST(COUNT(*) AS BIGINT) FROM pr
          WHERE (CASE {_ORING_CASE} END) = r.ring) AS n_pairs
  FROM rings r)
SELECT CAST(c.ring AS BIGINT) AS ring, c.n_pairs,
       (360.0 * 140.0 * 2.0 * CAST(c.n_pairs AS DOUBLE))
         / (CAST(nn.n AS DOUBLE) * CAST(nn.n AS DOUBLE)
            * (PI() * c.ro2 - PI() * c.ri2)) AS g
FROM cnt c CROSS JOIN nn ORDER BY 1
""")
def geo_pair_correlation(sf_dir: str):
    """PAIR-CORRELATION FUNCTION g(r) (the O-ring statistic — Ripley K's
    non-cumulative derivative: K answers 'how many neighbors WITHIN r',
    g answers 'is there structure AT r', which is how ecologists and
    urban analysts read interaction ranges): half-degree ring pair
    counts from ONE distance-band shuffle at the largest radius
    (geo_ripley_k contract), ring assignment by exact d2-threshold
    comparisons (no sqrt), g = ring density / CSR ring density as one
    term-mirrored double chain over exact integers per ring."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    def shape(b: pa.Table) -> pa.Table:
        doc_id = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(doc_id)
        return pa.table(
            {
                "doc_id": pa.array(doc_id, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    n = docs.count()
    pairs = distance_pairs(
        docs.map_batches(shape, batch_format="pyarrow"), _RIPLEY_RMAX
    )
    edges = np.array(_ORING_EDGES[1:], np.float64)

    def ring_partial(b: pa.Table) -> pa.Table:
        d2 = b["sq_dist"].to_numpy(zero_copy_only=False)
        ring = np.searchsorted(edges, d2, side="left") + 1  # d2 == edge -> inner ring
        return pa.table({"ring": pa.array(ring.astype(np.int64), pa.int64())})

    agg = fold_table(
        pairs.map_batches(ring_partial, batch_format="pyarrow"), "ring", {"c": (None, "count")}
    )
    counts = np.zeros(len(edges), np.int64)
    rb = agg["ring"].to_numpy(zero_copy_only=False).astype(np.int64)
    counts[rb - 1] = agg["c"].to_numpy(zero_copy_only=False)
    rows = []
    for i in range(len(edges)):
        ri2 = _ORING_EDGES[i]
        ro2 = _ORING_EDGES[i + 1]
        g = float(
            (360.0 * 140.0 * 2.0 * np.float64(int(counts[i])))
            / (
                np.float64(n) * np.float64(n)
                * (np.pi * ro2 - np.pi * ri2)
            )
        )
        rows.append((i + 1, int(counts[i]), g))
    return pa.table(
        {
            "ring": pa.array([r_[0] for r_ in rows], pa.int64()),
            "n_pairs": pa.array([r_[1] for r_ in rows], pa.int64()),
            "g": pa.array([r_[2] for r_ in rows], pa.float64()),
        }
    )


@query(sql=f"""
WITH pts AS (
  SELECT doc_id, lang, {GEO_LAT_SQL} AS lat, {GEO_LON_SQL} AS lon
  FROM documents),
dhits AS (
  SELECT a.lang AS la, b.lang AS lb
  FROM pts a JOIN pts b ON a.doc_id <> b.doc_id
  WHERE (a.lat - b.lat) * (a.lat - b.lat) + (a.lon - b.lon) * (a.lon - b.lon)
        <= {_GEO_PAIR_RADIUS_DEG * _GEO_PAIR_RADIUS_DEG}),
nd AS (SELECT la, lb, CAST(COUNT(*) AS BIGINT) AS n_dir
       FROM dhits GROUP BY 1, 2),
ot AS (SELECT la, CAST(SUM(n_dir) AS BIGINT) AS out_total FROM nd GROUP BY 1),
totals AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents
           GROUP BY 1),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents)
SELECT nd.la AS lang_a, nd.lb AS lang_b, nd.n_dir, ot.out_total,
       t.n AS n_b,
       CASE WHEN ot.out_total > 0 AND t.n > 0
            THEN CAST(nd.n_dir * (n.n - 1) AS DOUBLE)
                 / CAST(ot.out_total * t.n AS DOUBLE)
            ELSE NULL END AS clq
FROM nd
JOIN ot ON ot.la = nd.la
JOIN totals t ON t.lang = nd.lb
CROSS JOIN n
ORDER BY 1, 2
""")
def geo_clq(sf_dir: str):
    """COLOCATION QUOTIENT CLQ(A->B) (the DIRECTED spatial-association
    measure: is lang B over-represented among lang A's spatial neighbors
    relative to B's global share? — geo_colocation's symmetric ratio
    can't see asymmetric attraction, e.g. minority-language pockets
    inside majority regions): built from the SAME one-shuffle band-pair
    computation as geo_colocation (its unordered (l1, l2) counts are
    collected — bounded by lang^2 — and unfolded into directed counts:
    cross pairs once each way, same-lang pairs twice), then
    clq = (n_dir * (N-1)) / (out_total(A) * N_B) as ONE double division
    of exact integer products."""
    pairs = geo_colocation(sf_dir)  # <= lang^2 rows
    l1 = pairs["l1"].to_pylist()
    l2 = pairs["l2"].to_pylist()
    npair = pairs["n_pairs"].to_numpy(zero_copy_only=False).astype(np.int64)
    n1 = pairs["n1"].to_numpy(zero_copy_only=False).astype(np.int64)
    totals = {}
    for a, b, x1 in zip(l1, l2, n1):
        totals[a] = int(x1)
    for row_l2, x2 in zip(l2, pairs["n2"].to_numpy(zero_copy_only=False)):
        totals[row_l2] = int(x2)
    n_total = _read(sf_dir, "documents", ["doc_id"]).count()
    directed: dict = {}
    for a, b, c in zip(l1, l2, npair):
        c = int(c)
        if a == b:
            directed[(a, b)] = directed.get((a, b), 0) + 2 * c
        else:
            directed[(a, b)] = directed.get((a, b), 0) + c
            directed[(b, a)] = directed.get((b, a), 0) + c
    out_tot: dict = {}
    for (a, _), c in directed.items():
        out_tot[a] = out_tot.get(a, 0) + c
    keys = sorted(directed)
    rows = []
    for a, b in keys:
        nd = directed[(a, b)]
        ot = out_tot[a]
        nb = totals[b]
        clq = (
            float(
                np.float64(nd * (n_total - 1)) / np.float64(ot * nb)
            )
            if ot > 0 and nb > 0
            else None
        )
        rows.append((a, b, nd, ot, nb, clq))
    return pa.table(
        {
            "lang_a": pa.array([r[0] for r in rows], pa.string()),
            "lang_b": pa.array([r[1] for r in rows], pa.string()),
            "n_dir": pa.array([r[2] for r in rows], pa.int64()),
            "out_total": pa.array([r[3] for r in rows], pa.int64()),
            "n_b": pa.array([r[4] for r in rows], pa.int64()),
            "clq": pa.array([r[5] for r in rows], pa.float64()),
        }
    )


_ED_P = 6       # empty-distance raster order (64 x 64)
_ED_STEPS = 6   # dilation rounds; distances > _ED_STEPS clamp to the sentinel


def _ed_sql() -> str:
    n = 1 << _ED_P
    sent = _ED_STEPS + 1
    steps = [
        f"""g0 AS MATERIALIZED (
  SELECT gx.x AS cx, gy.y AS cy,
         CASE WHEN c.cx IS NULL THEN {sent} ELSE 0 END AS d
  FROM (SELECT UNNEST(range(0, {n})) AS x) gx
  CROSS JOIN (SELECT UNNEST(range(0, {n})) AS y) gy
  LEFT JOIN cells c ON c.cx = gx.x AND c.cy = gy.y)"""
    ]
    for i in range(1, _ED_STEPS + 1):
        nbrs = []
        for tag, dx, dy in (
            ("nw", -1, -1), ("nn", -1, 0), ("ne", -1, 1),
            ("ww", 0, -1), ("ee", 0, 1),
            ("sw", 1, -1), ("ss", 1, 0), ("se", 1, 1),
        ):
            nbrs.append(
                f"LEFT JOIN g{i - 1} {tag} ON {tag}.cx = a.cx + {dx} "
                f"AND {tag}.cy = a.cy + {dy}"
            )
        least = ", ".join(
            f"COALESCE({tag}.d, {sent})"
            for tag in ("nw", "nn", "ne", "ww", "ee", "sw", "ss", "se")
        )
        steps.append(
            f"""g{i} AS MATERIALIZED (
  SELECT a.cx, a.cy,
         LEAST(a.d, LEAST(LEAST({least}) + 1, {sent})) AS d
  FROM g{i - 1} a
  {chr(10).join(nbrs)})"""
        )
    return ",\n".join(steps)




@query(sql=f"""
WITH cells AS MATERIALIZED (
  SELECT CAST(((doc_id * 104729) % 360000) * {1 << _ED_P} // 360000 AS BIGINT)
           AS cx,
         CAST(((doc_id * 7919) % 140000) * {1 << _ED_P} // 140000 AS BIGINT)
           AS cy
  FROM documents GROUP BY 1, 2),
{_ed_sql()}
SELECT cx, cy, CAST(d AS BIGINT) AS dt
FROM g{_ED_STEPS}
ORDER BY d DESC, cx, cy
LIMIT 20
""")
def geo_empty_distance(sf_dir: str):
    """DISTANCE-TO-DATA TRANSFORM (coverage-gap / siting analysis — "how
    far is each map cell from the nearest observed document"): the exact
    CHEBYSHEV distance to the nearest occupied cell on the 2^{p} lattice,
    computed as {s} iterated 8-neighbour MIN-PLUS dilations — the
    morphological-erosion dual of geo_heat_diffusion's sum stencil
    (d_k = min(d_(k-1), 1 + min of 8 neighbours)). Distances beyond
    {s} clamp to the sentinel {s}+1 ("farther than the probe horizon") —
    a documented truncation, not an approximation, since each dilation
    round certifies exactly one more distance ring. Output: the top-20
    most REMOTE cells (dt DESC, ties by (cx, cy)) — the empty quarter.

    All-integer: occupancy, the min-plus recurrence and the sentinel are
    int64 end to end; the SQL mirror unrolls the same {s} rounds as
    8-way LEFT-JOIN LEAST layers over the full lattice. Distribution:
    the unbounded pass is the one combiner-first cell-count shuffle; the
    bounded 4^{p}-cell grid then iterates as one numpy pad/min stencil
    on the driver (geometry-bounded — the heat_diffusion contract)."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _ED_P
    sent = _ED_STEPS + 1

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
    d = np.full((n, n), sent, np.int64)
    if cells.num_rows:
        k = cells["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d[(k >> np.uint64(32)).astype(np.int64),
          (k & np.uint64(0xFFFFFFFF)).astype(np.int64)] = 0
    for _ in range(_ED_STEPS):
        p = np.pad(d, 1, constant_values=sent)
        nb = np.minimum.reduce(
            [
                p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:],
                p[1:-1, :-2], p[1:-1, 2:],
                p[2:, :-2], p[2:, 1:-1], p[2:, 2:],
            ]
        )
        d = np.minimum(d, np.minimum(nb + 1, sent))
    flat = d.ravel()
    order = np.lexsort(
        (np.arange(n * n) % n, np.arange(n * n) // n, -flat)
    )[:20]
    gx = (order // n).astype(np.int64)
    gy = (order % n).astype(np.int64)
    return pa.table(
        {
            "cx": pa.array(gx, pa.int64()),
            "cy": pa.array(gy, pa.int64()),
            "dt": pa.array(flat[order], pa.int64()),
        }
    )


_JNK_P = 6        # jenks raster order (64 x 64 cells)
_JNK_K = 4        # number of classes
_JNK_SF = 0.01    # golden pinned to the driver gate corpus
_JNK_VERSION = 1
_JNK_MAX_VALUES = 512  # fail-loud DP bound on distinct histogram values


def _jenks_dir() -> str:
    return f"/tmp/core_ray_jenks_v{_JNK_VERSION}"


def _jenks_cells(doc_ids) -> dict:
    """(cx, cy) -> doc count on the 2^_JNK_P lattice (shared derivation)."""
    n = 1 << _JNK_P
    cells: dict = {}
    for did in doc_ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        key = ((a * n) // 360000, (b * n) // 140000)
        cells[key] = cells.get(key, 0) + 1
    return cells


def _jenks_dp(values: list, freqs: list):
    """Exact Fisher-Jenks over the (value, frequency) histogram: Fraction
    arithmetic, earliest-split tie-break. Returns per-class
    (lo, hi, n, ssd Fraction) rows."""
    v = list(values)
    f = list(freqs)
    m = len(v)
    # prefix moments: n, sum, sum of squares (exact ints)
    pn = [0] * (m + 1)
    p1 = [0] * (m + 1)
    p2 = [0] * (m + 1)
    for i in range(m):
        pn[i + 1] = pn[i] + f[i]
        p1[i + 1] = p1[i] + f[i] * v[i]
        p2[i + 1] = p2[i] + f[i] * v[i] * v[i]

    def cost(i: int, j: int) -> "Fraction":
        # weighted SSD of histogram bins i..j inclusive (0-based)
        n_ = pn[j + 1] - pn[i]
        s1 = p1[j + 1] - p1[i]
        s2 = p2[j + 1] - p2[i]
        return Fraction(s2, 1) - Fraction(s1 * s1, n_)

    k = min(_JNK_K, m)
    INF = None
    best = [[INF] * (m + 1) for _ in range(k + 1)]
    back = [[0] * (m + 1) for _ in range(k + 1)]
    best[0][0] = Fraction(0)
    for c in range(1, k + 1):
        for j in range(c, m + 1):
            for i in range(c, j + 1):  # class c covers bins i-1..j-1
                prev = best[c - 1][i - 1]
                if prev is None:
                    continue
                cand = prev + cost(i - 1, j - 1)
                if best[c][j] is None or cand < best[c][j]:
                    best[c][j] = cand
                    back[c][j] = i
    # recover breaks
    bounds = []
    j = m
    for c in range(k, 0, -1):
        i = back[c][j]
        bounds.append((i - 1, j - 1))
        j = i - 1
    bounds.reverse()
    rows = []
    for cls, (i, j) in enumerate(bounds):
        rows.append((cls, v[i], v[j], pn[j + 1] - pn[i], cost(i, j)))
    return rows


def _ensure_jenks_golden(sf_dir: str) -> None:
    if _sf_of(sf_dir) != _JNK_SF:
        return
    root = _jenks_dir()
    marker = os.path.join(root, ".complete")
    if os.path.exists(marker):
        return
    docs = pq.read_table(_p(sf_dir, "documents"), columns=["doc_id"])
    cells = _jenks_cells(docs["doc_id"].to_pylist())
    hist: dict = {}
    for c in cells.values():
        hist[c] = hist.get(c, 0) + 1
    vals = sorted(hist)
    # independent of the engine's DP: EXHAUSTIVE enumeration of the cut
    # tuples (feasible at the gate corpus's tiny histogram), Fraction-exact
    freqs = [hist[x] for x in vals]
    m = len(vals)
    k = min(_JNK_K, m)

    def seg(i, j):
        n_ = sum(freqs[i:j + 1])
        s1 = sum(f * v for f, v in zip(freqs[i:j + 1], vals[i:j + 1]))
        s2 = sum(f * v * v for f, v in zip(freqs[i:j + 1], vals[i:j + 1]))
        return Fraction(s2, 1) - Fraction(s1 * s1, n_), n_

    best_rows, best_ssd = None, None
    for cuts in combinations(range(1, m), k - 1):
        bounds = []
        lo = 0
        for c in cuts:
            bounds.append((lo, c - 1))
            lo = c
        bounds.append((lo, m - 1))
        segs = [seg(i, j) for i, j in bounds]
        total = sum((s for s, _ in segs), Fraction(0))
        if best_ssd is None or total < best_ssd:
            best_ssd = total
            best_rows = [
                (cls, vals[i], vals[j], n_, s)
                for cls, ((i, j), (s, n_)) in enumerate(zip(bounds, segs))
            ]
    rows = best_rows
    t = pa.table(
        {
            "cls": pa.array([r[0] for r in rows], pa.int64()),
            "lo": pa.array([r[1] for r in rows], pa.int64()),
            "hi": pa.array([r[2] for r in rows], pa.int64()),
            "n_cells": pa.array([r[3] for r in rows], pa.int64()),
            "ssd_micro": pa.array(
                [(r[4].numerator * 1_000_000) // r[4].denominator
                 for r in rows],
                pa.int64(),
            ),
        }
    )
    os.makedirs(root, exist_ok=True)
    pq.write_table(t, f"{root}/jenks.parquet")
    with open(marker, "w") as f:
        f.write("ok")


@query(sql=f"SELECT * FROM read_parquet('{_jenks_dir()}/jenks.parquet')")
def geo_jenks_breaks(sf_dir: str):
    """FISHER-JENKS NATURAL BREAKS (Fisher JASA'58 exact 1-D partition;
    Jenks' cartographic use — the optimal choropleth class boundaries
    every GIS "natural breaks" dropdown computes): split the per-cell
    document-count distribution on the 2^{p} lattice into {k}
    value-contiguous classes minimizing total within-class weighted SSD.
    Runs over the VALUE HISTOGRAM (distinct count -> frequency), not the
    raw cells — the standard exact reduction, and the reason the DP is
    driver-sized. Output per class: (cls, lo, hi, n_cells, ssd_micro).

    Exactness: prefix moments are int64, class SSD is the exact rational
    s2 - s1^2/n kept as a python Fraction through the DP (argmin with
    earliest-split tie-break — no float ever compared); only the final
    report floors each class SSD onto the micro grid. Fail-loud above
    {vmax} distinct histogram values (the DP is O(V^2 k); a corpus that
    exceeds it needs a pre-binned histogram, not silent latency). Oracle:
    golden parquet from an independent dict/loop+Fraction implementation
    (the pagerank/frechet convention), pinned to the sf0.01 gate corpus.

    Scale shape: the corpus-scale work is ONE combiner-first cell-count
    shuffle + ONE bounded count-of-counts fold (distinct VALUES, not
    cells, reach the driver — the doc_length histogram discipline); the
    DP is bounded by the histogram width."""
    _ensure_jenks_golden(sf_dir)
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _JNK_P

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

    counts = count_by_u64(
        ds.map_batches(cell_key, batch_format="pyarrow", batch_size=131072),
        "key",
    )

    def hist_partial(b: pa.Table) -> pa.Table:
        c = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        u, f = np.unique(c, return_counts=True)
        return pa.table(
            {
                "v": pa.array(u, pa.int64()),
                "f": pa.array(f.astype(np.int64), pa.int64()),
            }
        )

    hist_t = _collect_table(
        counts.map_batches(hist_partial, batch_format="pyarrow")
    )  # <= blocks x distinct-values rows; values, not cells
    empty = pa.table(
        {
            "cls": pa.array([], pa.int64()),
            "lo": pa.array([], pa.int64()),
            "hi": pa.array([], pa.int64()),
            "n_cells": pa.array([], pa.int64()),
            "ssd_micro": pa.array([], pa.int64()),
        }
    )
    if hist_t.num_rows == 0:
        return empty
    hv = hist_t["v"].to_numpy(zero_copy_only=False)
    hf = hist_t["f"].to_numpy(zero_copy_only=False)
    vals, inv = np.unique(hv, return_inverse=True)
    freqs = np.zeros(len(vals), np.int64)
    np.add.at(freqs, inv, hf)
    if len(vals) > _JNK_MAX_VALUES:
        raise ValueError(
            f"geo_jenks_breaks: {len(vals)} distinct values exceeds the "
            f"O(V^2) DP bound {_JNK_MAX_VALUES} — pre-bin the histogram"
        )
    rows = _jenks_dp([int(x) for x in vals], [int(x) for x in freqs])
    return pa.table(
        {
            "cls": pa.array([r[0] for r in rows], pa.int64()),
            "lo": pa.array([r[1] for r in rows], pa.int64()),
            "hi": pa.array([r[2] for r in rows], pa.int64()),
            "n_cells": pa.array([r[3] for r in rows], pa.int64()),
            "ssd_micro": pa.array(
                [(r[4].numerator * 1_000_000) // r[4].denominator
                 for r in rows],
                pa.int64(),
            ),
        }
    )


_SCAN_P = 6           # scan raster order (64 x 64)
_SCAN_RADII = (1, 2, 3)  # Chebyshev window radii, in cells
_SCAN_TOPK = 10


@query(sql=f"""
WITH cells AS MATERIALIZED (
  SELECT CAST(((doc_id * 104729) % 360000) * {1 << _SCAN_P} // 360000
              AS BIGINT) AS cx,
         CAST(((doc_id * 7919) % 140000) * {1 << _SCAN_P} // 140000
              AS BIGINT) AS cy,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM documents GROUP BY 1, 2),
lattice AS MATERIALIZED (
  SELECT gx.x AS cx, gy.y AS cy
  FROM (SELECT UNNEST(range(0, {1 << _SCAN_P})) AS x) gx
  CROSS JOIN (SELECT UNNEST(range(0, {1 << _SCAN_P})) AS y) gy),
radii AS (SELECT UNNEST({list(_SCAN_RADII)}) AS r),
wins AS MATERIALIZED (
  SELECT l.cx, l.cy, rr.r,
         COALESCE(CAST(SUM(c.cnt) AS BIGINT), 0) AS c,
         (LEAST(l.cx + rr.r, {(1 << _SCAN_P) - 1}) - GREATEST(l.cx - rr.r, 0)
            + 1)
         * (LEAST(l.cy + rr.r, {(1 << _SCAN_P) - 1})
            - GREATEST(l.cy - rr.r, 0) + 1) AS w
  FROM lattice l
  CROSS JOIN radii rr
  LEFT JOIN cells c
    ON c.cx BETWEEN l.cx - rr.r AND l.cx + rr.r
   AND c.cy BETWEEN l.cy - rr.r AND l.cy + rr.r
  GROUP BY 1, 2, 3)
SELECT cx, cy, CAST(r AS BIGINT) AS r, c, w,
       (c * 1000000) // w AS ratio_micro
FROM wins WHERE c > 0
ORDER BY ratio_micro DESC, cx, cy, r
LIMIT {_SCAN_TOPK}
""")
def geo_scan_statistic(sf_dir: str):
    """SPATIAL SCAN STATISTIC, uniform-baseline max-density form (the
    Kulldorff/SaTScan moving-window hotspot hunt, simplified to the
    exactly-orderable core: among every Chebyshev window of radius r in
    {_SCAN_RADII} centered on each lattice cell, find the windows with
    the highest document density c/w — count over LIVE cells in window,
    truncated at the grid edge). Output: the top-{k} windows
    (cx, cy, r, c, w, ratio_micro), ratio DESC then (cx, cy, r).

    Exact ordering: the density c/w has denominator w <= 49, so two
    distinct ratios differ by >= 1/49^2 and the integer surrogate
    (c * 1e6) // w orders them EXACTLY (the floor gap 1e6/2401 >> 1 —
    documented, not hoped); ties on the surrogate ARE ties on the
    rational and break by (cx, cy, r) on both engines. No float
    anywhere. The SQL mirror materializes the same lattice, window-joins
    on Chebyshev distance and ranks by the same surrogate.

    Scale shape: the corpus-scale work is ONE combiner-first cell-count
    shuffle; the window scan iterates on the bounded 4^{p} grid as a
    numpy summed-area table (O(grid) per radius, not O(grid x window))."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _SCAN_P

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
    grid = np.zeros((n, n), np.int64)
    if cells.num_rows:
        k = cells["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = cells["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        grid[(k >> np.uint64(32)).astype(np.int64),
             (k & np.uint64(0xFFFFFFFF)).astype(np.int64)] = c
    # summed-area table: window sums in O(1) per center
    sat = np.zeros((n + 1, n + 1), np.int64)
    sat[1:, 1:] = grid.cumsum(0).cumsum(1)
    rows = []
    for r in _SCAN_RADII:
        for cx in range(n):
            x0, x1 = max(0, cx - r), min(n - 1, cx + r)
            w_x = x1 - x0 + 1
            for cy in range(n):
                y0, y1 = max(0, cy - r), min(n - 1, cy + r)
                w = w_x * (y1 - y0 + 1)
                c = int(
                    sat[x1 + 1, y1 + 1] - sat[x0, y1 + 1]
                    - sat[x1 + 1, y0] + sat[x0, y0]
                )
                if c > 0:
                    rows.append(((c * 1_000_000) // w, cx, cy, r, c, w))
    if not rows:
        return pa.table(
            {
                "cx": pa.array([], pa.int64()),
                "cy": pa.array([], pa.int64()),
                "r": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
                "w": pa.array([], pa.int64()),
                "ratio_micro": pa.array([], pa.int64()),
            }
        )
    rows.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    rows = rows[:_SCAN_TOPK]
    return pa.table(
        {
            "cx": pa.array([t[1] for t in rows], pa.int64()),
            "cy": pa.array([t[2] for t in rows], pa.int64()),
            "r": pa.array([t[3] for t in rows], pa.int64()),
            "c": pa.array([t[4] for t in rows], pa.int64()),
            "w": pa.array([t[5] for t in rows], pa.int64()),
            "ratio_micro": pa.array([t[0] for t in rows], pa.int64()),
        }
    )


_EB_P = 6  # raster order (64 x 64), the scan/jenks lattice


@query(sql=f"""
WITH cells AS MATERIALIZED (
  SELECT CAST(((doc_id * 104729) % 360000) * {1 << _EB_P} // 360000
              AS BIGINT) AS cx,
         CAST(((doc_id * 7919) % 140000) * {1 << _EB_P} // 140000
              AS BIGINT) AS cy,
         CAST(COUNT(*) AS BIGINT) AS cnt
  FROM documents GROUP BY 1, 2),
lattice AS MATERIALIZED (
  SELECT gx.x AS cx, gy.y AS cy, COALESCE(c.cnt, 0) AS c
  FROM (SELECT UNNEST(range(0, {1 << _EB_P})) AS x) gx
  CROSS JOIN (SELECT UNNEST(range(0, {1 << _EB_P})) AS y) gy
  LEFT JOIN cells c ON c.cx = gx.x AND c.cy = gy.y),
mom AS MATERIALIZED (
  SELECT CAST(COUNT(*) AS BIGINT) AS nn,
         CAST(SUM(c) AS BIGINT) AS cc,
         CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS s2
  FROM lattice),
alg AS MATERIALIZED (
  SELECT nn, cc, (cc * 1000000) // nn AS mm,
         nn * s2 - CAST(cc AS HUGEINT) * cc AS fden,
         GREATEST(nn * s2 - CAST(cc AS HUGEINT) * cc
                  - CAST(cc AS HUGEINT) * nn, 0) AS fnum
  FROM mom)
SELECT l.cx, l.cy, l.c,
       CAST(a.mm + CASE WHEN a.fden > 0
                        THEN ((CAST(l.c AS HUGEINT) * 1000000 - a.mm)
                              * a.fnum) // a.fden
                        ELSE 0 END AS BIGINT) AS shrunk_micro
FROM lattice l CROSS JOIN alg a
ORDER BY l.c DESC, l.cx, l.cy
LIMIT 20
""")
def geo_eb_rates(sf_dir: str):
    """EMPIRICAL-BAYES RATE SHRINKAGE of per-cell counts (Marshall's
    global-linear EB estimator, the disease-mapping smoother that pulls
    noisy small-area rates toward the global mean before anyone reads a
    choropleth): over ALL 4^{p} lattice cells (zeros are real
    observations), shrunk_i = m + (c_i - m) * (s^2 - m) / s^2 — the
    method-of-moments Gamma-Poisson posterior mean; underdispersion
    (s^2 <= m) clamps the factor to 0 so everything shrinks to the mean.
    Output: the top-20 cells by raw count (count DESC, cx, cy) with raw
    and shrunk_micro values.

    Integer spec: m lands on the micro grid as one floor division, the
    shrink factor stays a RATIO of exact integer moment combinations
    (f_num = N*S2 - C^2 - C*N, f_den = N*S2 - C^2), and
    shrunk_micro = m_micro + tdiv((c*1e6 - m_micro) * f_num, f_den) —
    one truncating division, mirrored with HUGEINT intermediates in
    SQL. Scale shape: ONE combiner-first cell-count shuffle; the
    moment fold and the top-20 run on the bounded grid."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    n = 1 << _EB_P

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
    grid = np.zeros((n, n), np.int64)
    if cells.num_rows:
        k = cells["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = cells["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        grid[(k >> np.uint64(32)).astype(np.int64),
             (k & np.uint64(0xFFFFFFFF)).astype(np.int64)] = c
    N = n * n
    C = int(grid.sum())
    S2 = int((grid.astype(object) ** 2).sum())
    m_micro = (C * 1_000_000) // N
    f_den = N * S2 - C * C
    f_num = max(f_den - C * N, 0)  # clamp underdispersion to zero shrinkage
    flat = grid.ravel()
    order = np.lexsort(
        (np.arange(N) % n, np.arange(N) // n, -flat)
    )[:20]
    gx = (order // n).astype(np.int64)
    gy = (order % n).astype(np.int64)
    shrunk = [
        m_micro
        + (_tdiv((int(cv) * 1_000_000 - m_micro) * f_num, f_den)
           if f_den > 0 else 0)
        for cv in flat[order]
    ]
    return pa.table(
        {
            "cx": pa.array(gx, pa.int64()),
            "cy": pa.array(gy, pa.int64()),
            "c": pa.array(flat[order], pa.int64()),
            "shrunk_micro": pa.array(shrunk, pa.int64()),
        }
    )
