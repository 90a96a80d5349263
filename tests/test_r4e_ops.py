"""Brute-force property tests for the r4e operators (map-matching snap,
toponym disambiguation, adaptive quadtree).

Same discipline as test_geo_stats_ops.py: the DuckDB oracle runs over the
driver corpus's regular doc_id lattice; here the operators run over a
synthetic documents table with RANDOM doc_ids (seeded) so the derived
coordinates scatter arbitrarily, and every result is checked against an
independent loop/dict pure-Python re-derivation sharing only the published
parameters."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from core_ray.queries import (
    events_burstiness,
    events_gyration,
    events_msd,
    geo_pip_partitioned,
    doc_toponym_resolve,
    geo_isochrone,
    geo_doc_event_band,
    geo_grid_bfs,
    geo_map_match,
    geo_quadtree,
)
from core_ray.queries._shared import _QT_LMAX, _BI_RADIUS
from core_ray.queries.doc_text import _TOPONYMS, _toponym_candidates
from core_ray.queries.geo_ops import (
    _BFS_CELL_MILLI,
    _BFS_SEED_MOD,
    _MM_SEGS,
    _QT_T,
    _mm_segments,
    _ISO_CAP,
    _ppz_zones,
)

N_DOCS = 300
_WORDS = ["table", "row", "scan", "spark", "window", "stream", "vector",
          "sparkle", "windows", "agg"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(20260819)
    doc_id = np.sort(rng.choice(2_000_000, size=N_DOCS, replace=False)).astype(
        np.int64
    )
    texts = [
        " ".join(rng.choice(_WORDS, size=rng.integers(5, 30)))
        for _ in range(N_DOCS)
    ]
    d = tmp_path_factory.mktemp("r4e_corpus")
    pq.write_table(
        pa.table({"doc_id": doc_id, "text": pa.array(texts)}),
        d / "documents.parquet",
    )
    event_id = np.sort(
        rng.choice(2_000_000, size=2 * N_DOCS, replace=False)
    ).astype(np.int64)
    user_id = rng.integers(0, 25, size=2 * N_DOCS).astype(np.int64)
    ts_us = np.sort(
        rng.integers(0, 30 * 86400_000_000, size=2 * N_DOCS)
    ).astype("datetime64[us]")
    pq.write_table(
        pa.table(
            {
                "event_id": event_id,
                "user_id": user_id,
                "ts": pa.array(ts_us, pa.timestamp("us")),
            }
        ),
        d / "events.parquet",
    )
    lat = ((doc_id * 7919) % 140000) / 1000.0 - 70.0
    lon = ((doc_id * 104729) % 360000) / 1000.0 - 180.0
    return str(d), doc_id, texts, lat, lon


def test_map_match_matches_bruteforce(ray_session, corpus):
    sf, doc_id, _, lat, lon = corpus
    got = {r["doc_id"]: r for r in geo_map_match(sf).take_all()}
    alat, alon, dlat, dlon = _mm_segments()
    assert len(got) == N_DOCS
    for i in range(N_DOCS):
        best = None
        for k in range(_MM_SEGS):
            len2 = dlat[k] * dlat[k] + dlon[k] * dlon[k]
            dla, dlo = lat[i] - alat[k], lon[i] - alon[k]
            t = (dla * dlat[k] + dlo * dlon[k]) / len2
            t = min(max(t, 0.0), 1.0)
            rx, ry = dla - t * dlat[k], dlo - t * dlon[k]
            d2 = rx * rx + ry * ry
            if best is None or (d2, k) < best[:2]:
                best = (d2, k, t)
        row = got[int(doc_id[i])]
        assert row["seg_id"] == best[1]
        assert row["t_milli"] == int(np.floor(best[2] * 1000.0))
        assert row["d2_micro"] == int(np.floor(best[0] * 1000000.0))


def test_toponym_matches_bruteforce(ray_session, corpus):
    sf, doc_id, texts, lat, lon = corpus
    got = {(r["doc_id"], r["name"]): r
           for r in doc_toponym_resolve(sf).take_all()}
    name_idx, cand_id, clat, clon = _toponym_candidates()
    exp = {}
    for i in range(N_DOCS):
        for ni, name in enumerate(_TOPONYMS):
            if not re.search(rf"\b{name}\b", texts[i]):
                continue
            best = None
            for j in np.nonzero(name_idx == ni)[0]:
                d2 = (lat[i] - clat[j]) ** 2 + (lon[i] - clon[j]) ** 2
                if best is None or (d2, int(cand_id[j])) < best[:2]:
                    best = (d2, int(cand_id[j]))
            exp[(int(doc_id[i]), name)] = best
    assert set(got) == set(exp)
    assert len(exp) > N_DOCS  # the vocab guarantees plenty of mentions
    for k, (d2, cid) in exp.items():
        assert got[k]["cand_id"] == cid
        assert got[k]["d2_micro"] == int(np.floor(d2 * 1000000.0))


def test_quadtree_matches_bruteforce(ray_session, corpus):
    sf, doc_id, _, _, _ = corpus
    got = geo_quadtree(sf)
    # leaf level per point = smallest L whose cell count <= T, capped
    mlat = (doc_id * 7919) % 140000
    mlon = (doc_id * 104729) % 360000
    counts = [dict() for _ in range(_QT_LMAX + 1)]
    for L in range(_QT_LMAX + 1):
        m = 1 << L
        for i in range(N_DOCS):
            c = (int(mlon[i] * m) // 360000, int(mlat[i] * m) // 140000)
            counts[L][c] = counts[L].get(c, 0) + 1
    exp = {}
    for i in range(N_DOCS):
        for L in range(_QT_LMAX + 1):
            m = 1 << L
            c = (int(mlon[i] * m) // 360000, int(mlat[i] * m) // 140000)
            if counts[L][c] <= _QT_T or L == _QT_LMAX:
                exp[(L, c[0], c[1])] = exp.get((L, c[0], c[1]), 0) + 1
                break
    rows = {(r["level"], r["qx"], r["qy"]): r["n_docs"]
            for r in got.to_pylist()}
    assert rows == exp
    assert sum(rows.values()) == N_DOCS  # leaves partition the corpus
    assert len({r for r in rows if r[0] > 0}) > 0  # the root really split


def test_grid_bfs_paths_agree_and_match_bruteforce(ray_session, corpus):
    sf, doc_id, _, _, _ = corpus
    local = {(r["gx"], r["gy"]): r["hops"]
             for r in geo_grid_bfs(sf).to_pylist()}
    distributed = {(r["gx"], r["gy"]): r["hops"]
                   for r in geo_grid_bfs(sf, force_distributed=True).take_all()}
    assert local == distributed  # forced-guard path equivalence
    # independent dict/set BFS
    mlat = (doc_id * 7919) % 140000
    mlon = (doc_id * 104729) % 360000
    occ = {(int(x // _BFS_CELL_MILLI), int(y // _BFS_CELL_MILLI))
           for x, y in zip(mlon, mlat)}
    seeds = {(int(x // _BFS_CELL_MILLI), int(y // _BFS_CELL_MILLI))
             for x, y, i in zip(mlon, mlat, doc_id)
             if i % _BFS_SEED_MOD == 0}
    assert seeds  # the fixture must produce at least one source
    exp = {c: 0 for c in seeds}
    frontier = set(seeds)
    for r in range(1, 25):
        nxt = set()
        for gx, gy in frontier:
            for c in ((gx + 1, gy), (gx - 1, gy), (gx, gy + 1), (gx, gy - 1)):
                if c in occ and c not in exp:
                    nxt.add(c)
        if not nxt:
            break
        for c in nxt:
            exp[c] = r
        frontier = nxt
    assert local == exp


def test_isochrone_paths_agree_and_match_bruteforce(ray_session, corpus):
    sf, doc_id, _, _, _ = corpus
    local = {(r["gx"], r["gy"]): r["cost"]
             for r in geo_isochrone(sf).to_pylist()}
    distributed = {(r["gx"], r["gy"]): r["cost"]
                   for r in geo_isochrone(sf, force_distributed=True)
                   .take_all()}
    assert local == distributed  # forced-guard path equivalence
    # independent dict Bellman-Ford
    mlat = (doc_id * 7919) % 140000
    mlon = (doc_id * 104729) % 360000
    cells = {}
    seeds = set()
    for x, y, i in zip(mlon, mlat, doc_id):
        c = (int(x // _BFS_CELL_MILLI), int(y // _BFS_CELL_MILLI))
        cells[c] = cells.get(c, 0) + 1
        if i % _BFS_SEED_MOD == 0:
            seeds.add(c)
    toll = {c: 1 + n % 5 for c, n in cells.items()}
    assert seeds
    dist = {c: 0 for c in seeds}
    for _ in range(_ISO_CAP):
        changed = False
        for (gx, gy), d in list(dist.items()):
            for c in ((gx + 1, gy), (gx - 1, gy), (gx, gy + 1), (gx, gy - 1)):
                if c in toll and dist.get(c, 10**9) > d + toll[c]:
                    dist[c] = d + toll[c]
                    changed = True
        if not changed:
            break
    exp = {c: d for c, d in dist.items() if d <= _ISO_CAP}
    assert local == exp


def test_gyration_matches_bruteforce(ray_session, corpus):
    sf, *_ = corpus
    events = pq.read_table(f"{sf}/events.parquet")
    eid = events["event_id"].to_numpy()
    uid = events["user_id"].to_numpy()
    got = {r["user_id"]: r for r in events_gyration(sf).take_all()}
    x = (eid * 104729) % 360000
    y = (eid * 7919) % 140000
    for u in np.unique(uid):
        m = uid == u
        n = int(m.sum())
        sx, sy = int(x[m].sum()), int(y[m].sum())
        sxx, syy = int((x[m] ** 2).sum()), int((y[m] ** 2).sum())
        num = n * (sxx + syy) - sx * sx - sy * sy
        row = got[int(u)]
        assert row["n_events"] == n
        assert row["rog_num"] == num
        assert row["rog_den"] == n * n
        assert row["rog_deg"] == float(
            np.sqrt(np.float64(num) / np.float64(n * n)) / 1000.0
        )


def test_burstiness_and_msd_match_bruteforce(ray_session, corpus):
    sf, *_ = corpus
    events = pq.read_table(f"{sf}/events.parquet")
    eid = events["event_id"].to_numpy()
    uid = events["user_id"].to_numpy()
    us = events["ts"].cast(pa.int64()).to_numpy()
    # burstiness: integer-second gaps under (ts, event_id) per-user order
    got_b = {r["user_id"]: r for r in events_burstiness(sf).take_all()}
    exp_msd_n: dict[int, int] = {}
    exp_msd_s: dict[int, int] = {}
    for u in np.unique(uid):
        m = np.nonzero(uid == u)[0]
        order = m[np.lexsort((eid[m], us[m]))]
        gaps = (us[order][1:] - us[order][:-1]) // 1000000
        if len(gaps) >= 2:
            n, s, ss = len(gaps), int(gaps.sum()), int((gaps**2).sum())
            root = np.sqrt(np.float64(n * ss - s * s))
            row = got_b[int(u)]
            assert (row["n_gaps"], row["sum_s"], row["sum_ss"]) == (n, s, ss)
            assert row["burstiness"] == float(
                (root - np.float64(s)) / (root + np.float64(s))
            )
        # msd contributions
        x = (eid[order] * 104729) % 360000
        y = (eid[order] * 7919) % 140000
        d2 = (x - x[0]) ** 2 + (y - y[0]) ** 2
        lag = (us[order] - us[order][0]) // 3600000000
        for L, d in zip(lag.tolist(), d2.tolist()):
            exp_msd_n[L] = exp_msd_n.get(L, 0) + 1
            exp_msd_s[L] = exp_msd_s.get(L, 0) + int(d)
    got_m = {r["lag_h"]: r for r in events_msd(sf).to_pylist()}
    assert set(got_m) == set(exp_msd_n)
    for L in exp_msd_n:
        assert got_m[L]["n_events"] == exp_msd_n[L]
        assert got_m[L]["sum_d2"] == exp_msd_s[L]


def test_pip_partitioned_matches_bruteforce(ray_session, corpus):
    sf, doc_id, _, lat, lon = corpus
    got = {(r["doc_id"], r["zone_id"])
           for r in geo_pip_partitioned(sf).take_all()}
    zlat0, zlat1, zlon0, zlon1 = _ppz_zones()
    exp = set()
    for i in range(len(doc_id)):
        hit = np.nonzero(
            (lat[i] >= zlat0) & (lat[i] <= zlat1)
            & (lon[i] >= zlon0) & (lon[i] <= zlon1)
        )[0]
        for z in hit:
            exp.add((int(doc_id[i]), int(z)))
    assert len(got) == len(exp) > 0
    assert got == exp


def test_doc_event_band_matches_bruteforce(ray_session, corpus):
    sf, doc_id, _, lat, lon = corpus
    event_id = pq.read_table(f"{sf}/events.parquet")["event_id"].to_numpy()
    elat = ((event_id * 7919) % 140000) / 1000.0 - 70.0
    elon = ((event_id * 104729) % 360000) / 1000.0 - 180.0
    got = {(r["doc_id"], r["event_id"]): r["sq_dist"]
           for r in geo_doc_event_band(sf).take_all()}
    r2 = _BI_RADIUS * _BI_RADIUS
    exp = {}
    for i in range(len(doc_id)):
        dla = lat[i] - elat
        dlo = lon[i] - elon
        d2 = dla * dla + dlo * dlo
        for j in np.nonzero(d2 <= r2)[0]:
            exp[(int(doc_id[i]), int(event_id[j]))] = d2[j]
    assert len(got) == len(exp) > 0
    assert got == exp
