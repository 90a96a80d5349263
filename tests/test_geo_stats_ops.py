"""Brute-force property tests for the r4d geospatial-statistics operators.

The DuckDB oracle tests (test_queries.py) run over the driver corpus, whose
derived-coordinate lattice is regular. Here the same operators run over a
synthetic documents table with RANDOM doc_ids (seeded), which scatters the
derived coordinates arbitrarily — exercising ghost-cell boundaries, lag-bin
edges and argmin ties the lattice never hits — and each result is checked
against an independent O(n^2) numpy re-derivation (loop/dict style, sharing
only the published parameters with the distributed kernels)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from core_ray.queries import (
    geo_idw_interp,
    geo_nearest_facility,
    geo_semivariogram,
    geo_stratified_sample,
)
from core_ray.queries.geo_ops import (
    _IDW_K,
    _IDW_MOD,
    _IDW_Q,
    _IDW_SCALE,
    _NF_Q,
    _SSAMP_CELL_DEG,
    _SSAMP_K,
    _SSAMP_MULT,
)
from core_ray.queries.geo_stats import _VARIO_LAG_DEG, _VARIO_RADIUS_DEG

N_DOCS = 300


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    rng = np.random.default_rng(20260818)
    doc_id = np.sort(rng.choice(2_000_000, size=N_DOCS, replace=False)).astype(
        np.int64
    )
    n_chars = rng.integers(10, 20_000, size=N_DOCS).astype(np.int32)
    d = tmp_path_factory.mktemp("geo_stats_corpus")
    pq.write_table(
        pa.table({"doc_id": doc_id, "n_chars": n_chars,
                  "lang": pa.array(["en"] * N_DOCS)}),
        d / "documents.parquet",
    )
    lat = ((doc_id * 7919) % 140000) / 1000.0 - 70.0
    lon = ((doc_id * 104729) % 360000) / 1000.0 - 180.0
    return str(d), doc_id, n_chars.astype(np.int64), lat, lon


def test_semivariogram_matches_bruteforce(ray_session, corpus):
    sf, doc_id, chars, lat, lon = corpus
    got = geo_semivariogram(sf)
    exp_n: dict[int, int] = {}
    exp_s: dict[int, int] = {}
    r2 = _VARIO_RADIUS_DEG * _VARIO_RADIUS_DEG
    for i in range(N_DOCS):
        for j in range(i + 1, N_DOCS):
            d2 = (lat[i] - lat[j]) ** 2 + (lon[i] - lon[j]) ** 2
            if d2 <= r2:
                b = int(np.floor(np.sqrt(d2) / _VARIO_LAG_DEG))
                exp_n[b] = exp_n.get(b, 0) + 1
                exp_s[b] = exp_s.get(b, 0) + int(chars[i] - chars[j]) ** 2
    assert got.num_rows == len(exp_n) > 2
    for row in got.to_pylist():
        b = row["lag_bin"]
        assert row["n_pairs"] == exp_n[b]
        assert row["sum_sqdiff"] == exp_s[b]
        assert row["gamma"] == float(np.float64(exp_s[b]) / np.float64(2 * exp_n[b]))


def test_idw_matches_bruteforce(ray_session, corpus):
    sf, doc_id, chars, lat, lon = corpus
    got = {r["pid"]: r for r in geo_idw_interp(sf).take_all()}
    probes = [i for i in range(N_DOCS) if doc_id[i] % _IDW_MOD == 0]
    assert len(got) == len(probes) > 0
    for p in probes:
        cand = []
        for j in range(N_DOCS):
            if doc_id[j] == doc_id[p]:
                continue
            d2 = (lat[p] - lat[j]) ** 2 + (lon[p] - lon[j]) ** 2
            cand.append((d2, int(doc_id[j]), int(chars[j])))
        cand.sort()
        top = cand[:_IDW_K]
        sw = swv = 0
        for d2, _, v in top:
            w = _IDW_SCALE // (1 + int(np.floor(d2 * _IDW_Q)))
            sw += w
            swv += w * v
        row = got[int(doc_id[p])]
        assert row["sum_w"] == sw
        assert row["idw_chars"] == float(np.float64(swv) / np.float64(sw))


def test_stratified_sample_matches_bruteforce(ray_session, corpus):
    sf, doc_id, chars, lat, lon = corpus
    got = {r["doc_id"] for r in geo_stratified_sample(sf).take_all()}
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(N_DOCS):
        gx = int(np.floor(lon[i] / _SSAMP_CELL_DEG))
        gy = int(np.floor(lat[i] / _SSAMP_CELL_DEG))
        h = int((doc_id[i] * _SSAMP_MULT) % 4294967296)
        cells.setdefault((gx, gy), []).append((h, int(doc_id[i])))
    exp = set()
    for v in cells.values():
        v.sort()
        exp.update(d for _, d in v[:_SSAMP_K])
    assert got == exp
    assert 0 < len(exp) < N_DOCS  # the cap must actually bite


def test_nearest_facility_matches_bruteforce(ray_session, corpus):
    sf, doc_id, chars, lat, lon = corpus
    k = np.arange(12, dtype=np.int64)
    f_lat = ((k * 11003) % 120000) / 1000.0 - 60.0
    f_lon = ((k * 104729) % 340000) / 1000.0 - 170.0
    exp_n = [0] * 12
    exp_s = [0] * 12
    for i in range(N_DOCS):
        best, fac = None, None
        for f in range(12):
            d2 = (lat[i] - f_lat[f]) ** 2 + (lon[i] - f_lon[f]) ** 2
            if best is None or d2 < best:
                best, fac = d2, f
        exp_n[fac] += 1
        exp_s[fac] += int(np.floor(best * _NF_Q))
    got = geo_nearest_facility(sf).to_pylist()
    for row in got:
        f = row["fac_id"]
        assert row["n_docs"] == exp_n[f]
        assert row["sum_micro"] == exp_s[f]
