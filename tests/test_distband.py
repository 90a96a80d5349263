"""Distance-band spatial self-join (stages/distband.py) vs brute force.

The driver oracle (geo_distance_pairs) checks the operator on the sparse
derived-coordinate lattice; these tests hammer it on DENSE random point sets
where cross-cell pairs, shared-cell pairs and boundary cases all occur."""

import re

import numpy as np
import pyarrow as pa
import pytest

from core_ray.stages.distband import distance_pairs, pairs_in_partition, replicate_to_cells


def _brute(ids, lat, lon, radius):
    out = set()
    r2 = radius * radius
    for i in range(len(ids)):
        dla = lat[i] - lat
        dlo = lon[i] - lon
        sq = dla * dla + dlo * dlo
        for j in np.nonzero((sq <= r2) & (ids > ids[i]))[0]:
            out.add((int(ids[i]), int(ids[j])))
    return out


def _run(ids, lat, lon, radius):
    import ray.data

    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lat": pa.array(lat, pa.float64()),
            "lon": pa.array(lon, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    got = distance_pairs(ds, radius).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert len(pairs) == len(got), "no duplicate pairs"
    return pairs, got


def test_dense_random_matches_brute_force(ray_session):
    rng = np.random.default_rng(7)
    n = 400
    ids = np.arange(n, dtype=np.int64)
    rng.shuffle(ids)  # ids uncorrelated with position
    lat = rng.uniform(-10, 10, n)
    lon = rng.uniform(-10, 10, n)
    radius = 1.5
    pairs, got = _run(ids, lat, lon, radius)
    assert pairs == _brute(ids, lat, lon, radius)
    # distances are the canonical smaller-id-first subtraction
    by_pair = {(r["doc_a"], r["doc_b"]): r["sq_dist"] for r in got}
    pos = {int(i): k for k, i in enumerate(ids)}
    for (a, b), sq in list(by_pair.items())[:50]:
        ia, ib = pos[a], pos[b]
        expect = (lat[ia] - lat[ib]) * (lat[ia] - lat[ib]) + (lon[ia] - lon[ib]) * (
            lon[ia] - lon[ib]
        )
        assert sq == expect


def test_cross_cell_boundary_pairs(ray_session):
    # points straddling a cell boundary at x=0 must still pair up
    ids = np.array([1, 2, 3, 4], dtype=np.int64)
    lat = np.array([-0.01, 0.01, 4.99, 5.01])
    lon = np.array([0.0, 0.0, 0.0, 0.0])
    pairs, _ = _run(ids, lat, lon, radius=5.0)
    assert pairs == _brute(ids, lat, lon, 5.0)
    assert (1, 2) in pairs and (3, 4) in pairs


def test_dense_cell_chunking_is_exact():
    # one cell far denser than the chunk bound: chunked path == one-shot path
    rng = np.random.default_rng(11)
    n = 300
    ids = np.arange(n, dtype=np.int64)
    lat = rng.uniform(0.0, 0.9, n)
    lon = rng.uniform(0.0, 0.9, n)
    part = replicate_to_cells(ids, lat, lon, radius=1.0)
    small = pairs_in_partition(part, 1.0, chunk_pairs=500)
    big = pairs_in_partition(part, 1.0)
    k = lambda t: sorted(zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist()))
    assert k(small) == k(big)
    assert {(a, b) for a, b in k(big)} == _brute(ids, lat, lon, 1.0)


def test_empty_and_singleton(ray_session):
    pairs, _ = _run(np.array([42], dtype=np.int64), np.array([0.0]), np.array([0.0]), 1.0)
    assert pairs == set()


def _brute_hav(ids, lat, lon, max_km):
    from core_ray.stages.distband import haversine_km

    out = set()
    for i in range(len(ids)):
        d = haversine_km(np.full(len(ids), lat[i]), np.full(len(ids), lon[i]), lat, lon)
        for j in np.nonzero((d <= max_km) & (ids > ids[i]))[0]:
            out.add((int(ids[i]), int(ids[j])))
    return out


def _run_hav(ids, lat, lon, max_km, max_abs_lat=70.0):
    import ray.data

    from core_ray.stages.distband import haversine_distance_pairs

    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "lat": pa.array(lat, pa.float64()),
            "lon": pa.array(lon, pa.float64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4)
    got = haversine_distance_pairs(ds, max_km, max_abs_lat=max_abs_lat).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert len(pairs) == len(got), "no duplicate pairs"
    return pairs, got


def test_haversine_dense_random_matches_brute_force(ray_session):
    rng = np.random.default_rng(13)
    n = 400
    ids = np.arange(n, dtype=np.int64)
    rng.shuffle(ids)
    lat = rng.uniform(-69.9, 69.9, n)
    lon = rng.uniform(-180.0, 180.0, n)
    pairs, got = _run_hav(ids, lat, lon, max_km=900.0)
    assert pairs == _brute_hav(ids, lat, lon, 900.0)
    assert all(r["dist_km"] <= 900.0 for r in got)


def test_haversine_antimeridian_pairs(ray_session):
    # lon -179.9 and +179.9 are ~22 km apart at the equator: the ring
    # replication must co-locate them even though raw lon differs by 359.8
    ids = np.array([1, 2, 3, 4], dtype=np.int64)
    lat = np.array([0.0, 0.0, 60.0, 60.0])
    lon = np.array([-179.9, 179.9, -179.5, 179.5])
    pairs, got = _run_hav(ids, lat, lon, max_km=100.0)
    assert pairs == _brute_hav(ids, lat, lon, 100.0)
    assert (1, 2) in pairs and (3, 4) in pairs


def test_haversine_high_lat_wide_lon_pairs(ray_session):
    # at lat 69.9 a 500 km band spans ~13 degrees of longitude — cells
    # sized for the equator would miss these pairs
    ids = np.array([7, 8], dtype=np.int64)
    lat = np.array([69.9, 69.9])
    lon = np.array([0.0, 12.8])
    pairs, _ = _run_hav(ids, lat, lon, max_km=500.0)
    assert pairs == _brute_hav(ids, lat, lon, 500.0) == {(7, 8)}


def test_haversine_guards():
    import ray.data

    from core_ray.stages.distband import haversine_distance_pairs

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "lat": pa.array([0.0]), "lon": pa.array([0.0])})
    with pytest.raises(ValueError):
        haversine_distance_pairs(ray.data.from_arrow(t), 100.0, max_abs_lat=86.0)
    with pytest.raises(ValueError):
        # band so wide the lon ring would have < 4 cells
        haversine_distance_pairs(ray.data.from_arrow(t), 6000.0)


def _brute_bipartite(dids, dlat, dlon, eids, elat, elon, radius):
    out = set()
    r2 = radius * radius
    for i in range(len(dids)):
        dla = dlat[i] - elat
        dlo = dlon[i] - elon
        sq = dla * dla + dlo * dlo
        for j in np.nonzero(sq <= r2)[0]:
            out.add((int(dids[i]), int(eids[j])))
    return out


def _run_bipartite(dids, dlat, dlon, eids, elat, elon, radius):
    import ray.data

    from core_ray.stages.distband import bipartite_band_pairs

    left = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "lat": pa.array(dlat, pa.float64()),
                "lon": pa.array(dlon, pa.float64()),
            }
        )
    ).repartition(3)
    right = ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array(eids, pa.int64()),
                "lat": pa.array(elat, pa.float64()),
                "lon": pa.array(elon, pa.float64()),
            }
        )
    ).repartition(4)
    got = bipartite_band_pairs(left, right, radius).take_all()
    pairs = {(r["doc_id"], r["event_id"]) for r in got}
    assert len(pairs) == len(got), "every qualifying pair emitted exactly once"
    return pairs, got


def test_bipartite_dense_random_matches_brute_force(ray_session):
    rng = np.random.default_rng(11)
    nd, ne = 150, 500
    dids = np.arange(nd, dtype=np.int64)
    eids = np.arange(1000, 1000 + ne, dtype=np.int64)
    dlat = rng.uniform(-8, 8, nd)
    dlon = rng.uniform(-8, 8, nd)
    elat = rng.uniform(-8, 8, ne)
    elon = rng.uniform(-8, 8, ne)
    radius = 1.5
    pairs, got = _run_bipartite(dids, dlat, dlon, eids, elat, elon, radius)
    assert pairs == _brute_bipartite(dids, dlat, dlon, eids, elat, elon, radius)
    # overlapping id domains must NOT dedupe across sides: same-id pairs are legal
    pairs2, _ = _run_bipartite(
        dids, dlat, dlon, np.arange(ne, dtype=np.int64), elat, elon, radius
    )
    assert pairs2 == _brute_bipartite(
        dids, dlat, dlon, np.arange(ne, dtype=np.int64), elat, elon, radius
    )


def test_bipartite_cross_cell_and_empty_sides(ray_session):
    # two points straddling a cell boundary, one just outside the band
    dids = np.array([1], np.int64)
    eids = np.array([10, 11], np.int64)
    pairs, got = _run_bipartite(
        dids, np.array([0.99]), np.array([0.0]),
        eids, np.array([1.01, 2.5]), np.array([0.0, 0.0]), 1.0,
    )
    assert pairs == {(1, 10)}
    assert abs(got[0]["sq_dist"] - (0.99 - 1.01) ** 2) < 1e-15
    # an empty left side emits nothing (the kernel's no-left-rows early out)
    empty, _ = _run_bipartite(
        np.array([], np.int64), np.array([]), np.array([]),
        eids, np.array([1.01, 2.5]), np.array([0.0, 0.0]), 1.0,
    )
    assert empty == set()


def _brute_cell_pairs(key, left, right):
    """(i, j) pairs over rows sorted by key, in left-row order: each left
    row with every right row of its cell (every row when right is None)."""
    order = np.argsort(key, kind="stable") if right is None else np.lexsort((right, key))
    k = key[order]
    lm = np.ones(len(k), bool) if left is None else left[order]
    rm = np.ones(len(k), bool) if right is None else right[order]
    return order, [(i, j) for i in range(len(k)) if lm[i]
                   for j in range(len(k)) if k[j] == k[i] and rm[j]]


def _enumerated(key, left, right, chunk_pairs):
    from core_ray.stages.distband import cell_pairs

    if chunk_pairs is None:
        order, chunks = cell_pairs(key, left, right)
    else:
        order, chunks = cell_pairs(key, left, right, chunk_pairs)
    got = []
    for i, j in chunks:
        assert len(i) == len(j) > 0
        if chunk_pairs == 1:  # every pair-bearing left row is its own chunk
            assert (i == i[0]).all()
        got.extend(zip(i.tolist(), j.tolist()))
    return order, got


def _check_cell_pairs(key, left, right):
    want_order, want = _brute_cell_pairs(key, left, right)
    for chunk_pairs in (1, 7, None):
        order, got = _enumerated(key, left, right, chunk_pairs)
        assert np.array_equal(order, want_order)
        assert got == want, chunk_pairs  # same (i, j) sequence at every chunk size
    return want


@pytest.mark.parametrize("seed", range(5))
def test_cell_pairs_matches_nested_loop(seed):
    # one hot cell holds most rows, so the small chunk sizes cut inside it
    rng = np.random.default_rng(seed)
    n = 60
    key = np.where(rng.random(n) < 0.7, 5, rng.integers(0, 6, n)).astype(np.uint64)
    home = rng.random(n) < 0.3
    side = rng.random(n) < 0.6
    assert _check_cell_pairs(key, home, None)  # home rows as left
    assert _check_cell_pairs(key, None, None)  # every row as left
    assert _check_cell_pairs(key, ~side, side)  # bipartite left / right


def test_cell_pairs_edge_partitions():
    none = np.zeros(0, bool)
    assert _check_cell_pairs(np.zeros(0, np.uint64), none, None) == []
    assert _check_cell_pairs(np.zeros(0, np.uint64), none, none) == []
    key = np.array([3, 1, 3, 1, 2], np.uint64)
    no_left = np.zeros(5, bool)
    assert _check_cell_pairs(key, no_left, None) == []
    assert _check_cell_pairs(key, no_left, ~no_left) == []
    # cell 2 has a left row but no right row; cells 1 and 3 have both
    right = np.array([True, False, False, True, False])
    pairs = _check_cell_pairs(key, ~right, right)
    assert len(pairs) == 2
    order, _ = _brute_cell_pairs(key, ~right, right)
    assert {(int(key[order[i]]), bool(right[order[j]])) for i, j in pairs} == {
        (1, True), (3, True)
    }


_OWN_PAIR_EXPANSION = re.compile(r"lexsort\(\(side, key\)\)|//\s*chunk_pairs|//\s*\(8 << 20\)")


def test_cell_pair_expansion_only_in_cell_pairs():
    """A new hand-copied sort -> segment -> chunked repeat/offset expansion
    fails here: co-located grid-join kernels take their candidate pairs
    from ``distband.cell_pairs``."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "core_ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        lines = [i for i, line in enumerate(src.splitlines(), 1)
                 if _OWN_PAIR_EXPANSION.search(line)]
        if not lines:
            continue
        top = [n for n in ast.parse(src).body if isinstance(n, ast.FunctionDef)]
        for i in lines:
            fn = next((n.name for n in top if n.lineno <= i <= n.end_lineno), None)
            if fn != "cell_pairs":
                found.append(f"{path.relative_to(root).as_posix()}:{i} ({fn})")
    assert not found, "hand-rolled cell-pair expansion; use distband.cell_pairs: " + ", ".join(found)
