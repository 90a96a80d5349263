"""Per-tile convex hulls: hull-of-hulls combiner equivalence + golden parity
at a second scale (the driver checks sf0.01)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _canon(t: pa.Table, cols) -> pa.Table:
    t = t.select(cols)
    return t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in cols]))


def _collect(ds) -> pa.Table:
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tabs)


@pytest.mark.parametrize("seed,n,nk", [(3, 5000, 12), (4, 300, 5), (5, 40, 40)])
def test_tile_hulls_combiner_matches_single_shot(ray_session, seed, n, nk):
    """Distributed hull-of-hulls over 6 blocks must equal the single-shot
    per-tile hull of the full point set — the combiner identity
    hull(A ∪ B) == hull(hull(A) ∪ hull(B)) exercised with duplicates,
    collinear runs (2-decimal lattice), and single-point tiles."""
    import ray.data

    from core_ray.queries.geo_ops import _per_tile_hulls, tile_hulls

    rng = np.random.default_rng(seed)
    key = rng.integers(0, nk, n).astype(np.uint64)
    lon = np.round(rng.uniform(-10, 10, n), 2)
    lat = np.round(rng.uniform(-10, 10, n), 2)
    t = pa.table({
        "key": pa.array(key, pa.uint64()),
        "lon": pa.array(lon, pa.float64()),
        "lat": pa.array(lat, pa.float64()),
    })
    dist = _collect(tile_hulls(ray.data.from_arrow(t).repartition(6)))
    k = (
        dist["tile_x"].to_numpy(zero_copy_only=False).astype(np.uint64)
        << np.uint64(32)
    ) | dist["tile_y"].to_numpy(zero_copy_only=False).astype(np.uint64)
    dist = dist.append_column("key", pa.array(k, pa.uint64()))
    single = _per_tile_hulls(t, emit_seq=True)
    cols = ["key", "seq", "lon", "lat"]
    assert _canon(dist, cols).equals(_canon(single, cols))


def test_hull_matches_golden_second_scale(ray_session):
    import pyarrow.parquet as pq

    from core_ray.fixtures import docs_golden as dg
    from core_ray.queries import QUERIES

    sf = "/root/testdata/sf0.001"
    eng = _collect(QUERIES["geo_convex_hull"](sf))
    ids = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])["doc_id"].to_pylist()
    golden = dg.golden_tile_hulls(ids)
    cols = ["tile_x", "tile_y", "seq", "lat", "lon"]
    assert eng.num_rows == golden.num_rows > 0
    assert _canon(eng, cols).equals(_canon(golden, cols))
