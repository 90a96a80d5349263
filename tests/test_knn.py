"""Per-cell kNN plan shape: the expansion routes rows to their reduce
partition, so the sort shuffle runs with no repartition in front of it, the
reduce still spreads over several blocks, and the result equals a run that
forces every crowded cell through the salted path."""

import numpy as np
import pyarrow as pa

N = 50_000


def _points():
    import ray.data

    from core_ray.geo import hexgrid

    rng = np.random.default_rng(7)
    # one 1°×1° box with a dense "city" in its middle, so a low hot
    # threshold salts real cells; coordinates are rounded so many points
    # share exact coords and the (dist, url, mention_idx) tie-break is used
    city = rng.random(N) < 0.2
    lon = np.where(city, 10.5 + rng.normal(0, 0.05, N), 10.0 + rng.random(N))
    lat = np.where(city, 50.5 + rng.normal(0, 0.05, N), 50.0 + rng.random(N))
    lon, lat = np.round(lon, 3), np.round(lat, 3)
    t = pa.table(
        {
            "url": pa.array([f"https://p/{i // 3}" for i in range(N)], pa.string()),
            "mention_idx": pa.array(np.arange(N) % 3, pa.int32()),
            "lat": pa.array(lat, pa.float64()),
            "lon": pa.array(lon, pa.float64()),
            "hex_cell": pa.array(hexgrid.lonlat_to_cell(lon, lat, 7), pa.uint64()),
        }
    )
    step = N // 4
    return ray.data.from_arrow([t.slice(i, step) for i in range(0, N, step)])


def _rows(ds) -> pa.Table:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([("url", "ascending"), ("mention_idx", "ascending"),
                      ("rank", "ascending")])


def test_knn_sort_shuffle_without_repartition_matches_salted(ray_session):
    from core_ray.stages.knn import _hot_sets, knn_per_cell

    ds = _points()
    assert ds.num_blocks() == 4
    assert _hot_sets(ds, 5, 50, 20)[1], "the forced run must salt some cells"
    out = knn_per_cell(ds).materialize()
    assert "Repartition" not in out.stats()
    assert out.num_blocks() >= 2, "the kNN reduce collapsed to one task"
    got = _rows(out)
    assert got.num_rows == 5 * N
    salted = _rows(knn_per_cell(ds, hot_threshold=50, salt_target=20))
    assert got.equals(salted)


def _skewed_cells():
    """Four blocks that each repeat the same cells: one cell hot within every
    block, one hot only when its blocks are summed (400 rows per block, 1,600
    in all, against a threshold of 1,000) and a shared background."""
    import ray.data

    from core_ray.geo import hexgrid

    rng = np.random.default_rng(11)
    lon = 10.0 + rng.random(300)
    lat = 50.0 + rng.random(300)
    background = hexgrid.lonlat_to_cell(lon, lat, 7).astype(np.uint64)
    mega, summed = hexgrid.lonlat_to_cell(np.array([10.5, 12.5]), np.array([50.5, 52.5]), 7)
    blocks = []
    for _ in range(4):
        cells = np.concatenate([np.full(1500, mega), np.full(400, summed),
                                rng.choice(background, 600)]).astype(np.uint64)
        rng.shuffle(cells)
        blocks.append(pa.table({"hex_cell": pa.array(cells, pa.uint64())}))
    return ray.data.from_arrow(blocks), int(mega), int(summed)


def test_hot_sets_is_one_map_only_execution(ray_session, executions, monkeypatch):
    """While the partials fit the broadcast rule the hot-cell plan folds each
    block map-side and sums the partials on the driver: one execution, no
    shuffle. The
    distributed branch gives the same sets: it sums the partial counts,
    where a count of partial rows would see the 1,600-row cell as 4 rows."""
    from core_ray.stages import join
    from core_ray.stages.knn import _hot_sets

    ds, mega, summed = _skewed_cells()
    assert ds.num_blocks() == 4
    executions.clear()
    hot_coarse, fine_salts = _hot_sets(ds, 5, hot_threshold=1000, salt_target=500)
    assert len(executions) == 1, executions
    assert "Sort" not in executions[0], executions
    assert len(hot_coarse) and fine_salts == {mega: 12, summed: 4}

    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    hc, fs = _hot_sets(ds, 5, hot_threshold=1000, salt_target=500)
    assert sorted(hc.tolist()) == sorted(hot_coarse.tolist()) and fs == fine_salts
