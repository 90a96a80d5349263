"""Bloom filter + HLL tile sketch + hot-set discovery: exactness/equivalence
and error-bound tests."""

import numpy as np
import pyarrow as pa

from core_ray.stages.join import BloomFilter
from core_ray.stages.tiles import tile_rollup


class TestBloomFilter:
    def test_no_false_negatives_and_low_fp(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1 << 62, 50_000, dtype=np.uint64)
        bf = BloomFilter(len(keys))
        bf.add(keys)
        assert bf.contains(keys).all(), "bloom filters must never false-negative"
        probe = rng.integers(0, 1 << 62, 50_000, dtype=np.uint64)
        fresh = probe[~np.isin(probe, keys)]
        fp_rate = bf.contains(fresh).mean()
        assert fp_rate < 0.01, fp_rate


class TestTileHLL:
    def test_hll_error_bounded_vs_exact(self, ray_session):
        """approx_distinct=True: mention_count stays exact; page_count is a
        sketch estimate within HLL error bounds (~3% at 2^10 registers)."""
        import ray.data

        rng = np.random.default_rng(7)
        n_urls = 3000
        repeats = 6
        centers = [(40.7, -74.0), (48.85, 2.35), (-23.55, -46.63)]
        urls, lats, lons = [], [], []
        for u in range(n_urls):
            clat, clon = centers[u % len(centers)]
            for _ in range(repeats):
                urls.append(f"https://site{u}.example.com/")
                lats.append(clat + rng.normal(0, 0.8))
                lons.append(clon + rng.normal(0, 0.8))
        t = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "lat": pa.array(lats, pa.float64()),
                "lon": pa.array(lons, pa.float64()),
            }
        )

        def rows(approx):
            out = tile_rollup(ray.data.from_arrow(t), zooms=(5, 7), approx_distinct=approx)
            return {
                (r["tile_z"], r["tile_x"], r["tile_y"]): (r["page_count"], r["mention_count"])
                for r in out.take_all()
            }

        exact = rows(False)
        approx = rows(True)
        assert set(exact) == set(approx)
        big_err = []
        for k, (pc_e, mc_e) in exact.items():
            pc_a, mc_a = approx[k]
            assert mc_a == mc_e, k  # mention_count is never estimated
            if pc_e >= 200:
                big_err.append(abs(pc_a - pc_e) / pc_e)
        assert big_err, "fixture must produce some dense tiles"
        assert max(big_err) < 0.15, big_err
        tot_e = sum(v[0] for v in exact.values())
        tot_a = sum(v[0] for v in approx.values())
        assert abs(tot_a - tot_e) / tot_e < 0.05


class TestHotSetDiscovery:
    def test_distributed_equals_driver_path(self, ray_session, monkeypatch):
        """_hot_sets: the distributed above-threshold-only path must produce
        the same hot coarse groups and fine salts as the small-histogram
        driver path."""
        import ray.data

        from core_ray.stages import join
        from core_ray.stages.knn import _hot_sets

        rng = np.random.default_rng(5)
        # one mega-cell + background
        cells = np.concatenate(
            [
                np.full(5000, 1234567, dtype=np.uint64),
                rng.integers(1, 10**6, 3000).astype(np.uint64),
            ]
        )
        t = pa.table({"hex_cell": pa.array(cells, pa.uint64())})
        ds = ray.data.from_arrow(t)
        hc1, fs1 = _hot_sets(ds, 5, hot_threshold=1000, salt_target=500)
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
        hc2, fs2 = _hot_sets(ray.data.from_arrow(t), 5, hot_threshold=1000, salt_target=500)
        assert sorted(hc1.tolist()) == sorted(hc2.tolist()) and len(hc1) > 0
        assert fs1 == fs2 and 1234567 in fs1
