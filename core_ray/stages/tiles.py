"""Tile-pyramid rollup: z/x/y assignment + hierarchical counts.

The A1 analog — the reference's recursive CountTests rollup
(pkg/domain/test.go:32-38, pkg/domain/inventory.go:29-52) re-expressed as the
classic tile-pyramid aggregation.

Dataflow (exactly ONE all-to-all shuffle):
  1. assign each geocoded row its z12 web-mercator tile (map_batches, numpy)
  2. explode to every requested zoom (parent tile = integer shift — exact
     containment, no new shuffle key), pack each tile into one uint64
     ``tile_key`` and PRE-AGGREGATE (tile_key, url) -> mention_count inside
     the batch (pyarrow TableGroupBy; a pure combiner, no shuffle — cuts the
     exploded volume when a page has many mentions in one tile)
  3. shuffle by ``tile_key`` (``agg.map_groups_partitioned``) and reduce
     each partition in ONE vectorized numpy pass (np.unique + reduceat):
     page_count = distinct urls, mention_count = summed rows.

Skew note (documented limit): the reduce key is the tile, so one
world-dominating tile lands in one partition. Exact distinct-url counting
requires co-locating a tile's rows; at extreme scale swap the distinct
counter for a mergeable sketch (HLL) and keep the same plan shape.

page_count = distinct urls in the tile; mention_count = geocoded rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.geo import mercator
from core_ray.stages.agg import map_groups_partitioned

BASE_ZOOM = 12


def _assign_tiles(batch: pa.Table) -> pa.Table:
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lon = batch["lon"].to_numpy(zero_copy_only=False)
    x, y = mercator.lonlat_to_tile(lon, lat, BASE_ZOOM)
    return pa.table(
        {
            "url": batch["url"],
            "tile_x": pa.array(x, pa.int64()),
            "tile_y": pa.array(y, pa.int64()),
        }
    )


def _reduce_partition(part: pa.Table) -> pa.Table:
    """One vectorized pass over a hash partition of (tile_key, url, cnt)."""
    if part.num_rows == 0:
        return pa.table(
            {
                "tile_z": pa.array([], pa.int32()),
                "tile_x": pa.array([], pa.int64()),
                "tile_y": pa.array([], pa.int64()),
                "page_count": pa.array([], pa.int64()),
                "mention_count": pa.array([], pa.int64()),
            }
        )
    tk = part["tile_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cnt = part["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    _, code = np.unique(np.asarray(part["url"].to_pylist()), return_inverse=True)

    order = np.lexsort((code, tk))
    tk_o, code_o, cnt_o = tk[order], code[order], cnt[order]
    # pair boundaries: (tile, url) change
    pair_new = np.ones(len(tk_o), dtype=bool)
    pair_new[1:] = (tk_o[1:] != tk_o[:-1]) | (code_o[1:] != code_o[:-1])
    # tile boundaries
    tile_new = np.ones(len(tk_o), dtype=bool)
    tile_new[1:] = tk_o[1:] != tk_o[:-1]
    tile_starts = np.nonzero(tile_new)[0]
    mention = np.add.reduceat(cnt_o, tile_starts)
    pages = np.add.reduceat(pair_new.astype(np.int64), tile_starts)
    uz, ux, uy = mercator.tile_unkey(tk_o[tile_starts])
    return pa.table(
        {
            "tile_z": pa.array(uz, pa.int32()),
            "tile_x": pa.array(ux, pa.int64()),
            "tile_y": pa.array(uy, pa.int64()),
            "page_count": pa.array(pages, pa.int64()),
            "mention_count": pa.array(mention, pa.int64()),
        }
    )


# ---- HyperLogLog sketch (the documented skew escape hatch) --------------
# Exact distinct-url counting co-locates every row of a tile in one
# partition — a world-dominating tile then serializes in one worker. The
# HLL variant replaces the per-(tile, url) rows with MERGEABLE fixed-size
# register blocks (2^10 bytes/tile/batch), so the shuffle volume per tile
# is O(batches), not O(rows), and the reduce is an elementwise max.

_HLL_P = 10
_HLL_M = 1 << _HLL_P


def _url_hash_u64(urls: list[str]) -> np.ndarray:
    import zlib

    n = len(urls)
    h1 = np.fromiter((zlib.crc32(u.encode()) for u in urls), dtype=np.uint64, count=n)
    h2 = np.fromiter((zlib.adler32(u.encode()) for u in urls), dtype=np.uint64, count=n)
    z = (h1 << np.uint64(32)) ^ (h2 * np.uint64(2654435761))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return z ^ (z >> np.uint64(31))


def _floor_log2_u64(w: np.ndarray) -> np.ndarray:
    """Exact integer floor(log2) (float log2 mis-rounds near powers of two)."""
    fl = np.zeros(len(w), dtype=np.int64)
    tmp = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = tmp >= (np.uint64(1) << np.uint64(shift))
        fl[mask] += shift
        tmp[mask] >>= np.uint64(shift)
    return fl


def _hll_ranks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 hashes -> (register index, rank = leading-zeros-of-suffix + 1)."""
    idx = (h & np.uint64(_HLL_M - 1)).astype(np.int64)
    w = h >> np.uint64(_HLL_P)
    nz = w > 0
    rank = np.full(len(h), (64 - _HLL_P) + 1, dtype=np.int64)
    rank[nz] = (64 - _HLL_P) - _floor_log2_u64(w[nz])
    return idx, rank.astype(np.uint8)


def _hll_estimate(regs: np.ndarray) -> np.ndarray:
    """(rows, m) registers -> int64 distinct estimates (with the standard
    linear-counting small-range correction)."""
    m = regs.shape[1]
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum(axis=1)
    v = (regs == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (v > 0)
    est[small] = m * np.log(m / v[small])
    return np.round(est).astype(np.int64)


def explode_preagg(batch: pa.Table, zooms: tuple[int, ...]) -> pa.Table:
    """Each row's tile key at every zoom, pre-aggregated to one
    ``(tile_key, url, cnt)`` row per pair in the batch (the combiner ahead
    of tile_rollup's shuffle)."""
    x12 = batch["tile_x"].to_numpy(zero_copy_only=False).astype(np.uint64)
    y12 = batch["tile_y"].to_numpy(zero_copy_only=False).astype(np.uint64)
    parts = []
    for zoom in zooms:
        dz = np.uint64(BASE_ZOOM - zoom)
        t = pa.table(
            {
                "tile_key": pa.array(mercator.tile_key(zoom, x12 >> dz, y12 >> dz), pa.uint64()),
                "url": batch["url"],
            }
        )
        # combiner: collapse same (tile, url) inside the batch.
        # select-by-name BEFORE the positional rename: pyarrow's
        # keys-vs-aggregates column order has varied across versions
        agg = pa.TableGroupBy(t, ["tile_key", "url"]).aggregate([([], "count_all")])
        parts.append(
            agg.select(["tile_key", "url", "count_all"])
            .rename_columns(["tile_key", "url", "cnt"])
        )
    return pa.concat_tables(parts)


def tile_rollup(ds, zooms: tuple[int, ...] = (7, 9, 12), approx_distinct: bool = False):
    """Dataset[joined rows] -> Dataset[(tile_z, tile_x, tile_y, page_count,
    mention_count)] for each z in ``zooms`` (all z <= BASE_ZOOM).

    ``approx_distinct=True`` swaps the exact distinct-url counter for a
    mergeable HyperLogLog sketch (page_count becomes a ±~3% estimate;
    mention_count stays exact) — same plan shape, skew-proof per-tile
    shuffle volume."""
    zooms = tuple(zooms)
    for z in zooms:
        if z > BASE_ZOOM:
            raise ValueError(f"zoom {z} exceeds base zoom {BASE_ZOOM}")
    if approx_distinct:
        return _tile_rollup_hll(ds, zooms)

    return map_groups_partitioned(
        ds.map_batches(_assign_tiles, batch_format="pyarrow", batch_size=65536)
        .map_batches(explode_preagg, fn_kwargs={"zooms": zooms}, batch_format="pyarrow",
                     batch_size=65536),
        "tile_key", _reduce_partition,
    )


def _tile_rollup_hll(ds, zooms: tuple[int, ...]):
    def explode_hll(batch: pa.Table) -> pa.Table:
        x12 = batch["tile_x"].to_numpy(zero_copy_only=False).astype(np.uint64)
        y12 = batch["tile_y"].to_numpy(zero_copy_only=False).astype(np.uint64)
        uh = _url_hash_u64(batch["url"].to_pylist())
        keys, hashes = [], []
        for zoom in zooms:
            dz = np.uint64(BASE_ZOOM - zoom)
            keys.append(mercator.tile_key(
                np.full(len(x12), zoom, dtype=np.uint64), x12 >> dz, y12 >> dz
            ))
            hashes.append(uh)
        key = np.concatenate(keys) if keys else np.zeros(0, dtype=np.uint64)
        uh_all = np.concatenate(hashes) if hashes else np.zeros(0, dtype=np.uint64)
        uq, inv = np.unique(key, return_inverse=True)
        regs = np.zeros((len(uq), _HLL_M), dtype=np.uint8)
        idx, rank = _hll_ranks(uh_all)
        np.maximum.at(regs, (inv, idx), rank)
        cnt = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        return pa.table(
            {
                "tile_key": pa.array(uq, pa.uint64()),
                "regs": pa.array([r.tobytes() for r in regs], pa.binary()),
                "cnt": pa.array(cnt, pa.int64()),
            }
        )

    def reduce_hll(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "tile_z": pa.array([], pa.int32()),
                    "tile_x": pa.array([], pa.int64()),
                    "tile_y": pa.array([], pa.int64()),
                    "page_count": pa.array([], pa.int64()),
                    "mention_count": pa.array([], pa.int64()),
                }
            )
        key = part["tile_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        regs = np.frombuffer(
            b"".join(part["regs"].to_pylist()), dtype=np.uint8
        ).reshape(len(key), _HLL_M)
        cnt = part["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        key_o, regs_o, cnt_o = key[order], regs[order], cnt[order]
        new = np.ones(len(key_o), dtype=bool)
        new[1:] = key_o[1:] != key_o[:-1]
        starts = np.nonzero(new)[0]
        merged = np.maximum.reduceat(regs_o, starts, axis=0)
        mention = np.add.reduceat(cnt_o, starts)
        pages = _hll_estimate(merged)
        uz, ux, uy = mercator.tile_unkey(key_o[starts])
        return pa.table(
            {
                "tile_z": pa.array(uz, pa.int32()),
                "tile_x": pa.array(ux, pa.int64()),
                "tile_y": pa.array(uy, pa.int64()),
                "page_count": pa.array(pages, pa.int64()),
                "mention_count": pa.array(mention, pa.int64()),
            }
        )

    return map_groups_partitioned(
        ds.map_batches(_assign_tiles, batch_format="pyarrow", batch_size=65536)
        .map_batches(explode_hll, batch_format="pyarrow", batch_size=65536),
        "tile_key", reduce_hll,
    )
