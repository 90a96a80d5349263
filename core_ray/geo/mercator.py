"""Web-Mercator (slippy) z/x/y tile math, vectorized.

Plays the "tile pyramid" role of the reference's hierarchical rollup counting
(reference: pkg/domain/test.go:32-38, pkg/domain/inventory.go:29-52 — recursive
CountTests rollup). Tile coordinates are the rollup keys; a z-level parent is a
pure integer shift of its children (x >> dz, y >> dz), which makes the
hierarchical aggregation a cheap derived-key groupby, never a re-shuffle by a
new key.

The formulas are written to be mirrored EXACTLY (same operation order, same
clamping) by the DuckDB oracle SQL in queries/geo_ops.py so value-hashes
match.
"""

from __future__ import annotations

import numpy as np

# Web-mercator is undefined at the poles; the standard cutoff.
MAX_LAT = 85.05112878


def lonlat_to_tile(lon: np.ndarray, lat: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized lon/lat (degrees) -> (tile_x, tile_y) int64 at zoom ``z``.

    SQL mirror (keep in sync with queries/geo_ops.py):
        x = CAST(GREATEST(0, LEAST(n-1, FLOOR((lon+180.0)/360.0*n))) AS BIGINT)
        y = CAST(GREATEST(0, LEAST(n-1, FLOOR((1.0 - LN(TAN(RADIANS(lat))
              + 1.0/COS(RADIANS(lat)))/PI())/2.0*n))) AS BIGINT)
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    n = float(1 << z)
    x = np.floor((lon + 180.0) / 360.0 * n)
    lat_rad = np.radians(np.clip(lat, -MAX_LAT, MAX_LAT))
    y = np.floor((1.0 - np.log(np.tan(lat_rad) + 1.0 / np.cos(lat_rad)) / np.pi) / 2.0 * n)
    x = np.clip(x, 0, n - 1).astype(np.int64)
    y = np.clip(y, 0, n - 1).astype(np.int64)
    return x, y


def tile_parent(x: np.ndarray, y: np.ndarray, dz: int) -> tuple[np.ndarray, np.ndarray]:
    """Parent tile ``dz`` levels up: integer shift (exact containment)."""
    return np.asarray(x) >> dz, np.asarray(y) >> dz


def tile_key(z: np.ndarray | int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pack (z, x, y) into one uint64 sort/group key: z<<58 | x<<29 | y.
    29 bits per axis -> valid for zoom <= 29 (plenty past the engine's z12
    base; zoom 30 would overflow x into the z bits)."""
    return (
        (np.asarray(z, dtype=np.uint64) << np.uint64(58))
        | (np.asarray(x, dtype=np.uint64) << np.uint64(29))
        | np.asarray(y, dtype=np.uint64)
    )


def tile_unkey(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of tile_key: uint64 -> (z:int32, x:int64, y:int64). The ONE
    place that knows the bit layout's inverse — every reduce that unpacks
    tile keys goes through here."""
    key = np.asarray(key, dtype=np.uint64)
    mask = np.uint64((1 << 29) - 1)
    return (
        (key >> np.uint64(58)).astype(np.int32),
        ((key >> np.uint64(29)) & mask).astype(np.int64),
        (key & mask).astype(np.int64),
    )
