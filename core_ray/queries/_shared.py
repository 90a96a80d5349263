"""Query registry plus the helpers, constants and session caches that more
than one query module uses.

``query(sql=...)`` registers a query function in ``QUERIES`` and its DuckDB
oracle in ``ORACLE_SQL``; every subject module decorates its queries with it
and imports its shared helpers from here. No subject module imports another.
"""

from __future__ import annotations

import functools
import inspect
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from core_ray.collect import collect_table
from core_ray.fixtures import docs_golden as dg
from core_ray.stages.agg import fold_table

# ---------------------------------------------------------------- registry

QUERIES: dict = {}
ORACLE_SQL: dict = {}


def query(*, sql: str):
    """Register the decorated function under its ``__name__`` in ``QUERIES``
    and ``sql``, its DuckDB oracle, in ``ORACLE_SQL``. The function is
    returned unchanged (no wrapper), so pickling, ``__name__`` and Ray's
    operator names see the plain function."""

    def register(fn):
        name = fn.__name__
        if name in QUERIES:
            raise ValueError(f"query {name!r} is already registered")
        QUERIES[name] = fn
        ORACLE_SQL[name] = sql
        return fn

    return register


# ---------------------------------------------------------------- helpers


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(_p(sf_dir, table), columns=columns)


def _collect_table(ds) -> pa.Table:
    """Materialize a SMALL Dataset result on the driver (core_ray.collect)."""
    return collect_table(ds)


def _collect_numpy(ds, col: str) -> np.ndarray:
    return _collect_table(ds.select_columns([col]))[col].to_numpy(zero_copy_only=False)


# ---------------------------------------------------------------- events

_HOUR_US = 3600 * 1000 * 1000


# ---------------------------------------------------------------- geo over
# documents-derived deterministic coordinates (SQL-mirrorable arithmetic)

GEO_LAT_SQL = "((doc_id * 7919) % 140000) / 1000.0 - 70.0"
GEO_LON_SQL = "((doc_id * 104729) % 360000) / 1000.0 - 180.0"


def _derive_coords(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lat = ((doc_id * 7919) % 140000) / 1000.0 - 70.0
    lon = ((doc_id * 104729) % 360000) / 1000.0 - 180.0
    return lat, lon


def _with_coords(ds, id_col: str):
    """Dataset[(id_col, lat, lon)]: ``ds``'s ids with their derived
    coordinates (the input shape of distband.bipartite_band_pairs)."""

    def coords(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _derive_coords(ids)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
            }
        )

    return ds.map_batches(coords, batch_format="pyarrow")


# deterministic 3-level rectangle admin hierarchy; bounds at .0005 offsets so
# no derived point (3 decimals) ever sits on a boundary. Mirrored verbatim in
# the SQL VALUES list.
GEO_RECTS = [
    # (admin_id, level, lat0, lon0, lat1, lon1)
    ("A0-west", 0, -70.0005, -180.0005, 70.0005, 0.0005),
    ("A1-east", 0, -70.0005, 0.0005, 70.0005, 180.0005),
    ("B0-nw", 1, 0.0005, -180.0005, 70.0005, -90.0005),
    ("B1-ne", 1, 0.0005, 90.0005, 70.0005, 180.0005),
    ("B2-sw", 1, -70.0005, -90.0005, -0.0005, 0.0005),
    ("B3-se", 1, -70.0005, 0.0005, -0.0005, 90.0005),
    ("C0-a", 2, 10.0005, -120.0005, 40.0005, -100.0005),
    ("C1-b", 2, 20.0005, 100.0005, 50.0005, 140.0005),
    ("C2-c", 2, -50.0005, -60.0005, -20.0005, -30.0005),
    ("C3-overlap1", 2, 30.0005, 110.0005, 45.0005, 130.0005),  # overlaps C1-b
    ("C4-d", 2, -30.0005, 20.0005, -10.0005, 60.0005),
    ("C5-e", 2, 40.0005, -40.0005, 65.0005, -10.0005),
]


_GEO_PAIR_RADIUS_DEG = 5.0  # band radius; cell size == radius (3x3 cover)


def _ray_session_key():
    """Cache key component tied to the live Ray session: a materialized
    Dataset's object refs die with the session, so a cache entry from a
    previous ray.init must never be served. The job id alone does not
    tell sessions apart (the first job of every new local cluster is
    01000000); the node id is new per cluster. Returns None (cache
    disabled) when Ray is not yet initialized — this module never calls
    ray.init."""
    try:
        import ray

        if ray.is_initialized():
            ctx = ray.get_runtime_context()
            return (ctx.get_node_id(), ctx.get_job_id())
    except Exception:
        pass
    return None


def _session_cached(fn):
    """Cache ``fn(*args)`` per live Ray session: a materialized Dataset is
    served again only inside the session that made it, and nothing is
    cached while Ray is not initialized. The session is read again after
    ``fn`` runs, since running it may have started Ray."""
    cache: dict = {}
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        call = tuple(bound.arguments.values())
        key = (_ray_session_key(), call)
        if key in cache:
            return cache[key]
        out = fn(*args, **kwargs)
        session = _ray_session_key()
        if session is not None:
            cache[(session, call)] = out
        return out

    return cached


_MORAN_NLON = 360  # 1-deg grid, lon cells 0..359 (no wrap: rook weights)
_MORAN_NLAT = 140  # lat cells 0..139


_QT_LMAX = 8  # quadtree max depth (2^8 x 2^8 finest grid)


_GE_CELL_MILLI = 10000  # 10-degree geographic-entropy cells
_TT_DAY_US = 86400000000


def _first_day(ds) -> int:
    """Epoch day of the earliest event (one global MIN fold)."""

    def day_of(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"day": pa.array(us // _TT_DAY_US, pa.int64())})

    days = ds.map_batches(day_of, batch_format="pyarrow", batch_size=131072)
    return int(fold_table(days, [], {"d0": ("day", "min")})["d0"][0].as_py())


_BI_RADIUS = 2.0  # bipartite band radius in degrees


_GT_CELL_MILLI = 30000  # 30-degree tf-idf regions


_STG_DAY_US = 86_400_000_000  # space-time Gi* day bucket


_DP_EPS = 0.8  # Douglas-Peucker tolerance in degrees


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.001


# --- golden-diff oracles for the sketch/ANN queries (VERDICT r2 item 1) ---
# Same trick as pages_*: the independent pure-Python/single-process goldens
# (fixtures/docs_golden.py) are materialized as parquet at the
# driver-correctness scale and the SQL reads them back. This upgrades the
# five formerly rows-only queries to the full rows+schema+hash check.
# Exactness at a second scale is enforced by tests/test_docs_golden.py.

_DOCS_GOLDEN_SF = 0.01
_DOCS_GOLDEN_VERSION = 4  # bump when sketch specs / golden schemas change


def _docs_golden_dir() -> str:
    return f"/tmp/core_ray_docs_golden_v{_DOCS_GOLDEN_VERSION}"


def _ensure_docs_golden(sf_dir: str) -> None:
    """No-op except at the driver-correctness scale (like _ensure_pages_golden)."""
    if _sf_of(sf_dir) != _DOCS_GOLDEN_SF:
        return
    root = _docs_golden_dir()
    marker = os.path.join(root, ".complete")
    # the traj/pca file checks migrate golden dirs written before they existed
    if (
        os.path.exists(marker)
        and os.path.exists(f"{root}/traj_simplify.parquet")
        and os.path.exists(f"{root}/pca.parquet")
        and os.path.exists(f"{root}/bpe.parquet")
        and os.path.exists(f"{root}/pq.parquet")
        and os.path.exists(f"{root}/bpe_apply.parquet")
        and os.path.exists(f"{root}/pq_recall.parquet")
        and os.path.exists(f"{root}/frechet_pairs.parquet")
    ):
        return
    os.makedirs(root, exist_ok=True)
    docs = pq.read_table(_p(sf_dir, "documents"), columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()
    pq.write_table(dg.golden_fingerprints(ids, texts), f"{root}/fingerprint.parquet")
    mh = dg.golden_minhash_pairs(ids, texts, threshold=0.5)
    pq.write_table(mh, f"{root}/minhash_pairs.parquet")
    pq.write_table(dg.golden_dup_clusters(mh), f"{root}/dup_clusters.parquet")
    pq.write_table(
        dg.golden_simhash_pairs(ids, texts, max_hamming=6), f"{root}/simhash_pairs.parquet"
    )
    emb = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    pq.write_table(dg.golden_ann_lsh(emb), f"{root}/ann_lsh.parquet")
    pq.write_table(dg.golden_ann_ivf(emb), f"{root}/ann_ivf.parquet")
    pq.write_table(dg.golden_kmeans(emb), f"{root}/kmeans.parquet")
    pq.write_table(dg.golden_pca_power(emb), f"{root}/pca.parquet")
    pq.write_table(dg.golden_tile_hulls(ids), f"{root}/tile_hulls.parquet")
    pq.write_table(dg.golden_bpe_merges(texts, _BPE_MERGES), f"{root}/bpe.parquet")
    pq.write_table(dg.golden_bpe_apply(texts, _BPE_MERGES), f"{root}/bpe_apply.parquet")
    pq.write_table(
        dg.golden_pq_distortion(emb, _PQ_M, _PQ_K, _PQ_ITERS), f"{root}/pq.parquet"
    )
    pq.write_table(
        dg.golden_pq_recall(emb, _PQ_M, _PQ_K, _PQ_ITERS, 100, _SQ_TOPK),
        f"{root}/pq_recall.parquet",
    )
    ev = pq.read_table(_p(sf_dir, "events"), columns=["event_id", "user_id", "ts"])
    pq.write_table(
        dg.golden_traj_simplify(
            ev["event_id"].to_pylist(),
            ev["user_id"].to_pylist(),
            pc.cast(ev["ts"], pa.int64()).to_pylist(),
            eps=_DP_EPS,
        ),
        f"{root}/traj_simplify.parquet",
    )
    pq.write_table(
        dg.golden_frechet_pairs(
            ev["event_id"].to_pylist(),
            ev["user_id"].to_pylist(),
            pc.cast(ev["ts"], pa.int64()).to_pylist(),
            k=_FRECHET_K,
            max_users=_FRECHET_MAX_USERS,
        ),
        f"{root}/frechet_pairs.parquet",
    )
    with open(marker, "w") as f:
        f.write("ok")


_DGD = _docs_golden_dir()


_DAY_US = 86_400_000_000
_KMV_MULT = 2654435761  # Knuth multiplicative hash (fits int64 for uid < 2^32)
_SQ_TOPK = 10


_BPE_MERGES = 8


_PQ_M = 4
_PQ_K = 16
_PQ_ITERS = 5


_FRECHET_K = 16        # first k points of each user's track (one city: k<=20)
_FRECHET_MAX_USERS = 512  # per-city user cap bounds the quadratic pair fanout


def _tdiv(a: int, d: int) -> int:
    """Truncate-toward-zero integer division — DuckDB's ``//`` semantics
    (Python's ``//`` floors, which differs on negatives)."""
    return a // d if a >= 0 else -((-a) // d)
