"""core_ray — a Ray-Data-native spatial-join + tiling engine over web-page corpora.

A from-scratch engine (NOT a port) re-expressing the capability classes of the
reference document-analysis pipeline (specvital/core, see SURVEY.md) as idiomatic
Ray Data: per-document classification cascades, deterministic per-document
extraction, broadcast containment joins, hierarchical rollup aggregation,
exact/approximate dedup, per-cell kNN, and resumable checkpointed execution.

Layout:
    geo/        pure-numpy geometry kernels (S2 cells, hex grid, mercator tiles,
                WKT, point-in-polygon, STRtree) — no Ray dependency
    fixtures/   deterministic synthetic corpus generator + pure-Python oracle
    stages/     Ray Data stages (map_batches / actor pools / groupby)
    text/       web-text training-data ops (dedup, similarity, quality, lang-id)
    pipelines/  end-to-end pipeline compositions (flagship spatial pipeline)
    state/      checkpoint + per-partition lineage manifest
    queries/    driver-facing sf_dir-parameterized queries + DuckDB oracle SQL,
                one module per subject; each query registers itself and its
                oracle with @query(sql=...) (queries/_shared.py)

Primary public entry points (import lazily — Ray must be initialized by the
caller before running any pipeline):

    from core_ray.pipelines.flagship import run_flagship, scan_files
    from core_ray.stages.join import hash_join, BloomFilter
    from core_ray.stages.dedup import dedup_exact
    from core_ray.stages.tiles import tile_rollup
    from core_ray.stages.knn import knn_per_cell
    from core_ray.text.dedup import minhash_near_dups, simhash_near_dups
    from core_ray.sources.ingest import ingest_html_dir
    from core_ray.sources.git import ingest_git_repo
"""

__version__ = "0.2.0"


def _stabilize_fsspec_http() -> None:
    """Defuse a thread-safety trap in ray.data's path resolution.

    ray/data/datasource/path_util.py imports fsspec.implementations.http on
    EVERY read/write and catches only ModuleNotFoundError. In this env the
    module exists but fails on a missing aiohttp; under concurrent Dataset
    creations from multiple driver threads the import machinery surfaces the
    race as a plain ImportError ("cannot import name ..."), which escapes.
    Installing a stub module (HTTPFileSystem never instantiated — isinstance
    checks simply return False, same as the ModuleNotFoundError path) makes
    the import deterministic and thread-safe.
    """
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return
    except ImportError:
        pass
    import sys
    import types

    try:
        import fsspec.implementations
    except ImportError:
        return
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # stub, see docstring
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
    fsspec.implementations.http = mod


_stabilize_fsspec_http()
