"""Driver-facing queries (sf_dir-parameterized) + DuckDB oracle SQL.

Every entry in QUERIES is a Ray-Data-first implementation of one operator
class from SURVEY.md §2 / the training-data-ops brief; ORACLE_SQL holds the
ANSI-SQL equivalent for everything SQL-expressible (same column NAMES and
TYPES — the driver sorts columns by name and hashes values, so both sides
round floats identically and cast explicitly).

Each query registers itself with ``@query(sql=...)`` (``_shared.py``) in the
subject module that holds it; importing this package imports every module
eagerly, so ``QUERIES`` and ``ORACLE_SQL`` are complete after
``import core_ray.queries``. No subject module imports another; what more
than one of them uses lives in ``_shared.py``. Each module imports what it
uses in its import block, except Ray: as everywhere in core_ray, Ray is
imported inside the functions that run it, so reading the registry (for
``ORACLE_SQL``, say) does not load Ray.

    relational       TPC-H-style relational queries
    pages            pages corpus + flagship pipeline outputs
    media            media decode / hashes / PSNR
    emb              embeddings: ANN, clustering, near-dup graph
    geo_ops          spatial operators: tiles, PIP, kNN, joins, curves
    geo_stats        spatial statistics and point patterns
    events_mobility  trajectories, OD flows, contacts, space-time clusters
    events_stats     time series, distribution tests, experiment arms
    events_ops       windows, sessions, joins, rollups, sketch evaluations
    doc_dedup        near-duplicates and the word n-gram family
    doc_text         text statistics, language models, sampling, privacy

Float discipline:
- monetary aggregates: ROUND(x, 2) on both sides after aggregation
- similarity / ratio outputs: ROUND(x, 6)
- distance used for ranking: squared euclidean written as
  (a-b)*(a-b) + (c-d)*(c-d) in BOTH numpy and SQL (bit-identical IEEE ops);
  no sqrt/hypot anywhere near a comparison.
"""

from __future__ import annotations

from core_ray.queries import (  # noqa: F401 - each import registers its module's queries
    doc_dedup,
    doc_text,
    emb,
    events_mobility,
    events_ops,
    events_stats,
    geo_ops,
    geo_stats,
    media,
    pages,
    relational,
)
from core_ray.queries._shared import ORACLE_SQL, QUERIES, _ensure_docs_golden, query
from core_ray.queries.doc_dedup import _ensure_typo_corpus
from core_ray.queries.doc_text import _ensure_pii_corpus
from core_ray.queries.emb import _ensure_pagerank_golden, _ensure_semdedup_golden
from core_ray.queries.events_stats import _ensure_absorbing_golden
from core_ray.queries.geo_stats import _ensure_jenks_golden
from core_ray.queries.media import _ensure_media_golden
from core_ray.queries.pages import _ensure_pages_golden, _ensure_rules_golden

globals().update(QUERIES)
__all__ = ["ORACLE_SQL", "QUERIES", "oracle_golden_ensures", "query", *QUERIES]


def oracle_golden_ensures(sf_dir: str) -> list:
    """Every step that materializes a golden / engineered parquet an oracle
    SQL reads (cached on disk, no Ray needed), for the driver-gate corpus
    ``sf_dir``. __ray_entry__.oracle_sql() and the oracle type-parity tests
    run this one list, so no oracle reads a golden that was never built."""
    return [
        lambda: _ensure_pages_golden(sf_dir),
        lambda: _ensure_docs_golden(sf_dir),
        lambda: _ensure_media_golden(sf_dir),
        lambda: _ensure_pagerank_golden(sf_dir),
        lambda: _ensure_jenks_golden(sf_dir),
        lambda: _ensure_semdedup_golden(sf_dir),
        lambda: _ensure_absorbing_golden(sf_dir),
        _ensure_rules_golden,
        _ensure_pii_corpus,
        _ensure_typo_corpus,
    ]
