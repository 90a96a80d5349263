"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in core_ray) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``     — flagship spatial pipeline (SURVEY.md §7.1) over the
                    deterministic synthetic pages corpus at sf0.001 scale.
- ``queries()``   — one entry per implemented operator/pipeline from
                    SURVEY.md §2 + the training-data ops (core_ray/queries.py).
- ``oracle_sql()``— DuckDB equivalents for every SQL-expressible query, with
                    matching column names/types and float rounding.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001-scale pages; returns the
    joined Dataset (url, derivation_source, coords, cells, admin)."""
    from core_ray.queries import pages_joined

    return pages_joined("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from core_ray.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from core_ray.queries import ORACLE_SQL, oracle_golden_ensures

    # several oracles read golden / engineered parquet derived independently
    # of the Ray path; materialize them up front (cached, no Ray needed) so
    # the SQL is runnable regardless of whether the queries ran first
    for ensure in oracle_golden_ensures("/root/testdata/sf0.01"):
        try:
            ensure()
        except Exception:
            pass  # queries()-side ensure still covers the normal path
    return dict(ORACLE_SQL)
