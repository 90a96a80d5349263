"""Oracle type-parity gate (VERDICT r3 item 2).

The driver's value hash is Arrow-TYPE-sensitive: r3's only red row was a
DuckDB HUGEINT sum hashing differently from identical int64 values. The
local value comparison (compare._norm_rows) normalizes to Python objects,
which is exactly the blind spot — so this gate asserts the *Arrow types*
of every engine query against its oracle's exported schema, column by
column. The oracle side runs under LIMIT 0 (schema only, free); the
engine side must actually execute (Dataset schemas exist post-execution),
so it runs at sf0.001, the smallest fixture.

Engine queries run FIRST: several oracles read golden parquet files that
the engine callables materialize on first use (_ensure_docs_golden etc.).
"""

import pytest

from core_ray.compare import run_oracle, to_arrow
from core_ray.queries import ORACLE_SQL, QUERIES

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _goldens():
    """Materialize the golden parquet files the oracle SQL reads.

    Several oracles read goldens produced at the driver-correctness scale
    (sf0.01) regardless of the engine-side SF; on a fresh host /tmp is
    empty and a LIMIT-0 schema probe still needs the files to exist.
    Runs the same ensure list as __ray_entry__.oracle_sql().
    """
    from core_ray.queries import oracle_golden_ensures

    sf001 = "/root/testdata/sf0.01"
    for ensure in oracle_golden_ensures(sf001):
        ensure()


def _types(schema):
    return {f.name: str(f.type) for f in schema}


@pytest.mark.parametrize("name", sorted(ORACLE_SQL))
def test_oracle_arrow_types_match_engine(name, ray_session):
    engine = to_arrow(QUERIES[name](SF))
    oracle = run_oracle(f"SELECT * FROM ({ORACLE_SQL[name]}) LIMIT 0", SF)
    assert _types(engine.schema) == _types(oracle.schema)
