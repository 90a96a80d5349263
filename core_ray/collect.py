"""Driver-side collection of SMALL Dataset results.

The ONE implementation of the recurring "gather arrow refs, drop empties,
concat" pattern (broadcast small sides, filtered key sets, tiny aggregates).
Schema is preserved even when every block is empty; a zero-block dataset
yields an empty schema-less table. Never call this on a fact table —
distributed filters/projections run first so only the survivors cross.

A collect runs its plan exactly once. ``Dataset.to_arrow_refs`` streams the
plan and then asks for the schema; a streamed run caches none, so on a lazy
Dataset that call runs the plan again behind a ``LimitOperator[limit=1]``
probe (behind a sort shuffle: the whole shuffle). ``block_refs`` materializes
first, and a materialized Dataset reads its schema from block metadata, so
the second call executes nothing. ``collect_table(count_by_u64(ds))`` on
20 k rows took 179–235 ms and two executions through ``to_arrow_refs``
alone, 92–166 ms and one this way (10 timed calls in each of two
processes, Ray ``num_cpus=2`` on 4 vCPUs).
"""

from __future__ import annotations

import pyarrow as pa


def block_refs(ds) -> list:
    """One Arrow-table ref per block of ``ds``, from a single execution."""
    return ds.materialize().to_arrow_refs()


def collect_table(ds) -> pa.Table:
    import ray

    tables = ray.get(block_refs(ds))
    non_empty = [t for t in tables if t.num_rows]
    if non_empty:
        return pa.concat_tables(non_empty, promote_options="default")
    if tables:
        return tables[0]
    return pa.table({})
