"""Driver reads run their plan once.

``Dataset.to_arrow_refs`` on a lazy Dataset streams the plan and then asks
for its schema, which a streamed run leaves uncached: Ray Data answers with a
``LimitOperator[limit=1]`` run of the same plan. ``Dataset.schema()`` on a
lazy side does the same. Each test counts the executions Ray Data starts by
wrapping ``StreamingExecutor.execute``.
"""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1] / "core_ray"


@pytest.fixture
def executions(monkeypatch):
    """The operator DAG of every Ray Data execution started while the test
    runs, as strings (the last operator's name, e.g. ``LimitOperator[limit=1]``)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    seen = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        seen.append(str(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return seen


def test_collect_runs_plan_once(ray_session, executions):
    import ray

    from core_ray.collect import collect_table
    from core_ray.stages.agg import count_by_u64

    keys = np.arange(20_000, dtype=np.uint64) % np.uint64(997)
    ds = ray.data.from_arrow(pa.table({"key": pa.array(keys, pa.uint64())}))
    t = collect_table(count_by_u64(ds, "key"))
    assert t.num_rows == 997
    assert int(np.asarray(t["cnt"]).sum()) == 20_000
    assert len(executions) == 1, executions


def test_hash_join_issues_no_schema_probe(ray_session, executions):
    import ray

    from core_ray.stages.join import hash_join

    def side(name):
        def tag(b: pa.Table) -> pa.Table:
            return pa.table({"k": b["id"], name: pa.array(np.asarray(b["id"]) * 3)})

        return ray.data.range(200, override_num_blocks=4).map_batches(
            tag, batch_format="pyarrow"
        )

    out = hash_join(side("a"), side("b"), on="k").take_all()
    assert sorted(r["k"] for r in out) == list(range(200))
    assert all(r["a"] == r["b"] == 3 * r["k"] for r in out)
    assert not [e for e in executions if "limit=1" in e], executions


def test_collect_keeps_schema_of_all_empty_blocks(ray_session):
    import ray

    from core_ray.collect import collect_table

    ds = ray.data.range(100, override_num_blocks=4).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow"
    )
    t = collect_table(ds)
    assert t.num_rows == 0
    assert t.schema == pa.schema([("id", pa.int64())])


def test_collect_of_zero_blocks_is_schema_less(ray_session):
    import ray

    from core_ray.collect import collect_table

    assert collect_table(ray.data.range(10).limit(0)).equals(pa.table({}))


def test_to_arrow_refs_only_in_block_refs():
    """Every block-ref read goes through collect.block_refs, which
    materializes first; a direct ``.to_arrow_refs()`` reruns a lazy plan."""
    bad = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for top in ast.parse(path.read_text()).body:
            if rel == "collect.py" and getattr(top, "name", None) == "block_refs":
                continue
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "to_arrow_refs"
                ):
                    bad.append(f"{rel}:{node.lineno}")
    assert not bad, "to_arrow_refs outside collect.block_refs: " + ", ".join(bad)
