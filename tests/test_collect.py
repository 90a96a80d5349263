"""Driver reads run their plan once.

``Dataset.to_arrow_refs`` on a lazy Dataset streams the plan and then asks
for its schema, which a streamed run leaves uncached: Ray Data answers with a
``LimitOperator[limit=1]`` run of the same plan. ``Dataset.schema()`` on a
lazy side does the same. Each test counts the executions Ray Data starts by
wrapping ``StreamingExecutor.execute`` (the ``executions`` fixture,
tests/conftest.py).
"""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1] / "core_ray"


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


@pytest.mark.parametrize("how", ["semi", "anti"])
def test_lookup_join_materialized_key_side_runs_no_projection(ray_session, executions,
                                                             monkeypatch, how):
    """A semi/anti ``lookup_join`` whose right side is already materialized
    and fits the broadcast bound takes the key column from its blocks: the
    join is one execution (the left side's probe), and its rows equal the
    shuffle regime's."""
    import ray

    from core_ray.collect import collect_table
    from core_ray.stages import join

    left = ray.data.range(300, override_num_blocks=4).map_batches(
        lambda b: pa.table({"k": b["id"], "v": pa.array(np.asarray(b["id"]) * 2)}),
        batch_format="pyarrow",
    )
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(list(range(0, 600, 3)) + [None], pa.int64()),
        "payload": pa.array(["x" * 40] * 201),
    })).materialize()

    executions.clear()
    got = collect_table(join.lookup_join(left, right, on="k", right_on="rk", how=how))
    assert len(executions) == 1, executions
    assert got.column_names == ["k", "v"]

    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    shuffled = collect_table(join.lookup_join(left, right, on="k", right_on="rk", how=how))
    want = [k for k in range(300) if (k % 3 == 0) == (how == "semi")]
    assert sorted(got["k"].to_pylist()) == sorted(shuffled["k"].to_pylist()) == want
    assert got.sort_by("k").equals(shuffled.select(["k", "v"]).sort_by("k"))


def test_lookup_join_semi_on_empty_materialized_side(ray_session):
    import ray

    from core_ray.collect import collect_table
    from core_ray.stages import join

    left = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    empty = ray.data.from_items([]).materialize()
    assert collect_table(join.lookup_join(left, empty, on="k", how="semi")).num_rows == 0
    assert sorted(collect_table(
        join.lookup_join(left, empty, on="k", how="anti"))["k"].to_pylist()) == [1, 2, 3]
