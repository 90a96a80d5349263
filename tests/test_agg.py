"""The hash-partition shuffle primitive and the per-key folds built on it
(core_ray/stages/agg.py), against numpy references."""

import math
import re
import uuid

import numpy as np
import pyarrow as pa
import pytest

U64_MAX = np.iinfo(np.uint64).max


def _blocks(cols: dict, n_blocks: int = 4):
    """Dataset of ``n_blocks`` blocks, each holding a slice of ``cols``, so
    every key repeats across blocks (the combiner sees partial groups)."""
    import ray.data

    t = pa.table(cols)
    step = max(1, -(-t.num_rows // n_blocks))
    return ray.data.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


def _as_dict(ds, key_col: str, val_col: str, val_type=pa.int64()) -> dict:
    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    assert t.schema.field(key_col).type == pa.uint64()
    assert t.schema.field(val_col).type == val_type
    keys = t[key_col].to_pylist()
    assert len(keys) == len(set(keys)), "one output row per key"
    return dict(zip(keys, t[val_col].to_pylist()))


def _reference(k: np.ndarray, v: np.ndarray, ufunc) -> dict:
    order = np.argsort(k, kind="stable")
    ks, vs = k[order], v[order]
    out = {}
    for key, val in zip(ks.tolist(), vs.tolist()):
        out[key] = ufunc(out[key], val) if key in out else val
    return out


def _keys(rng, n=20_000, distinct=300):
    return rng.integers(0, distinct, n).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def test_count_by_u64(ray_session):
    from core_ray.stages.agg import count_by_u64

    k = _keys(np.random.default_rng(1))
    got = _as_dict(count_by_u64(_blocks({"key": pa.array(k, pa.uint64())})), "key", "cnt")
    u, c = np.unique(k, return_counts=True)
    assert got == dict(zip(u.tolist(), c.tolist()))


def test_sum_by_u64(ray_session):
    from core_ray.stages.agg import sum_by_u64

    rng = np.random.default_rng(2)
    k = _keys(rng)
    v = rng.integers(-1000, 1000, len(k)).astype(np.int64)
    ds = _blocks({"k": pa.array(k, pa.uint64()), "w": pa.array(v, pa.int64())})
    assert _as_dict(sum_by_u64(ds, "k", "w"), "k", "cnt") == _reference(k, v, lambda a, b: a + b)


def test_fsum_by_u64(ray_session):
    from core_ray.stages.agg import fsum_by_u64

    rng = np.random.default_rng(3)
    k = _keys(rng)
    v = rng.integers(-4000, 4000, len(k)) / 4.0  # exact in float64: order-free sums
    ds = _blocks({"k": pa.array(k, pa.uint64()), "x": pa.array(v, pa.float64())})
    got = _as_dict(fsum_by_u64(ds, "k", "x"), "k", "x", pa.float64())
    assert got == _reference(k, v, lambda a, b: a + b)


@pytest.mark.parametrize("name,ufunc", [("min_by_u64", min), ("max_by_u64", max)])
def test_min_max_by_u64_with_u64_extremes(ray_session, name, ufunc):
    from core_ray.stages import agg

    rng = np.random.default_rng(4)
    k = rng.integers(0, 50, 5_000).astype(np.uint64)
    v = rng.integers(1, 1 << 62, len(k)).astype(np.uint64)
    # keys and values at both ends of the uint64 range
    k[:4] = [0, U64_MAX, U64_MAX, 0]
    v[:4] = [U64_MAX, 0, U64_MAX, 0]
    k[-2:] = U64_MAX
    v[-2:] = [1, U64_MAX - 1]
    ds = _blocks({"k": pa.array(k, pa.uint64()), "v": pa.array(v, pa.uint64())})
    got = _as_dict(getattr(agg, name)(ds, "k", "v"), "k", "v", pa.uint64())
    assert got == _reference(k, v, ufunc)
    assert got[int(U64_MAX)] == (0 if name == "min_by_u64" else int(U64_MAX))


@pytest.mark.parametrize("name", ["count_by_u64", "sum_by_u64", "fsum_by_u64",
                                  "min_by_u64", "max_by_u64"])
def test_folds_on_empty_input(ray_session, name):
    from core_ray.stages import agg

    val_type = pa.float64() if name == "fsum_by_u64" else pa.uint64()
    ds = _blocks({"k": pa.array([], pa.uint64()), "v": pa.array([], val_type)})
    fold = getattr(agg, name)
    out = fold(ds, "k") if name == "count_by_u64" else fold(ds, "k", "v")
    assert out.count() == 0


@pytest.mark.parametrize(
    "keys",
    [
        pa.array(np.arange(3_000) % 257 * 7919 - 1000, pa.int64()),
        pa.array([f"key-{i % 211}" for i in range(3_000)], pa.string()),
        pa.array([(i % 199).to_bytes(4, "little") for i in range(3_000)], pa.binary()),
    ],
    ids=["int", "string", "binary"],
)
def test_map_groups_partitioned_colocates_each_key(ray_session, keys):
    """Every row of a key reaches exactly one partition_fn call, and every
    row reaches some call, without the partition tag."""
    from core_ray.stages.agg import map_groups_partitioned

    def per_call(g: pa.Table) -> pa.Table:
        assert g.column_names == ["k", "row"]
        call = uuid.uuid4().hex
        return pa.table({
            "k": g["k"],
            "row": g["row"],
            "call": pa.array([call] * g.num_rows, pa.string()),
        })

    ds = _blocks({"k": keys, "row": pa.array(np.arange(len(keys)), pa.int64())})
    t = pa.concat_tables(
        list(map_groups_partitioned(ds, "k", per_call).iter_batches(batch_format="pyarrow"))
    )
    assert sorted(t["row"].to_pylist()) == list(range(len(keys)))
    calls_per_key: dict = {}
    for k, c in zip(t["k"].to_pylist(), t["call"].to_pylist()):
        calls_per_key.setdefault(k, set()).add(c)
    assert len(calls_per_key) == len(set(keys.to_pylist()))
    assert all(len(c) == 1 for c in calls_per_key.values())


def test_count_by_u64_plan_is_one_fused_map_then_one_sort(ray_session):
    """The combiner and the partition tag fuse into one map operator ahead
    of the single sort shuffle; the per-partition reduce is the only map
    after it."""
    import ray.data

    from core_ray.stages.agg import count_by_u64

    ds = ray.data.from_arrow(pa.table({"key": pa.array(np.arange(1000) % 37, pa.uint64())}))
    out = count_by_u64(ds).materialize()
    ops = re.findall(r"^Operator \d+ (.+?): ", out.stats(), flags=re.M)
    assert ops[0] == "FromArrow", ops
    assert ops[1:] == ["MapBatches(pre)->MapBatches(tag)", "Sort", "MapBatches(reduce)"], ops


# Shuffles allowed to tag their own partitions, each for a reason the key
# hash of map_groups_partitioned cannot express (see the comment at each).
_OWN_PARTITIONING = {
    ("stages/join.py", "hash_join"),  # two padded sides, salted replicas, null scatter
    ("stages/knn.py", "knn_per_cell"),  # _Expand routes salted hot cells
    ("queries/events_ops.py", "events_global_ranks"),  # range partition; rank base needs the id
}
_HAND_ROLLED = re.compile(r'groupby\("(part|__part|__dedup_part)"\)|% np\.uint64\(n_parts\)')


def test_hash_shuffles_go_through_map_groups_partitioned():
    """A new hand-rolled ``part`` tag -> groupby -> map_groups copy fails
    here: outside stages/agg.py only the named exceptions may partition."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "core_ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/agg.py":
            continue
        src = path.read_text()
        lines = [i for i, line in enumerate(src.splitlines(), 1) if _HAND_ROLLED.search(line)]
        if not lines:
            continue
        top = [n for n in ast.parse(src).body if isinstance(n, ast.FunctionDef)]
        for i in lines:
            fn = next((n.name for n in top if n.lineno <= i <= n.end_lineno), None)
            if (rel, fn) not in _OWN_PARTITIONING:
                found.append(f"{rel}:{i} ({fn})")
    assert not found, "hand-rolled hash shuffle; use agg.map_groups_partitioned: " + ", ".join(found)


def _ray_grouped_folds(src: str):
    """(line, what) of every Ray Data aggregate in ``src``: a non-Arrow
    ``.aggregate(`` call (``groupby(…).aggregate`` or ``Dataset.aggregate``),
    a ``groupby(…).count/sum/min/max/mean/std(`` call, a
    ``ray.data.aggregate`` import, or a global ``Dataset.sum/min/max/
    mean/std/unique`` over named columns."""
    import ast

    def named_columns(arg) -> bool:
        if isinstance(arg, ast.Constant):
            return isinstance(arg.value, str)
        return isinstance(arg, ast.List) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in arg.elts
        )

    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate":
            yield node.lineno, "ray.data.aggregate import"
        elif isinstance(node, ast.Import) and any(a.name == "ray.data.aggregate" for a in node.names):
            yield node.lineno, "ray.data.aggregate import"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv, attr = node.func.value, node.func.attr
            called = recv.func.attr if isinstance(recv, ast.Call) \
                and isinstance(recv.func, ast.Attribute) else None
            if attr == "aggregate" and called != "TableGroupBy":
                yield node.lineno, ".aggregate("
            elif called == "groupby" and attr in ("count", "sum", "min", "max", "mean", "std"):
                yield node.lineno, f"groupby(…).{attr}("
            elif attr in ("sum", "min", "max", "mean", "std", "unique") and node.args \
                    and named_columns(node.args[0]):
                yield node.lineno, f"Dataset.{attr}("


def test_grouped_folds_go_through_agg():
    """A new Ray ``groupby().aggregate()`` / ``Dataset.aggregate()`` (each a
    sort-shuffle Aggregate) fails here: outside stages/agg.py every grouped
    sum/count/min/max is ``agg.fold`` or ``agg.fold_table``."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "core_ray"
    found = [
        f"{path.relative_to(root).as_posix()}:{line} ({what})"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() != "stages/agg.py"
        for line, what in _ray_grouped_folds(path.read_text())
    ]
    assert not found, "Ray aggregate; use agg.fold / agg.fold_table: " + ", ".join(found)


def test_grouped_fold_guard_catches_each_form():
    src = (
        "from ray.data.aggregate import Sum\n"
        "a = ds.groupby('k').aggregate(Sum('v'))\n"
        "b = ds.aggregate(Sum('v'))\n"
        "c = ds.min('d')\n"
        "d = pa.TableGroupBy(t, 'k').aggregate([('v', 'sum')])\n"
        "e = np.asarray(x).sum(axis=0) + pc.min(t['d']).as_py()\n"
        "f = ds.groupby('k').count()\n"
        "g = ds.groupby(['k', 'j']).sum()\n"
        "h = ds.groupby('k').map_groups(fn)\n"
    )
    assert [line for line, _ in _ray_grouped_folds(src)] == [1, 2, 3, 4, 7, 8]


_FOLD_AGGS = {
    "n": (None, "count"),
    "s": ("v", "sum"),
    "f": ("x", "sum"),
    "lo": ("d", "min"),
    "hi": ("v", "max"),
}


def _fold_input(n: int = 6_000):
    rng = np.random.default_rng(11)
    name = np.array([f"k{i}" for i in rng.integers(0, 40, n)], dtype=object)
    name[rng.random(n) < 0.05] = None  # null keys: one group
    return pa.table({
        "name": pa.array(name.tolist(), pa.string()),
        "bucket": pa.array(rng.integers(-3, 3, n), pa.int32()),
        "v": pa.array(rng.integers(-10**6, 10**6, n), pa.int64()),
        "x": pa.array(rng.standard_normal(n) * 1e3, pa.float64()),
        "d": pa.array(rng.integers(0, 20_000, n).astype(np.int32), pa.int32()).view(pa.date32()),
    })


def _fold_reference(t: pa.Table, keys: list) -> dict:
    """_FOLD_AGGS per distinct key tuple in plain Python, keys ascending
    with nulls last (pyarrow 16's own group-by splits null string keys)."""
    groups: dict = {}
    for r in t.to_pylist():
        g = groups.setdefault(tuple(r[k] for k in keys), {"n": 0, "s": 0, "f": [], "lo": [], "hi": []})
        g["n"] += 1
        g["s"] += r["v"]
        g["f"].append(r["x"])
        g["lo"].append(r["d"])
        g["hi"].append(r["v"])
    order = sorted(groups, key=lambda kt: tuple((v is None, v if v is not None else 0) for v in kt))
    out = {k: [kt[i] for kt in order] for i, k in enumerate(keys)}
    for c, f in (("n", None), ("s", None), ("f", math.fsum), ("lo", min), ("hi", max)):
        out[c] = [f(groups[kt][c]) if f else groups[kt][c] for kt in order]
    return out


def _assert_fold_equals(got: pa.Table, t: pa.Table, keys: list):
    ref = _fold_reference(t, keys)
    assert got.column_names == list(ref)
    for k in keys:  # integer keys come out int64, as Ray's aggregate gives them
        typ = t.schema.field(k).type
        assert got.schema.field(k).type == (pa.int64() if pa.types.is_integer(typ) else typ)
    assert [got.schema.field(c).type for c in ("n", "s", "hi")] == [pa.int64()] * 3
    assert got.schema.field("f").type == pa.float64() and got.schema.field("lo").type == pa.date32()
    for c in [*keys, "n", "s", "lo", "hi"]:
        assert got[c].to_pylist() == ref[c], c
    np.testing.assert_allclose(got["f"].to_numpy(), ref["f"], rtol=1e-9, atol=1e-6)


@pytest.mark.parametrize("keys", [["name"], ["name", "bucket"], []], ids=["string", "string+int", "global"])
@pytest.mark.parametrize("bound", ["driver", "distributed"])
def test_fold_table_matches_reference(ray_session, monkeypatch, keys, bound):
    from core_ray.stages import agg, join

    if bound == "distributed":
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    t = _fold_input()
    got = agg.fold_table(_blocks({c: t[c] for c in t.column_names}, 6), keys, _FOLD_AGGS)
    _assert_fold_equals(got, t, keys)
    if keys == ["name"]:
        assert got["name"].null_count == 1  # every null key is one group


@pytest.mark.parametrize("keys", [["name"], ["name", "bucket"], []], ids=["string", "string+int", "global"])
def test_fold_matches_reference(ray_session, keys):
    from core_ray.collect import collect_table
    from core_ray.stages import agg

    t = _fold_input()
    out = collect_table(agg.fold(_blocks({c: t[c] for c in t.column_names}, 6), keys, _FOLD_AGGS))
    if keys:
        out = out.sort_by([(k, "ascending") for k in keys], null_placement="at_end")
    _assert_fold_equals(out, t, keys)


@pytest.mark.parametrize("bound", ["driver", "distributed"])
def test_fold_table_float_sums_repeat_bit_for_bit(ray_session, monkeypatch, bound):
    """Float partials are summed in one fixed order, whatever order the
    blocks arrive in: two runs of each branch give the same bits."""
    from core_ray.stages import agg, join

    if bound == "distributed":
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    rng = np.random.default_rng(12)
    t = pa.table({"k": pa.array(rng.integers(0, 5, 20_000), pa.int64()),
                  "x": pa.array(rng.standard_normal(20_000) * 1e9, pa.float64())})
    runs = [agg.fold_table(_blocks({"k": t["k"], "x": t["x"]}, 16), "k", {"x": ("x", "sum")})
            for _ in range(2)]
    assert runs[0].equals(runs[1])


@pytest.mark.parametrize("keys", [["name"], []], ids=["grouped", "global"])
def test_fold_table_on_empty_input_is_typed(ray_session, keys):
    import ray.data

    from core_ray.stages import agg

    t = _fold_input().slice(0, 0)
    got = agg.fold_table(ray.data.from_arrow(t), keys, _FOLD_AGGS)
    assert got.num_rows == 0
    assert got.column_names == keys + list(_FOLD_AGGS)
    assert got.schema.field("s").type == pa.int64() and got.schema.field("lo").type == pa.date32()


def test_fold_table_below_the_bound_is_one_map_only_execution(ray_session, executions):
    from core_ray.stages import agg

    t = _fold_input()
    ds = _blocks({c: t[c] for c in t.column_names}, 6)
    executions.clear()
    agg.fold_table(ds, ["name"], _FOLD_AGGS)
    assert len(executions) == 1 and "Sort" not in executions[0], executions


@pytest.mark.parametrize("name", ["q3_top_orders", "doc_length_lognormal", "q1_pricing_summary"])
def test_fold_sites_match_oracle_on_the_distributed_branch(ray_session, monkeypatch, name):
    """Sites on both return shapes (a ``fold`` Dataset feeding a distributed
    sort/limit, a global ``fold_table``, a grouped ``fold_table``) match
    their oracles with every fold (and every lookup join) forced through the
    hash shuffle."""
    import os

    from core_ray.compare import check_query
    from core_ray.stages import join

    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    sf = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "reftables")
    r = check_query(name, sf)
    assert r["ok"] and r["rows_ray"] > 0, r


@pytest.mark.parametrize(
    "name", ["q1_pricing_summary", "q21_sole_supplier", "events_funnel", "doc_span_dup_fraction"]
)
def test_query_mix_folds_run_no_ray_aggregate(ray_session, executions, name):
    import os

    from core_ray.compare import to_arrow
    from core_ray.queries import QUERIES

    sf = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "reftables")
    executions.clear()
    assert to_arrow(QUERIES[name](sf)).num_rows > 0
    assert executions and not [e for e in executions if "Aggregate" in e], executions
