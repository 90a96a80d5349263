"""The hash-partition shuffle primitive and the per-key folds built on it
(core_ray/stages/agg.py), against numpy references."""

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
