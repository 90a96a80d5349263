"""Checkpoint resume trusts only intact data: a stage whose manifest matches
but whose part files were deleted or truncated recomputes instead of
resuming with missing rows or failing on read. A failed or killed save
leaves no tmp dir behind, and the manifest's row digest depends on the
multiset of rows only."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pytest

from core_ray.state import lineage
from core_ray.state.lineage import CheckpointStore, combine_digests, table_digest

N_ROWS = 100_000  # > 32,768 rows per part, so the checkpoint has several parts


def _saved_store(tmp_path):
    import ray.data

    store = CheckpointStore(str(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        t = pa.table({"x": pa.array(np.arange(N_ROWS), pa.int64())})
        return ray.data.from_arrow(t).repartition(8)

    store.load_or_compute("stage", 1, "fp", compute)
    parts = sorted(glob.glob(os.path.join(tmp_path, "stage", "data", "*.parquet")))
    assert len(parts) > 1, parts
    assert store.is_complete("stage", 1, "fp")
    return store, compute, calls, parts


def _all_rows(ds) -> list[int]:
    return sorted(ds.to_pandas()["x"].tolist())


def test_deleted_part_recomputes(ray_session, tmp_path):
    store, compute, calls, parts = _saved_store(tmp_path)
    os.remove(parts[0])
    assert not store.is_complete("stage", 1, "fp")
    out = store.load_or_compute("stage", 1, "fp", compute)
    assert len(calls) == 2
    assert _all_rows(out) == list(range(N_ROWS))


def test_truncated_part_recomputes(ray_session, tmp_path):
    store, compute, calls, parts = _saved_store(tmp_path)
    size = os.path.getsize(parts[-1])
    with open(parts[-1], "r+b") as f:
        f.truncate(size // 2)
    assert not store.is_complete("stage", 1, "fp")
    out = store.load_or_compute("stage", 1, "fp", compute)
    assert len(calls) == 2
    assert _all_rows(out) == list(range(N_ROWS))


def test_intact_checkpoint_resumes(ray_session, tmp_path):
    store, compute, calls, _ = _saved_store(tmp_path)
    out = store.load_or_compute("stage", 1, "fp", compute)
    assert len(calls) == 1
    assert out.count() == N_ROWS


def test_failed_write_leaves_no_tmp_dir(ray_session, tmp_path):
    import pytest
    import ray.data

    store = CheckpointStore(str(tmp_path))

    def boom(b: pa.Table) -> pa.Table:
        raise RuntimeError("udf failed mid-write")

    ds = ray.data.from_arrow(pa.table({"x": pa.array(range(100), pa.int64())}))
    with pytest.raises(Exception, match="udf failed mid-write"):
        store.save(ds.map_batches(boom, batch_format="pyarrow"), "stage", 1, "fp")
    assert glob.glob(os.path.join(tmp_path, "stage*")) == []
    assert not store.is_complete("stage", 1, "fp")


def test_save_sweeps_stale_tmp_dirs(ray_session, tmp_path):
    """A tmp dir a killed save left behind (it can hold a full copy of the
    stage's data) is removed by the next save of that stage only."""
    import ray.data

    store = CheckpointStore(str(tmp_path))
    stale = os.path.join(tmp_path, "phaseA", "shard-1.tmp-deadbeef", "data")
    other = os.path.join(tmp_path, "phaseA", "shard-10.tmp-deadbeef")
    for d in (stale, other):
        os.makedirs(d)
    with open(os.path.join(stale, "part-00000.parquet"), "wb") as f:
        f.write(b"torn")
    store.save(ray.data.from_arrow(pa.table({"x": [1, 2, 3]})), "phaseA", 1, "fp", shard="1")
    assert store.is_complete("phaseA", 1, "fp", shard="1")
    assert not os.path.exists(os.path.dirname(stale))
    assert os.path.isdir(other)  # another shard's tmp dir is not this save's to sweep


def _rows_table() -> pa.Table:
    n = 200
    rng = np.random.default_rng(3)
    return pa.table({
        "url": pa.array([f"https://h{i % 17}.example/p/{i}" for i in range(n)], pa.string()),
        "mention_idx": pa.array(rng.integers(0, 3, n), pa.int64()),
        "lat": pa.array(rng.uniform(-90, 90, n), pa.float64()),
        "hex_cell": pa.array(rng.integers(0, 2**63, n, dtype=np.uint64), pa.uint64()),
        "admin_id": pa.array([None if i % 5 == 0 else f"a{i % 7}" for i in range(n)], pa.string()),
        "warc_ts": pa.array(rng.integers(0, 10**15, n), pa.timestamp("us")),
        "ok": pa.array([i % 3 == 0 for i in range(n)], pa.bool_()),
    })


def test_digest_ignores_row_order_and_block_split(ray_session, tmp_path, monkeypatch):
    import ray.data

    t = _rows_table()
    d = table_digest(t)
    assert len(d) == 32
    perm = np.random.default_rng(0).permutation(t.num_rows)
    assert table_digest(t.take(pa.array(perm))) == d
    # chunked differently and summed over pieces
    assert table_digest(pa.concat_tables([t.slice(0, 70), t.slice(70)])) == d
    assert combine_digests([table_digest(t.slice(0, 70)), table_digest(t.slice(70))]) == d
    assert combine_digests([table_digest(t.slice(0, 0)), d]) == d
    # columns in another order, strings with another offset width
    assert table_digest(t.select(sorted(t.column_names, reverse=True))) == d
    assert table_digest(t.set_column(0, "url", t["url"].cast(pa.large_string()))) == d

    # through the checkpoint writer: 1 file vs several files, shuffled
    store = CheckpointStore(str(tmp_path))
    store.save(ray.data.from_arrow(t), "one", 1, "fp")
    monkeypatch.setattr(lineage, "_MIN_ROWS_PER_FILE", 1)  # one part file per block
    store.save(ray.data.from_arrow(t.take(pa.array(perm))).repartition(5), "many", 1, "fp")
    assert len(glob.glob(os.path.join(tmp_path, "many", "data", "*.parquet"))) > 1
    assert store.digest("one") == store.digest("many") == d


def _with(t: pa.Table, col: str, i: int, value) -> pa.Table:
    vals = t[col].to_pylist()
    vals[i] = value
    return t.set_column(t.column_names.index(col), col, pa.array(vals, t[col].type))


def test_digest_sees_every_row_change():
    t = _rows_table()
    d = table_digest(t)
    assert t["admin_id"][1].as_py() is not None and t["admin_id"][0].as_py() is None
    changed = {
        "value": _with(t, "lat", 7, t["lat"][7].as_py() + 1e-9),
        "string": _with(t, "url", 7, t["url"][7].as_py() + "x"),
        "to null": _with(t, "admin_id", 1, None),
        "from null": _with(t, "admin_id", 0, "a0"),
        "bool": _with(t, "ok", 1, not t["ok"][1].as_py()),
        "duplicated row": pa.concat_tables([t, t.slice(7, 1)]),
        "dropped row": pa.concat_tables([t.slice(0, 7), t.slice(8)]),
        "renamed column": t.rename_columns([*t.column_names[:-1], "ok2"]),
        "retyped column": t.set_column(1, "mention_idx", t["mention_idx"].cast(pa.int32())),
    }
    for what, t2 in changed.items():
        assert table_digest(t2) != d, what
    # a null slot's buffer holds an arbitrary value, often the zero value
    for typ, empty in ((pa.int64(), 0), (pa.float64(), 0.0), (pa.string(), "")):
        a = pa.table({"x": pa.array([empty, empty], typ)})
        b = pa.table({"x": pa.array([None, empty], typ)})
        assert table_digest(a) != table_digest(b), typ
    # two values swapped between rows of one column: same multiset of
    # column values, different rows
    swapped = _with(_with(t, "lat", 3, t["lat"][4].as_py()), "lat", 4, t["lat"][3].as_py())
    assert table_digest(swapped) != d


def test_digest_is_bitwise_on_floats():
    """-0.0 and 0.0 compare equal but have different bits; the digest
    tells them apart. A false difference only makes phase B recompute,
    while a false match would reuse stale outputs."""
    a = pa.table({"x": pa.array([0.0, 1.5], pa.float64())})
    b = pa.table({"x": pa.array([-0.0, 1.5], pa.float64())})
    assert table_digest(a) != table_digest(b)


# ---------------------------------------------------------------- reader


@pytest.mark.parametrize("n_parts", [1, 5])
def test_load_reads_the_listed_parts(ray_session, tmp_path, monkeypatch, executions, n_parts):
    """``load`` gives exactly the rows of the part files the manifest lists;
    its ``schema()`` and ``count()`` run no Ray Data execution, and a
    ``columns=`` projection returns only those columns."""
    import pyarrow.parquet as pq
    import ray.data

    from core_ray.collect import collect_table

    t = _rows_table()
    store = CheckpointStore(str(tmp_path))
    if n_parts > 1:
        monkeypatch.setattr(lineage, "_MIN_ROWS_PER_FILE", 1)  # one part file per block
    store.save(ray.data.from_arrow(t).repartition(n_parts), "stage", 1, "fp")
    with open(store.manifest_path("stage")) as f:
        entries = json.load(f)["files"]
    data_dir = os.path.join(tmp_path, "stage", "data")
    files = [os.path.join(data_dir, e["file"]) for e in entries]
    assert len(files) == n_parts

    executions.clear()
    ds = store.load("stage")
    assert ds.count() == t.num_rows
    assert ds.schema().names == t.column_names
    assert executions == []

    want = pq.read_table(files).sort_by([("url", "ascending"), ("lat", "ascending")])
    got = collect_table(ds).sort_by([("url", "ascending"), ("lat", "ascending")])
    assert got.equals(want)
    assert table_digest(got) == store.digest("stage")

    executions.clear()
    narrow = store.load("stage", columns=["lat", "url"])
    assert narrow.schema().names == ["lat", "url"]
    assert narrow.size_bytes() == sum(e["arrow_bytes"]["lat"] + e["arrow_bytes"]["url"]
                                      for e in entries)
    assert executions == []
    got = collect_table(narrow)
    assert got.column_names == ["lat", "url"]
    assert sorted(got["lat"].to_pylist()) == sorted(t["lat"].to_pylist())


def test_load_of_an_empty_stage(ray_session, tmp_path):
    import ray.data

    store = CheckpointStore(str(tmp_path))
    store.save(ray.data.from_items([]), "empty", 1, "fp")
    assert store.is_complete("empty", 1, "fp")
    ds = store.load("empty")
    assert ds.count() == 0 and ds.take_all() == []


def test_load_of_several_shards_is_one_dataset(ray_session, tmp_path, executions):
    """A list of shard ids opens their parts as ONE read (no union), and
    ``ensure`` resumes a complete shard without computing or opening it."""
    import ray.data

    store = CheckpointStore(str(tmp_path))
    for k in range(3):
        store.save(ray.data.from_arrow(pa.table({"x": [10 * k, 10 * k + 1]})), "s", 1, "fp", shard=str(k))
    m = store.ensure("s", 1, "fp", lambda: 1 / 0, shard="1")
    assert m["rows"] == 2 and m["digest"] == store.digest("s", "1")
    executions.clear()
    ds = store.load("s", ["0", "2"])
    assert sorted(r["x"] for r in ds.take_all()) == [0, 1, 20, 21]
    assert len(executions) == 1 and "Union" not in executions[0], executions


def test_reader_yields_row_groups_and_sizes_old_manifests(ray_session, tmp_path):
    """A read task yields a part one row group at a time (Ray Data's output
    buffer then bounds the blocks), and an entry without ``arrow_bytes``
    (an older manifest) is sized by its file."""
    import pyarrow.parquet as pq

    from core_ray.collect import collect_table

    path = os.path.join(tmp_path, "part.parquet")
    t = pa.table({"x": pa.array(np.arange(100), pa.int64())})
    pq.write_table(t, path, row_group_size=10)
    assert [b.num_rows for b in lineage._read_row_groups(path, None)] == [10] * 10
    ds = lineage.read_parts([(path, {"rows": 100})])
    assert ds.count() == 100 and ds.schema().names == ["x"]
    assert ds.size_bytes() == os.path.getsize(path)
    assert sorted(collect_table(ds)["x"].to_pylist()) == list(range(100))


def test_lineage_has_no_read_parquet():
    """Every checkpoint read goes through the manifest reader: no
    ``read_parquet`` call is left in state/lineage.py."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(lineage))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "read_parquet"
    ]
    assert calls == [], calls
