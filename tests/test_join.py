"""hash_join (stages/join.py) vs DuckDB over random keyed tables: inner and
left joins, duplicate keys on both sides, string keys, null keys dropped."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from core_ray.stages.join import hash_join


def _rand_tables(seed=7, n_left=5000, n_right=3000, key_space=800):
    rng = np.random.default_rng(seed)
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, key_space, n_left), pa.int64()),
            "lv": pa.array(rng.integers(0, 10**6, n_left), pa.int64()),
        }
    )
    right = pa.table(
        {
            "k": pa.array(rng.integers(0, key_space, n_right), pa.int64()),
            "rv": pa.array(rng.integers(0, 10**6, n_right), pa.int64()),
        }
    )
    return left, right


def _norm(t: pa.Table):
    cols = sorted(t.column_names)
    rows = sorted(zip(*[t[c].to_pylist() for c in cols]), key=str)
    return cols, rows


def _duck(left, right, sql):
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    return con.sql(sql).arrow()


@pytest.mark.parametrize("how,sql", [
    ("inner", "SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k"),
    ("left", "SELECT l.k, lv, rv FROM l LEFT JOIN r ON l.k = r.k"),
])
def test_hash_join_matches_duckdb(ray_session, how, sql):
    import ray.data

    left, right = _rand_tables()
    got = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how=how
    )
    got_t = pa.concat_tables(
        [t for t in __import__("ray").get(got.to_arrow_refs()) if t.num_rows]
    )
    assert _norm(got_t) == _norm(_duck(left, right, sql))


def test_hash_join_string_keys_and_right_on(ray_session):
    import ray.data

    left = pa.table({"name": pa.array(["a", "b", "b", "c"]), "x": pa.array([1, 2, 3, 4])})
    right = pa.table({"rname": pa.array(["b", "c", "c", "d"]), "y": pa.array([10, 20, 30, 40])})
    got = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        on="name", right_on="rname", how="inner",
    )
    got_rows = sorted(
        (r["name"], r["x"], r["y"]) for r in got.take_all()
    )
    want = _duck(left, right,
                 "SELECT name, x, y FROM l JOIN r ON l.name = r.rname")
    want_rows = sorted(zip(want["name"].to_pylist(), want["x"].to_pylist(), want["y"].to_pylist()))
    assert got_rows == want_rows


def test_hash_join_null_keys_dropped(ray_session):
    import ray.data

    left = pa.table({"k": pa.array([1, None, 2], pa.int64()), "x": pa.array([1, 2, 3])})
    right = pa.table({"k": pa.array([1, 2, None], pa.int64()), "y": pa.array([9, 8, 7])})
    got = sorted(
        (r["k"], r["x"], r["y"])
        for r in hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right), on="k").take_all()
    )
    assert got == [(1, 1, 9), (2, 3, 8)]


@pytest.mark.parametrize("how,sql", [
    ("right", "SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l RIGHT JOIN r ON l.k = r.k"),
    ("full", "SELECT COALESCE(l.k, r.k) AS k, lv, rv FROM l FULL JOIN r ON l.k = r.k"),
])
def test_hash_join_outer_variants(ray_session, how, sql):
    import ray.data

    left, right = _rand_tables(seed=19, n_left=800, n_right=600, key_space=1200)
    got = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how=how
    )
    got_t = pa.concat_tables(
        [t for t in __import__("ray").get(got.to_arrow_refs()) if t.num_rows]
    )
    assert _norm(got_t) == _norm(_duck(left, right, sql))


def test_outer_joins_keep_null_key_rows(ray_session):
    """Outer joins must retain null-key rows on the preserved side as
    unmatched rows (SQL semantics), while nulls never match each other."""
    import ray.data

    left = pa.table({"k": pa.array([1, None, 2], pa.int64()), "x": pa.array([1, 2, 3])})
    right = pa.table({"k": pa.array([1, None], pa.int64()), "y": pa.array([9, 7])})
    lres = sorted(
        (
            (r["k"], r["x"], r["y"])
            for r in hash_join(
                ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how="left"
            ).take_all()
        ),
        key=str,
    )
    assert lres == sorted([(1, 1, 9), (None, 2, None), (2, 3, None)], key=str)
    fres = sorted(
        (
            (r["k"], r["x"], r["y"])
            for r in hash_join(
                ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how="full"
            ).take_all()
        ),
        key=str,
    )
    assert fres == sorted(
        [(1, 1, 9), (None, 2, None), (2, 3, None), (None, None, 7)], key=str
    )


def _skewed_tables(seed=9, hot_key=7):
    rng = np.random.default_rng(seed)
    # hot key holds ~40% of the probe side and has many build matches
    lk = np.concatenate([np.full(2000, hot_key), rng.integers(100, 400, 3000)])
    rk = np.concatenate([np.full(50, hot_key), rng.integers(100, 400, 1000)])
    left = pa.table(
        {"k": pa.array(lk, pa.int64()),
         "lv": pa.array(rng.integers(0, 10**6, len(lk)), pa.int64())}
    )
    right = pa.table(
        {"k": pa.array(rk, pa.int64()),
         "rv": pa.array(rng.integers(0, 10**6, len(rk)), pa.int64())}
    )
    return left, right


@pytest.mark.parametrize("how", ["inner", "left"])
def test_salted_join_identical_output(ray_session, how):
    """salt_keys is a pure re-partitioning: salted and unsalted joins must
    produce identical multisets for inner and left joins."""
    import ray

    left, right = _skewed_tables()
    plain = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how=how
    )
    salted = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how=how,
        salt_keys={7: 4},
    )

    def collect(ds):
        tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tabs)

    assert _norm(collect(plain)) == _norm(collect(salted))


def test_salted_join_rejects_right_and_full(ray_session):
    import ray

    left, right = _skewed_tables()
    for how in ("right", "full"):
        with pytest.raises(ValueError, match="salt_keys"):
            hash_join(
                ray.data.from_arrow(left), ray.data.from_arrow(right),
                on="k", how=how, salt_keys={7: 4},
            )


def test_salted_join_string_keys(ray_session):
    import ray

    rng = np.random.default_rng(10)
    lk = ["hot"] * 500 + [f"k{i}" for i in rng.integers(0, 50, 500)]
    rk = ["hot"] * 5 + [f"k{i}" for i in rng.integers(0, 50, 200)]
    left = pa.table({"k": pa.array(lk, pa.string()),
                     "lv": pa.array(np.arange(len(lk)), pa.int64())})
    right = pa.table({"k": pa.array(rk, pa.string()),
                      "rv": pa.array(np.arange(len(rk)), pa.int64())})
    plain = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right), on="k")
    salted = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k",
        salt_keys={"hot": 3},
    )

    def collect(ds):
        tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tabs)

    assert _norm(collect(plain)) == _norm(collect(salted))


def test_salted_join_with_colliding_salt_partitions(ray_session):
    """s larger than the distinct salted-partition count must NOT duplicate
    output (build replicas are placed per UNIQUE partition)."""
    import ray

    left, right = _skewed_tables()
    plain = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how="inner",
        n_parts=12,
    )
    salted = hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how="inner",
        n_parts=12, salt_keys={7: 6},  # 6 salts over 12 partitions -> collisions
    )

    def collect(ds):
        tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tabs)

    assert _norm(collect(plain)) == _norm(collect(salted))


# ------------------------------------------------- lookup_join how='anti'


def _fni_fixture(seed=11, n=20_000, n_drop=6_000):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    rng.shuffle(ids)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "val": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    drop = pa.table({"doc_id": pa.array(
        rng.choice(n, size=n_drop, replace=False).astype(np.int64), pa.int64())})
    return t, drop


def test_filter_not_in_paths_agree(ray_session, monkeypatch):
    """Broadcast probe and distributed anti hash-join must be value-identical
    (VERDICT r3 item 3: every broadcast needs a tested scale path)."""
    import ray

    from core_ray.stages import join

    t, drop = _fni_fixture()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 10**9)
    a = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(drop),
                         on="doc_id", how="anti")
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(drop),
                         on="doc_id", how="anti")
    ta, tb = collect_sorted(a), collect_sorted(b)
    assert _norm(ta) == _norm(tb)
    rows = sorted(zip(ta["doc_id"].to_pylist(), ta["val"].to_pylist()))
    dropped = set(drop["doc_id"].to_pylist())
    assert len(rows) == t.num_rows - len(dropped)
    assert all(r[0] not in dropped for r in rows)


def collect_sorted(ds):
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tabs) if tabs else pa.table({"doc_id": pa.array([], pa.int64())})


def test_filter_not_in_empty_drop(ray_session, monkeypatch):
    import ray

    from core_ray.stages import join

    t, _ = _fni_fixture()
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 10**9)
    out = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(empty),
                           on="doc_id", how="anti")
    assert collect_sorted(out).num_rows == t.num_rows


def test_dedup_keep_forced_join_path_equivalent(ray_session, monkeypatch):
    """doc_dedup_keep under the forced anti-join guard (BROADCAST_MAX_BYTES=0)
    must equal the broadcast default — the keep-list scale hatch is exact."""
    from core_ray.collect import collect_table
    from core_ray.queries import doc_dedup_keep
    from core_ray.stages import join

    sf = "/root/testdata/sf0.001"
    a = sorted(collect_table(doc_dedup_keep(sf))["doc_id"].to_pylist())
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = sorted(collect_table(doc_dedup_keep(sf))["doc_id"].to_pylist())
    assert a == b and len(a) > 0


def test_incremental_new_forced_join_path_equivalent(ray_session, monkeypatch):
    """doc_incremental_new under the forced anti-join guard must equal the
    broadcast default, and must actually drop the snapshot overlap."""
    from core_ray.collect import collect_table
    from core_ray.queries import doc_incremental_new
    from core_ray.stages import join

    sf = "/root/testdata/sf0.001"
    a = sorted(collect_table(doc_incremental_new(sf))["doc_id"].to_pylist())
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = sorted(collect_table(doc_incremental_new(sf))["doc_id"].to_pylist())
    assert a == b and len(a) > 0
    assert all(d % 10 >= 7 for d in a)  # every overlap doc dropped


def test_hash_join_binary_keys(ray_session):
    """binary(16) keys (full-digest dedup keys) join correctly and take the
    vectorized hash path."""
    import ray.data

    left = pa.table({
        "k": pa.array([b"A" * 16, b"B" * 16, b"C" * 16], pa.binary(16)),
        "x": pa.array([1, 2, 3], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([b"B" * 16, b"C" * 16, b"D" * 16], pa.binary(16)),
        "y": pa.array([20, 30, 40], pa.int64()),
    })
    got = sorted(
        (bytes(r["k"]), r["x"], r["y"])
        for r in hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right),
                           on="k").take_all()
    )
    assert got == [(b"B" * 16, 2, 20), (b"C" * 16, 3, 30)]


# ------------------------------------------------- lookup_join how='semi'


def test_filter_semi_paths_agree(ray_session, monkeypatch):
    """Broadcast searchsorted probe and distributed semi hash-join must be
    value-identical (same contract as the anti join: every broadcast has a
    tested scale path)."""
    import ray

    from core_ray.stages import join

    t, keep = _fni_fixture()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 10**9)
    a = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                         on="doc_id", how="semi")
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                         on="doc_id", how="semi")
    ta, tb = collect_sorted(a), collect_sorted(b)
    assert _norm(ta) == _norm(tb)
    rows = sorted(zip(ta["doc_id"].to_pylist(), ta["val"].to_pylist()))
    kept = set(keep["doc_id"].to_pylist())
    assert len(rows) == len(kept)
    assert all(r[0] in kept for r in rows)


def test_filter_semi_empty_keep(ray_session, monkeypatch):
    import ray

    from core_ray.stages import join

    t, _ = _fni_fixture()
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 10**9)
    out = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(empty),
                           on="doc_id", how="semi")
    assert collect_sorted(out).num_rows == 0


def test_semi_and_not_in_partition(ray_session):
    """The semi and anti lookup_joins against one keep set split ds exactly."""
    import ray

    from core_ray.stages.join import lookup_join

    t, keep = _fni_fixture(seed=7)
    ins = collect_sorted(lookup_join(
        ray.data.from_arrow(t), ray.data.from_arrow(keep), on="doc_id", how="semi"))
    outs = collect_sorted(lookup_join(
        ray.data.from_arrow(t), ray.data.from_arrow(keep), on="doc_id", how="anti"))
    assert ins.num_rows + outs.num_rows == t.num_rows
    assert not (set(ins["doc_id"].to_pylist()) & set(outs["doc_id"].to_pylist()))


def test_filter_semi_bloom_prefilter_equivalent(ray_session, monkeypatch):
    """bloom_prefilter=True must be output-identical to the plain
    distributed semi path (no false negatives by Bloom construction; the
    exact join removes the false positives)."""
    import ray

    from core_ray.stages import join

    t, keep = _fni_fixture(seed=11)
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    plain = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                             on="doc_id", how="semi")
    bloomed = join.lookup_join(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                               on="doc_id", how="semi", bloom_prefilter=True)
    assert _norm(collect_sorted(plain)) == _norm(collect_sorted(bloomed))


def test_bloom_of_ds_no_false_negatives_and_prunes(ray_session):
    """Distributed Bloom build: every member hits; a mostly-non-member
    probe population is pruned hard (the 100-TB shuffle-volume win)."""
    import numpy as np
    import ray

    from core_ray.stages.join import bloom_of_ds

    keys = np.arange(0, 5000, 5, dtype=np.int64)  # 1000 members
    keep = pa.table({"k": pa.array(keys, pa.int64())})
    bloom = bloom_of_ds(ray.data.from_arrow(keep).repartition(4), "k",
                        n_keys=len(keys))
    assert bloom.contains(keys.astype(np.uint64)).all()
    probes = np.arange(100_000, 200_000, dtype=np.uint64)  # all non-members
    fp = int(bloom.contains(probes).sum())
    assert fp < 100  # ~4e-4 expected; generous ceiling


def test_salted_hash_wraps_silently_like_python_ints():
    """Salted replica hashes are mod-2**64 products of the key hash and the
    salt; computing them must not warn about the (intended) overflow."""
    import warnings

    from core_ray.stages.join import _salted_hash

    m = (1 << 64) - 1
    salts = np.arange(64, dtype=np.int64)
    for kh0 in (0, 1, 7, 0xDEADBEEFCAFEF00D, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _salted_hash(kh0, salts)
        want = [((kh0 * 0x9E3779B97F4A7C15) & m) ^ (((s + 1) * 0xBF58476D1CE4E5B9) & m)
                for s in range(64)]
        assert got.dtype == np.uint64
        assert got.tolist() == want


# ---------------------------------------------------------------- lookup_join

_LOOKUP_SQL = {
    "inner": "SELECT l.k, lv, rv FROM l JOIN r ON l.k = r.k",
    "left": "SELECT l.k, lv, rv FROM l LEFT JOIN r ON l.k = r.k",
    "semi": "SELECT * FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    "anti": "SELECT * FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
}


def _lookup_tables(key_type: str, seed=3):
    """Null keys on both sides and duplicate right keys (~120 rows over 70
    keys), int or string keys."""
    rng = np.random.default_rng(seed)
    lk = [int(v) for v in rng.integers(0, 50, 600)]
    rk = [int(v) for v in rng.integers(0, 70, 120)]
    lk = [None if i % 17 == 0 else v for i, v in enumerate(lk)]
    rk = [None if i % 13 == 0 else v for i, v in enumerate(rk)]
    if key_type == "string":
        lk = [None if v is None else f"k{v}" for v in lk]
        rk = [None if v is None else f"k{v}" for v in rk]
    typ = pa.int64() if key_type == "int" else pa.string()
    left = pa.table({"k": pa.array(lk, typ), "lv": pa.array(np.arange(600), pa.int64())})
    right = pa.table({"k": pa.array(rk, typ), "rv": pa.array(np.arange(120) * 10, pa.int64())})
    return left, right


def _collect(ds):
    from core_ray.collect import collect_table

    return collect_table(ds)


@pytest.mark.parametrize("key_type", ["int", "string"])
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_lookup_join_regimes_match_duckdb(ray_session, monkeypatch, how, key_type):
    """Every ``how``, right side as a Table and as a Dataset, broadcast
    (constant large) and shuffle (constant 0): all four give DuckDB's rows,
    with null keys on both sides and duplicate right keys (inner/left emit
    one row per matching right row, semi/anti each left row at most once)."""
    import ray

    from core_ray.stages import join

    left, right = _lookup_tables(key_type)
    want = _norm(_duck(left, right, _LOOKUP_SQL[how]))
    assert want[1]
    for bmax in (10**9, 0):
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        for r in (right, ray.data.from_arrow(right)):
            got = _collect(join.lookup_join(
                ray.data.from_arrow(left).repartition(3), r, on="k", how=how))
            assert _norm(got) == want, (bmax, type(r).__name__)


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_lookup_join_empty_right(ray_session, monkeypatch, how):
    import ray

    from core_ray.stages import join

    left, right = _lookup_tables("int")
    empty = right.slice(0, 0)
    want = _norm(_duck(left, empty, _LOOKUP_SQL[how]))
    for bmax in (10**9, 0):
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        got = _collect(join.lookup_join(ray.data.from_arrow(left), empty, on="k", how=how))
        assert _norm(got) == want, bmax


def test_lookup_join_right_on_and_column_order(ray_session, monkeypatch):
    """``right_on`` names the right key; inner output is [on, *left, *right]
    and semi keeps the left columns in left order, in both regimes."""
    import ray

    from core_ray.stages import join

    left = pa.table({"v": pa.array([1, 2, 3], pa.int64()),
                     "k": pa.array([10, 20, 30], pa.int64())})
    right = pa.table({"rk": pa.array([20, 30, 40], pa.int64()),
                      "name": pa.array(["b", "c", "d"])})
    for bmax in (10**9, 0):
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        inner = _collect(join.lookup_join(ray.data.from_arrow(left), right,
                                          on="k", right_on="rk"))
        assert inner.column_names == ["k", "v", "name"]
        assert sorted(inner["name"].to_pylist()) == ["b", "c"]
        semi = _collect(join.lookup_join(ray.data.from_arrow(left), right,
                                         on="k", right_on="rk", how="semi"))
        assert semi.column_names == ["v", "k"]
        assert sorted(semi["k"].to_pylist()) == [20, 30]


def test_read_dim_driver_table_or_dataset(monkeypatch, tmp_path):
    """read_dim reads onto the driver while the footer says the projection
    fits, and hands back a lazy Dataset (same rows) when it does not."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from core_ray.stages import join

    path = str(tmp_path / "dim.parquet")
    pq.write_table(pa.table({"k": pa.array(range(100), pa.int64()),
                             "s": pa.array([f"x{i}" for i in range(100)])}), path)
    t = join.read_dim(path, ["k"], filter=pads.field("s") == "x7")
    assert isinstance(t, pa.Table) and t.to_pydict() == {"k": [7]}
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    ds = join.read_dim(path, ["k"], filter=pads.field("s") == "x7")
    assert not isinstance(ds, pa.Table)


def test_broadcast_thresholds_live_in_join_only():
    """The broadcast-vs-shuffle choice has one home, stages/join.py: no
    query sizes a file to pick a regime, and no function takes its own
    broadcast threshold."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "core_ray"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        src = path.read_text()
        if rel.startswith("queries/"):
            found += [f"{rel}:{i} getsize" for i, line in enumerate(src.splitlines(), 1)
                      if "os.path.getsize(" in line]
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if "broadcast_max" in arg.arg or arg.arg == "broadcast_pairs_threshold":
                        found.append(f"{rel}:{node.lineno} {arg.arg}")
    assert not found, "broadcast thresholds outside stages/join.py: " + ", ".join(found)
