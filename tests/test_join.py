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


# ---------------------------------------------------------------- filter_not_in


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


def test_filter_not_in_paths_agree(ray_session):
    """Broadcast probe and distributed anti hash-join must be value-identical
    (VERDICT r3 item 3: every broadcast needs a tested scale path)."""
    import ray

    from core_ray.stages.join import filter_not_in

    t, drop = _fni_fixture()
    a = filter_not_in(ray.data.from_arrow(t), ray.data.from_arrow(drop),
                      on="doc_id", broadcast_max=10**9)
    b = filter_not_in(ray.data.from_arrow(t), ray.data.from_arrow(drop),
                      on="doc_id", broadcast_max=0)
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


def test_filter_not_in_empty_drop(ray_session):
    import ray

    from core_ray.stages.join import filter_not_in

    t, _ = _fni_fixture()
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    out = filter_not_in(ray.data.from_arrow(t), ray.data.from_arrow(empty),
                        on="doc_id", broadcast_max=10**9)
    assert collect_sorted(out).num_rows == t.num_rows


def test_dedup_keep_forced_join_path_equivalent(ray_session):
    """doc_dedup_keep under the forced anti-join guard (broadcast_max=0)
    must equal the broadcast default — the keep-list scale hatch is exact."""
    from core_ray.collect import collect_table
    from core_ray.queries import doc_dedup_keep

    sf = "/root/testdata/sf0.001"
    a = sorted(collect_table(doc_dedup_keep(sf))["doc_id"].to_pylist())
    b = sorted(collect_table(doc_dedup_keep(sf, broadcast_max=0))["doc_id"].to_pylist())
    assert a == b and len(a) > 0


def test_incremental_new_forced_join_path_equivalent(ray_session):
    """doc_incremental_new under the forced anti-join guard must equal the
    broadcast default, and must actually drop the snapshot overlap."""
    from core_ray.collect import collect_table
    from core_ray.queries import doc_incremental_new

    sf = "/root/testdata/sf0.001"
    a = sorted(collect_table(doc_incremental_new(sf))["doc_id"].to_pylist())
    b = sorted(collect_table(doc_incremental_new(sf, broadcast_max=0))["doc_id"].to_pylist())
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


# ---------------------------------------------------------------- filter_semi


def test_filter_semi_paths_agree(ray_session):
    """Broadcast searchsorted probe and distributed semi hash-join must be
    value-identical (same contract as filter_not_in: every broadcast has a
    tested scale path)."""
    import ray

    from core_ray.stages.join import filter_semi

    t, keep = _fni_fixture()
    a = filter_semi(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                    on="doc_id", broadcast_max=10**9)
    b = filter_semi(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                    on="doc_id", broadcast_max=0)
    ta, tb = collect_sorted(a), collect_sorted(b)
    assert _norm(ta) == _norm(tb)
    rows = sorted(zip(ta["doc_id"].to_pylist(), ta["val"].to_pylist()))
    kept = set(keep["doc_id"].to_pylist())
    assert len(rows) == len(kept)
    assert all(r[0] in kept for r in rows)


def test_filter_semi_empty_keep(ray_session):
    import ray

    from core_ray.stages.join import filter_semi

    t, _ = _fni_fixture()
    empty = pa.table({"doc_id": pa.array([], pa.int64())})
    out = filter_semi(ray.data.from_arrow(t), ray.data.from_arrow(empty),
                      on="doc_id", broadcast_max=10**9)
    assert collect_sorted(out).num_rows == 0


def test_semi_and_not_in_partition(ray_session):
    """filter_semi(keep) and filter_not_in(keep) split ds exactly."""
    import ray

    from core_ray.stages.join import filter_not_in, filter_semi

    t, keep = _fni_fixture(seed=7)
    ins = collect_sorted(filter_semi(
        ray.data.from_arrow(t), ray.data.from_arrow(keep), on="doc_id"))
    outs = collect_sorted(filter_not_in(
        ray.data.from_arrow(t), ray.data.from_arrow(keep), on="doc_id"))
    assert ins.num_rows + outs.num_rows == t.num_rows
    assert not (set(ins["doc_id"].to_pylist()) & set(outs["doc_id"].to_pylist()))


def test_filter_semi_bloom_prefilter_equivalent(ray_session):
    """bloom_prefilter=True must be output-identical to the plain
    distributed semi path (no false negatives by Bloom construction; the
    exact join removes the false positives)."""
    import ray

    from core_ray.stages.join import filter_semi

    t, keep = _fni_fixture(seed=11)
    plain = filter_semi(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                        on="doc_id", broadcast_max=0)
    bloomed = filter_semi(ray.data.from_arrow(t), ray.data.from_arrow(keep),
                          on="doc_id", broadcast_max=0, bloom_prefilter=True)
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
