"""Composed curation pipeline (pipelines/corpus.py): invariants + the
partitioned-write path. The end-to-end value check is the doc_curated
driver oracle (queries.py); here we pin the pipeline contract."""

import glob
import os
import tempfile

import pyarrow as pa
import ray.data

from core_ray.pipelines.corpus import curate_corpus

SF = "/root/testdata/sf0.001"


def _docs():
    return ray.data.read_parquet(
        os.path.join(SF, "documents.parquet"),
        columns=["doc_id", "text", "lang", "n_chars"],
    )


def test_curate_invariants(ray_session):
    res = curate_corpus(_docs())
    t = pa.concat_tables(ray.get(res.curated.to_arrow_refs()))
    assert set(t.column_names) == {"doc_id", "lang", "bucket"}
    assert res.stats["n_curated"] == t.num_rows
    assert 0 < t.num_rows < res.stats["n_input"]
    ids = t["doc_id"].to_pylist()
    assert len(set(ids)) == len(ids), "no duplicate doc ids"
    assert set(t["bucket"].to_pylist()) <= {"head", "middle", "tail"}
    # every dropped dup really is a non-representative member
    assert res.stats["n_dropped_dups"] >= 0
    t1, t2 = res.stats["bucket_thresholds"]
    assert t1 <= t2


def test_curate_partitioned_write_roundtrip(ray_session):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "curated")
        res = curate_corpus(_docs(), out_dir=out)
        buckets = {os.path.basename(p).split("=", 1)[1]
                   for p in glob.glob(os.path.join(out, "bucket=*"))}
        assert buckets, "partition directories exist"
        assert buckets <= {"head", "middle", "tail"}
        back = ray.data.read_parquet(out)
        assert back.count() == res.stats["n_curated"]
        # written partitions match the in-memory assignment
        nomem = curate_corpus(_docs())
        a = sorted(
            (r["doc_id"], str(r["bucket"]))
            for t in ray.get(res.curated.to_arrow_refs())
            for r in t.to_pylist()
        )
        b = sorted(
            (r["doc_id"], str(r["bucket"]))
            for t in ray.get(nomem.curated.to_arrow_refs())
            for r in t.to_pylist()
        )
        assert a == b


def test_curate_forced_join_path_equivalent(ray_session, monkeypatch):
    """BROADCAST_MAX_BYTES=0 (distributed anti-join keep-list) must be
    value-identical to the broadcast default (VERDICT r3 item 3)."""
    import ray

    from core_ray.stages import join

    def norm(res):
        t = pa.concat_tables(ray.get(res.curated.to_arrow_refs()))
        return sorted(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist(),
                          t["bucket"].to_pylist()))

    a = curate_corpus(_docs())
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = curate_corpus(_docs())
    assert norm(a) == norm(b)
    assert a.stats["n_dropped_dups"] == b.stats["n_dropped_dups"] > 0
