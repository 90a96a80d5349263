"""Fault injection: a worker crash mid-batch must be retried by Ray's
task-lineage machinery with EXACT output (the single-node analog of node
preemption on a multi-node cluster — the failure mode the checkpoint/resume
layer above this, tests/test_flagship.py, handles at stage granularity)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc


def test_map_task_crash_is_retried_and_output_exact(ray_session, tmp_path):
    import ray.data

    marker = str(tmp_path / "crash_once")
    with open(marker, "w") as f:
        f.write("x")

    n = 10_000
    t = pa.table({"x": pa.array(range(n), pa.int64())})

    def flaky_double(b: pa.Table) -> pa.Table:
        try:
            os.unlink(marker)  # exactly one concurrent task wins the unlink
            os._exit(1)  # hard worker death, not a Python exception
        except FileNotFoundError:
            pass
        return b.set_column(0, "x", pc.multiply(b["x"], 2))

    ds = ray.data.from_arrow(t).repartition(8)
    out = ds.map_batches(flaky_double, batch_format="pyarrow").sum("x")
    # the crashed task re-ran from lineage; nothing lost, nothing doubled
    assert out == n * (n - 1)  # sum(range(n)) * 2
    assert not os.path.exists(marker)


def test_actor_pool_worker_death_recovers(ray_session, tmp_path):
    """Same contract through an ACTOR-pool stage (the stateful-stage shape
    every heavy pipeline step uses): one actor dies mid-batch, the pool
    replaces it, output is exact."""
    import ray.data

    marker = str(tmp_path / "actor_crash_once")
    with open(marker, "w") as f:
        f.write("x")

    n = 5_000
    t = pa.table({"x": pa.array(range(n), pa.int64())})

    class FlakyAdd:
        def __init__(self):
            self.offset = 7  # per-actor state built in __init__

        def __call__(self, b: pa.Table) -> pa.Table:
            try:
                os.unlink(marker)  # exactly one concurrent call wins
                os._exit(1)
            except FileNotFoundError:
                pass
            return b.set_column(0, "x", pc.add(b["x"], self.offset))

    ds = ray.data.from_arrow(t).repartition(8)
    out = ds.map_batches(
        FlakyAdd, batch_format="pyarrow", concurrency=2
    ).sum("x")
    assert out == n * (n - 1) // 2 + 7 * n
    assert not os.path.exists(marker)


def test_dedup_checkpoint_writer_dies_mid_write(ray_session, tmp_path, monkeypatch):
    """The background ``deduped`` checkpoint write fails mid-write (and a
    killed earlier writer left a torn tmp dir): the rerun recomputes
    ``deduped``, resumes kNN and tiles (their fingerprints are unchanged)
    and returns the outputs of a clean run."""
    import glob
    import json

    import pytest

    from core_ray.collect import collect_table
    from core_ray.config import PipelineConfig
    from core_ray.fixtures.pages import write_corpus
    from core_ray.pipelines.flagship import run_flagship
    from core_ray.state.lineage import CheckpointStore

    c = write_corpus(str(tmp_path / "corpus"), 300, n_page_files=3)
    files = sorted(glob.glob(str(tmp_path / "corpus" / "pages" / "*.parquet")))
    ckpt = str(tmp_path / "ckpt")

    def run(checkpoint_dir):
        res = run_flagship(files, c.admin_polygons, c.geoip_ranges, PipelineConfig(),
                           checkpoint_dir=checkpoint_dir)
        out = {k: collect_table(getattr(res, k)) for k in ("joined", "knn", "tiles")}
        out = {k: t.sort_by([(n, "ascending") for n in t.column_names if n != "text"])
               for k, t in out.items()}
        return out, res.stats

    save = CheckpointStore.save

    def dying_save(store, ds, stage, *args, **kwargs):
        if stage == "deduped":
            def die(b: pa.Table) -> pa.Table:
                raise RuntimeError("checkpoint writer died")

            ds = ds.map_batches(die, batch_format="pyarrow")
        return save(store, ds, stage, *args, **kwargs)

    monkeypatch.setattr(CheckpointStore, "save", dying_save)
    with pytest.raises(Exception, match="checkpoint writer died"):
        run(ckpt)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(ckpt, "deduped"))
    assert glob.glob(os.path.join(ckpt, "deduped.tmp-*")) == []
    torn = os.path.join(ckpt, "deduped.tmp-0badc0de", "data")
    os.makedirs(torn)
    with open(os.path.join(torn, "part-00000.parquet"), "wb") as f:
        f.write(b"PAR1 torn")

    wide = {s: os.path.join(ckpt, s, "manifest.json") for s in ("knn", "tiles")}
    before = {s: os.stat(m).st_mtime_ns for s, m in wide.items()}
    got, got_stats = run(ckpt)
    assert {s: os.stat(m).st_mtime_ns for s, m in wide.items()} == before
    with open(os.path.join(ckpt, "deduped", "manifest.json")) as f:
        assert json.load(f)["stage"] == "deduped"
    assert glob.glob(os.path.join(ckpt, "deduped.tmp-*")) == []

    want, want_stats = run(str(tmp_path / "ckpt_clean"))
    assert got_stats == want_stats
    for k in want:
        assert got[k].equals(want[k]), k
