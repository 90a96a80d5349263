"""Checkpoint resume trusts only intact data: a stage whose manifest matches
but whose part files were deleted or truncated recomputes instead of
resuming with missing rows or failing on read."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa

from core_ray.state.lineage import CheckpointStore

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
