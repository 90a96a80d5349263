"""Exact dedup (stages/dedup.py): one row per key with the minimum order
column, hash collisions never lose a key, and the plan is one map plus one
hash shuffle."""

import re

import numpy as np
import pyarrow as pa

from core_ray.stages import dedup
from core_ray.stages.dedup import dedup_exact

KEYS = ["url", "mention_idx"]


def _dup_corpus(n=4000, n_urls=1500, seed=11):
    """Rows with repeated (url, mention_idx) keys; ``warc_ts`` is drawn from
    60 values, so many copies of a key tie on it. ``payload`` is unique per
    row, so the test can tell which copy survived."""
    rng = np.random.default_rng(seed)
    urls = [f"https://h{rng.integers(0, n_urls)}.example.com/p" for _ in range(n)]
    ts = np.datetime64("2025-01-01", "us") + rng.integers(0, 60, n).astype("timedelta64[s]")
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "mention_idx": pa.array(rng.integers(0, 2, n), pa.int32()),
            "warc_ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
            "payload": pa.array(np.arange(n), pa.int64()),
        }
    )


def _reference(t: pa.Table) -> tuple[dict, dict]:
    """Pure-Python first-wins: key -> min warc_ts, and key -> the payloads
    of the rows holding that minimum (any of them may win a tie)."""
    best_ts, winners = {}, {}
    for r in t.to_pylist():
        k = (r["url"], r["mention_idx"])
        if k not in best_ts or r["warc_ts"] < best_ts[k]:
            best_ts[k], winners[k] = r["warc_ts"], {r["payload"]}
        elif r["warc_ts"] == best_ts[k]:
            winners[k].add(r["payload"])
    return best_ts, winners


def _check_against_reference(t: pa.Table, out_rows: list[dict]) -> None:
    best_ts, winners = _reference(t)
    got = {}
    for r in out_rows:
        k = (r["url"], r["mention_idx"])
        assert k not in got, f"key {k} kept twice"
        got[k] = r
    assert set(got) == set(best_ts)
    for k, r in got.items():
        assert r["warc_ts"] == best_ts[k], k
        assert r["payload"] in winners[k], k


def test_one_row_per_key_with_min_warc_ts(ray_session):
    import ray.data

    t = _dup_corpus()
    best_ts, winners = _reference(t)
    assert len(best_ts) < t.num_rows, "fixture must hold duplicate keys"
    assert any(len(w) > 1 for w in winners.values()), "fixture must plant warc_ts ties"
    out = dedup_exact(ray.data.from_arrow(t, override_num_blocks=4), KEYS, order_col="warc_ts")
    assert out.schema().names == t.column_names
    _check_against_reference(t, out.take_all())


def test_hash_collisions_keep_every_key(ray_session, monkeypatch):
    """Every row hashes to 0: all rows land in one partition and all go
    through the exact per-key pass, which must still keep each distinct key."""
    import ray.data

    monkeypatch.setattr(dedup, "_row_hashes", lambda b, key_cols: np.zeros(b.num_rows, np.uint64))
    t = _dup_corpus(n=1500, n_urls=600, seed=5)
    out = dedup_exact(ray.data.from_arrow(t, override_num_blocks=3), KEYS, order_col="warc_ts")
    _check_against_reference(t, out.take_all())


def test_plan_is_one_map_and_one_shuffle(ray_session, monkeypatch):
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    executions = []
    execute = StreamingExecutor.execute

    def counting_execute(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    ds = ray.data.from_arrow(_dup_corpus(seed=23), override_num_blocks=4)
    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    stats = dedup_exact(ds, KEYS, order_col="warc_ts").materialize().stats()
    assert len(executions) == 1
    assert len(re.findall(r"^Operator \d+ Sort\b", stats, re.M)) == 1, stats
    assert "MapBatches(pre)" not in stats, "count_by_u64's combiner must not run"
