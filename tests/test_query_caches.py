"""Session-keyed query caches (`_DUP_CHAIN_CACHE`, `_CONTACT_PAIRS_CACHE`,
`_BPE_CACHE`, `_PQ_CACHE`) must never serve a materialized Dataset from an
earlier Ray session: its object refs died with that session. Two local
clusters started one after the other in one process both run their first
job as 01000000, so the cache key must tell them apart by more than the
job id.

The sessions run in a subprocess so the session-scoped `ray_session`
fixture of this pytest process is left alone."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = textwrap.dedent(
    """
    import sys

    import ray
    from ray.data import DataContext

    import core_ray.queries as Q
    from core_ray.queries import _shared
    from core_ray.compare import to_arrow

    rows, keys = [], []
    for _ in range(2):
        ray.init(address="local", num_cpus=1, object_store_memory=100 * 2**20,
                 include_dashboard=False, logging_level="ERROR")
        DataContext.get_current().enable_progress_bars = False
        keys.append(_shared._ray_session_key())
        rows.append(to_arrow(Q.events_contacts(sys.argv[1])).num_rows)
        ray.shutdown()
    assert keys[0] != keys[1], keys
    assert rows[0] == rows[1] > 0, rows
    print("OK", rows)
    """
)


def test_second_session_in_one_process_recomputes_cached_pairs(tmp_path):
    # 40 users in one city and one hour, so the contact table is not empty
    uids = np.repeat(np.arange(40, dtype=np.int64) * 12, 2)
    eids = np.arange(len(uids), dtype=np.int64)
    us = 1_735_732_800_000_000 + eids * 1_000_000
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eids, pa.int64()),
                "user_id": pa.array(uids, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        ),
        tmp_path / "events.parquet",
    )
    env = dict(os.environ, PYTHONPATH=REPO + os.pathsep + os.environ.get("PYTHONPATH", ""))
    p = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert p.returncode == 0 and "OK" in p.stdout, p.stderr[-3000:]
