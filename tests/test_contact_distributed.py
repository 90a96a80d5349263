"""Forced-dense hotspot tests (VERDICT r4 item 2): events_contact_degrees,
events_contact_assortativity and doc_distance_decay must stay correct when
one city-hour makes the pair table quadratic in its population — AND must
never collect O(pairs) rows (or any document text) to the driver. The spy
wraps the _collect_table each query module reads and records every collected table's size."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import core_ray.queries as Q
from core_ray.queries import _shared, doc_text, events_mobility

N_USERS = 150  # one city-hour hotspot: ~quadratic pair table


@pytest.fixture(scope="module")
def hotspot_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hotspot")
    # EVENTS: every user in city 0 (user_id % 12 == 0), all timestamps in
    # one hour -> the 6 h contact window always passes; spatial jitter is
    # +-1.5 deg vs the 1.0 deg radius, so a large fraction of all pairs hit
    uids = np.repeat(np.arange(N_USERS, dtype=np.int64) * 12, 2)
    eids = np.arange(len(uids), dtype=np.int64)
    us = 1_735_732_800_000_000 + eids * 1_000_000  # 1 s apart
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(eids, pa.int64()),
                "user_id": pa.array(uids, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        ),
        os.path.join(d, "events.parquet"),
    )
    # DOCUMENTS: ids picked so _derive_coords lands them in one 3-deg box
    # (the decay radius) -> dense pair table there too
    ids = np.arange(4_000_000, dtype=np.int64)
    lat, lon = _shared._derive_coords(ids)
    sel = ids[(np.abs(lat - lat[0]) < 1.5) & (np.abs(lon - lon[0]) < 1.5)][:80]
    assert len(sel) >= 60
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(8, 20)))
        for _ in range(len(sel))
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sel, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    return str(d)


@pytest.fixture
def collect_spy(monkeypatch):
    sizes: list[int] = []
    orig = _shared._collect_table

    def wrapper(ds):
        t = orig(ds)
        sizes.append(t.num_rows)
        return t

    for mod in (events_mobility, doc_text):
        monkeypatch.setattr(mod, "_collect_table", wrapper)
    return sizes


def _brute_edges(d: str) -> np.ndarray:
    ev = pq.read_table(os.path.join(d, "events.parquet"))
    eid = ev["event_id"].to_numpy()
    uid = ev["user_id"].to_numpy()
    us = ev["ts"].cast(pa.int64()).to_numpy()
    lat, lon = events_mobility._contact_coords(eid, uid)
    i, j = np.triu_indices(len(eid), k=1)
    dla, dlo = lat[i] - lat[j], lon[i] - lon[j]
    hit = (
        (dla * dla + dlo * dlo <= events_mobility._CONTACT_RADIUS_DEG**2)
        & (np.abs(us[i] - us[j]) <= events_mobility._CONTACT_WINDOW_US)
        & (uid[i] != uid[j])
    )
    u1 = np.minimum(uid[i][hit], uid[j][hit])
    u2 = np.maximum(uid[i][hit], uid[j][hit])
    return np.unique(u1 * (1 << 32) + u2)


def _brute_degrees(edges: np.ndarray):
    e1, e2 = edges >> 32, edges & ((1 << 32) - 1)
    users, deg = np.unique(np.concatenate([e1, e2]), return_counts=True)
    return users, deg, e1, e2


def test_degrees_dense_no_pair_collect(ray_session, hotspot_dir, collect_spy):
    edges = _brute_edges(hotspot_dir)
    assert len(edges) >= 4000  # the hotspot really is dense
    _, deg, _, _ = _brute_degrees(edges)
    dv, nc = np.unique(deg, return_counts=True)
    out = Q.events_contact_degrees(hotspot_dir)
    assert out["degree"].to_pylist() == dv.astype(np.int64).tolist()
    assert out["n_users"].to_pylist() == nc.astype(np.int64).tolist()
    # driver saw only the degree histogram — never the pair table
    assert collect_spy and max(collect_spy) <= len(dv)


def test_assortativity_dense_no_pair_collect(ray_session, hotspot_dir, collect_spy):
    edges = _brute_edges(hotspot_dir)
    users, deg, e1, e2 = _brute_degrees(edges)
    dx = np.concatenate([deg[np.searchsorted(users, e1)],
                         deg[np.searchsorted(users, e2)]])
    dy = np.concatenate([deg[np.searchsorted(users, e2)],
                         deg[np.searchsorted(users, e1)]])
    m, sx = len(dx), int(dx.sum())
    num = m * int((dx * dy).sum()) - sx * sx
    den = m * int((dx * dx).sum()) - sx * sx
    out = Q.events_contact_assortativity(hotspot_dir)
    assert out["n_edges"].to_pylist() == [len(edges)]
    assert out["n_users"].to_pylist() == [len(users)]
    assert out["r_num"].to_pylist() == [num]
    assert out["r_den"].to_pylist() == [den]
    # moment partials only: far below the edge count
    assert collect_spy and max(collect_spy) < len(edges) // 4


def test_distance_decay_dense_no_text_collect(ray_session, hotspot_dir, collect_spy):
    docs = pq.read_table(os.path.join(hotspot_dir, "documents.parquet"))
    ids = docs["doc_id"].to_numpy()
    texts = docs["text"].to_pylist()
    lat, lon = _shared._derive_coords(ids)
    i, j = np.triu_indices(len(ids), k=1)
    # distance_pairs orders by id; triu over sorted unique ids matches
    d2 = (lat[i] - lat[j]) ** 2 + (lon[i] - lon[j]) ** 2
    hit = d2 <= doc_text._DD_RADIUS**2
    i, j, d2 = i[hit], j[hit], d2[hit]
    assert len(i) >= 1000  # dense
    band = np.where(d2 < 1.0, 0, np.where(d2 < 4.0, 1, np.where(d2 < 9.0, 2, 3)))
    toks = [frozenset(t.split(" ")) for t in texts]
    micro = np.array(
        [
            (len(toks[a] & toks[b]) * 1000000) // len(toks[a] | toks[b])
            for a, b in zip(i, j)
        ],
        np.int64,
    )
    out = Q.doc_distance_decay(hotspot_dir)
    for bi, n, s in zip(
        out["band"].to_pylist(), out["n_pairs"].to_pylist(),
        out["sum_micro"].to_pylist()
    ):
        sel = band == bi
        assert int(sel.sum()) == n
        assert int(micro[sel].sum()) == s
    assert sorted(out["band"].to_pylist()) == sorted(np.unique(band).tolist())
    # driver saw only band partials — never pair rows or texts
    assert collect_spy and max(collect_spy) < len(i) // 4
