"""Round-5 wave-6 operator units: RAG-style chunk windows and the
entity-resolution fuzzy self-join. The driver oracle checks both on the
real tables; these tests hammer the kernels on synthetic throwaway-parquet
inputs (single-token docs, exact window boundaries, unicode, hash-collided
blocks, all-identical titles)."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave6_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


# ------------------------------------------------------------- chunking


def _chunk_reference(texts, w, s):
    rows = []
    for did, t in enumerate(texts):
        toks = t.split(" ")
        n = len(toks)
        start = 0
        cidx = 0
        while start < n:
            ntok = min(w, n - start)
            rows.append(
                (did, cidx, start, ntok, toks[start], toks[start + ntok - 1])
            )
            start += s
            cidx += 1
    return rows


def test_chunk_windows_matches_reference(ray_session):
    from core_ray.queries import doc_chunk_windows
    from core_ray.queries.doc_text import _CHUNK_S, _CHUNK_W

    rng = np.random.default_rng(7)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [
        " ".join(rng.choice(vocab, size=int(n)))
        for n in [1, _CHUNK_S, _CHUNK_S + 1, _CHUNK_W, _CHUNK_W + 1,
                  2 * _CHUNK_S, 2 * _CHUNK_S + 1, 200, 3, 64]
    ]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    got = doc_chunk_windows(d).to_pandas().sort_values(
        ["doc_id", "chunk_idx"]
    )
    exp = _chunk_reference(texts, _CHUNK_W, _CHUNK_S)
    assert list(map(tuple, got.itertuples(index=False))) == exp
    # coverage invariant: every token index is inside >= 1 window
    for did, t in enumerate(texts):
        n = len(t.split(" "))
        covered = np.zeros(n, bool)
        g = got[got.doc_id == did]
        for _, r in g.iterrows():
            covered[r.start_tok : r.start_tok + r.n_tok] = True
        assert covered.all()


def test_chunk_windows_single_token_doc(ray_session):
    from core_ray.queries import doc_chunk_windows

    d = _write(
        {
            "documents": {
                "doc_id": pa.array([0], pa.int64()),
                "text": pa.array(["solo"], pa.string()),
            }
        }
    )
    got = doc_chunk_windows(d).to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert (r.chunk_idx, r.start_tok, r.n_tok, r.first_tok, r.last_tok) == (
        0, 0, 1, "solo", "solo",
    )


# ------------------------------------------------------- fuzzy ER join


def _lev_reference(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev = dp[:]
        dp[0] = i
        for j in range(1, len(b) + 1):
            dp[j] = min(
                prev[j] + 1,
                dp[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[len(b)]


def test_lev_batch_matches_reference():
    from core_ray.queries.doc_dedup import _lev_batch

    rng = np.random.default_rng(11)
    alphabet = list("abcdeé 日")
    pairs = []
    for _ in range(200):
        la, lb = rng.integers(0, 12, size=2)
        pairs.append(
            (
                "".join(rng.choice(alphabet, la)),
                "".join(rng.choice(alphabet, lb)),
            )
        )
    got = _lev_batch([p[0] for p in pairs], [p[1] for p in pairs])
    exp = [_lev_reference(a, b) for a, b in pairs]
    assert got.tolist() == exp


def _fuzzy_reference(texts, n_chars, title=32, prefix=8, band=64, maxlev=3):
    keys = [(t[:prefix], c // band) for t, c in zip(texts, n_chars)]
    out = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if keys[i] != keys[j]:
                continue
            d = _lev_reference(texts[i][:title], texts[j][:title])
            if d <= maxlev:
                out.add((i, j, d))
    return out


def test_fuzzy_pairs_matches_bruteforce(ray_session):
    from core_ray.queries import doc_title_fuzzy_pairs

    rng = np.random.default_rng(13)
    base = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do"
    texts = []
    for i in range(60):
        t = list(base)
        # 0-5 random single-char edits: some pairs verify, some fail
        for _ in range(int(rng.integers(0, 6))):
            t[int(rng.integers(0, len(t)))] = chr(97 + int(rng.integers(0, 26)))
        texts.append("".join(t))
    # a far block that can never match the first
    texts += ["zzzz " + base for _ in range(3)]
    n_chars = [len(t) for t in texts]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array(n_chars, pa.int64()),
            }
        }
    )
    got = doc_title_fuzzy_pairs(d).to_pandas()
    gotset = {
        (int(r.doc_id_a), int(r.doc_id_b), int(r.lev))
        for _, r in got.iterrows()
    }
    assert gotset == _fuzzy_reference(texts, n_chars)


def test_fuzzy_pairs_all_identical_titles(ray_session):
    from core_ray.queries import doc_title_fuzzy_pairs

    texts = ["same title words everywhere forever and ever amen"] * 7
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(7), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        }
    )
    got = doc_title_fuzzy_pairs(d).to_pandas()
    assert len(got) == 7 * 6 // 2
    assert (got.lev == 0).all()


# ------------------------------------------------- held-out bigram LM


def _bppl_reference(texts, ids):
    import math

    train = [t.split(" ") for t, i in zip(texts, ids) if i % 2 == 0]
    test = [(i, t.split(" ")) for t, i in zip(texts, ids) if i % 2 == 1]
    vocab = {w for p in train for w in p}
    v = len(vocab) + 1
    c2: dict = {}
    c1: dict = {}
    for p in train:
        for a, b in zip(p[:-1], p[1:]):
            c2[(a, b)] = c2.get((a, b), 0) + 1
            c1[a] = c1.get(a, 0) + 1
    out = []
    for did, p in test:
        if len(p) < 2:
            continue
        s = 0
        for a, b in zip(p[:-1], p[1:]):
            a2 = a if a in vocab else "\x00"
            b2 = b if b in vocab else "\x00"
            prob = (c2.get((a2, b2), 0) + 1) / (c1.get(a2, 0) + v)
            s += int(np.float64(-math.log2(prob) * 1000000.0).round())
        out.append((did, len(p) - 1, s, s / (len(p) - 1)))
    return out


def test_bigram_ppl_matches_reference_both_regimes(ray_session, monkeypatch):
    from core_ray.queries import doc_bigram_ppl
    from core_ray.stages import join

    rng = np.random.default_rng(17)
    vocab = ["the", "cat", "sat", "mat", "dog", "ran", "far", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 30))))
        for _ in range(40)
    ]
    # guarantee unseen-token (UNK) coverage in the test half
    texts[1] = "the cat UNSEENWORD sat"
    texts[3] = "ONLYUNSEEN TOKENS HERE"
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(40), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    exp = sorted(_bppl_reference(texts, list(range(40))))
    for bmax in (join.BROADCAST_MAX_BYTES, 0):  # broadcast regime, then distributed
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        got = (
            doc_bigram_ppl(d)
            .to_pandas()
            .sort_values("doc_id")
        )
        gotr = [
            (int(r.doc_id), int(r.n_bigrams), int(r.sum_micro), float(r.mean_bits))
            for _, r in got.iterrows()
        ]
        assert [g[:3] for g in gotr] == [e[:3] for e in exp], bmax
        assert np.allclose([g[3] for g in gotr], [e[3] for e in exp])


# --------------------------------------------------------------- k-core


def _kcore_reference(edges, k):
    """Dict/loop peeling fixpoint (independent of the engine's numpy path)."""
    edges = set(map(tuple, edges))
    while True:
        deg: dict = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bad = {u for u, d in deg.items() if d < k}
        if not bad:
            return edges
        edges = {(a, b) for a, b in edges if a not in bad and b not in bad}


def test_kcore_peel_matches_reference(ray_session):
    """Engine peeling vs the dict/loop reference on the contact graph the
    engine itself derives — checked via an events fixture whose contact
    pairs we recompute brute force."""
    from core_ray.queries import events_kcore
    from core_ray.queries.events_mobility import (
        _KCORE_KS,
        _contact_coords,
        _CONTACT_RADIUS_DEG,
        _CONTACT_WINDOW_US,
    )

    rng = np.random.default_rng(23)
    n = 400
    ev = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 60, n).astype(np.int64)
    us = rng.integers(0, 4 * 3600 * 1000000, n).astype(np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(ev, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
                "user_id": pa.array(uid, pa.int64()),
            }
        }
    )
    lat, lon = _contact_coords(ev, uid)
    r2 = _CONTACT_RADIUS_DEG * _CONTACT_RADIUS_DEG
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if uid[i] == uid[j]:
                continue
            if abs(int(us[i]) - int(us[j])) > _CONTACT_WINDOW_US:
                continue
            if (lat[i] - lat[j]) ** 2 + (lon[i] - lon[j]) ** 2 > r2:
                continue
            edges.add((min(uid[i], uid[j]), max(uid[i], uid[j])))
    got = events_kcore(d).to_pydict()
    for i, k in enumerate(_KCORE_KS):
        core = _kcore_reference(edges, k)
        users = {u for e in core for u in e}
        assert got["k"][i] == k
        assert got["n_edges"][i] == len(core), k
        assert got["n_users"][i] == len(users), k


# ----------------------------------------------------- keyword extract


def _keywords_reference(texts, k=3):
    n = len(texts)
    per = [t.split(" ") for t in texts]
    df: dict = {}
    for p in per:
        for w in set(p):
            df[w] = df.get(w, 0) + 1
    rows = []
    for did, p in enumerate(per):
        tf: dict = {}
        for w in p:
            tf[w] = tf.get(w, 0) + 1
        scored = sorted(
            ((-(c * n) / df[w], w, c) for w, c in tf.items())
        )[:k]
        for r, (negw, w, c) in enumerate(scored, 1):
            rows.append((did, r, w, c, df[w], -negw))
    return rows


def test_top_keywords_matches_reference_both_regimes(ray_session, monkeypatch):
    from core_ray.queries import doc_top_keywords
    from core_ray.stages import join

    rng = np.random.default_rng(29)
    vocab = ["common"] * 1 + ["mid", "rare", "unique", "apple", "zebra"]
    texts = [
        "common " * 3
        + " ".join(rng.choice(vocab, size=int(rng.integers(1, 12))))
        for _ in range(25)
    ]
    texts = [t.strip() for t in texts]
    texts.append("solo")  # 1-token doc -> 1 keyword row
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    exp = _keywords_reference(texts)
    for bmax in (join.BROADCAST_MAX_BYTES, 0):
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        got = (
            doc_top_keywords(d)
            .to_pandas()
            .sort_values(["doc_id", "rank"])
        )
        gotr = [
            (int(r.doc_id), int(r["rank"]), r.token, int(r.tf), int(r.df),
             float(r.weight))
            for _, r in got.iterrows()
        ]
        assert gotr == exp, bmax


def test_fuzzy_clusters_transitive_closure(ray_session):
    """A~B and B~C (but A!~C directly) must land in ONE component."""
    from core_ray.queries import doc_fuzzy_clusters

    base = "abcdefgh " + "x" * 40  # one block (same prefix8 + length band)
    texts = [
        base,                      # doc 0
        base[:9] + "y" + base[10:],   # doc 1: 1 edit from 0
        base[:9] + "yz" + base[11:],  # doc 2: 2 edits from 0, 1 from 1
        "qqqqqqqq " + "x" * 40,    # doc 3: different block
    ]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(4), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        }
    )
    got = doc_fuzzy_clusters(d).to_pandas().sort_values("node")
    comp = dict(zip(got.node, got.comp))
    assert comp == {0: 0, 1: 0, 2: 0}  # doc 3 unpaired -> absent
