"""Round-5 wave-11 operator units: HITS hubs/authorities over the OD
city-flow graph, JL sign-projection recall, and BM25 nDCG ranking
quality. Each test verifies the engine against a fully independent
pure-Python (dict/loop, no numpy-kernel sharing) reference on synthetic
throwaway parquet."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SCALE = 1_000_000
ITERS = 4


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave11_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


def _collect(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(res.to_pandas())


def _ref_flows(event_ids, user_ids, ts_us):
    """Reference OD legs: per-user ts/event_id ordered walk, city =
    (user*7 + seq//20) % 12, count city changes."""
    by_user: dict = {}
    for e, u, t in zip(event_ids, user_ids, ts_us):
        by_user.setdefault(u, []).append((t, e))
    flows: dict = {}
    for u, evs in by_user.items():
        evs.sort()
        cities = [(u * 7 + s // 20) % 12 for s in range(len(evs))]
        for a, b in zip(cities, cities[1:]):
            if a != b:
                flows[(a, b)] = flows.get((a, b), 0) + 1
    return flows


def _ref_hits(flows: dict):
    cities = sorted({c for k in flows for c in k})
    h = {c: SCALE for c in cities}
    a = {c: 0 for c in cities}
    for _ in range(ITERS):
        a = {c: 0 for c in cities}
        for (f, t), w in flows.items():
            a[t] += w * h[f]
        mx = max(a.values())
        if mx > 0:
            a = {c: (v * SCALE) // mx for c, v in a.items()}
        h = {c: 0 for c in cities}
        for (f, t), w in flows.items():
            h[f] += w * a[t]
        mx = max(h.values())
        if mx > 0:
            h = {c: (v * SCALE) // mx for c, v in h.items()}
    return {c: (h[c], a[c]) for c in cities}


def test_hits_matches_loop_reference(ray_session):
    from core_ray.queries import events_hits

    rng = np.random.default_rng(71)
    n = 900
    uid = rng.integers(0, 25, n)
    ts = np.sort(rng.integers(0, 10**12, n))
    eid = np.arange(n)
    d = _write(
        {
            "events": {
                "event_id": eid,
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    flows = _ref_flows(eid.tolist(), uid.tolist(), ts.tolist())
    assert flows, "walk must produce legs for the test to bite"
    want = _ref_hits(flows)
    t = _collect(events_hits(d))
    got = {
        c: (hub, auth)
        for c, hub, auth in zip(
            t["city"].to_pylist(), t["hub"].to_pylist(), t["auth"].to_pylist()
        )
    }
    assert got == want
    # the top authority is pinned to the micro scale by construction
    assert max(v[1] for v in got.values()) == SCALE


def test_hits_empty_events(ray_session):
    from core_ray.queries import events_hits

    d = _write(
        {
            "events": {
                "event_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
                "user_id": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "value": pa.array([], pa.float64()),
                "props": pa.array([], pa.string()),
            }
        }
    )
    t = _collect(events_hits(d))
    assert t.num_rows == 0
    assert t.column_names == ["city", "hub", "auth"]


def _ref_jl(vec_ids, vecs, d_out=16, topk=10):
    """Reference JL recall: pure-Python loops, no numpy matmul."""

    def q(x):
        s = x * 1000.0
        import math

        return math.floor(s + 0.5) if s >= 0 else math.ceil(s - 0.5)

    qv = {i: [q(x) for x in v] for i, v in zip(vec_ids, vecs)}

    def sign(i1, j):
        h = ((i1 * 1000003 + (j + 1) * 40503) * 2654435761) % (1 << 32)
        return 1 if h < (1 << 31) else -1

    def proj(v):
        return [
            sum(sign(i + 1, j) * x for i, x in enumerate(v))
            for j in range(d_out)
        ]

    pv = {i: proj(v) for i, v in qv.items()}
    out = {}
    for p in vec_ids:
        if p % 100 != 0:
            continue
        exact = sorted(
            (
                (-sum(a * b for a, b in zip(qv[p], qv[o])), o)
                for o in vec_ids
                if o != p
            )
        )[:topk]
        approx = sorted(
            (
                (-sum(a * b for a, b in zip(pv[p], pv[o])), o)
                for o in vec_ids
                if o != p
            )
        )[:topk]
        n = len({o for _, o in exact} & {o for _, o in approx})
        out[p] = n
    return out


def test_jl_recall_matches_loop_reference(ray_session):
    from core_ray.queries import emb_jl_recall

    rng = np.random.default_rng(113)
    n, dim = 160, 24
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    # plant near-duplicates of the probes so recall has signal
    for p in range(0, n, 100):
        for t in range(1, 4):
            vecs[p + t] = vecs[p] + rng.normal(scale=0.05, size=dim).astype(
                np.float32
            )
    ids = np.arange(n)
    d = _write(
        {
            "embeddings": {
                "vec_id": ids,
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(np.zeros(n, np.int32), pa.int32()),
            }
        }
    )
    # float32 -> float64 is exact, so the reference quantizes identically
    want = _ref_jl(ids.tolist(), [v.astype(np.float64) for v in vecs])
    t = _collect(emb_jl_recall(d))
    got = dict(zip(t["query_id"].to_pylist(), t["n_overlap"].to_pylist()))
    assert got == want
    # at least one probe's planted near-dups survive the 24->16 projection
    # (a 16-dim sign projection distorts enough that per-probe recall CAN
    # be 0 — that is the measurement, not a bug)
    assert max(got.values()) >= 1


def _ref_ndcg(doc_ids, texts, queries, k=10):
    """Reference nDCG@k: pure-Python BM25 + graded-relevance DCG."""
    import math

    toks = {i: t.split(" ") for i, t in zip(doc_ids, texts)}
    n = len(doc_ids)
    avgdl = sum(len(v) for v in toks.values()) / n
    weights = [
        int(math.floor(1e6 / math.log2(r + 1) + 0.5)) for r in range(1, k + 1)
    ]
    out = {}
    for qid, qterms in queries:
        df = {t: sum(1 for v in toks.values() if t in v) for t in qterms}
        idf = {
            t: math.log((n - df[t] + 0.5) / (df[t] + 0.5) + 1.0) for t in qterms
        }
        rows = []
        for i in doc_ids:
            tf = {t: toks[i].count(t) for t in qterms}
            rel = sum(tf.values())
            if rel == 0:
                continue
            s = 0.0
            for t in qterms:
                s = s + idf[t] * tf[t] * 2.2 / (
                    tf[t] + 1.2 * (1.0 - 0.75 + 0.75 * len(toks[i]) / avgdl)
                )
            s = math.floor(s * 1e6 + 0.5) / 1e6
            rows.append((i, s, rel))
        if not rows:
            continue
        sys_top = sorted(rows, key=lambda r: (-r[1], r[0]))[:k]
        idl_top = sorted(rows, key=lambda r: (-r[2], r[0]))[:k]
        dcg = sum(r[2] * w for r, w in zip(sys_top, weights))
        idcg = sum(r[2] * w for r, w in zip(idl_top, weights))
        out[qid] = (dcg, idcg, (dcg * 1_000_000) // idcg)
    return out


def test_ndcg_matches_loop_reference(ray_session):
    from core_ray.queries import doc_ndcg_eval
    from core_ray.queries.doc_text import _BM25_QUERIES

    rng = np.random.default_rng(31)
    vocab = np.array(
        ["table", "scan", "vector", "stream", "merge", "customer", "window",
         "filler", "noise", "pad", "xyz", "qrs"]
    )
    n = 400
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 60)))
        for _ in range(n)
    ]
    ids = np.arange(n)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * n,
                "source": ["s"] * n,
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_ndcg(ids.tolist(), texts, _BM25_QUERIES)
    t = _collect(doc_ndcg_eval(d))
    got = {
        q: (a, b, c)
        for q, a, b, c in zip(
            t["query_id"].to_pylist(), t["dcg_micro"].to_pylist(),
            t["idcg_micro"].to_pylist(), t["ndcg_micro"].to_pylist(),
        )
    }
    assert got == want
    # sanity: nDCG is a true [0, 1e6] micro ratio with dcg <= idcg
    for dcg, idcg, nd in got.values():
        assert 0 < dcg <= idcg and 0 < nd <= 1_000_000


def _ref_lpa(event_ids, user_ids, ts_us, iters=3):
    """Reference LPA: brute-force contact pairs (same coordinate model),
    then synchronous label propagation with dict counting."""

    def coords(e, u):
        lat = (
            (((u % 12) * 11003) % 120000) / 1000.0 - 60.0
            + ((u * 7919) % 2001) / 1000.0 - 1.0
            + ((e * 13) % 1001) / 1000.0 - 0.5
        )
        lon = (
            (((u % 12) * 104729) % 340000) / 1000.0 - 170.0
            + ((u * 104729) % 2001) / 1000.0 - 1.0
            + ((e * 29) % 1001) / 1000.0 - 0.5
        )
        return lat, lon

    pts = [
        (e, u, t, *coords(e, u))
        for e, u, t in zip(event_ids, user_ids, ts_us)
    ]
    edges = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            if a[1] == b[1]:
                continue
            if abs(a[2] - b[2]) > 6 * 3600 * 1000000:
                continue
            if (a[3] - b[3]) ** 2 + (a[4] - b[4]) ** 2 > 1.0:
                continue
            edges.add((min(a[1], b[1]), max(a[1], b[1])))
    if not edges:
        return {}
    nbrs: dict = {}
    for u1, u2 in edges:
        nbrs.setdefault(u1, []).append(u2)
        nbrs.setdefault(u2, []).append(u1)
    label = {u: u for u in nbrs}
    for _ in range(iters):
        nxt = {}
        for u, ns in nbrs.items():
            cnt: dict = {}
            for v in ns:
                cnt[label[v]] = cnt.get(label[v], 0) + 1
            nxt[u] = min(
                cnt, key=lambda c: (-cnt[c], c)
            )  # max count, tie -> smallest label
        label = nxt
    comm: dict = {}
    for u, c in label.items():
        comm[c] = comm.get(c, 0) + 1
    return comm


def test_lpa_matches_bruteforce(ray_session):
    from core_ray.queries import events_lpa_communities

    rng = np.random.default_rng(17)
    n = 400
    uid = rng.integers(0, 40, n)
    ts = np.sort(rng.integers(0, 3 * 86400 * 10**6, n))
    eid = np.arange(n)
    d = _write(
        {
            "events": {
                "event_id": eid,
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    want = _ref_lpa(eid.tolist(), uid.tolist(), ts.tolist())
    assert want, "contact graph must be non-empty for the test to bite"
    t = _collect(events_lpa_communities(d))
    got = dict(zip(t["community"].to_pylist(), t["n_members"].to_pylist()))
    assert got == want
    # propagation must have merged somebody (fewer communities than nodes)
    assert sum(got.values()) > len(got)


def _ref_oph(texts, n_gram=4, bins=16):
    """Reference OPH eval: dict/loop implementation with hashlib md5."""
    import hashlib as hl

    def grams_of(t):
        toks = t.split(" ")
        return {
            " ".join(toks[i:i + n_gram])
            for i in range(len(toks) - n_gram + 1)
        }

    def g32(g):
        return int.from_bytes(hl.md5(g.encode()).digest()[:8], "little") % (
            1 << 32
        )

    def mix(x):
        h = (x * 40503 + (1 * 2654435761) % (1 << 32)) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        return h

    def sketch(gs):
        filled = {}
        for g in gs:
            h = mix(g32(g))
            b = h % bins
            v = h // bins
            if b not in filled or v < filled[b]:
                filled[b] = v
        dv = []
        for j in range(bins):
            for t in range(bins):
                k = (j + t) % bins
                if k in filled:
                    dv.append(filled[k] + t * (1 << 32))
                    break
        return dv

    def r6(x):
        return np.floor(x * 1e6 + 0.5) / 1e6

    want = {}
    for k in range(len(texts) // 2):
        a, b = grams_of(texts[2 * k]), grams_of(texts[2 * k + 1])
        if not a or not b:
            continue
        inter = len(a & b)
        jac = r6(inter / len(a | b))
        c = sum(x == y for x, y in zip(sketch(a), sketch(b)))
        want[(2 * k, 2 * k + 1)] = (inter, jac, c, r6(c / bins))
    return want


def test_oph_matches_bruteforce(ray_session):
    from core_ray.queries import doc_oph_eval

    rng = np.random.default_rng(59)
    vocab = np.array([f"w{i}" for i in range(300)])
    texts = []
    for k in range(40):
        base = rng.choice(vocab, size=rng.integers(12, 40)).tolist()
        texts.append(" ".join(base))
        # the odd sibling shares a planted prefix span -> graded overlap
        keep = rng.integers(0, len(base) + 1)
        tail = rng.choice(vocab, size=rng.integers(6, 30)).tolist()
        texts.append(" ".join(base[:keep] + tail))
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_oph(texts)
    t = _collect(doc_oph_eval(d))
    got = {
        (lo, hi): (n, j, c, je)
        for lo, hi, n, j, c, je in zip(
            t["doc_lo"].to_pylist(), t["doc_hi"].to_pylist(),
            t["n_common"].to_pylist(), t["jac"].to_pylist(),
            t["c_bins"].to_pylist(), t["j_est"].to_pylist(),
        )
    }
    assert got == want
    # estimator correlates with truth across the planted overlap range
    js = [v[1] for v in want.values()]
    es = [v[3] for v in want.values()]
    assert np.corrcoef(js, es)[0, 1] > 0.6


def _ref_bleu(texts):
    """Reference BLEU-2 pair eval: Counter/loop implementation."""
    import math
    from collections import Counter

    def r0(x):
        return int(math.floor(x + 0.5))

    want = {}
    for k in range(len(texts) // 2):
        ref, cand = texts[2 * k].split(" "), texts[2 * k + 1].split(" ")
        if len(ref) < 2 or len(cand) < 2:
            continue
        u_c, u_r = Counter(cand), Counter(ref)
        b_c = Counter(zip(cand, cand[1:]))
        b_r = Counter(zip(ref, ref[1:]))
        m1 = sum(min(c, u_r[g]) for g, c in u_c.items())
        m2 = sum(min(c, b_r[g]) for g, c in b_c.items())
        c1, c2 = len(cand), len(cand) - 1
        p1 = (m1 * 1_000_000) // c1
        p2 = (m2 * 1_000_000) // c2
        want[(2 * k, 2 * k + 1)] = (
            m1, m2, c1, len(ref), p1, p2, r0(math.sqrt(p1 * p2))
        )
    return want


def test_bleu_pairs_matches_counter_reference(ray_session):
    from core_ray.queries import doc_bleu_pairs

    rng = np.random.default_rng(211)
    vocab = np.array([f"w{i}" for i in range(50)])
    texts = []
    for k in range(40):
        base = rng.choice(vocab, size=rng.integers(8, 30)).tolist()
        texts.append(" ".join(base))
        keep = rng.integers(2, len(base) + 1)
        tail = rng.choice(vocab, size=rng.integers(2, 20)).tolist()
        texts.append(" ".join(base[:keep] + tail))
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_bleu(texts)
    t = _collect(doc_bleu_pairs(d))
    got = {
        (lo, hi): tuple(vals)
        for lo, hi, *vals in zip(
            t["doc_lo"].to_pylist(), t["doc_hi"].to_pylist(),
            t["m1"].to_pylist(), t["m2"].to_pylist(),
            t["c_len"].to_pylist(), t["r_len"].to_pylist(),
            t["p1_micro"].to_pylist(), t["p2_micro"].to_pylist(),
            t["bleu2_micro"].to_pylist(),
        )
    }
    assert got == want
    # planted shared prefixes must give nonzero bigram precision somewhere
    assert any(v[5] > 0 for v in got.values())


def _ref_holt(y, scale=1_000_000):
    """Reference Holt smoothing: sequential loop with trunc-div."""

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    lvl, trd = y[0] * scale, (y[1] - y[0]) * scale
    rows = [(0, y[0], lvl, trd)]
    for h in range(1, len(y)):
        ln = td(y[h] * scale + 3 * (lvl + trd), 4)
        trd = td((ln - lvl) + 7 * trd, 8)
        lvl = ln
        rows.append((h, y[h], lvl, trd))
    return rows


def test_holt_matches_sequential_reference(ray_session):
    from core_ray.queries import events_holt

    rng = np.random.default_rng(41)
    n = 600
    # bursty hours with gaps -> zero-filled series exercises negative trend
    hours = np.sort(rng.choice(np.arange(120), size=n, replace=True))
    us = hours.astype(np.int64) * 3600000000 + rng.integers(
        0, 3600000000, n
    )
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(np.sort(us), pa.timestamp("us")),
                "user_id": np.zeros(n, np.int64),
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    # reference series: zero-filled over [min, max] hour
    hs = np.sort(us) // 3600000000
    h0 = int(hs.min())
    series = np.zeros(int(hs.max()) - h0 + 1, np.int64)
    for h in hs:
        series[int(h) - h0] += 1
    want = _ref_holt([int(v) for v in series])
    t = _collect(events_holt(d))
    got = list(
        zip(t["h"].to_pylist(), t["y"].to_pylist(), t["l"].to_pylist(),
            t["b"].to_pylist())
    )
    assert got == want
    # the gap hours must have driven the trend negative at least once
    assert any(b < 0 for _, _, _, b in got)


def test_holt_short_series_empty(ray_session):
    from core_ray.queries import events_holt

    d = _write(
        {
            "events": {
                "event_id": [0, 1],
                "ts": pa.array([1000, 2000], pa.timestamp("us")),
                "user_id": [0, 1],
                "event_type": ["view", "view"],
                "value": [0.0, 0.0],
                "props": ["{}", "{}"],
            }
        }
    )
    t = _collect(events_holt(d))  # both events in ONE hour -> series len 1
    assert t.num_rows == 0


def _ref_densest(edges):
    """Reference threshold peeling: set/dict loops, exact rationals."""
    edges = set(edges)
    rounds = []
    it = 0
    while edges:
        deg: dict = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        v, e = len(deg), len(edges)
        rounds.append((it, v, e))
        peel = {u for u, dg in deg.items() if dg * v <= 4 * e}
        edges = {(a, b) for a, b in edges if a not in peel and b not in peel}
        it += 1
        assert it < 64, "peel must halve the vertex set every round"
    best = rounds[0]
    for r in rounds[1:]:
        if r[2] * best[1] > best[2] * r[1]:
            best = r
    return (best[0], best[1], best[2], (best[2] * 1_000_000) // best[1])


def test_densest_subgraph_matches_peel_reference(ray_session):
    from core_ray.queries import events_densest_subgraph

    rng = np.random.default_rng(97)
    n = 500
    uid = rng.integers(0, 60, n)
    ts = np.sort(rng.integers(0, 2 * 86400 * 10**6, n))
    eid = np.arange(n)
    d = _write(
        {
            "events": {
                "event_id": eid,
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    # same brute-force contact edges as the LPA reference
    def coords(e, u):
        lat = (
            (((u % 12) * 11003) % 120000) / 1000.0 - 60.0
            + ((u * 7919) % 2001) / 1000.0 - 1.0
            + ((e * 13) % 1001) / 1000.0 - 0.5
        )
        lon = (
            (((u % 12) * 104729) % 340000) / 1000.0 - 170.0
            + ((u * 104729) % 2001) / 1000.0 - 1.0
            + ((e * 29) % 1001) / 1000.0 - 0.5
        )
        return lat, lon

    pts = [(e, u, t, *coords(e, u)) for e, u, t in
           zip(eid.tolist(), uid.tolist(), ts.tolist())]
    edges = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            if a[1] == b[1] or abs(a[2] - b[2]) > 6 * 3600 * 1000000:
                continue
            if (a[3] - b[3]) ** 2 + (a[4] - b[4]) ** 2 > 1.0:
                continue
            edges.add((min(a[1], b[1]), max(a[1], b[1])))
    assert edges, "contact graph must be non-empty for the test to bite"
    want = _ref_densest(edges)
    t = _collect(events_densest_subgraph(d))
    got = (
        t["best_iter"][0].as_py(), t["n_users"][0].as_py(),
        t["n_edges"][0].as_py(), t["density_micro"][0].as_py(),
    )
    assert got == want
    # the kept subgraph must be at least as dense as the full graph
    deg_all = {}
    for a, b in edges:
        deg_all[a] = 1
        deg_all[b] = 1
    assert got[3] >= (len(edges) * 1_000_000) // len(deg_all)


def _ref_empty_distance(doc_ids, p=6, steps=6):
    """Reference distance transform: dict/loop Chebyshev dilation."""
    n = 1 << p
    sent = steps + 1
    occ = set()
    for did in doc_ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        occ.add(((a * n) // 360000, (b * n) // 140000))
    d = {(x, y): (0 if (x, y) in occ else sent)
         for x in range(n) for y in range(n)}
    for _ in range(steps):
        nd = {}
        for (x, y), v in d.items():
            best = v
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    nb = d.get((x + dx, y + dy), sent)
                    best = min(best, min(nb + 1, sent))
            nd[(x, y)] = best
        d = nd
    rows = sorted(d.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return [(x, y, v) for (x, y), v in rows[:20]]


def test_empty_distance_matches_loop_reference(ray_session):
    from core_ray.queries import geo_empty_distance

    # sparse ids -> genuinely empty regions with graded distances
    ids = np.array([0, 3, 17, 400, 981, 2049, 5000, 9973], np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": ["x y"] * len(ids),
                "lang": ["en"] * len(ids),
                "source": ["s"] * len(ids),
                "n_chars": [3] * len(ids),
            }
        }
    )
    want = _ref_empty_distance(ids.tolist())
    t = _collect(geo_empty_distance(d))
    got = list(zip(t["cx"].to_pylist(), t["cy"].to_pylist(),
                   t["dt"].to_pylist()))
    assert got == want
    # with 8 occupied cells on a 64x64 grid the sentinel ring must exist
    assert got[0][2] == 7


def _ref_diameter(edges):
    """Reference double-sweep: dict BFS, ties -> smallest node."""
    nbrs: dict = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)

    def bfs(s):
        dist = {s: 0}
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        far = min((n for n in dist), key=lambda n: (-dist[n], n))
        return far, dist[far]

    s0 = min(nbrs)
    far1, ecc1 = bfs(s0)
    far2, ecc2 = bfs(far1)
    return (s0, far1, ecc1, far2, ecc2)


def test_graph_diameter_matches_bfs_reference(ray_session):
    from core_ray.queries import events_graph_diameter

    rng = np.random.default_rng(313)
    n = 450
    uid = rng.integers(0, 50, n)
    ts = np.sort(rng.integers(0, 2 * 86400 * 10**6, n))
    eid = np.arange(n)
    d = _write(
        {
            "events": {
                "event_id": eid,
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )

    def coords(e, u):
        lat = (
            (((u % 12) * 11003) % 120000) / 1000.0 - 60.0
            + ((u * 7919) % 2001) / 1000.0 - 1.0
            + ((e * 13) % 1001) / 1000.0 - 0.5
        )
        lon = (
            (((u % 12) * 104729) % 340000) / 1000.0 - 170.0
            + ((u * 104729) % 2001) / 1000.0 - 1.0
            + ((e * 29) % 1001) / 1000.0 - 0.5
        )
        return lat, lon

    pts = [(e, u, t, *coords(e, u)) for e, u, t in
           zip(eid.tolist(), uid.tolist(), ts.tolist())]
    edges = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            if a[1] == b[1] or abs(a[2] - b[2]) > 6 * 3600 * 1000000:
                continue
            if (a[3] - b[3]) ** 2 + (a[4] - b[4]) ** 2 > 1.0:
                continue
            edges.add((min(a[1], b[1]), max(a[1], b[1])))
    assert edges, "contact graph must be non-empty for the test to bite"
    want = _ref_diameter(edges)
    t = _collect(events_graph_diameter(d))
    got = (
        t["src0"][0].as_py(), t["far1"][0].as_py(), t["ecc1"][0].as_py(),
        t["far2"][0].as_py(), t["ecc2"][0].as_py(),
    )
    assert got == want
    # the double sweep can only grow the eccentricity estimate
    assert got[4] >= got[2]


def _ref_rake(texts, stops=("a", "the"), max_len=4, topk=20):
    """Reference RAKE: dict/loop implementation."""
    phrases = []
    for t in texts:
        run = []
        for tok in t.split(" ") + [None]:
            if tok is None or tok in stops:
                if 1 <= len(run) <= max_len:
                    phrases.append(tuple(run))
                run = []
            else:
                run.append(tok)
    deg: dict = {}
    freq: dict = {}
    for p in phrases:
        for w in p:
            deg[w] = deg.get(w, 0) + len(p)
            freq[w] = freq.get(w, 0) + 1
    ws = {w: (deg[w] * 1_000_000) // freq[w] for w in deg}
    occ: dict = {}
    for p in phrases:
        occ[p] = occ.get(p, 0) + 1
    rows = [
        (" ".join(p), n, sum(ws[w] for w in p)) for p, n in occ.items()
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:topk]


def test_rake_matches_loop_reference(ray_session):
    from core_ray.queries import doc_rake_keywords

    rng = np.random.default_rng(137)
    vocab = np.array(
        ["deep", "learning", "graph", "index", "a", "the", "cache",
         "packed", "row", "merge", "split"]
    )
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(6, 40)))
        for _ in range(120)
    ]
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_rake(texts)
    t = _collect(doc_rake_keywords(d))
    got = list(zip(t["phrase"].to_pylist(), t["n_occ"].to_pylist(),
                   t["score_micro"].to_pylist()))
    assert got == want
    # multi-word phrases must surface (RAKE's whole point)
    assert any(" " in p for p, _, _ in got)


def _ref_jenks(doc_ids, p=6, k=4):
    """Reference Fisher-Jenks: exhaustive cut enumeration, Fraction-exact."""
    from fractions import Fraction
    from itertools import combinations

    n = 1 << p
    cells: dict = {}
    for did in doc_ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        key = ((a * n) // 360000, (b * n) // 140000)
        cells[key] = cells.get(key, 0) + 1
    hist: dict = {}
    for c in cells.values():
        hist[c] = hist.get(c, 0) + 1
    vals = sorted(hist)
    freqs = [hist[x] for x in vals]
    m = len(vals)
    kk = min(k, m)

    def seg(i, j):
        n_ = sum(freqs[i:j + 1])
        s1 = sum(f * v for f, v in zip(freqs[i:j + 1], vals[i:j + 1]))
        s2 = sum(f * v * v for f, v in zip(freqs[i:j + 1], vals[i:j + 1]))
        return Fraction(s2, 1) - Fraction(s1 * s1, n_), n_

    best, best_ssd = None, None
    for cuts in combinations(range(1, m), kk - 1):
        bounds, lo = [], 0
        for c in cuts:
            bounds.append((lo, c - 1))
            lo = c
        bounds.append((lo, m - 1))
        segs = [seg(i, j) for i, j in bounds]
        total = sum((s for s, _ in segs), Fraction(0))
        if best_ssd is None or total < best_ssd:
            best_ssd = total
            best = [
                (cls, vals[i], vals[j], n_,
                 (s.numerator * 1_000_000) // s.denominator)
                for cls, ((i, j), (s, n_)) in enumerate(zip(bounds, segs))
            ]
    return best


def test_jenks_matches_exhaustive_reference(ray_session):
    from core_ray.queries import geo_jenks_breaks

    rng = np.random.default_rng(23)
    # heavy-tailed cell occupancy -> a rich multi-value histogram
    ids = np.unique(rng.integers(0, 30000, 4000)).astype(np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": ["x y"] * len(ids),
                "lang": ["en"] * len(ids),
                "source": ["s"] * len(ids),
                "n_chars": [3] * len(ids),
            }
        }
    )
    want = _ref_jenks(ids.tolist())
    assert len(want) == 4, "histogram must be rich enough for 4 classes"
    t = _collect(geo_jenks_breaks(d))
    got = list(
        zip(t["cls"].to_pylist(), t["lo"].to_pylist(), t["hi"].to_pylist(),
            t["n_cells"].to_pylist(), t["ssd_micro"].to_pylist())
    )
    assert got == want
    # classes must be contiguous and ordered
    for (c1, _, hi1, _, _), (c2, lo2, _, _, _) in zip(got, got[1:]):
        assert c2 == c1 + 1 and lo2 > hi1


def _ref_semdedup(ids, vecs, clusters, tau=0.35):
    """Reference SemDeDup: loop cosine + dict union-find per cluster."""
    import math

    def r6(x):
        return (np.floor(x * 1e6 + 0.5) / 1e6 if x >= 0
                else -np.floor(-x * 1e6 + 0.5) / 1e6)

    out = []
    for c in sorted(set(clusters)):
        members = sorted(
            [i for i, cl in zip(ids, clusters) if cl == c]
        )
        if len(members) < 2:
            continue
        vx = {i: vecs[ids.index(i)] for i in members}
        nx = {}
        for i in members:
            nv = math.sqrt(sum(v * v for v in vx[i]))
            nx[i] = [v / max(nv, 1e-30) for v in vx[i]]
        parent = {i: i for i in members}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a_i in range(len(members)):
            for b_i in range(a_i + 1, len(members)):
                a, b = members[a_i], members[b_i]
                cos = r6(sum(p * q for p, q in zip(nx[a], nx[b])))
                if cos >= tau:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        for v in members:
            r = find(v)
            if r != v:
                out.append((v, r, c))
    return sorted(out)


def test_semdedup_matches_loop_reference(ray_session):
    from core_ray.fixtures.docs_golden import golden_kmeans
    from core_ray.queries import emb_semdedup

    # structured vectors: per-group planted exact duplicates (cos == 1)
    # plus clearly-distinct axes (cos <= ~0.2) — every threshold decision
    # sits far from 0.35, so loop-vs-BLAS ULP order cannot flip a pair
    rng = np.random.default_rng(67)
    dim, n_groups = 16, 10
    vecs, ids = [], []
    vid = 0
    for gp in range(n_groups):
        base = np.zeros(dim, np.float32)
        base[gp % dim] = 1.0
        base[(gp + 5) % dim] = 0.125
        for rep in range(rng.integers(1, 5)):
            vecs.append(base * (1.0 + rep))  # same direction -> cos 1
            ids.append(vid)
            vid += 1
    vecs = np.stack(vecs)
    d = _write(
        {
            "embeddings": {
                "vec_id": np.array(ids, np.int64),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(np.zeros(len(ids), np.int32), pa.int32()),
            }
        }
    )
    emb_t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    asn = golden_kmeans(emb_t, 8, 5)
    cl_map = dict(zip(asn["vec_id"].to_pylist(), asn["cluster"].to_pylist()))
    want = _ref_semdedup(
        ids, [v.astype(np.float64).tolist() for v in vecs],
        [cl_map[i] for i in ids],
    )
    assert want, "planted duplicates must produce removals"
    t = _collect(emb_semdedup(d))
    got = sorted(
        zip(t["vec_id"].to_pylist(), t["keep_id"].to_pylist(),
            t["cluster"].to_pylist())
    )
    assert got == want
    # every keeper must be smaller than what it replaces
    assert all(k < v for v, k, _ in got)


def _ref_median_polish(dowhod_counts, sweeps=2):
    """Reference polish: dict/loop lower-median implementation."""
    m = {(i, j): 0 for i in range(7) for j in range(24)}
    for (i, j), v in dowhod_counts.items():
        m[(i, j)] = v
    row_eff = [0] * 7
    col_eff = [0] * 24

    def lomed(vals):
        return sorted(vals)[(len(vals) + 1) // 2 - 1]

    for _ in range(sweeps):
        for i in range(7):
            med = lomed([m[(i, j)] for j in range(24)])
            for j in range(24):
                m[(i, j)] -= med
            row_eff[i] += med
        for j in range(24):
            med = lomed([m[(i, j)] for i in range(7)])
            for i in range(7):
                m[(i, j)] -= med
            col_eff[j] += med
    res = list(m.values())
    rows = [(0, i, row_eff[i]) for i in range(7)]
    rows += [(1, j, col_eff[j]) for j in range(24)]
    rows += [(2, 0, min(res)), (2, 1, max(res))]
    return rows


def test_median_polish_matches_loop_reference(ray_session):
    from core_ray.queries import events_median_polish

    rng = np.random.default_rng(77)
    n = 3000
    us = rng.integers(0, 21 * 86400 * 10**6, n)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(np.sort(us), pa.timestamp("us")),
                "user_id": rng.integers(0, 50, n),
                "event_type": ["view"] * n,
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    counts: dict = {}
    for t_us in np.sort(us):
        key = (int(t_us // 86400000000) % 7, int(t_us // 3600000000) % 24)
        counts[key] = counts.get(key, 0) + 1
    want = _ref_median_polish(counts)
    t = _collect(events_median_polish(d))
    got = list(zip(t["kind"].to_pylist(), t["idx"].to_pylist(),
                   t["value"].to_pylist()))
    assert got == want
    # effects absorb most signal: residual range < raw count range
    raw = list(counts.values())
    assert (got[-1][2] - got[-2][2]) < (max(raw) - 0)


def test_absorbing_markov_matches_cramer_reference(ray_session):
    from fractions import Fraction

    from core_ray.queries import events_absorbing_markov

    rng = np.random.default_rng(151)
    n = 1200
    types = np.array(["view", "click", "signup", "purchase", "error"])
    ty = types[rng.integers(0, 5, n)]
    uid = rng.integers(0, 30, n)
    ts = np.sort(rng.integers(0, 10**12, n))
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ty.tolist(),
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    # reference: counts by per-user walk + Cramer's rule
    by_user: dict = {}
    for e, (u, t_, tp) in enumerate(zip(uid, ts, ty)):
        by_user.setdefault(int(u), []).append((int(t_), e, str(tp)))
    counts: dict = {}
    for evs in by_user.values():
        evs.sort()
        for (_, _, a), (_, _, b) in zip(evs, evs[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    out_tot: dict = {}
    for (s_, _), c in counts.items():
        out_tot[s_] = out_tot.get(s_, 0) + c
    trans = sorted(t_ for t_ in out_tot if t_ != "purchase")
    m = len(trans)
    A = [
        [
            (Fraction(1) if i == j else Fraction(0))
            - Fraction(counts.get((trans[i], trans[j]), 0),
                       out_tot[trans[i]])
            for j in range(m)
        ]
        for i in range(m)
    ]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        s_ = Fraction(0)
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            s_ += (-1) ** j * mat[0][j] * det(minor)
        return s_

    dA = det(A)
    want = {}
    for i, t_ in enumerate(trans):
        Ai = [
            [A[r][c] if c != i else Fraction(1) for c in range(m)]
            for r in range(m)
        ]
        x = det(Ai) / dA
        want[t_] = (out_tot[t_], (x.numerator * 1_000_000) // x.denominator)
    t = _collect(events_absorbing_markov(d))
    got = {
        e: (no, xm)
        for e, no, xm in zip(
            t["event_type"].to_pylist(), t["n_out"].to_pylist(),
            t["exp_steps_micro"].to_pylist(),
        )
    }
    assert got == want
    # expected steps must exceed 1 step (absorption not instantaneous)
    assert all(xm > 1_000_000 for _, xm in got.values())


def _ref_burrows(texts, sources, topn=20):
    """Reference quadratic Delta: Counter/loop implementation."""
    from collections import Counter

    all_c = Counter()
    per_src_toks: dict = {}
    for t, s in zip(texts, sources):
        toks = t.split(" ")
        all_c.update(toks)
        per_src_toks.setdefault(s, []).extend(toks)
    top = [w for w, _ in sorted(all_c.items(),
                                key=lambda kv: (-kv[1], kv[0]))[:topn]]
    srcs = sorted(per_src_toks)
    n = len(srcs)
    rates = {}
    for s in srcs:
        c = Counter(per_src_toks[s])
        tot = len(per_src_toks[s])
        rates[s] = [(c[w] * 1_000_000) // tot for w in top]
    used = []
    for j in range(len(top)):
        s1 = sum(rates[s][j] for s in srcs)
        s2 = sum(rates[s][j] ** 2 for s in srcs)
        v = n * s2 - s1 * s1
        if v > 0:
            used.append((j, v))
    out = {}
    for i in range(n):
        for k in range(i + 1, n):
            tot = 0
            for j, v in used:
                diff = rates[srcs[i]][j] - rates[srcs[k]][j]
                tot += (diff * diff * n * n * 1_000_000) // v
            out[(srcs[i], srcs[k])] = tot // len(used)
    return out


def test_burrows_delta_matches_counter_reference(ray_session):
    from core_ray.queries import doc_burrows_delta

    rng = np.random.default_rng(43)
    # three "authors" with biased vocab preferences
    vocabs = {
        "s0": ["alpha", "beta", "gamma", "common", "shared"],
        "s1": ["alpha", "delta", "epsilon", "common", "shared"],
        "s2": ["zeta", "eta", "theta", "common", "shared"],
    }
    texts, sources = [], []
    for s, vb in vocabs.items():
        for _ in range(40):
            texts.append(
                " ".join(rng.choice(np.array(vb), size=rng.integers(8, 30)))
            )
            sources.append(s)
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": sources,
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_burrows(texts, sources)
    t = _collect(doc_burrows_delta(d))
    got = {
        (a, b): v
        for a, b, v in zip(
            t["source_a"].to_pylist(), t["source_b"].to_pylist(),
            t["delta2_micro"].to_pylist(),
        )
    }
    assert got == want
    # disjoint-vocab authors must be farther apart than overlapping ones
    assert got[("s0", "s2")] > got[("s0", "s1")]


def _ref_scan(doc_ids, p=6, radii=(1, 2, 3), topk=10):
    """Reference scan: dict cell counts + per-window loop sums."""
    n = 1 << p
    cells: dict = {}
    for did in doc_ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        key = ((a * n) // 360000, (b * n) // 140000)
        cells[key] = cells.get(key, 0) + 1
    rows = []
    for r in radii:
        for cx in range(n):
            for cy in range(n):
                x0, x1 = max(0, cx - r), min(n - 1, cx + r)
                y0, y1 = max(0, cy - r), min(n - 1, cy + r)
                w = (x1 - x0 + 1) * (y1 - y0 + 1)
                c = sum(
                    cells.get((x, y), 0)
                    for x in range(x0, x1 + 1)
                    for y in range(y0, y1 + 1)
                )
                if c > 0:
                    rows.append(((c * 1_000_000) // w, cx, cy, r, c, w))
    rows.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    return [(cx, cy, r, c, w, rm) for rm, cx, cy, r, c, w in rows[:topk]]


def test_scan_statistic_matches_loop_reference(ray_session):
    from core_ray.queries import geo_scan_statistic

    rng = np.random.default_rng(89)
    # a planted dense blob + scattered background
    ids = np.unique(
        np.concatenate([rng.integers(0, 600, 300),
                        rng.integers(0, 30000, 300)])
    ).astype(np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": ["x y"] * len(ids),
                "lang": ["en"] * len(ids),
                "source": ["s"] * len(ids),
                "n_chars": [3] * len(ids),
            }
        }
    )
    want = _ref_scan(ids.tolist())
    t = _collect(geo_scan_statistic(d))
    got = list(
        zip(t["cx"].to_pylist(), t["cy"].to_pylist(), t["r"].to_pylist(),
            t["c"].to_pylist(), t["w"].to_pylist(),
            t["ratio_micro"].to_pylist())
    )
    assert got == want
    # the top window density must beat the global mean density
    n_cells = (1 << 6) ** 2
    assert got[0][5] > (len(ids) * 1_000_000) // n_cells


def _ref_poisson_bootstrap(event_ids, values, B=64):
    """Reference Poisson bootstrap: dict/loop with the shared thresholds."""
    import math as _math

    cum, thr = 0.0, []
    for k in range(9):
        cum += _math.exp(-1.0) / _math.factorial(k)
        thr.append(int(np.floor(cum * (1 << 32))))

    def mix(e, b):
        h = (e * 40503 + ((b + 1) * 2654435761) % (1 << 32)) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        return h

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    cents = [r0(v) for v in values]
    means = []
    for b in range(B):
        s = n = 0
        for e, c in zip(event_ids, cents):
            h = mix(e, b)
            m = sum(1 for t in thr if h >= t)
            s += m * c
            n += m
        if n > 0:
            means.append((s * 1_000_000) // n)
    means.sort()
    full_s, full_n = sum(cents), len(cents)
    lo = means[int(0.025 * B)] if len(means) > int(0.025 * B) else means[0]
    hi = (means[int(0.975 * B)] if len(means) > int(0.975 * B)
          else means[-1])
    return (full_n, (full_s * 1_000_000) // full_n, lo, hi, len(means))


def test_poisson_bootstrap_matches_loop_reference(ray_session):
    from core_ray.queries import events_poisson_bootstrap

    rng = np.random.default_rng(181)
    n = 800
    vals = np.round(rng.exponential(30.0, n) + 0.01, 2)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(
                    np.sort(rng.integers(0, 10**12, n)), pa.timestamp("us")
                ),
                "user_id": rng.integers(0, 50, n),
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )
    want = _ref_poisson_bootstrap(list(range(n)), vals.tolist())
    t = _collect(events_poisson_bootstrap(d))
    got = (
        t["n_events"][0].as_py(), t["mean_micro"][0].as_py(),
        t["boot_lo_micro"][0].as_py(), t["boot_hi_micro"][0].as_py(),
        t["n_resamples"][0].as_py(),
    )
    assert got == want
    # the interval must bracket the point estimate
    assert got[2] <= got[1] <= got[3]


def _ref_conformal(doc_ids, texts, chars):
    """Reference split conformal: dict/loop with trunc division."""

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    xs = {i: t.count(" ") + 1 for i, t in zip(doc_ids, texts)}
    ys = dict(zip(doc_ids, chars))
    train = [i for i in doc_ids if i % 2 == 0]
    n = len(train)
    sx = sum(xs[i] for i in train)
    sy = sum(ys[i] for i in train)
    sxx = sum(xs[i] ** 2 for i in train)
    sxy = sum(xs[i] * ys[i] for i in train)
    den = n * sxx - sx * sx
    b1 = td((n * sxy - sx * sy) * 1_000_000, den)
    b0 = td(sy * 1_000_000 - b1 * sx, n)

    def r(i):
        return abs(ys[i] * 1_000_000 - (b0 + b1 * xs[i]))

    cal = sorted(r(i) for i in doc_ids if i % 2 == 1 and i % 101 == 1)
    k = min(-(-9 * (len(cal) + 1) // 10), len(cal))
    q = cal[k - 1]
    ev = [i for i in doc_ids if i % 2 == 1]
    ncov = sum(1 for i in ev if r(i) <= q)
    return (n, len(cal), b0, b1, q, len(ev), ncov,
            (ncov * 1_000_000) // len(ev))


def test_conformal_matches_loop_reference(ray_session):
    from core_ray.queries import doc_conformal_interval

    rng = np.random.default_rng(271)
    n = 1500
    toks = rng.integers(5, 120, n)
    texts = [" ".join(["w"] * int(t)) for t in toks]
    # y roughly linear in x with heteroscedastic noise
    chars = (toks * 6 + rng.integers(-40, 40, n)).astype(np.int64)
    ids = np.arange(n)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * n,
                "source": ["s"] * n,
                "n_chars": chars,
            }
        }
    )
    want = _ref_conformal(ids.tolist(), texts, chars.tolist())
    t = _collect(doc_conformal_interval(d))
    got = (
        t["n_train"][0].as_py(), t["n_cal"][0].as_py(),
        t["b0_micro"][0].as_py(), t["b1_micro"][0].as_py(),
        t["q_micro"][0].as_py(), t["n_eval"][0].as_py(),
        t["n_covered"][0].as_py(), t["cov_micro"][0].as_py(),
    )
    assert got == want
    # the conformal guarantee: holdout coverage near or above 90%
    assert got[7] >= 850_000


def _ref_cuped(event_ids, user_ids, ts_us, values):
    """Reference CUPED: dict/loop with trunc division."""

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    mid = (min(ts_us) + max(ts_us)) // 2
    xs: dict = {}
    ys: dict = {}
    for u, t, v in zip(user_ids, ts_us, values):
        xs.setdefault(u, 0)
        ys.setdefault(u, 0)
        if t < mid:
            xs[u] += r0(v)
        else:
            ys[u] += r0(v)
    users = sorted(xs)
    n = len(users)
    sx = sum(xs[u] for u in users)
    sy = sum(ys[u] for u in users)
    sxx = sum(xs[u] ** 2 for u in users)
    sxy = sum(xs[u] * ys[u] for u in users)
    syy = sum(ys[u] ** 2 for u in users)
    vx, vy = n * sxx - sx * sx, n * syy - sy * sy
    cxy = n * sxy - sx * sy
    th = td(cxy * 1000, vx)
    vcup6 = 1_000_000 * vy - 2_000 * th * cxy + th * th * vx
    vr = td((1_000_000 * vy - vcup6) * 1_000_000, 1_000_000 * vy)
    out = []
    for a in (0, 1):
        arm_users = [u for u in users if u % 2 == a]
        na = len(arm_users)
        sya = sum(ys[u] for u in arm_users)
        sxa = sum(xs[u] for u in arm_users)
        s_cup = 1000 * n * sya - th * (n * sxa - na * sx)
        out.append(
            (a, na, td(sya * 1_000_000, na), td(s_cup * 1000, na * n),
             th, vr)
        )
    return out


def test_cuped_matches_loop_reference(ray_session):
    from core_ray.queries import events_cuped

    rng = np.random.default_rng(307)
    n = 2000
    uid = rng.integers(0, 80, n)
    ts = np.sort(rng.integers(0, 10**12, n))
    # per-user persistent spend level -> strong X-Y correlation for CUPED
    base = rng.exponential(20.0, 80)
    vals = np.round(base[uid] + rng.exponential(5.0, n), 2)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )
    want = _ref_cuped(list(range(n)), uid.tolist(), ts.tolist(),
                      vals.tolist())
    t = _collect(events_cuped(d))
    got = list(
        zip(t["arm"].to_pylist(), t["n_users"].to_pylist(),
            t["mean_y_micro"].to_pylist(),
            t["mean_cuped_micro"].to_pylist(),
            t["theta_milli"].to_pylist(), t["vr_micro"].to_pylist())
    )
    assert got == want
    # the persistent-user design must actually reduce variance
    assert got[0][5] > 100_000  # > 10% variance removed


def test_mann_whitney_matches_bruteforce(ray_session):
    from core_ray.queries import events_mann_whitney

    rng = np.random.default_rng(401)
    n = 1500
    uid = rng.integers(0, 120, n)
    # arm 1 spends systematically more -> AUC well above 1/2
    vals = np.round(
        rng.exponential(10.0, n) + (uid % 2) * 5.0 + 0.01, 2
    )
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(
                    np.sort(rng.integers(0, 10**12, n)), pa.timestamp("us")
                ),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    tot: dict = {}
    for u, v in zip(uid.tolist(), vals.tolist()):
        tot[u] = tot.get(u, 0) + r0(v)
    a0 = [v for u, v in tot.items() if u % 2 == 0]
    a1 = [v for u, v in tot.items() if u % 2 == 1]
    u2 = sum(
        2 if y1 > y0 else (1 if y1 == y0 else 0)
        for y1 in a1 for y0 in a0
    )
    want = (len(a0), len(a1), u2,
            (u2 * 1_000_000) // (2 * len(a0) * len(a1)))
    t = _collect(events_mann_whitney(d))
    got = (t["n0"][0].as_py(), t["n1"][0].as_py(), t["u2"][0].as_py(),
           t["auc_micro"][0].as_py())
    assert got == want
    assert got[3] > 500_000  # arm 1 planted to dominate


def _ref_eb(doc_ids, p=6):
    """Reference EB shrinkage: dict/loop with trunc division."""

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    n = 1 << p
    cells: dict = {}
    for did in doc_ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        key = ((a * n) // 360000, (b * n) // 140000)
        cells[key] = cells.get(key, 0) + 1
    N = n * n
    C = sum(cells.values())
    S2 = sum(v * v for v in cells.values())
    mm = (C * 1_000_000) // N
    fden = N * S2 - C * C
    fnum = max(fden - C * N, 0)
    rows = []
    for x in range(n):
        for y in range(n):
            c = cells.get((x, y), 0)
            s = mm + (td((c * 1_000_000 - mm) * fnum, fden)
                      if fden > 0 else 0)
            rows.append((x, y, c, s))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:20]


def test_eb_rates_matches_loop_reference(ray_session):
    from core_ray.queries import geo_eb_rates

    rng = np.random.default_rng(19)
    ids = np.unique(rng.integers(0, 20000, 2500)).astype(np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": ["x y"] * len(ids),
                "lang": ["en"] * len(ids),
                "source": ["s"] * len(ids),
                "n_chars": [3] * len(ids),
            }
        }
    )
    want = _ref_eb(ids.tolist())
    t = _collect(geo_eb_rates(d))
    got = list(
        zip(t["cx"].to_pylist(), t["cy"].to_pylist(), t["c"].to_pylist(),
            t["shrunk_micro"].to_pylist())
    )
    assert got == want
    # shrinkage pulls the top cell DOWN toward the mean
    assert got[0][3] < got[0][2] * 1_000_000


def _ref_mattr(doc_ids, texts, w=50):
    """Reference MATTR: per-window set() loop."""
    out = {}
    for did, t in zip(doc_ids, texts):
        toks = t.split(" ")
        if len(toks) < w:
            continue
        n_w = len(toks) - w + 1
        num = sum(len(set(toks[s:s + w])) for s in range(n_w))
        out[did] = (n_w, (num * 1_000_000) // (w * n_w))
    return out


def test_mattr_matches_set_reference(ray_session):
    from core_ray.queries import doc_mattr

    rng = np.random.default_rng(223)
    vocab = np.array([f"w{i}" for i in range(40)])
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(10, 160)))
        for _ in range(150)
    ]
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_mattr(ids.tolist(), texts)
    assert want, "some docs must clear the window size"
    t = _collect(doc_mattr(d))
    got = {
        i: (nw, m)
        for i, nw, m in zip(
            t["doc_id"].to_pylist(), t["n_w"].to_pylist(),
            t["mattr_micro"].to_pylist(),
        )
    }
    assert got == want
    # 40-word vocab in 50-token windows caps diversity strictly below 1
    assert all(m < 1_000_000 for _, m in got.values())


def test_wasserstein_matches_scipy_free_reference(ray_session):
    from core_ray.queries import events_wasserstein_arms

    rng = np.random.default_rng(353)
    n = 1800
    uid = rng.integers(0, 150, n)
    vals = np.round(rng.exponential(12.0, n) + (uid % 2) * 3.0 + 0.01, 2)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(
                    np.sort(rng.integers(0, 10**12, n)), pa.timestamp("us")
                ),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    tot: dict = {}
    for u, v in zip(uid.tolist(), vals.tolist()):
        tot[u] = tot.get(u, 0) + r0(v)
    a0 = sorted(v for u, v in tot.items() if u % 2 == 0)
    a1 = sorted(v for u, v in tot.items() if u % 2 == 1)
    n0, n1 = len(a0), len(a1)
    # reference: merged-value sweep with exact cumulative counts
    allv = sorted(set(a0) | set(a1))
    c0 = c1 = w1 = 0
    for v, nxt in zip(allv, allv[1:]):
        c0 += sum(1 for x in a0 if x == v)
        c1 += sum(1 for x in a1 if x == v)
        w1 += abs(c0 * n1 - c1 * n0) * (nxt - v)
    want = (n0, n1, w1, (w1 * 1_000_000) // (n0 * n1))
    t = _collect(events_wasserstein_arms(d))
    got = (t["n0"][0].as_py(), t["n1"][0].as_py(),
           t["w1_scaled"][0].as_py(), t["w1_cents_micro"][0].as_py())
    assert got == want
    # the planted +3.00 arm shift must show up as >= ~100 cents of W1
    assert got[3] >= 100 * 1_000_000


def _ref_moore_lewis(doc_ids, sources, texts, dom="src0", topk=20):
    """Reference Moore-Lewis: Counter/loop with micro-bit LMs."""
    import math as _math
    from collections import Counter

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    def r0(x):
        return int(np.floor(x * 1e6 + 0.5)) if x >= 0 else -int(
            np.floor(-x * 1e6 + 0.5))

    c_all: Counter = Counter()
    c_in: Counter = Counter()
    for s, t in zip(sources, texts):
        toks = t.split(" ")
        c_all.update(toks)
        if s == dom:
            c_in.update(toks)
    V = len(c_all)
    t_all = sum(c_all.values()) + V
    t_in = sum(c_in.values()) + V
    d = {
        w: r0(-_math.log2((c_in[w] + 1) / t_in))
        - r0(-_math.log2((c_all[w] + 1) / t_all))
        for w in c_all
    }
    rows = []
    for i, s, t in zip(doc_ids, sources, texts):
        if s == dom:
            continue
        toks = t.split(" ")
        sc = td(sum(d[w] for w in toks), len(toks))
        rows.append((sc, i, len(toks)))
    rows.sort()
    return [(i, n, sc) for sc, i, n in rows[:topk]]


def test_moore_lewis_matches_counter_reference(ray_session):
    from core_ray.queries import doc_moore_lewis

    rng = np.random.default_rng(419)
    dom_vocab = np.array(["geo", "tile", "join", "shard", "common"])
    gen_vocab = np.array(["misc", "filler", "noise", "pad", "common"])
    ids, sources, texts = [], [], []
    vid = 0
    for k in range(30):
        sources.append("src0")
        texts.append(" ".join(rng.choice(dom_vocab, rng.integers(8, 30))))
        ids.append(vid)
        vid += 1
    for k in range(90):
        # some pool docs lean in-domain, some general
        vb = dom_vocab if k % 3 == 0 else gen_vocab
        sources.append(f"src{1 + k % 5}")
        texts.append(" ".join(rng.choice(vb, rng.integers(8, 30))))
        ids.append(vid)
        vid += 1
    d = _write(
        {
            "documents": {
                "doc_id": np.array(ids, np.int64),
                "text": texts,
                "lang": ["en"] * len(ids),
                "source": sources,
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_moore_lewis(ids, sources, texts)
    t = _collect(doc_moore_lewis(d))
    got = list(zip(t["doc_id"].to_pylist(), t["n_tokens"].to_pylist(),
                   t["score_micro"].to_pylist()))
    assert got == want
    # every selected doc must be one of the planted in-domain-leaning pool
    # docs (pool index k % 3 == 0 -> doc_id 30 + 3j)
    assert all((i - 30) % 3 == 0 for i, _, _ in got)


def test_kanon_matches_dict_reference(ray_session):
    from core_ray.queries import doc_kanon

    rng = np.random.default_rng(457)
    n = 600
    langs = np.array(["en", "de", "fr"])[rng.integers(0, 3, n)]
    srcs = np.array([f"s{i}" for i in range(6)])[rng.integers(0, 6, n)]
    chars = rng.integers(0, 2048, n)
    d = _write(
        {
            "documents": {
                "doc_id": np.arange(n),
                "text": ["x y"] * n,
                "lang": langs.tolist(),
                "source": srcs.tolist(),
                "n_chars": chars,
            }
        }
    )
    classes: dict = {}
    for l, s, c in zip(langs, srcs, chars):
        key = (l, s, int(c) // 256)
        classes[key] = classes.get(key, 0) + 1
    want = [(0, len(classes), n)]
    for k in (2, 5, 10):
        small = [v for v in classes.values() if v < k]
        want.append((k, len(small), sum(small)))
    t = _collect(doc_kanon(d))
    got = list(zip(t["k"].to_pylist(), t["n_classes"].to_pylist(),
                   t["n_docs"].to_pylist()))
    assert got == want
    # 3*6*8 QI space over 600 docs must leave singletons at risk
    assert got[1][2] > 0


def _ref_watermark(doc_ids, texts, min_bi=20, topk=20):
    """Reference watermark detector: hashlib/loop implementation."""
    import hashlib as hl

    def td(a, d):
        return a // d if a >= 0 else -((-a) // d)

    rows = []
    for did, t in zip(doc_ids, texts):
        toks = t.split(" ")
        if len(toks) - 1 < min_bi:
            continue
        g = 0
        n = len(toks) - 1
        for a, b in zip(toks, toks[1:]):
            h = int.from_bytes(
                hl.md5(f"{a} {b}".encode()).digest()[:8], "little"
            )
            g += h & 1
        d = 2 * g - n
        rows.append((td(d * abs(d) * 1_000_000, n), did, g, n))
    rows.sort(key=lambda r: (-r[0], r[1]))
    return [(did, g, n, s) for s, did, g, n in rows[:topk]]


def test_watermark_matches_loop_reference(ray_session):
    from core_ray.queries import doc_watermark_detect

    rng = np.random.default_rng(541)
    vocab = np.array([f"w{i}" for i in range(60)])
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(25, 120)))
        for _ in range(80)
    ]
    # plant a "watermarked" doc: greedily pick green-continuation tokens
    import hashlib as hl

    cur = "w0"
    planted = [cur]
    for _ in range(150):
        for cand in vocab:
            h = int.from_bytes(
                hl.md5(f"{cur} {cand}".encode()).digest()[:8], "little"
            )
            if h & 1:
                planted.append(str(cand))
                cur = str(cand)
                break
    texts.append(" ".join(planted))
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )
    want = _ref_watermark(ids.tolist(), texts)
    t = _collect(doc_watermark_detect(d))
    got = list(zip(t["doc_id"].to_pylist(), t["g"].to_pylist(),
                   t["n"].to_pylist(), t["sz2_micro"].to_pylist()))
    assert got == want
    # the planted greedy-green doc must top the chart with g == n
    assert got[0][0] == len(texts) - 1 and got[0][1] == got[0][2]


def _ref_pr(vecs):
    """Reference participation ratio: pure-python int loops."""

    def q(x):
        s = x * 1000.0
        return (int(np.floor(s + 0.5)) if s >= 0
                else -int(np.floor(-s + 0.5)))

    xm = [[q(v) for v in row] for row in vecs]
    n = len(xm)
    dim = len(xm[0])
    S = [sum(r[i] for r in xm) for i in range(dim)]
    tr = 0
    fr = 0
    for i in range(dim):
        for j in range(dim):
            g = sum(r[i] * r[j] for r in xm)
            m = n * g - S[i] * S[j]
            fr += m * m
            if i == j:
                tr += m
    return (dim, n, tr, (tr * tr * 1_000_000) // fr)


def test_participation_ratio_matches_loop_reference(ray_session):
    from core_ray.queries import emb_participation_ratio

    rng = np.random.default_rng(613)
    n, dim = 120, 12
    # anisotropic cloud: one dominant direction -> PR well below dim
    base = rng.normal(size=(n, 1)) @ rng.normal(size=(1, dim)) * 3.0
    vecs = (base + rng.normal(size=(n, dim))).astype(np.float32)
    d = _write(
        {
            "embeddings": {
                "vec_id": np.arange(n),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(np.zeros(n, np.int32), pa.int32()),
            }
        }
    )
    want = _ref_pr([v.astype(np.float64) for v in vecs])
    t = _collect(emb_participation_ratio(d))
    got = (t["dim"][0].as_py(), t["n_vecs"][0].as_py(),
           t["trace_scatter"][0].as_py(), t["pr_micro"][0].as_py())
    assert got == want
    # dominant direction -> 1 <= PR << dim
    assert 1_000_000 <= got[3] < 6_000_000


def _ref_km(user_ids, ts_us, types):
    """Reference KM: dict/loop with truncating product updates."""
    span_end = max(ts_us)
    by_user: dict = {}
    for u, t, ty in zip(user_ids, ts_us, types):
        by_user.setdefault(u, []).append((t, ty))
    delays = []
    for evs in by_user.values():
        evs.sort()
        t0 = evs[0][0]
        tp = next((t for t, ty in evs if ty == "purchase"), None)
        if tp is not None:
            delays.append(((tp - t0) // 3600000000, 1))
        else:
            delays.append(((span_end - t0) // 3600000000, 0))
    hours = sorted({h for h, _ in delays})
    n_risk = len(delays)
    s = 1_000_000
    out = []
    for h in hours:
        d = sum(1 for hh, ev in delays if hh == h and ev)
        c = sum(1 for hh, ev in delays if hh == h and not ev)
        if d > 0:
            s = (s * (n_risk - d)) // n_risk
            out.append((h, n_risk, d, s))
        n_risk -= d + c
    return out


def test_survival_km_matches_loop_reference(ray_session):
    from core_ray.queries import events_survival_km

    rng = np.random.default_rng(733)
    n = 1600
    uid = rng.integers(0, 120, n)
    ts = np.sort(rng.integers(0, 10 * 86400 * 10**6, n))
    types = np.where(rng.random(n) < 0.08, "purchase", "view")
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": types.tolist(),
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    want = _ref_km(uid.tolist(), ts.tolist(), types.tolist())
    assert want, "some purchases must occur for the test to bite"
    t = _collect(events_survival_km(d))
    got = list(zip(t["h"].to_pylist(), t["n_risk"].to_pylist(),
                   t["d"].to_pylist(), t["s_micro"].to_pylist()))
    assert got == want
    # survival is monotone nonincreasing and bounded by 1
    s_vals = [s for _, _, _, s in got]
    assert all(a >= b for a, b in zip(s_vals, s_vals[1:]))
    assert s_vals[0] <= 1_000_000


def _ref_shapley(user_ids, ts_us, types, channels=("click", "error",
                                                   "signup", "view")):
    """Reference Shapley attribution: dict/loop with itertools subsets."""
    from itertools import combinations
    from math import factorial

    by_user: dict = {}
    for u, t, ty in zip(user_ids, ts_us, types):
        by_user.setdefault(u, []).append((t, ty))
    coalitions = []
    for evs in by_user.values():
        evs.sort()
        tp = next((t for t, ty in evs if ty == "purchase"), None)
        if tp is None:
            continue
        coalitions.append(frozenset(
            ty for t, ty in evs if t < tp and ty in channels
        ))

    def v(S):
        return sum(1 for c in coalitions if c <= S)

    n = len(channels)
    out = {}
    for ch in channels:
        others = [c for c in channels if c != ch]
        phi = 0
        for sz in range(n):
            for sub in combinations(others, sz):
                S = frozenset(sub)
                phi += (factorial(sz) * factorial(n - 1 - sz)
                        * (v(S | {ch}) - v(S)))
        out[ch] = (phi, (phi * 1_000_000) // factorial(n))
    return out


def test_shapley_matches_subset_reference(ray_session):
    from core_ray.queries import events_shapley_channels

    rng = np.random.default_rng(809)
    n = 1400
    uid = rng.integers(0, 90, n)
    ts = np.sort(rng.integers(0, 10**12, n))
    types = np.array(["view", "click", "signup", "error", "purchase"])[
        rng.integers(0, 5, n)
    ]
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": uid,
                "event_type": types.tolist(),
                "value": np.zeros(n),
                "props": ["{}"] * n,
            }
        }
    )
    want = _ref_shapley(uid.tolist(), ts.tolist(), types.tolist())
    t = _collect(events_shapley_channels(d))
    got = {
        c: (p, m)
        for c, p, m in zip(t["channel"].to_pylist(), t["phi24"].to_pylist(),
                           t["phi_micro"].to_pylist())
    }
    assert got == want
    # efficiency: total credit == 24 * (v(T) - v(empty)) > 0
    assert sum(p for p, _ in got.values()) > 0


def test_t5_spans_matches_loop_reference(ray_session):
    from core_ray.queries import doc_t5_spans

    rng = np.random.default_rng(877)
    texts = [
        " ".join(rng.choice(np.array(["a", "b", "c"]),
                            size=rng.integers(5, 200)))
        for _ in range(120)
    ]
    ids = np.arange(len(texts))
    d = _write(
        {
            "documents": {
                "doc_id": ids,
                "text": texts,
                "lang": ["en"] * len(texts),
                "source": ["s"] * len(texts),
                "n_chars": [len(t) for t in texts],
            }
        }
    )

    def mix(did, i):
        h = (did * 40503 + (i * 2654435761) % (1 << 32)) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        return h

    thr = int(0.15 * (1 << 32))
    nt = nm = ns = 0
    for did, t in zip(ids.tolist(), texts):
        n = len(t.split(" "))
        nt += n
        prev = False
        for i in range(1, n + 1):
            m = mix(did, i) < thr
            nm += m
            ns += m and not prev
            prev = m
    want = (len(texts), nt, nm, ns, (nm * 1_000_000) // nt,
            (nm * 1_000) // ns)
    t = _collect(doc_t5_spans(d))
    got = (
        t["n_docs"][0].as_py(), t["n_tokens"][0].as_py(),
        t["n_masked"][0].as_py(), t["n_spans"][0].as_py(),
        t["masked_frac_micro"][0].as_py(), t["mean_span_milli"][0].as_py(),
    )
    assert got == want
    # the empirical mask rate concentrates near 15%
    assert 120_000 < got[4] < 180_000


def test_dp_counts_matches_loop_reference(ray_session):
    from core_ray.queries import doc_dp_counts
    from core_ray.queries.doc_text import _DP_KSEQ, _DP_THRESH

    rng = np.random.default_rng(911)
    n = 700
    langs = np.array(["en", "de", "fr", "ja", "pt"])[rng.integers(0, 5, n)]
    d = _write(
        {
            "documents": {
                "doc_id": np.arange(n),
                "text": ["x y"] * n,
                "lang": langs.tolist(),
                "source": ["s"] * n,
                "n_chars": [3] * n,
            }
        }
    )
    import hashlib as hl

    def noise(lang):
        u = int.from_bytes(hl.md5(lang.encode()).digest()[:8],
                           "little") % (1 << 32)
        h = (u * 40503 + 2654435761) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        ks = (0,) + _DP_KSEQ[:-1]
        for t, k in zip(_DP_THRESH, ks):
            if h < t:
                return k
        return _DP_KSEQ[-1]

    from collections import Counter

    cnt = Counter(langs.tolist())
    want = sorted(
        (l, c, max(c + noise(l), 0)) for l, c in cnt.items()
    )
    t = _collect(doc_dp_counts(d))
    got = list(zip(t["lang"].to_pylist(), t["n_docs"].to_pylist(),
                   t["n_released"].to_pylist()))
    assert got == want
    # noise must be bounded by the mechanism's cap
    assert all(abs(r - c) <= 8 for _, c, r in got)


def test_ks_arms_matches_bruteforce(ray_session):
    from core_ray.queries import events_ks_arms

    rng = np.random.default_rng(967)
    n = 1600
    uid = rng.integers(0, 140, n)
    vals = np.round(rng.exponential(9.0, n) + (uid % 2) * 4.0 + 0.01, 2)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(
                    np.sort(rng.integers(0, 10**12, n)), pa.timestamp("us")
                ),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    tot: dict = {}
    for u, v in zip(uid.tolist(), vals.tolist()):
        tot[u] = tot.get(u, 0) + r0(v)
    a0 = sorted(v for u, v in tot.items() if u % 2 == 0)
    a1 = sorted(v for u, v in tot.items() if u % 2 == 1)
    n0, n1 = len(a0), len(a1)
    ks = 0
    c0 = c1 = 0
    for v in sorted(set(a0) | set(a1)):
        c0 += sum(1 for x in a0 if x == v)
        c1 += sum(1 for x in a1 if x == v)
        ks = max(ks, abs(c0 * n1 - c1 * n0))
    want = (n0, n1, ks, (ks * 1_000_000) // (n0 * n1))
    t = _collect(events_ks_arms(d))
    got = (t["n0"][0].as_py(), t["n1"][0].as_py(),
           t["ks_scaled"][0].as_py(), t["ks_micro"][0].as_py())
    assert got == want
    # planted +4.00 arm shift must produce a visible CDF gap
    assert got[3] > 100_000


def test_anisotropy_matches_loop_reference(ray_session):
    from core_ray.queries import emb_anisotropy

    rng = np.random.default_rng(991)
    n, dim = 140, 10
    # shifted cloud -> strongly positive mean pairwise dot
    vecs = (rng.normal(size=(n, dim)) + 2.0).astype(np.float32)
    d = _write(
        {
            "embeddings": {
                "vec_id": np.arange(n),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
                "label": pa.array(np.zeros(n, np.int32), pa.int32()),
            }
        }
    )

    def q(x):
        s = x * 1000.0
        return (int(np.floor(s + 0.5)) if s >= 0
                else -int(np.floor(-s + 0.5)))

    def td(a, d_):
        return a // d_ if a >= 0 else -((-a) // d_)

    xm = [[q(float(v)) for v in row] for row in vecs]
    S = [sum(r[i] for r in xm) for i in range(dim)]
    norm2 = sum(v * v for r in xm for v in r)
    s2 = sum(x * x for x in S)
    want = (n, dim, norm2 // n,
            td((s2 - norm2) * 1_000_000, n * (n - 1)))
    t = _collect(emb_anisotropy(d))
    got = (t["n_vecs"][0].as_py(), t["dim"][0].as_py(),
           t["mean_norm2_milli2"][0].as_py(),
           t["mean_dot_micro"][0].as_py())
    assert got == want
    # the +2 shift makes random pairs similar: mean dot ~ dim*4e6 micro
    assert got[3] > 20 * 1_000_000


def test_qte_matches_sort_reference(ray_session):
    from core_ray.queries import events_qte

    rng = np.random.default_rng(1021)
    n = 1700
    uid = rng.integers(0, 130, n)
    vals = np.round(rng.exponential(11.0, n) + (uid % 2) * 6.0 + 0.01, 2)
    d = _write(
        {
            "events": {
                "event_id": np.arange(n),
                "ts": pa.array(
                    np.sort(rng.integers(0, 10**12, n)), pa.timestamp("us")
                ),
                "user_id": uid,
                "event_type": ["view"] * n,
                "value": vals,
                "props": ["{}"] * n,
            }
        }
    )

    def r0(x):
        return int(np.floor(x * 100 + 0.5))

    tot: dict = {}
    for u, v in zip(uid.tolist(), vals.tolist()):
        tot[u] = tot.get(u, 0) + r0(v)
    arms = {a: sorted(v for u, v in tot.items() if u % 2 == a)
            for a in (0, 1)}
    want = []
    for p in (250, 500, 750):
        q = {}
        for a in (0, 1):
            k = max(1, (len(arms[a]) * p + 999) // 1000)
            q[a] = arms[a][k - 1]
        want.append((p, len(arms[0]), len(arms[1]), q[0], q[1],
                     q[1] - q[0]))
    t = _collect(events_qte(d))
    got = list(
        zip(t["p_permille"].to_pylist(), t["n0"].to_pylist(),
            t["n1"].to_pylist(), t["q0"].to_pylist(),
            t["q1"].to_pylist(), t["qte"].to_pylist())
    )
    assert got == want
    # the planted +6.00/event arm lift must show at every quantile
    assert all(qte > 0 for *_, qte in got)
