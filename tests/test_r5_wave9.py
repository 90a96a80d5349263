"""Round-5 wave-9 operator units. The driver oracle checks these on the
real tables; here each kernel is verified against a fully independent
pure-Python reference on synthetic throwaway-parquet inputs."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave9_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


# ---------------------------------------------------- bloom semi-join


def test_bloom_semijoin_matches_dict_reference(ray_session):
    from core_ray.queries import events_bloom_semijoin

    rng = np.random.default_rng(93)
    n = 3000
    users = rng.integers(0, 200, size=n).astype(np.int64)
    types = rng.choice(["click", "purchase", "view"], size=n,
                       p=[0.6, 0.1, 0.3])
    d = _write(
        {
            "events": {
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        }
    )
    purchasers = {int(u) for u, t in zip(users, types) if t == "purchase"}
    want = {}
    for u, t in zip(users, types):
        if t == "click" and int(u) in purchasers:
            want[int(u)] = want.get(int(u), 0) + 1
    t = events_bloom_semijoin(d)
    got = dict(zip(t["user_id"].to_pylist(), t["n_clicks"].to_pylist()))
    assert got == want
    # sorted output contract
    ids = t["user_id"].to_pylist()
    assert ids == sorted(ids)


def test_bloom_semijoin_no_purchasers(ray_session):
    from core_ray.queries import events_bloom_semijoin

    d = _write(
        {
            "events": {
                "user_id": pa.array([1, 2, 3], pa.int64()),
                "event_type": pa.array(["click"] * 3, pa.string()),
            }
        }
    )
    assert events_bloom_semijoin(d).num_rows == 0


# ---------------------------------------------------- ddsketch eval


def test_ddsketch_eval_matches_loop_reference(ray_session):
    """Independent pure-Python (math.log loops) re-derivation of both the
    sketch estimate and the exact order statistic."""
    import math

    from core_ray.queries import events_ddsketch_eval

    rng = np.random.default_rng(17)
    vals = np.round(rng.lognormal(3.0, 1.0, size=4000) + 0.01, 2)
    types = rng.choice(["a", "b"], size=len(vals))
    d = _write(
        {
            "events": {
                "event_type": pa.array(types, pa.string()),
                "value": pa.array(vals, pa.float64()),
            }
        }
    )
    g = (1 + 0.01) / (1 - 0.01)

    def ref(tvals, q):
        sv = sorted(tvals)
        n = len(sv)
        exact = sv[math.ceil(q * (n - 1))]
        bins = {}
        for v in tvals:
            b = math.ceil(math.log(v) / math.log(g))
            bins[b] = bins.get(b, 0) + 1
        cum = 0
        for b in sorted(bins):
            cum += bins[b]
            if cum >= q * (n - 1) + 1:
                est = 2 * g**b / (g + 1)
                break
        return est, exact

    t = events_ddsketch_eval(d)
    got = {
        (r["event_type"], r["q"]): (r["est"], r["exact"], r["rel_err"])
        for r in t.to_pylist()
    }
    for ty in ("a", "b"):
        tv = vals[types == ty].tolist()
        for q in (0.5, 0.9, 0.99):
            est, exact = ref(tv, q)
            ge, gx, gr = got[(ty, q)]
            assert gx == exact
            assert abs(ge - est) < 1e-6
            # published guarantee: relative error <= alpha (0.01)
            assert gr <= 0.0101


# ---------------------------------------------------- sign-hamming recall


def test_sign_recall_matches_loop_reference(ray_session):
    """Pure-Python re-derivation with a dim NOT divisible by 64 (exercises
    the packbits padding path) — exact dot ranking vs sign-bit Hamming."""
    from core_ray.queries import emb_sign_recall

    rng = np.random.default_rng(29)
    n, dim = 300, 10
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    d = _write(
        {
            "embeddings": {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        }
    )

    def topk(scored, k=10):
        # scored: list of (key, vid); ascending key, vid tie-break
        return {v for _, v in sorted(scored)[:k]}

    want = {}
    x = vecs.astype(np.float64)
    for qi in range(0, n, 100):
        ex, hd = [], []
        for ci in range(n):
            if ci == qi:
                continue
            ex.append((-float(x[qi] @ x[ci]), ci))
            hd.append((int(((x[qi] > 0) != (x[ci] > 0)).sum()), ci))
        ov = len(topk(ex) & topk(hd))
        want[qi] = (ov, round(ov / 10.0, 6))
    t = emb_sign_recall(d)
    got = {
        r["query_id"]: (r["n_overlap"], r["recall"]) for r in t.to_pylist()
    }
    assert got == want


# ---------------------------------------------------- DSIR weights


def test_dsir_weights_matches_loop_reference(ray_session):
    """Pure dict/loop DSIR re-derivation (Laplace-smoothed bucket log
    ratios, micro-integer dot) on a synthetic bilingual corpus."""
    import math

    from core_ray.queries import doc_dsir_weights

    texts = [
        "the quick brown fox jumps",
        "el zorro marrón rápido salta",
        "a b c d e f longword",
        "the the the compression target text",
        "東京 café данные mixed tokens",
    ]
    langs = ["en", "es", "en", "en", "fr"]
    ids = list(range(len(texts)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )

    def bucket(w):
        return (ord(w[0]) % 4) * 16 + (min(len(w), 16) - 1)

    cr, ct = {}, {}
    for t, lg in zip(texts, langs):
        for w in t.split(" "):
            if not w:
                continue
            b = bucket(w)
            cr[b] = cr.get(b, 0) + 1
            if lg == "en":
                ct[b] = ct.get(b, 0) + 1
    tr, tt = sum(cr.values()), sum(ct.values())
    dm = {
        b: round(
            (
                math.log((ct.get(b, 0) + 1) / (tt + 64.0))
                - math.log((cr[b] + 1) / (tr + 64.0))
            )
            * 1e6
        )
        for b in cr
    }
    want = {}
    for i, t in enumerate(texts):
        toks = [w for w in t.split(" ") if w]
        want[i] = (len(toks), sum(dm[bucket(w)] for w in toks))
    out = doc_dsir_weights(d).take_all()
    got = {r["doc_id"]: (r["n_tokens"], r["logw_micro"]) for r in out}
    assert got == want
    for r in out:
        assert abs(r["log_w"] - r["logw_micro"] / 1e6) < 1e-12
    # the all-en doc must score higher than the all-es doc (weights
    # actually separate target-like from non-target-like text)
    assert got[3][1] > got[1][1]


# ---------------------------------------------------- URL canonical dedup


def test_url_canonical_dedup_matches_loop_reference(ray_session):
    """Pure-Python urllib-free re-derivation of the construction + the
    canonicalization chain; every variant class must actually collapse."""
    import re

    from core_ray.queries import doc_url_canonical_dedup

    n = 140
    ids = list(range(n))
    d = _write({"documents": {"doc_id": pa.array(ids, pa.int64())}})

    def raw(i):
        return (
            ("http://" if i % 2 == 0 else "https://")
            + ("WWW." if i % 3 == 0 else "")
            + ("SITE" if i % 5 == 0 else "site")
            + str(i // 7)
            + ".Example.COM/p/"
            + str(i // 7)
            + ("/" if i % 4 == 0 else "")
            + ("?utm_source=feed&utm_campaign=x" if i % 6 == 0 else "")
            + ("#sec2" if i % 5 == 1 else "")
        )

    def canon(u):
        c = u.lower()
        for pat, rep in (
            ("^https?://", ""),
            (r"^www\.", ""),
            ("#.*$", ""),
            (r"\?utm_[^#]*$", ""),
            ("/$", ""),
        ):
            c = re.sub(pat, rep, c)
        return c

    groups = {}
    for i in ids:
        groups.setdefault(canon(raw(i)), []).append(i)
    want = {
        c: (len(g), len({raw(i) for i in g}), min(g))
        for c, g in groups.items()
    }
    t = doc_url_canonical_dedup(d)
    got = {
        r["canon_url"]: (r["n_docs"], r["n_variants"], r["keep_id"])
        for r in t.to_pylist()
    }
    assert got == want
    # the collapse is real: 7 docs per group, multiple raw variants
    assert max(v[0] for v in got.values()) == 7
    assert max(v[1] for v in got.values()) > 1
    # canonical urls carry no scheme/www/utm/fragment residue
    for c in got:
        assert not re.search(r"^https?://|^www\.|utm_|#|/$", c)


# ---------------------------------------------------- span dedup rewrite


def test_span_dedup_rewrite_matches_loop_reference(ray_session):
    """Set/loop re-derivation: dup 8-grams (>=2 distinct docs), window
    coverage via a position set — overlapping windows count tokens once."""
    from core_ray.queries import doc_span_dedup_rewrite

    boiler = "one two three four five six seven eight"
    texts = [
        boiler + " alpha beta gamma",            # shares the 8-gram block
        boiler + " delta epsilon",                # with doc 0
        "unique words only here nothing shared at all nine ten",
        "short doc",                              # < 8 tokens: no grams
        boiler + " " + boiler,                    # overlap inside one doc
    ]
    ids = list(range(len(texts)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )

    def grams_of(t):
        w = t.split(" ")
        return [
            (" ".join(w[i : i + 8]), i) for i in range(len(w) - 7)
        ]

    by_gram = {}
    for i, t in enumerate(texts):
        for g, _ in grams_of(t):
            by_gram.setdefault(g, set()).add(i)
    dup = {g for g, s in by_gram.items() if len(s) >= 2}
    want = {}
    for i, t in enumerate(texts):
        w = t.split(" ")
        covered = set()
        for g, s in grams_of(t):
            if g in dup:
                covered.update(range(s, s + 8))
        want[i] = (len(w), len(covered))
    out = doc_span_dedup_rewrite(d).take_all()
    got = {r["doc_id"]: (r["n_tokens"], r["n_removed"]) for r in out}
    assert got == want
    for r in out:
        assert r["keep_frac"] == round(
            (r["n_tokens"] - r["n_removed"]) / r["n_tokens"], 6
        )
    # the shared block is removed from both sharers; the unique doc is whole
    assert got[0][1] >= 8 and got[1][1] >= 8
    assert got[2][1] == 0 and got[3][1] == 0


# ---------------------------------------------------- sequence packing


def test_pack_blocks_matches_loop_reference(ray_session):
    """Running-offset loop reference (single scan range at default
    _PACK_R; the multi-range base-offset path is exercised separately
    below with a shrunken range size)."""
    from core_ray.queries import doc_pack_blocks

    rng = np.random.default_rng(7)
    n = 600
    texts = [
        " ".join(["w"] * int(k)) for k in rng.integers(1, 900, size=n)
    ]
    ids = np.arange(n, dtype=np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    off = 0
    want = {}
    for i, t in enumerate(texts):
        k = len(t.split(" "))
        want[i] = (k, off, off // 256, (off + k - 1) // 256)
        off += k
    out = doc_pack_blocks(d).take_all()
    got = {
        r["doc_id"]: (r["n_tokens"], r["start_off"], r["first_block"],
                      r["last_block"])
        for r in out
    }
    assert got == want
    # packing invariants: offsets are gap-free and blocks monotone
    rows = sorted(out, key=lambda r: r["doc_id"])
    for a, b in zip(rows, rows[1:]):
        assert b["start_off"] == a["start_off"] + a["n_tokens"]
        assert b["first_block"] >= a["first_block"]
        assert a["n_blocks"] == a["last_block"] - a["first_block"] + 1


def test_pack_blocks_multi_range_scan(ray_session, monkeypatch):
    """Shrinks the scan-range size so the two-level distributed prefix
    sum actually crosses range boundaries (the base-offset broadcast and
    per-range local cumsum must compose to the global scan)."""
    import core_ray.queries as Q
    from core_ray.queries import doc_text

    monkeypatch.setattr(doc_text, "_PACK_R", 37)
    n = 500
    texts = [" ".join(["t"] * ((i * 13) % 50 + 1)) for i in range(n)]
    ids = np.arange(n, dtype=np.int64)
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    off = 0
    want = {}
    for i, t in enumerate(texts):
        k = len(t.split(" "))
        want[i] = (off, (off + k - 1) // 256)
        off += k
    out = Q.doc_pack_blocks(d).take_all()
    got = {r["doc_id"]: (r["start_off"], r["last_block"]) for r in out}
    assert got == want


# ---------------------------------------------------- triangle counting


def test_triangles_matches_bruteforce(ray_session):
    """Brute-force contact edges (same coords/window spec) + itertools
    triangle enumeration on a small synthetic events table."""
    from itertools import combinations

    from core_ray.queries import events_mobility, events_triangles

    n = 120
    eids = np.arange(n, dtype=np.int64)
    uids = (eids * 7) % 40  # 40 users, repeat visits
    us = 1_735_732_800_000_000 + eids * 600_000_000  # 10 min apart
    d = _write(
        {
            "events": {
                "event_id": pa.array(eids, pa.int64()),
                "user_id": pa.array(uids, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        }
    )
    lat, lon = events_mobility._contact_coords(eids, uids)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if uids[i] == uids[j]:
                continue
            if (lat[i] - lat[j]) ** 2 + (lon[i] - lon[j]) ** 2 > \
               events_mobility._CONTACT_RADIUS_DEG ** 2:
                continue
            if abs(int(us[i]) - int(us[j])) > events_mobility._CONTACT_WINDOW_US:
                continue
            edges.add((min(uids[i], uids[j]), max(uids[i], uids[j])))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(
        1
        for a, b, c in combinations(sorted(adj), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
    r = events_triangles(d).to_pylist()[0]
    assert r["n_edges"] == len(edges)
    assert r["n_wedges"] == wedges
    assert r["n_triangles"] == tri
    assert tri > 0  # non-vacuous fixture
    assert r["gcc"] == round(3.0 * tri / wedges, 6)


def test_triangles_closure_regimes_agree(ray_session, monkeypatch):
    """Broadcast edge-set closure and distributed union-shuffle closure
    must be value-identical (the lookup_join two-regime contract)."""
    from core_ray.queries import events_triangles
    from core_ray.stages import join

    n = 80
    eids = np.arange(n, dtype=np.int64)
    uids = (eids * 7) % 40
    us = 1_735_732_800_000_000 + eids * 600_000_000
    d = _write(
        {
            "events": {
                "event_id": pa.array(eids, pa.int64()),
                "user_id": pa.array(uids, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        }
    )
    a = events_triangles(d).to_pylist()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = events_triangles(d).to_pylist()
    assert a == b
    assert a[0]["n_triangles"] > 0


# ---------------------------------------------------- HLL eval


def test_hll_eval_matches_loop_reference(ray_session):
    """Pure-Python register loop (Flajolet estimator + small-range
    correction) and the error bound ~1.04/sqrt(m)."""
    import math

    from core_ray.queries import events_hll_eval

    rng = np.random.default_rng(3)
    n = 20000
    uids = rng.integers(0, 3000, size=n).astype(np.int64)
    types = rng.choice(["a", "b"], size=n)
    d = _write(
        {
            "events": {
                "user_id": pa.array(uids, pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        }
    )

    def ref(us):
        m = 256
        regs = [0] * m
        for u in us:
            h = (u * 2654435761) % (1 << 32)
            h = (h ^ (h >> 16)) % (1 << 32)
            h = (h * 0x45D9F3B) % (1 << 32)
            h = (h ^ (h >> 16)) % (1 << 32)
            j = h % m
            w = h // m
            rank = 25 if w == 0 else 24 - math.floor(math.log2(w))
            regs[j] = max(regs[j], rank)
        z = sum(2.0 ** -r for r in regs)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        e = alpha * m * m / z
        v = regs.count(0)
        if e <= 2.5 * m and v > 0:
            e = m * math.log(m / v)
        return e

    out = {r["event_type"]: r for r in events_hll_eval(d).to_pylist()}
    for ty in ("a", "b"):
        us = sorted(set(uids[types == ty].tolist()))
        assert out[ty]["exact_distinct"] == len(us)
        assert abs(out[ty]["hll_estimate"] - ref(us)) < 1e-5
        # 1.04/sqrt(256) = 6.5%; allow 4 sigma
        assert out[ty]["rel_err"] < 0.26


# ---------------------------------------------------- split assignment


def test_split_assign_matches_loop_reference(ray_session):
    from core_ray.queries import doc_split_assign

    n = 2000
    ids = np.arange(n, dtype=np.int64)
    langs = np.asarray(["en", "de", "fr"])[ids % 3]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.array(langs, pa.string()),
            }
        }
    )

    def bucket(i):
        h = (i * 2654435761) % (1 << 32)
        h = (h ^ (h >> 16)) % (1 << 32)
        h = (h * 0x45D9F3B) % (1 << 32)
        h = (h ^ (h >> 16)) % (1 << 32)
        return h % 100

    want = {}
    for i, lg in zip(ids.tolist(), langs.tolist()):
        b = bucket(i)
        s = "train" if b < 90 else ("val" if b < 95 else "test")
        want[(lg, s)] = want.get((lg, s), 0) + 1
    t = doc_split_assign(d)
    got = {
        (r["lang"], r["split"]): r["n_docs"] for r in t.to_pylist()
    }
    for k, v in want.items():
        assert got[k] == v
    # ratios roughly 90/5/5 and fractions sum to 1 per lang
    for lg in ("en", "de", "fr"):
        tot = sum(got[(lg, s)] for s in ("train", "val", "test"))
        assert got[(lg, "train")] / tot > 0.8
        fr = [r["frac_of_lang"] for r in t.to_pylist() if r["lang"] == lg]
        assert abs(sum(fr) - 1.0) < 1e-5


# ---------------------------------------------------- global ranking


def test_global_ranks_with_heavy_ties(ray_session):
    """A value distribution dominated by one repeated value (all ties must
    co-locate in one range partition and break by event_id) plus a spread
    tail; reference is a plain python sort."""
    from core_ray.queries import events_global_ranks

    rng = np.random.default_rng(5)
    n = 5000
    vals = np.where(rng.random(n) < 0.6, 7.5, rng.random(n) * 100)
    eids = rng.permutation(n).astype(np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(eids, pa.int64()),
                "value": pa.array(vals, pa.float64()),
            }
        }
    )
    ref = {
        e: i + 1
        for i, (v, e) in enumerate(sorted(zip(vals.tolist(), eids.tolist())))
    }
    out = events_global_ranks(d).take_all()
    assert len(out) == n
    for r in out:
        assert ref[r["event_id"]] == r["rnk"]


# ---------------------------------------------------- decayed counters


def test_decayed_activity_matches_loop_reference(ray_session):
    import math

    from core_ray.queries import events_decayed_activity

    rng = np.random.default_rng(21)
    n = 1200
    uids = rng.integers(0, 30, size=n).astype(np.int64)
    base = 1_735_732_800_000_000
    us = base + rng.integers(0, 30 * 86400_000_000, size=n)
    d = _write(
        {
            "events": {
                "user_id": pa.array(uids, pa.int64()),
                "ts": pa.array(us, pa.timestamp("us")),
            }
        }
    )
    T = int(us.max())
    lam = math.log(2) / (7 * 86400 * 1_000_000)
    want = {}
    cnt = {}
    for u, t in zip(uids.tolist(), us.tolist()):
        m = round(math.exp(-lam * (T - t)) * 1e6)
        want[u] = want.get(u, 0) + m
        cnt[u] = cnt.get(u, 0) + 1
    out = events_decayed_activity(d).to_pylist()
    got = {r["user_id"]: (r["n_events"], r["decay_micro"]) for r in out}
    assert got == {u: (cnt[u], want[u]) for u in want}
    # mergeability sanity: score strictly below raw count, above 0
    for r in out:
        assert 0 < r["decay_score"] <= r["n_events"]
