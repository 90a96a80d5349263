"""Round-5 wave-10 operator units: winnowing fingerprint overlap
(Schleimer/Wilkerson/Aiken MOSS). Each test verifies the engine against a
fully independent pure-Python reference on synthetic throwaway parquet."""

import hashlib
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

K, W, CAP, MIN_SHARED = 4, 5, 64, 2


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave10_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


def _round6(x: float) -> float:
    # DuckDB ROUND: half away from zero (x is always positive here)
    return np.floor(x * 1e6 + 0.5) / 1e6


def _winnow_fps(text: str) -> set:
    """Reference winnowing: loop/dict implementation, no numpy."""
    toks = text.split(" ")
    grams = [" ".join(toks[i:i + K]) for i in range(len(toks) - K + 1)]
    hs = [
        int.from_bytes(hashlib.md5(g.encode()).digest()[:8], "little")
        for g in grams
    ]
    sel = set()
    for e in range(W - 1, len(hs)):
        lo = e - W + 1
        m = min(hs[lo:e + 1])
        sel.add(max(i for i in range(lo, e + 1) if hs[i] == m))
    return {hs[p] for p in sel}


def _ref_pairs(ids, texts):
    fps = {i: _winnow_fps(t) for i, t in zip(ids, texts)}
    df: dict = {}
    for i in ids:
        for h in fps[i]:
            df.setdefault(h, set()).add(i)
    shared: dict = {}
    for h, docs in df.items():
        if not (2 <= len(docs) <= CAP):
            continue
        ds = sorted(docs)
        for a in range(len(ds)):
            for b in range(a + 1, len(ds)):
                key = (ds[a], ds[b])
                shared[key] = shared.get(key, 0) + 1
    out = {}
    for (a, b), s in shared.items():
        if s < MIN_SHARED:
            continue
        na, nb = len(fps[a]), len(fps[b])
        out[(a, b)] = (s, na, nb, _round6(s / (na + nb - s)))
    return out, fps


def _rng_doc(rng, vocab, n):
    return " ".join(rng.choice(vocab, size=n))


def _collect(res) -> pa.Table:
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(res.to_pandas())


def test_winnow_overlap_matches_bruteforce(ray_session):
    from core_ray.queries import doc_winnow_overlap

    rng = np.random.default_rng(77)
    vocab = np.asarray([f"w{i}" for i in range(120)])
    texts = [_rng_doc(rng, vocab, int(rng.integers(2, 60))) for _ in range(30)]
    # plant shared spans long enough for the (w + k - 1)-token guarantee
    span1 = _rng_doc(rng, vocab, 24)
    span2 = _rng_doc(rng, vocab, 30)
    texts[0] = texts[0] + " " + span1
    texts[1] = span1 + " " + texts[1]
    texts[2] = span2
    texts[3] = texts[3] + " " + span2 + " " + texts[4]
    ids = list(range(100, 100 + len(texts)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    want, fps = _ref_pairs(ids, texts)
    t = _collect(doc_winnow_overlap(d))
    got = {
        (lo, hi): (s, nl, nh, j)
        for lo, hi, s, nl, nh, j in zip(
            t["doc_lo"].to_pylist(), t["doc_hi"].to_pylist(),
            t["shared"].to_pylist(), t["n_lo"].to_pylist(),
            t["n_hi"].to_pylist(), t["jac"].to_pylist(),
        )
    }
    assert got == want
    # the planted 24/30-token spans guarantee >= 2 shared fingerprints
    assert (100, 101) in got and (102, 103) in got


def test_winnow_guarantee_long_shared_span(ray_session):
    """Any shared token run of length >= w + k - 1 shares >= 1 fingerprint
    (the paper's guarantee threshold t = w + k - 1 = 8 tokens here); the
    reference must exhibit it for every planted pair."""
    rng = np.random.default_rng(5)
    vocab = np.asarray([f"t{i}" for i in range(400)])
    for trial in range(20):
        span = _rng_doc(rng, vocab, W + K - 1)
        a = _rng_doc(rng, vocab, 20) + " " + span
        b = span + " " + _rng_doc(rng, vocab, 20)
        assert _winnow_fps(a) & _winnow_fps(b), trial


def test_winnow_stop_fingerprint_cap(ray_session):
    """> CAP identical docs: every shared fingerprint has df > CAP, so NO
    pairs are emitted (boilerplate suppression) — plus two distinct docs
    sharing a long span still pair up."""
    from core_ray.queries import doc_winnow_overlap

    rng = np.random.default_rng(9)
    vocab = np.asarray([f"v{i}" for i in range(50)])
    boiler = _rng_doc(rng, vocab, 40)
    texts = [boiler] * (CAP + 1)
    span = _rng_doc(rng, vocab, 30)
    texts += [span + " " + _rng_doc(rng, vocab, 15),
              _rng_doc(rng, vocab, 15) + " " + span]
    ids = list(range(len(texts)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    want, _ = _ref_pairs(ids, texts)
    t = _collect(doc_winnow_overlap(d))
    got = {
        (lo, hi): (s, nl, nh, j)
        for lo, hi, s, nl, nh, j in zip(
            t["doc_lo"].to_pylist(), t["doc_hi"].to_pylist(),
            t["shared"].to_pylist(), t["n_lo"].to_pylist(),
            t["n_hi"].to_pylist(), t["jac"].to_pylist(),
        )
    }
    assert got == want
    boiler_ids = set(range(CAP + 1))
    assert all(not ({lo, hi} <= boiler_ids) for lo, hi in got)
    assert (CAP + 1, CAP + 2) in got


def test_winnow_short_docs_no_fingerprints(ray_session):
    """Docs with fewer than w + k - 1 tokens have no full window ->
    contribute nothing; the query returns empty without error."""
    from core_ray.queries import doc_winnow_overlap

    texts = ["a b c", "a b c d e f g", ""]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    t = _collect(doc_winnow_overlap(d))
    assert t.num_rows == 0


# ---------------------------------------------------- CUSUM burst alarms


def _cusum_ref(ids, uss, eids):
    """Reference: the LITERAL Page recursion (scaled-integer form),
    sequential loop — proves the engine's reflected-walk closed form."""
    by_user: dict = {}
    for u, t, e in sorted(zip(ids, uss, eids), key=lambda r: (r[0], r[1], r[2])):
        by_user.setdefault(u, []).append(t)
    out = {}
    for u, ts in by_user.items():
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        m = len(gaps)
        if m < 2:
            continue
        sg = sum(gaps)
        thr = 6 * sg
        s = 0
        smax, n_alarms, first = 0, 0, None
        for i, g in enumerate(gaps, start=1):
            prev = s
            s = max(0, s + (sg - 2 * m * g))
            smax = max(smax, s)
            if s > thr and prev <= thr:
                n_alarms += 1
                if first is None:
                    first = i
        ratio = (np.floor(smax / thr * 1e6 + 0.5) / 1e6) if thr > 0 else None
        out[u] = (m, n_alarms, first, smax, ratio)
    return out


def test_cusum_alarm_matches_sequential_reference(ray_session):
    from core_ray.queries import events_cusum_alarm

    rng = np.random.default_rng(41)
    rows = []
    t0 = 1_700_000_000_000_000
    for u in range(40):
        n = int(rng.integers(1, 60))
        t = t0
        burst_at = int(rng.integers(0, max(n - 12, 1))) if u % 3 == 0 else -99
        for i in range(n):
            if burst_at <= i < burst_at + 12:
                t += int(rng.integers(1, 50))          # contiguous burst
            else:
                t += int(rng.integers(50_000, 500_000))
            rows.append((u, t, u * 1000 + i))
    ids = [r[0] for r in rows]
    uss = [r[1] for r in rows]
    eids = [r[2] for r in rows]
    d = _write(
        {
            "events": {
                "event_id": pa.array(eids, pa.int64()),
                "ts": pa.array(
                    np.asarray(uss, np.int64), pa.timestamp("us")
                ),
                "user_id": pa.array(ids, pa.int64()),
            }
        }
    )
    want = _cusum_ref(ids, uss, eids)
    t = _collect(events_cusum_alarm(d))
    got = {
        u: (m, na, fa, sm, pr)
        for u, m, na, fa, sm, pr in zip(
            t["user_id"].to_pylist(), t["n_gaps"].to_pylist(),
            t["n_alarms"].to_pylist(), t["first_alarm"].to_pylist(),
            t["s_max"].to_pylist(), t["peak_ratio"].to_pylist(),
        )
    }
    assert got == want
    assert any(v[1] > 0 for v in want.values())  # bursts actually alarmed


def test_cusum_alarm_small_users_excluded(ray_session):
    from core_ray.queries import events_cusum_alarm

    t0 = 1_700_000_000_000_000
    d = _write(
        {
            "events": {
                "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "ts": pa.array(
                    np.asarray([t0, t0 + 10, t0, t0, t0 + 5], np.int64),
                    pa.timestamp("us"),
                ),
                # user 7: 2 events (1 gap) -> excluded; user 8: 3 events
                "user_id": pa.array([7, 7, 8, 8, 8], pa.int64()),
            }
        }
    )
    t = _collect(events_cusum_alarm(d))
    assert t["user_id"].to_pylist() == [8]
    assert t["n_gaps"].to_pylist() == [2]


# ---------------------------------------------- Kneser-Ney bigram perplexity


def _kn_ref(ids, texts):
    """Independent interpolated-KN reference: dict/Counter/loop, no numpy."""
    import collections
    import math

    train = [(i, t) for i, t in zip(ids, texts) if i % 2 == 0]
    test = [(i, t) for i, t in zip(ids, texts) if i % 2 == 1]
    c2: dict = collections.Counter()
    vocab = set()
    for _, t in train:
        toks = t.split(" ")
        vocab.update(toks)
        for a, b in zip(toks, toks[1:]):
            c2[(a, b)] += 1
    c1: dict = collections.Counter()
    n1f: dict = collections.Counter()
    n1b: dict = collections.Counter()
    for (a, b), c in c2.items():
        c1[a] += c
        n1f[a] += 1
        n1b[b] += 1
    B, V = len(c2), len(vocab) + 1
    D = 0.75
    out = {}
    for i, t in test:
        toks = t.split(" ")
        if len(toks) < 2:
            continue
        s = 0
        for a, b in zip(toks, toks[1:]):
            pc = (n1b.get(b, 0) + 1) / float(B + V)
            if c1.get(a, 0) > 0:
                p = max(c2.get((a, b), 0) - D, 0.0) / c1[a] \
                    + (D * n1f[a] / c1[a]) * pc
            else:
                p = pc
            bits = -math.log2(p) * 1e6
            s += int(np.floor(bits + 0.5)) if bits >= 0 else -int(
                np.floor(-bits + 0.5))
        nb = len(toks) - 1
        out[i] = (nb, s, s / nb)
    return out


def _kn_got(t):
    return {
        i: (nb, sm, mb)
        for i, nb, sm, mb in zip(
            t["doc_id"].to_pylist(), t["n_bigrams"].to_pylist(),
            t["sum_micro"].to_pylist(), t["mean_bits"].to_pylist(),
        )
    }


def _kn_corpus():
    rng = np.random.default_rng(303)
    vocab = np.asarray([f"kw{i}" for i in range(60)])
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
        for _ in range(50)
    ]
    ids = list(range(50))
    return ids, texts


def test_kn_ppl_matches_loop_reference(ray_session):
    from core_ray.queries import doc_kn_ppl

    ids, texts = _kn_corpus()
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    want = _kn_ref(ids, texts)
    got = _kn_got(_collect(doc_kn_ppl(d)))
    assert got == want


def test_kn_ppl_regimes_agree(ray_session, monkeypatch):
    """BROADCAST_MAX_BYTES=0 forces the distributed three-join path; outputs
    must equal the broadcast regime's bit-for-bit."""
    from core_ray.queries import doc_kn_ppl
    from core_ray.stages import join

    ids, texts = _kn_corpus()
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    a = _kn_got(_collect(doc_kn_ppl(d)))
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = _kn_got(_collect(doc_kn_ppl(d)))
    assert a == b and len(a) > 0


# ------------------------------------------- Matryoshka prefix-dim recall


def test_matryoshka_recall_matches_loop_reference(ray_session):
    from core_ray.queries import emb_matryoshka_recall

    rng = np.random.default_rng(17)
    n, dim, pref, topk = 300, 64, 16, 10
    vecs = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(0, n * 3, 3, dtype=np.int64)  # every 100th-multiple probe
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
    x = vecs.astype(np.float64)
    want = {}
    for qi in np.nonzero(ids % 100 == 0)[0]:
        full = {}
        pfx = {}
        for ci in range(n):
            if ci == qi:
                continue
            full[int(ids[ci])] = float(x[qi] @ x[ci])
            pfx[int(ids[ci])] = float(x[qi][:pref] @ x[ci][:pref])
        top_f = {v for v, _ in sorted(full.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:topk]}
        top_p = {v for v, _ in sorted(pfx.items(),
                                      key=lambda kv: (-kv[1], kv[0]))[:topk]}
        ov = len(top_f & top_p)
        want[int(ids[qi])] = (ov, np.floor(ov / topk * 1e6 + 0.5) / 1e6)
    t = _collect(emb_matryoshka_recall(d))
    got = {
        q: (n_, r)
        for q, n_, r in zip(
            t["query_id"].to_pylist(), t["n_overlap"].to_pylist(),
            t["recall"].to_pylist(),
        )
    }
    assert got == want
    # prefix ranking must lose SOMETHING on random gaussians (sanity that
    # the two rankings actually differ) yet keep most of the top-k
    rs = [v[1] for v in want.values()]
    assert min(rs) < 1.0 and max(rs) > 0.0


# ------------------------------------------------- discrete Frechet pairs


def _frechet_ref_tracks(a, b):
    """Dict DP over explicit integer point lists."""
    F = {}
    for i in range(len(a)):
        for j in range(len(b)):
            d = (a[i][0] - b[j][0]) ** 2 + (a[i][1] - b[j][1]) ** 2
            if i == 0 and j == 0:
                best = d
            elif i == 0:
                best = max(F[(0, j - 1)], d)
            elif j == 0:
                best = max(F[(i - 1, 0)], d)
            else:
                best = max(min(F[(i - 1, j)], F[(i, j - 1)], F[(i - 1, j - 1)]), d)
            F[(i, j)] = best
    return F[(len(a) - 1, len(b) - 1)]


def _track_of(u, eids):
    city = (u * 7) % 12
    return [
        (
            ((city * 104729) % 340000) + ((u * 104729) % 2001) + ((e * 29) % 1001),
            ((city * 11003) % 120000) + ((u * 7919) % 2001) + ((e * 13) % 1001),
        )
        for e in eids
    ]


def test_frechet_pairs_matches_dict_dp(ray_session):
    from core_ray.queries import events_frechet_pairs

    rng = np.random.default_rng(23)
    rows = []
    t0 = 1_700_000_000_000_000
    eid = 0
    # users spread over several home cities, variable track lengths 1..25
    for u in range(30):
        n = int(rng.integers(1, 26))
        for i in range(n):
            rows.append((u, t0 + i * 1000 + int(rng.integers(0, 500)), eid))
            eid += 1
    d = _write(
        {
            "events": {
                "event_id": pa.array([r[2] for r in rows], pa.int64()),
                "ts": pa.array(
                    np.asarray([r[1] for r in rows], np.int64), pa.timestamp("us")
                ),
                "user_id": pa.array([r[0] for r in rows], pa.int64()),
            }
        }
    )
    # reference: first 16 events per user in (ts, event_id) order
    by_u: dict = {}
    for u, t, e in sorted(rows, key=lambda r: (r[0], r[1], r[2])):
        if len(by_u.setdefault(u, [])) < 16:
            by_u[u].append(e)
    want = {}
    by_city: dict = {}
    for u in sorted(by_u):
        by_city.setdefault((u * 7) % 12, []).append(u)
    for _c, us in by_city.items():
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                a = _track_of(us[i], by_u[us[i]])
                b = _track_of(us[j], by_u[us[j]])
                want[(us[i], us[j])] = (
                    len(a), len(b), _frechet_ref_tracks(a, b))
    t = _collect(events_frechet_pairs(d))
    got = {
        (lo, hi): (nl, nh, f)
        for lo, hi, nl, nh, f in zip(
            t["user_lo"].to_pylist(), t["user_hi"].to_pylist(),
            t["n_lo"].to_pylist(), t["n_hi"].to_pylist(),
            t["frechet_sq"].to_pylist(),
        )
    }
    assert got == want and len(got) > 0


def test_frechet_is_order_sensitive():
    """Two tracks tracing the same points in opposite directions are
    Hausdorff-identical (same point SETS) but Frechet-far — the property
    that justifies the operator next to events_traj_hausdorff."""
    pts = [(i * 100, 0) for i in range(10)]
    fwd, rev = pts, pts[::-1]
    assert _frechet_ref_tracks(fwd, fwd) == 0
    # coupled walk must span the full diagonal at some step
    assert _frechet_ref_tracks(fwd, rev) >= (900 // 2) ** 2


# ---------------------------------------------------- media PSNR round-trip


def test_media_psnr_matches_golden_including_lossless():
    """Engine actor vs the independent loop golden, including doc_id 0-6
    (16x16 images: the thumb round-trip is lossless -> sse 0, NULL psnr)."""
    from core_ray.fixtures.media_golden import golden_psnr
    from core_ray.media import encode_bmp, synth_image
    from core_ray.queries.media import MediaPsnr

    ids = list(range(12)) + [77, 200, 481]
    blobs = [encode_bmp(synth_image(i)) for i in ids]
    batch = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "media": pa.array(blobs, pa.binary())}
    )
    got = MediaPsnr()(batch)
    want = golden_psnr(ids)
    assert got.equals(want)
    # the 16x16 images really exercise the NULL branch
    sse0 = [s for i, s in zip(ids, got["sse"].to_pylist()) if i < 7]
    assert all(s == 0 for s in sse0)
    assert all(p is None
               for i, p in zip(ids, got["psnr_db"].to_pylist()) if i < 7)
    assert any(p is not None for p in got["psnr_db"].to_pylist())


# ------------------------------------------------------ AMS F2 sketch eval


def test_ams_f2_eval_matches_loop_reference(ray_session):
    from core_ray.queries import events_ams_f2_eval
    from core_ray.queries._shared import _KMV_MULT

    rng = np.random.default_rng(7)
    n = 4000
    users = rng.zipf(1.5, size=n).astype(np.int64) % 500  # skewed repeats
    types = rng.choice(["click", "view"], size=n)
    d = _write(
        {
            "events": {
                "user_id": pa.array(users, pa.int64()),
                "event_type": pa.array(types, pa.string()),
            }
        }
    )

    def sign(u, r):
        h = (u * _KMV_MULT + (r + 1) * 40503) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        return 1 if h & 1 else -1

    want = {}
    for ty in ("click", "view"):
        us = [int(u) for u, t in zip(users, types) if t == ty]
        import collections

        cnt = collections.Counter(us)
        f2 = sum(c * c for c in cnt.values())
        num = 0
        for r in range(64):
            s = sum(sign(u, r) for u in us)
            num += s * s
        rel = np.floor(((num / 64.0 - f2) / f2) * 1e6 + 0.5) / 1e6 \
            if (num / 64.0 - f2) >= 0 else \
            -np.floor((-(num / 64.0 - f2) / f2) * 1e6 + 0.5) / 1e6
        want[ty] = (f2, num, rel)
    t = events_ams_f2_eval(d)
    got = {
        ty: (f2, num, rel)
        for ty, f2, num, rel in zip(
            t["event_type"].to_pylist(), t["f2_exact"].to_pylist(),
            t["est_num"].to_pylist(), t["rel_err"].to_pylist(),
        )
    }
    assert got == want
    # the estimator should land within ~50% of truth at 64 rows on this size
    assert all(abs(v[2]) < 0.5 for v in want.values())


# --------------------------------------------- space-filling-curve locality


def test_hilbert_is_valid_curve_and_beats_morton(ray_session):
    """The vectorized Hilbert transform enumerates every cell exactly once
    with all consecutive indexes 4-adjacent (the defining property), and on
    a dense grid its horizontal-neighbor mean |delta| beats Morton's."""
    from core_ray.queries import geo_curve_locality
    from core_ray.queries.geo_ops import _hilbert_d_np

    p = 4
    n = 1 << p
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = _hilbert_d_np(xs.ravel(), ys.ravel(), p)
    assert sorted(d.tolist()) == list(range(n * n))
    pos = {int(dd): (int(x), int(y)) for dd, x, y in zip(d, xs.ravel(), ys.ravel())}
    for k in range(n * n - 1):
        a, b = pos[k], pos[k + 1]
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    # dense synthetic corpus -> both curves measured over many pairs; the
    # trade runs OPPOSITE ways: Morton wins the neighbor-index-delta mean,
    # Hilbert wins the curve-step spatial-jump mean (the range-scan metric)
    d_dir = _write(
        {"documents": {"doc_id": pa.array(list(range(4000)), pa.int64())}}
    )
    t = _collect(geo_curve_locality(d_dir))
    by = {c: (np_, m, j) for c, np_, m, j in zip(
        t["curve"].to_pylist(), t["n_pairs"].to_pylist(),
        t["mean_delta"].to_pylist(), t["mean_jump_sq"].to_pylist())}
    assert by["hilbert"][0] == by["morton"][0] > 100
    assert by["morton"][1] < by["hilbert"][1]
    assert by["hilbert"][2] < by["morton"][2]


# ---------------------------------------------------- Bloom FPR evaluation


def test_bloom_fpr_eval_matches_loop_reference(ray_session):
    from core_ray.queries import events_bloom_fpr_eval
    from core_ray.queries._shared import _KMV_MULT

    M, K = 1 << 16, 4

    def pos(u):
        out = []
        for i in range(K):
            h = (u * _KMV_MULT + (i + 1) * 40503) % (1 << 32)
            h ^= h >> 16
            h = (h * 0x45D9F3B) % (1 << 32)
            h ^= h >> 16
            out.append(h % M)
        return out

    rng = np.random.default_rng(61)
    # enough members that the 65536-bit filter has a measurable FPR
    members = sorted(rng.choice(200_000, size=8000, replace=False).tolist())
    nonmem = sorted(
        set(rng.choice(200_000, size=12000, replace=False).tolist())
        - set(members)
    )
    rows_u, rows_t = [], []
    for u in members:
        rows_u.append(u); rows_t.append("purchase")
        if u % 3 == 0:
            rows_u.append(u); rows_t.append("click")  # purchasers also click
    for u in nonmem:
        rows_u.append(u); rows_t.append("click")
    d = _write(
        {
            "events": {
                "user_id": pa.array(rows_u, pa.int64()),
                "event_type": pa.array(rows_t, pa.string()),
            }
        }
    )
    bits = set()
    for u in members:
        bits.update(pos(u))
    fp = sum(1 for u in nonmem if all(p in bits for p in pos(u)))
    t = events_bloom_fpr_eval(d)
    assert t["n_members"].to_pylist() == [len(members)]
    assert t["n_probes"].to_pylist() == [len(nonmem)]
    assert t["false_pos"].to_pylist() == [fp]
    assert fp > 0  # the configuration genuinely exercises false positives
    emp = t["fpr_emp"].to_pylist()[0]
    theory = t["fpr_theory"].to_pylist()[0]
    # realized FPR within 3x of theory (sanity on the hash quality)
    assert theory / 3 < emp < theory * 3


# --------------------------------------------- marching-squares contours


def test_contour_cases_matches_loop_reference(ray_session):
    """Dense enough corpus that every non-trivial case class (including
    both saddles) appears; reference is a dict/loop marching-squares."""
    from core_ray.queries import geo_contour_cases

    ids = list(range(20000))
    d = _write({"documents": {"doc_id": pa.array(ids, pa.int64())}})
    n, T = 128, 2
    cnt: dict = {}
    for did in ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        c = ((a * n) // 360000, (b * n) // 140000)
        cnt[c] = cnt.get(c, 0) + 1
    inside = {c for c, v in cnt.items() if v >= T}
    segs_of = [0, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 0]
    want: dict = {}
    for x in range(n - 1):
        for y in range(n - 1):
            case = (
                ((x, y) in inside)
                + 2 * ((x + 1, y) in inside)
                + 4 * ((x + 1, y + 1) in inside)
                + 8 * ((x, y + 1) in inside)
            )
            nb, sg = want.get(case, (0, 0))
            want[case] = (nb + 1, sg + segs_of[case])
    want = {c: v for c, v in want.items() if v[0] > 0}
    t = _collect(geo_contour_cases(d))
    got = {
        c: (nb, sg)
        for c, nb, sg in zip(
            t["case_id"].to_pylist(), t["n_blocks"].to_pylist(),
            t["segments"].to_pylist(),
        )
    }
    assert got == want
    assert 5 in got or 10 in got  # at least one saddle class observed


# ------------------------------------------------ iterative raster stencil


def test_heat_diffusion_matches_loop_reference(ray_session):
    from core_ray.queries import geo_heat_diffusion

    ids = list(range(3000))
    d = _write({"documents": {"doc_id": pa.array(ids, pa.int64())}})
    n = 128
    u: dict = {}
    for did in ids:
        a = (did * 104729) % 360000
        b = (did * 7919) % 140000
        c = ((a * n) // 360000, (b * n) // 140000)
        u[c] = u.get(c, 0) + 1
    u0 = dict(u)
    for _ in range(3):
        nxt: dict = {}
        for x in range(n):
            for y in range(n):
                v = (u.get((x, y), 0) + u.get((x - 1, y), 0)
                     + u.get((x + 1, y), 0) + u.get((x, y - 1), 0)
                     + u.get((x, y + 1), 0))
                if v:
                    nxt[(x, y)] = v
        u = nxt
    top = sorted(u.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    want = [(x, y, u0.get((x, y), 0), v) for (x, y), v in top]
    t = _collect(geo_heat_diffusion(d))
    got = list(zip(t["cx"].to_pylist(), t["cy"].to_pylist(),
                   t["count0"].to_pylist(), t["diffused"].to_pylist()))
    assert got == want
    # diffusion spreads: some top cell has count0 == 0 or diffused > count0
    assert all(v >= c0 for _, _, c0, v in got)


# ------------------------------------------------- 1-bit minwise evaluation


def test_bbit_minhash_eval_matches_loop_reference(ray_session):
    from core_ray.queries import doc_bbit_minhash_eval

    rng = np.random.default_rng(99)
    vocab = np.asarray([f"bw{i}" for i in range(80)])
    texts = []
    for k in range(40):
        base = _rng_doc(rng, vocab, 30)
        texts.append(base)
        # odd sibling: mutated copy -> pairs span the full Jaccard range
        toks = base.split(" ")
        nmut = int(rng.integers(0, len(toks)))
        for j in rng.choice(len(toks), size=nmut, replace=False):
            toks[j] = str(rng.choice(vocab))
        texts.append(" ".join(toks))
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
        toks = t.split(" ")
        return {
            int.from_bytes(
                hashlib.md5(" ".join(toks[i:i + 4]).encode()).digest()[:8],
                "little") % (1 << 32)
            for i in range(len(toks) - 3)
        }

    def bit(g, p):
        h = (g * 40503 + ((p + 1) * 2654435761) % (1 << 32)) % (1 << 32)
        h ^= h >> 16
        h = (h * 0x45D9F3B) % (1 << 32)
        h ^= h >> 16
        return h

    want = {}
    for k in range(40):
        a, b = grams_of(texts[2 * k]), grams_of(texts[2 * k + 1])
        if not a or not b:
            continue
        inter = len(a & b)
        jac = _round6(inter / len(a | b))
        c = 0
        for p in range(16):
            ba = min(bit(g, p) for g in a) % 2
            bb = min(bit(g, p) for g in b) % 2
            c += ba == bb
        want[(2 * k, 2 * k + 1)] = (inter, jac, c, _round6_signed(2 * c / 16 - 1))
    t = _collect(doc_bbit_minhash_eval(d))
    got = {
        (lo, hi): (n, j, c, je)
        for lo, hi, n, j, c, je in zip(
            t["doc_lo"].to_pylist(), t["doc_hi"].to_pylist(),
            t["n_common"].to_pylist(), t["jac"].to_pylist(),
            t["c_bits"].to_pylist(), t["j_est"].to_pylist(),
        )
    }
    assert got == want
    # estimator correlates with truth across the planted range
    js = [v[1] for v in want.values()]
    es = [v[3] for v in want.values()]
    assert np.corrcoef(js, es)[0, 1] > 0.6


def _round6_signed(x: float) -> float:
    return (np.floor(x * 1e6 + 0.5) / 1e6 if x >= 0
            else -np.floor(-x * 1e6 + 0.5) / 1e6)
