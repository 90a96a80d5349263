"""Round-5 wave-7 operator units: OD flow reciprocity and the
distributed closed-form OLS fit. The driver oracle checks both on the
real tables; these tests verify the kernels against fully independent
references (a dict/loop OD fold; np.linalg.lstsq) on synthetic
throwaway-parquet inputs."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave7_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


# ---------------------------------------------------- OD reciprocity


def _reciprocity_reference(uid, ts, eid):
    """Loop/dict re-derivation of the city model + OD counts + the two
    reciprocity statistics."""
    by_user = {}
    for u, t, e in zip(uid, ts, eid):
        by_user.setdefault(u, []).append((t, e))
    od = {}
    for u, evs in by_user.items():
        evs.sort()
        prev = None
        for seq in range(len(evs)):
            city = (u * 7 + (seq // 20) ** 2) % 12
            if prev is not None and city != prev:
                od[(prev, city)] = od.get((prev, city), 0) + 1
            prev = city
    n_dir = len(od)
    n_recip = sum(1 for (a, b) in od if (b, a) in od)
    total = sum(od.values())
    recip_flow = sum(min(c, od.get((b, a), 0)) for (a, b), c in od.items())
    return (
        n_dir,
        n_recip,
        round(n_recip / n_dir, 6),
        total,
        round(recip_flow / total, 6),
    )


def test_od_reciprocity_matches_dict_reference(ray_session):
    from core_ray.queries import events_od_reciprocity

    rng = np.random.default_rng(11)
    rows = []
    # users chosen so the 12-city ring gives both reciprocated
    # (user revisits an earlier city: ... 60+ events wrap city+3 steps)
    # and one-way legs; jittered timestamps exercise the sort keys
    for u in range(1, 9):
        n_ev = int(rng.integers(45, 140))
        t0 = 1_700_000_000_000_000 + u * 1000
        for i in range(n_ev):
            rows.append((u, t0 + i * 60_000_000 + int(rng.integers(0, 1000)),
                         u * 10_000 + i))
    uid = np.array([r[0] for r in rows], np.int64)
    ts = np.array([r[1] for r in rows], np.int64)
    eid = np.array([r[2] for r in rows], np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
            }
        }
    )
    got = events_od_reciprocity(d).to_pylist()[0]
    exp = _reciprocity_reference(uid.tolist(), ts.tolist(), eid.tolist())
    assert got["n_dir_edges"] == exp[0]
    assert got["n_recip_edges"] == exp[1]
    assert abs(got["recip_edge"] - exp[2]) < 2e-6
    assert got["total_flow"] == exp[3]
    assert abs(got["flow_recip"] - exp[4]) < 2e-6
    # structural sanity: the quadratic block hop (step 2b+1 mod 12)
    # produces genuine two-way flow — the statistic is NOT degenerate
    assert 0 < got["n_recip_edges"] <= got["n_dir_edges"]
    assert 0.0 < got["flow_recip"] <= 1.0


def test_od_reciprocity_single_leg(ray_session):
    """A single user with exactly two blocks (one leg 0 -> 1) has ZERO
    reciprocated edges and flow."""
    from core_ray.queries import events_od_reciprocity

    u = 12  # (12*7 + b*b) % 12 == b*b % 12: blocks 0,1 -> cities 0,1
    n_ev = 40
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(n_ev), pa.int64()),
                "user_id": pa.array(np.full(n_ev, u), pa.int64()),
                "ts": pa.array(
                    1_700_000_000_000_000 + np.arange(n_ev) * 1_000_000,
                    pa.timestamp("us"),
                ),
            }
        }
    )
    got = events_od_reciprocity(d).to_pylist()[0]
    assert got["n_dir_edges"] == 1
    assert got["n_recip_edges"] == 0
    assert got["recip_edge"] == 0.0
    assert got["total_flow"] == 1
    assert got["flow_recip"] == 0.0


# ------------------------------------------------------------- OLS fit


def test_ols_fit_matches_lstsq(ray_session):
    from core_ray.queries import doc_ols_fit

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)]
    texts, y = [], []
    for _ in range(400):
        n = int(rng.integers(3, 120))
        toks = rng.choice(vocab, size=n)
        texts.append(" ".join(toks))
        # y correlated with token count + noise, so R^2 is in (0, 1)
        y.append(5 * n + len(set(toks)) * 2 + int(rng.integers(-40, 40)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array(np.array(y, np.int64), pa.int64()),
            }
        }
    )
    got = doc_ols_fit(d).to_pylist()[0]

    x1 = np.array([len(t.split(" ")) for t in texts], np.float64)
    x2 = np.array([len(set(t.split(" "))) for t in texts], np.float64)
    yv = np.array(y, np.float64)
    X = np.column_stack([np.ones_like(x1), x1, x2])
    beta, *_ = np.linalg.lstsq(X, yv, rcond=None)
    resid = yv - X @ beta
    r2 = 1.0 - (resid @ resid) / ((yv - yv.mean()) @ (yv - yv.mean()))

    assert got["n_docs"] == len(texts)
    assert abs(got["b0"] - beta[0]) < 1e-4
    assert abs(got["b1"] - beta[1]) < 1e-4
    assert abs(got["b2"] - beta[2]) < 1e-4
    assert abs(got["r2"] - r2) < 1e-5
    assert 0.0 < got["r2"] < 1.0


def test_ols_fit_exact_plane_r2_one(ray_session):
    """When y is EXACTLY b0 + b1*x1 + b2*x2 the fit must recover the
    integer coefficients and R^2 == 1."""
    from core_ray.queries import doc_ols_fit

    rng = np.random.default_rng(5)
    vocab = [f"t{i}" for i in range(30)]
    texts, y = [], []
    for _ in range(200):
        n = int(rng.integers(2, 90))
        toks = rng.choice(vocab, size=n)
        texts.append(" ".join(toks))
        y.append(7 + 3 * n + 11 * len(set(toks)))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "n_chars": pa.array(np.array(y, np.int64), pa.int64()),
            }
        }
    )
    got = doc_ols_fit(d).to_pylist()[0]
    assert abs(got["b0"] - 7.0) < 1e-6
    assert abs(got["b1"] - 3.0) < 1e-6
    assert abs(got["b2"] - 11.0) < 1e-6
    assert got["r2"] == 1.0


# ----------------------------------------------------- cohort matrix


def test_cohort_matrix_matches_dict_reference(ray_session):
    from core_ray.queries import events_cohort_matrix
    from core_ray.queries.events_ops import _WEEK_US

    rng = np.random.default_rng(31)
    uid, ts = [], []
    for u in range(1, 40):
        w0 = int(rng.integers(2900, 2904))
        for k in range(int(rng.integers(1, 6))):
            # user active in weeks w0, w0+?, with gaps
            wk = w0 + int(rng.integers(0, 5)) if k else w0
            uid.append(u)
            ts.append(wk * _WEEK_US + int(rng.integers(0, _WEEK_US)))
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(len(uid)), pa.int64()),
                "user_id": pa.array(np.array(uid, np.int64), pa.int64()),
                "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            }
        }
    )
    got = {
        (r["cohort_week"], r["week_offset"]): (r["n_users"], r["retention"])
        for r in events_cohort_matrix(d).to_pylist()
    }
    # independent dict reference
    weeks = {}
    for u, t in zip(uid, ts):
        weeks.setdefault(u, set()).add(t // _WEEK_US)
    cells = {}
    for u, ws in weeks.items():
        w0 = min(ws)
        for w in ws:
            cells[(w0, w - w0)] = cells.get((w0, w - w0), 0) + 1
    assert set(got) == set(cells)
    for key, n in cells.items():
        assert got[key][0] == n
        assert abs(got[key][1] - round(n / cells[(key[0], 0)], 6)) < 2e-6
    # week-0 retention is 1.0 by construction
    for (c, o), (n, r) in got.items():
        if o == 0:
            assert r == 1.0


# ------------------------------------------------------- assoc rules


def test_assoc_rules_matches_set_reference(ray_session):
    from core_ray.queries import events_assoc_rules

    rng = np.random.default_rng(17)
    types = ["view", "click", "purchase", "share"]
    uid, ts, et = [], [], []
    day_us = 86_400_000_000
    for u in range(1, 25):
        for day in range(int(rng.integers(1, 5))):
            for _ in range(int(rng.integers(1, 7))):
                uid.append(u)
                ts.append((20000 + day) * day_us + int(rng.integers(0, day_us)))
                et.append(types[int(rng.integers(0, len(types)))])
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(len(uid)), pa.int64()),
                "user_id": pa.array(np.array(uid, np.int64), pa.int64()),
                "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
                "event_type": pa.array(et, pa.string()),
            }
        }
    )
    got = {
        (r["antecedent"], r["consequent"]): r
        for r in events_assoc_rules(d).to_pylist()
    }
    # independent set-based reference
    baskets = {}
    for u, t, e in zip(uid, ts, et):
        baskets.setdefault((u, t // day_us), set()).add(e)
    N = len(baskets)
    marg, joint = {}, {}
    for items in baskets.values():
        for a in items:
            marg[a] = marg.get(a, 0) + 1
        for a in items:
            for b in items:
                if a != b:
                    joint[(a, b)] = joint.get((a, b), 0) + 1
    assert set(got) == set(joint)
    for (a, b), n in joint.items():
        r = got[(a, b)]
        assert r["n_ab"] == n
        assert abs(r["support"] - round(n / N, 6)) < 2e-6
        assert abs(r["confidence"] - round(n / marg[a], 6)) < 2e-6
        assert abs(r["lift"] - round(n * N / (marg[a] * marg[b]), 6)) < 2e-6
    # symmetry invariants: n_ab == n_ba, lift symmetric
    for (a, b), r in got.items():
        assert r["n_ab"] == got[(b, a)]["n_ab"]
        assert abs(r["lift"] - got[(b, a)]["lift"]) < 2e-6


# ---------------------------------------------------- vocab coverage


def test_vocab_coverage_matches_counter_reference(ray_session):
    from collections import Counter

    from core_ray.queries import doc_vocab_coverage

    rng = np.random.default_rng(41)
    # a Zipf-ish vocab with deliberate count TIES around the k=10
    # boundary to exercise the (n desc, token asc) tie-break
    texts = []
    for i in range(300):
        toks = ["common"] * 5 + [f"mid{i % 12}"] * 2 + [f"rare{i}"]
        rng.shuffle(toks)
        texts.append(" ".join(toks))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    got = {r["k"]: r for r in doc_vocab_coverage(d).to_pylist()}
    c = Counter(w for t in texts for w in t.split())
    ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(c.values())
    for k in (10, 100, 1000, 10000):
        top = sum(n for _, n in ranked[:k])
        r = got[k]
        assert r["top_mass"] == top
        assert r["total_mass"] == total
        assert r["n_vocab"] == len(c)
        assert abs(r["coverage"] - round(top / total, 6)) < 2e-6
    assert got[10000]["coverage"] == 1.0  # vocab smaller than 10k


# -------------------------------------------- temperature sampling mix


def test_sampling_temperature_matches_reference(ray_session):
    from core_ray.queries import doc_sampling_temperature

    # skewed mix: one head language, two tails
    counts = {"en": 700, "de": 250, "ko": 50}
    texts, langs = [], []
    for lg, n in counts.items():
        for i in range(n):
            texts.append(f"doc {lg} {i}")
            langs.append(lg)
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        }
    )
    got = {r["lang"]: r for r in doc_sampling_temperature(d).to_pylist()}
    total = sum(counts.values())
    pw = {lg: (n / total) ** 0.3 for lg, n in counts.items()}
    z = sum(pw.values())
    for lg, n in counts.items():
        r = got[lg]
        share = n / total
        w = pw[lg] / z
        assert r["n_docs"] == n
        assert abs(r["raw_share"] - round(share, 6)) < 2e-6
        assert abs(r["weight"] - round(w, 6)) < 2e-6
        assert abs(r["boost"] - round(w / share, 6)) < 2e-6
        assert abs(r["per_million"] - round(w * 1e6)) <= 1
    # temperature flattening: weights sum to 1, the tail language is
    # boosted above its raw share and the head language is damped
    assert abs(sum(r["weight"] for r in got.values()) - 1.0) < 1e-5
    assert got["ko"]["boost"] > 1.0 > got["en"]["boost"]


# -------------------------------------------------------- Lorenz curve


def test_lorenz_curve_matches_sort_reference(ray_session):
    from core_ray.queries import events_lorenz_curve

    rng = np.random.default_rng(53)
    # heavy ties: counts drawn from a tiny support so decile cuts land
    # INSIDE tie runs (the case NTILE would make nondeterministic)
    uid = []
    for u in range(1, 74):
        uid.extend([u] * int(rng.choice([1, 1, 1, 2, 2, 5, 30])))
    uid = np.array(uid, np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(len(uid)), pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(
                    1_700_000_000_000_000 + np.arange(len(uid)) * 1_000_000,
                    pa.timestamp("us"),
                ),
            }
        }
    )
    got = {r["decile"]: r for r in events_lorenz_curve(d).to_pylist()}
    # independent reference: explicit sort of per-user counts
    _, counts = np.unique(uid, return_counts=True)
    counts = np.sort(counts)
    n, s = len(counts), counts.sum()
    cum = np.concatenate([[0], np.cumsum(counts)])
    for k in range(1, 11):
        j = k * n // 10
        r = got[k]
        assert r["cum_users"] == j
        assert r["cum_events"] == cum[j]
        assert abs(r["cum_user_share"] - round(j / n, 6)) < 2e-6
        assert abs(r["cum_event_share"] - round(cum[j] / s, 6)) < 2e-6
    # Lorenz invariants: convex, ends at (1, 1), below the diagonal
    assert got[10]["cum_event_share"] == 1.0
    shares = [got[k]["cum_event_share"] for k in range(1, 11)]
    assert all(b >= a for a, b in zip(shares, shares[1:]))
    assert got[5]["cum_event_share"] <= got[5]["cum_user_share"] + 1e-9


# ------------------------------------------------ seasonal decompose


def test_seasonal_decompose_matches_loop_reference(ray_session):
    from core_ray.queries import events_seasonal_decompose

    rng = np.random.default_rng(61)
    hour_us = 3_600_000_000
    # planted diurnal + weekly pattern with noise and GAP hours
    ts = []
    h0 = 490_000  # epoch hour
    for h in range(h0, h0 + 24 * 21):  # three weeks
        hod, dow = h % 24, (h // 24 + 4) % 7
        lam = 3 + (2 if 8 <= hod <= 18 else 0) + (3 if dow < 5 else 0)
        n = int(rng.poisson(lam))
        if rng.random() < 0.1:
            n = 0  # explicit gap hours (implicit zeros in the series)
        for i in range(n):
            ts.append(h * hour_us + i * 1000)
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(len(ts)), pa.int64()),
                "user_id": pa.array(np.ones(len(ts), np.int64), pa.int64()),
                "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            }
        }
    )
    rows = events_seasonal_decompose(d).to_pylist()
    got = {(r["component"], r["idx"]): r["effect"] for r in rows}
    # independent loop reference over the dense series
    hs = np.array(ts, np.int64) // hour_us
    lo, hi = hs.min(), hs.max()
    series = np.zeros(hi - lo + 1)
    for h in hs:
        series[h - lo] += 1
    hours = np.arange(lo, hi + 1)
    hod, dow = hours % 24, (hours // 24 + 4) % 7
    mu = series.mean()
    a = {k: series[hod == k].mean() - mu for k in range(24)}
    b = {k: series[dow == k].mean() - mu for k in range(7)}
    for k in range(24):
        assert abs(got[("hour", k)] - round(a[k], 6)) < 2e-6
    for k in range(7):
        assert abs(got[("dow", k)] - round(b[k], 6)) < 2e-6
    fit = series - (mu + np.array([a[x] for x in hod])
                    + np.array([b[x] for x in dow]))
    r2 = 1 - (fit**2).sum() / ((series - mu) ** 2).sum()
    assert abs(got[("fit", 0)] - round(r2, 6)) < 2e-6
    # the planted pattern must be detected in aggregate: business hours
    # above night hours, weekdays above weekend, non-trivial fit
    biz = np.mean([got[("hour", k)] for k in range(8, 19)])
    night = np.mean([got[("hour", k)] for k in list(range(8)) + [19, 23]])
    assert biz > night
    wkday = np.mean([got[("dow", k)] for k in range(5)])
    wkend = np.mean([got[("dow", k)] for k in (5, 6)])
    assert wkday > wkend
    assert got[("fit", 0)] > 0.2


# --------------------------------------------------- source cosine


def test_source_cosine_matches_dense_reference(ray_session):
    from collections import Counter

    from core_ray.queries import doc_source_cosine

    rng = np.random.default_rng(71)
    vocab = [f"w{i}" for i in range(50)]
    srcs = ["alpha", "beta", "gamma"]
    texts, source = [], []
    for s_i, s in enumerate(srcs):
        for _ in range(60):
            # source-specific vocab slice + shared head -> cosines in (0,1)
            lo = s_i * 15
            toks = list(rng.choice(vocab[lo:lo + 25], size=20)) + ["shared"]
            texts.append(" ".join(toks))
            source.append(s)
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "source": pa.array(source, pa.string()),
            }
        }
    )
    got = {
        (r["source_a"], r["source_b"]): r
        for r in doc_source_cosine(d).to_pylist()
    }
    # dense numpy reference: explicit count vectors per source
    cnt = {s: Counter() for s in srcs}
    for s, t in zip(source, texts):
        cnt[s].update(t.split())
    allw = sorted(set(w for c in cnt.values() for w in c))
    vec = {s: np.array([cnt[s][w] for w in allw], np.float64) for s in srcs}
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            lo, hi = sorted([a, b])
            r = got[(lo, hi)]
            dot = float(vec[lo] @ vec[hi])
            cos = dot / (np.linalg.norm(vec[lo]) * np.linalg.norm(vec[hi]))
            assert r["dot"] == int(dot)
            assert abs(r["cosine"] - round(cos, 6)) < 2e-6
            assert 0.0 < r["cosine"] < 1.0
    assert len(got) == 3


# ------------------------------------------------------------ AR fit


def test_ar_fit_matches_lstsq(ray_session):
    from core_ray.queries import events_ar_fit

    rng = np.random.default_rng(83)
    hour_us = 3_600_000_000
    h0 = 480_000
    # AR-ish series: diurnal base + noise, with gap hours
    ts = []
    counts = []
    for h in range(h0, h0 + 24 * 14):
        lam = 4 + 3 * np.sin(2 * np.pi * (h % 24) / 24)
        n = int(rng.poisson(max(lam, 0.1)))
        counts.append(n)
        for i in range(n):
            ts.append(h * hour_us + i * 1000)
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(len(ts)), pa.int64()),
                "user_id": pa.array(np.ones(len(ts), np.int64), pa.int64()),
                "ts": pa.array(np.array(ts, np.int64), pa.timestamp("us")),
            }
        }
    )
    got = events_ar_fit(d).to_pylist()[0]
    # independent lstsq reference on the dense series
    s = np.array(counts, np.float64)
    # leading/trailing zero-count hours shrink the observed span
    nz = np.nonzero(s)[0]
    s = s[nz[0]:nz[-1] + 1]
    y, x1, x2 = s[24:], s[23:-1], s[:-24]
    X = np.column_stack([np.ones_like(x1), x1, x2])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    r2 = 1 - (resid @ resid) / ((y - y.mean()) @ (y - y.mean()))
    assert got["n_hours"] == len(y)
    assert abs(got["b0"] - beta[0]) < 1e-4
    assert abs(got["b1"] - beta[1]) < 1e-4
    assert abs(got["b24"] - beta[2]) < 1e-4
    assert abs(got["r2"] - r2) < 1e-5
    # the planted diurnal memory must show: lag-24 coefficient positive
    assert got["b24"] > 0


# ------------------------------------------------------- edge cases


def test_assoc_rules_all_singleton_baskets(ray_session):
    """Every user-day carries exactly ONE event type: no pairs exist and
    the result is empty (the m^2 expansion's empty-keep path)."""
    from core_ray.queries import events_assoc_rules

    day_us = 86_400_000_000
    uid = np.arange(1, 31, dtype=np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(30), pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(
                    (20000 + uid % 3) * day_us, pa.timestamp("us")
                ),
                "event_type": pa.array(["view"] * 30, pa.string()),
            }
        }
    )
    t = events_assoc_rules(d)
    assert t.num_rows == 0
    assert t.column_names == [
        "antecedent", "consequent", "n_ab", "support", "confidence", "lift",
    ]


def test_cohort_matrix_single_week_users(ray_session):
    """Users active in exactly one week: only offset-0 cells, all
    retention 1.0."""
    from core_ray.queries import events_cohort_matrix
    from core_ray.queries.events_ops import _WEEK_US

    uid = np.arange(1, 21, dtype=np.int64)
    d = _write(
        {
            "events": {
                "event_id": pa.array(np.arange(20), pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "ts": pa.array(
                    (2900 + uid % 2) * _WEEK_US, pa.timestamp("us")
                ),
            }
        }
    )
    rows = events_cohort_matrix(d).to_pylist()
    assert {r["week_offset"] for r in rows} == {0}
    assert all(r["retention"] == 1.0 for r in rows)
    assert sum(r["n_users"] for r in rows) == 20


def test_source_cosine_disjoint_vocabularies(ray_session):
    """Two sources with NO shared token: the pair row is OMITTED on both
    sides (sparse contract — the Ray partial accumulator keeps only
    nonzero dots, and the SQL pairs CTE's inner join on token produces no
    row either), while a pair sharing one token appears with the exact
    tiny dot."""
    from core_ray.queries import doc_source_cosine

    d = _write(
        {
            "documents": {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["aa bb cc", "dd ee ff", "aa zz"], pa.string()
                ),
                "source": pa.array(["s1", "s2", "s3"], pa.string()),
            }
        }
    )
    rows = {
        (r["source_a"], r["source_b"]): r
        for r in doc_source_cosine(d).to_pylist()
    }
    assert ("s1", "s2") not in rows  # disjoint -> omitted
    assert ("s2", "s3") not in rows
    r = rows[("s1", "s3")]  # shares exactly 'aa' (count 1 each)
    assert r["dot"] == 1
    assert abs(r["cosine"] - round(1 / (np.sqrt(3) * np.sqrt(2)), 6)) < 2e-6


def test_vocab_coverage_single_token_corpus(ray_session):
    """One distinct token: coverage 1.0 at every k, n_vocab == 1."""
    from core_ray.queries import doc_vocab_coverage

    d = _write(
        {
            "documents": {
                "doc_id": pa.array(np.arange(5), pa.int64()),
                "text": pa.array(["same same same"] * 5, pa.string()),
            }
        }
    )
    rows = doc_vocab_coverage(d).to_pylist()
    assert all(r["coverage"] == 1.0 for r in rows)
    assert all(r["n_vocab"] == 1 for r in rows)
    assert all(r["total_mass"] == 15 for r in rows)
