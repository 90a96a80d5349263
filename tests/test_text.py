"""Tests for web-text ops: analysis kernels, dedup (exact/minhash/simhash),
embedding similarity (brute force vs oracle, LSH recall, centroids)."""

import numpy as np
import pyarrow as pa
import pytest

from core_ray.text import analysis, dedup, similarity


def _docs_table(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})


class TestAnalysisKernels:
    def test_token_counts(self):
        t = _docs_table(["a bb  ccc", "", "one"])
        out = analysis.add_token_counts(t)
        assert out["n_tokens"].to_pylist() == [3, 0, 1]
        assert out["n_chars_actual"].to_pylist() == [9, 0, 3]

    def test_quality(self):
        t = _docs_table(["a a b", ""])
        out = analysis.add_quality(t)
        assert out["n_tokens"].to_pylist() == [3, 0]
        assert out["distinct_ratio"].to_pylist()[0] == pytest.approx(2 / 3, abs=1e-6)
        assert out["mean_token_len"].to_pylist()[0] == pytest.approx(1.0)

    def test_langid(self):
        lid = analysis.LangId()
        t = _docs_table(
            [
                "the cat and the dog are in the house",
                "der Hund und die Katze sind nicht zu Hause",
                "le chat et le chien sont dans la maison pour vous",
                "xyzzy qwerty",
            ]
        )
        out = lid(t)
        assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "und"]

    def test_fingerprint_deterministic_and_shift_sensitive(self):
        a = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
        assert analysis.doc_fingerprint(a) == analysis.doc_fingerprint(a)
        # a shared window should produce the same min when it dominates
        assert analysis.doc_fingerprint("short text") != 0


class TestExactDedup:
    def test_md5_matches_duckdb(self):
        import duckdb

        texts = ["hello wörld", "héllo", ""]
        t = dedup.add_text_hash(_docs_table(texts))
        con = duckdb.connect()
        for txt, h in zip(texts, t["text_hash"].to_pylist()):
            want = con.sql("select md5(?)", params=[txt]).fetchone()[0]
            assert h == want

    def test_groups(self, ray_session):
        import ray.data

        ds = ray.data.from_arrow(_docs_table(["a", "b", "a", "c", "b", "a"]))
        out = dedup.exact_dedup_groups(ds).take_all()
        by_hash = {r["text_hash"]: (r["doc_id"], r["n_copies"]) for r in out}
        assert len(by_hash) == 3
        assert sorted(v[1] for v in by_hash.values()) == [1, 2, 3]
        # min doc_id wins
        import hashlib

        ha = hashlib.md5(b"a").hexdigest()
        assert by_hash[ha] == (0, 3)


class TestMinHash:
    def test_signature_similarity_tracks_jaccard(self):
        a = "the quick brown fox jumps over the lazy dog again and again ok"
        b = "the quick brown fox jumps over the lazy dog again and again yes"
        c = "completely different words nothing shared here at all whatsoever done"
        sa, sb, sc = (dedup.minhash_signature(t) for t in (a, b, c))
        assert dedup.estimate_jaccard(sa, sb) > 0.5
        assert dedup.estimate_jaccard(sa, sc) < 0.2

    def test_near_dups_pipeline(self, ray_session):
        import ray.data

        texts = [
            "alpha beta gamma delta epsilon zeta eta theta iota kappa",
            "alpha beta gamma delta epsilon zeta eta theta iota lambda",  # near-dup of 0
            "one two three four five six seven eight nine ten",
            "alpha beta gamma delta epsilon zeta eta theta iota kappa",  # exact dup of 0
        ]
        ds = ray.data.from_arrow(_docs_table(texts))
        pairs = dedup.minhash_near_dups(ds, threshold=0.5).take_all()
        got = {(r["id_a"], r["id_b"]) for r in pairs}
        assert (0, 3) in got  # exact dup always caught
        assert (0, 1) in got or (1, 3) in got  # near-dup caught
        assert all(not (a in (2,) or b in (2,)) for a, b in got)

    def test_identical_cluster_bounded(self, ray_session):
        """A 10k-doc byte-identical cluster must finish in bounded time and
        emit LINEAR star pairs (rep 0 <-> member, est 1.0) — never the
        quadratic all-pairs an LSH bucket would otherwise produce."""
        import time

        import ray.data

        n = 10_000
        ds = ray.data.from_arrow(
            _docs_table(["same text repeated for every single document here"] * n)
        )
        t0 = time.time()
        pairs = dedup.minhash_near_dups(ds, threshold=0.5).take_all()
        wall = time.time() - t0
        assert len(pairs) == n - 1
        assert all(r["id_a"] == 0 and r["jaccard_est"] == 1.0 for r in pairs)
        assert wall < 120, f"degenerate cluster took {wall:.0f}s"
        sh = dedup.simhash_near_dups(ds, max_hamming=3).take_all()
        assert len(sh) == n - 1
        assert all(r["id_a"] == 0 and r["hamming"] == 0 for r in sh)

    def test_ngram_jaccard(self):
        assert dedup.ngram_jaccard("abcdef", "abcdef") == 1.0
        assert dedup.ngram_jaccard("abcdef", "uvwxyz") == 0.0
        assert 0 < dedup.ngram_jaccard("abcdefgh", "abcdefxx") < 1


class TestSimHash:
    def test_identical_zero_distance(self):
        a = dedup.simhash64("the quick brown fox")
        assert a == dedup.simhash64("the quick brown fox")
        b = dedup.simhash64("the quick brown foxes")
        assert bin(a ^ b).count("1") < 32

    def test_pairs_pipeline(self, ray_session):
        import ray.data

        texts = [
            "aaa bbb ccc ddd eee fff ggg hhh",
            "aaa bbb ccc ddd eee fff ggg hhh",  # exact dup
            "totally unrelated content words here now",
        ]
        ds = ray.data.from_arrow(_docs_table(texts))
        pairs = dedup.simhash_near_dups(ds, max_hamming=3).take_all()
        got = {(r["id_a"], r["id_b"]): r["hamming"] for r in pairs}
        assert got.get((0, 1)) == 0


class TestSimilarity:
    def _emb_ds(self, n=100, d=16, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(n), pa.int64()),
                "embedding": pa.array(x.tolist(), pa.list_(pa.float32())),
            }
        )
        return t, x

    def test_brute_force_matches_numpy_oracle(self, ray_session):
        import ray.data

        t, x = self._emb_ds()
        q_ids = np.array([0, 7, 42])
        q = x[q_ids].astype(np.float64)
        ds = ray.data.from_arrow(t)
        got = similarity.brute_force_topk(ds, q_ids, q, k=5).take_all()
        xn = x.astype(np.float64)
        xn = xn / np.linalg.norm(xn, axis=1, keepdims=True)
        for qi in q_ids:
            sims = xn @ xn[qi]
            sims[qi] = -np.inf
            want = np.argsort(-sims, kind="stable")[:5].tolist()
            mine = [r["vec_id"] for r in sorted(
                (r for r in got if r["query_id"] == qi), key=lambda r: r["rank"])]
            assert mine == want, qi

    def test_lsh_recall_reasonable(self, ray_session):
        import ray.data

        t, x = self._emb_ds(n=400)
        q_ids = np.arange(0, 400, 50)
        ds = ray.data.from_arrow(t)
        res = similarity.lsh_ann_topk(ds, q_ids, k=3).take_all()
        # every query must at least be answered (bucket contains the query)
        answered = {r["query_id"] for r in res}
        assert answered  # approximate: some queries may be alone in a bucket
        for r in res:
            assert r["query_id"] != r["vec_id"]

    def test_label_centroids(self, ray_session):
        import ray.data

        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4)).astype(np.float32)
        labels = np.array([i % 3 for i in range(60)], dtype=np.int32)
        t = pa.table(
            {
                "label": pa.array(labels, pa.int32()),
                "embedding": pa.array(x.tolist(), pa.list_(pa.float32())),
            }
        )
        got = similarity.label_centroids(ray.data.from_arrow(t)).take_all()
        for r in got:
            lab, dim = r["label"], r["dim"] - 1
            want = round(float(x[labels == lab, dim].astype(np.float64).mean()), 6)
            assert r["mean_val"] == pytest.approx(want, abs=2e-6)


class TestIvfAnn:
    def test_recall_vs_brute_force(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data

        from core_ray.text import similarity

        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 16)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": pa.array(range(400), pa.int64()),
                "embedding": pa.array(x.tolist(), pa.list_(pa.float32())),
            }
        )
        q_ids = np.arange(0, 400, 80)
        ds = ray.data.from_arrow(t)
        ivf = similarity.ivf_ann_topk(ds, q_ids, k=5, n_clusters=8, nprobe=3)
        got = {}
        for r in ivf.take_all():
            got.setdefault(r["query_id"], set()).add(r["vec_id"])
        brute = similarity.brute_force_topk(
            ds, q_ids, x[q_ids].astype(np.float64), k=5
        )
        want = {}
        for r in brute.take_all():
            want.setdefault(r["query_id"], set()).add(r["vec_id"])
        # nprobe=3/8 buckets: expect decent but not perfect recall
        recalls = [len(got.get(q, set()) & want[q]) / len(want[q]) for q in want]
        assert sum(recalls) / len(recalls) >= 0.5, recalls
        for q, vs in got.items():
            assert q not in vs  # self excluded


class TestVerifyJoined:
    def test_joined_equals_broadcast(self, ray_session):
        """The re-join verify path (no corpus broadcast) must match the
        broadcast-dict variant exactly."""
        import ray
        import ray.data

        texts = [
            "alpha beta gamma delta epsilon zeta eta theta",
            "alpha beta gamma delta epsilon zeta eta thetb",
            "one two three four five six seven eight",
            "completely different text with other words here",
        ]
        docs = _docs_table(texts)
        pairs = pa.table(
            {
                "id_a": pa.array([0, 0, 2], pa.int64()),
                "id_b": pa.array([1, 2, 3], pa.int64()),
            }
        )
        by_id = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
        bd = dedup.verify_pairs_exact(
            ray.data.from_arrow(pairs), by_id, threshold=0.2
        ).take_all()
        jn = dedup.verify_pairs_joined(
            ray.data.from_arrow(pairs), ray.data.from_arrow(docs), threshold=0.2
        ).take_all()
        key = lambda r: (r["id_a"], r["id_b"], r["jaccard"])
        assert sorted(map(key, bd)) == sorted(map(key, jn))
        assert len(bd) > 0

    def test_shuffle_regime_equals_broadcast(self, ray_session, monkeypatch):
        """The corpus filter is a lookup_join semi join: forcing its shuffle
        regime (no id set on the driver) gives the same pairs."""
        import ray.data

        from core_ray.stages import join

        texts = [f"w{i % 7} w{i % 5} w{i % 3} alpha beta gamma delta" for i in range(60)]
        docs = _docs_table(texts)
        pairs = pa.table({
            "id_a": pa.array(list(range(0, 50, 2)), pa.int64()),
            "id_b": pa.array(list(range(1, 51, 2)), pa.int64()),
        })

        def run():
            return sorted(
                (r["id_a"], r["id_b"], r["jaccard"])
                for r in dedup.verify_pairs_joined(
                    ray.data.from_arrow(pairs), ray.data.from_arrow(docs).repartition(4),
                    threshold=0.2,
                ).take_all()
            )

        broadcast = run()
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
        assert run() == broadcast
        assert len(broadcast) > 0


class TestWordNgrams:
    """_word_ngrams: the vectorized gram builder under contamination/novelty."""

    def test_grams_match_python_reference(self):
        from core_ray.queries.doc_dedup import _word_ngrams

        texts = ["a b c d", "x y", "", "p q r"]
        ridx, grams, _ = _word_ngrams(pa.array(texts), 3)
        ref = []
        for i, t in enumerate(texts):
            w = t.split(" ")
            ref += [(i, " ".join(w[j : j + 3])) for j in range(len(w) - 2)]
        assert list(zip(ridx.tolist(), grams.tolist())) == ref

    def test_no_cross_row_grams(self):
        from core_ray.queries.doc_dedup import _word_ngrams

        # last word of row 0 + first of row 1 must never form a gram
        ridx, grams, _ = _word_ngrams(pa.array(["a b", "c d"]), 2)
        assert grams.tolist() == ["a b", "c d"]
        assert ridx.tolist() == [0, 1]

    def test_all_rows_too_short(self):
        from core_ray.queries.doc_dedup import _word_ngrams

        ridx, grams, _ = _word_ngrams(pa.array(["a", "b"]), 8)
        assert len(ridx) == 0 and len(grams) == 0


class TestLevLe1:
    """_lev_le1 verify kernel under doc_typo_pairs (FastSS candidates)."""

    def test_against_bruteforce(self):
        import itertools

        from core_ray.queries.doc_dedup import _lev_le1

        def lev(a, b):
            if len(a) < len(b):
                a, b = b, a
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
                prev = cur
            return prev[-1]

        words = ["", "a", "ab", "ba", "abc", "abd", "acb", "abcd", "bbcd",
                 "aabb", "abab", "xyz", "xxyz", "xyzz", "yz"]
        for a, b in itertools.product(words, repeat=2):
            assert _lev_le1(a, b) == (lev(a, b) <= 1), (a, b)

    def test_false_positive_candidates_filtered(self):
        # 'ab'/'ba' share deletion variant 'a' (and 'b') but lev = 2
        from core_ray.queries.doc_dedup import _lev_le1

        assert not _lev_le1("ab", "ba")
        assert not _lev_le1("abcde", "edcba")
