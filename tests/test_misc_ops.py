"""Tests: crypto map, stage registry extension surface, media decode stub."""

import hashlib

import pyarrow as pa
import pytest

from core_ray.text import crypto


class TestCrypto:
    KEY = hashlib.sha256(b"test-key").digest()

    def test_roundtrip(self):
        for msg in [b"", b"hello", "unicode wörld 東京".encode("utf-8"), b"x" * 10000]:
            assert crypto.decrypt(self.KEY, crypto.encrypt(self.KEY, msg)) == msg

    def test_tamper_detected(self):
        env = crypto.encrypt(self.KEY, b"payload")
        import base64

        raw = bytearray(base64.b64decode(env))
        raw[30] ^= 0xFF
        with pytest.raises(ValueError, match="authentication"):
            crypto.decrypt(self.KEY, base64.b64encode(bytes(raw)).decode())

    def test_wrong_key_fails(self):
        env = crypto.encrypt(self.KEY, b"payload")
        other = hashlib.sha256(b"other").digest()
        with pytest.raises(ValueError):
            crypto.decrypt(other, env)

    def test_nonce_uniqueness(self):
        a = crypto.encrypt(self.KEY, b"same message")
        b = crypto.encrypt(self.KEY, b"same message")
        assert a != b  # random nonces

    def test_encryptor_batch(self):
        enc = crypto.Encryptor(self.KEY)
        t = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["alpha", "beta"]})
        out = enc(t)
        assert crypto.decrypt(self.KEY, out["text_enc"][0].as_py()) == b"alpha"
        # deterministic per-id nonce -> stable envelope
        assert out["text_enc"][0].as_py() == enc(t)["text_enc"][0].as_py()


class TestStageRegistry:
    def test_builtin_stages_registered(self):
        import core_ray.stages  # noqa: F401  (import side-effect registers)
        from core_ray.config import STAGE_REGISTRY

        for name in ("extract", "geocode", "cellencode", "pip", "analyze"):
            assert name in STAGE_REGISTRY, name

    def test_custom_stage_registration(self):
        from core_ray.config import STAGE_REGISTRY, register_stage

        @register_stage("my-custom-stage")
        class MyStage:
            def __call__(self, batch):
                return batch

        assert STAGE_REGISTRY["my-custom-stage"] is MyStage
        del STAGE_REGISTRY["my-custom-stage"]


class TestMediaDecode:
    def test_decode_actor_schema_and_determinism(self):
        from core_ray.media import encode_bmp, synth_image
        from core_ray.queries.media import MediaDecode

        actor = MediaDecode()
        blobs = [encode_bmp(synth_image(i)) for i in (1, 2)]
        t = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "media": pa.array(blobs, pa.binary()),
            }
        )
        out = actor(t)
        assert out.column_names == ["doc_id", "media_bytes", "width", "height", "feature"]
        assert out["media_bytes"].to_pylist() == [len(b) for b in blobs]
        out2 = actor(t)
        assert out.equals(out2)  # deterministic real decode


class TestEmbNearDupChunked:
    def test_chunked_equals_single_chunk(self, ray_session):
        """Block-nested-loop exact near-dup: forcing many small chunks
        (cross-chunk pairs in both id orientations) must match the
        single-chunk result exactly."""
        from core_ray.compare import to_arrow
        from core_ray.queries import emb_near_dup_pairs

        sf = "/root/testdata/sf0.001"

        def rows(t):
            return sorted(
                zip(t["vec_id_a"].to_pylist(), t["vec_id_b"].to_pylist(), t["sim"].to_pylist())
            )

        one = rows(to_arrow(emb_near_dup_pairs(sf)))
        many = rows(to_arrow(emb_near_dup_pairs(sf, chunk_rows=16)))
        assert one == many and len(one) > 0


def test_q10_broadcast_and_shuffle_paths_agree(ray_session, monkeypatch):
    """q10's adaptive join (broadcast orders map vs hash_join) must be a
    pure strategy choice — identical output either way."""
    from core_ray.queries import relational as Q
    from core_ray.stages import join

    sf = "/root/testdata/sf0.001"
    a = Q.q10_returned_revenue(sf)
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)  # force the hash_join path
    b = Q.q10_returned_revenue(sf)
    assert a.equals(b)


@pytest.mark.parametrize(
    "name",
    ["q14_promo_revenue", "q16_supplier_cnt", "q17_small_qty_revenue", "q19_disjunctive_revenue",
     "q2_min_cost_supplier", "q3_top_orders", "q5_region_revenue", "q7_nation_volume",
     "q8_market_share", "q9_profit_proxy", "q12_priority_class", "q15_top_supplier",
     "q20_excess_shippers", "q22_idle_balance", "cust_no_orders"],
)
def test_relational_wave3_paths_agree(ray_session, monkeypatch, name):
    """Every relational lookup (stages/join.lookup_join: sorted-array
    broadcast vs hash_join) must be a pure strategy choice — identical rows
    either way."""
    from core_ray.collect import collect_table
    from core_ray.queries import relational as Q
    from core_ray.stages import join

    sf = "/root/testdata/sf0.001"

    def rows(t):
        t = t if isinstance(t, pa.Table) else collect_table(t)
        cols = sorted(t.column_names)
        return sorted(zip(*[t[c].to_pylist() for c in cols]), key=str)

    a = rows(getattr(Q, name)(sf))
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)  # force the hash_join path
    b = rows(getattr(Q, name)(sf))
    assert a == b and len(a) > 0


def test_funnel_accepts_pre_epoch_timestamps(ray_session, tmp_path):
    """Stage-0 threshold must be -inf, not -1us: pre-1970 events qualify."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from core_ray.queries import events_funnel

    ts = np.array(
        ["1969-12-31T23:59:59", "1970-01-01T00:00:01", "1970-01-01T00:00:02"],
        dtype="datetime64[us]",
    )
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array(ts),
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "event_type": pa.array(["view", "click", "purchase"], pa.string()),
            "value": pa.array([1.0, 2.0, 3.0], pa.float64()),
            "props": pa.array(["{}"] * 3, pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = {r["stage"]: r["n_users"] for r in events_funnel(str(tmp_path)).to_pylist()}
    assert out == {"view": 1, "view>click": 1, "view>click>purchase": 1}


def test_silhouette_multichunk_equivalent(ray_session):
    """Forced small chunks exercise the cross-chunk (ci != cj) orientation
    paths of the block-nested-loop; output must equal the single-chunk run."""
    import pyarrow.compute as pc

    from core_ray.collect import collect_table
    from core_ray.queries import emb_silhouette

    sf = "/root/testdata/sf0.001"

    def canon(t):
        t = t.select(["vec_id", "label", "sil"])
        return t.take(pc.sort_indices(t, sort_keys=[("vec_id", "ascending")]))

    one = canon(collect_table(emb_silhouette(sf, chunk_rows=1024)))
    many = canon(collect_table(emb_silhouette(sf, chunk_rows=64)))
    assert one.num_rows == many.num_rows > 0
    assert canon(one).equals(canon(many))


def test_unigram_surprisal_paths_equivalent(ray_session, monkeypatch):
    """BROADCAST_MAX_BYTES=0 forces the distributed hash-join scoring path; it
    must be value-identical to the broadcast path (the adaptive-guard
    contract every broadcast in the repo carries)."""
    import pyarrow.compute as pc

    from core_ray.collect import collect_table
    from core_ray.queries import doc_unigram_surprisal
    from core_ray.stages import join

    sf = "/root/testdata/sf0.001"

    def canon(t):
        t = t.select(["doc_id", "n_tokens", "sum_micro", "mean_sur"])
        return t.take(pc.sort_indices(t, sort_keys=[("doc_id", "ascending")]))

    bc = canon(collect_table(doc_unigram_surprisal(sf)))
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    dj = canon(collect_table(doc_unigram_surprisal(sf)))
    assert bc.num_rows == dj.num_rows > 0
    assert bc.equals(dj)


def test_minhash_near_dups_forced_shuffle_equivalent(ray_session, monkeypatch):
    """minhash_near_dups re-attaches signatures to its candidate pairs by
    lookup_join; with BROADCAST_MAX_BYTES=0 every attach shuffles, and the
    pairs must equal the broadcast run's."""
    import numpy as np
    import ray

    from core_ray.collect import collect_table
    from core_ray.stages import join
    from core_ray.text.dedup import minhash_near_dups

    # 40 random 30-word docs, each followed by a copy with one word changed
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(300)]
    texts = []
    for _ in range(40):
        words = list(rng.choice(vocab, 30))
        texts.append(" ".join(words))
        words[int(rng.integers(30))] = "changed"
        texts.append(" ".join(words))
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                     "text": pa.array(texts)})

    def pairs():
        ds = ray.data.from_arrow(docs).repartition(4)
        t = collect_table(minhash_near_dups(ds, threshold=0.5))
        return sorted(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist(),
                          t["jaccard_est"].to_pylist()))

    a = pairs()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = pairs()
    assert a == b and len(a) > 0
