"""Real media leg (round 5): BMP codec round trips, fail-loud decode
guards, numpy-engine vs pure-Python-golden cross-implementation parity,
and the banded pHash path vs a brute-force all-pairs reference."""

from __future__ import annotations

import itertools
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

import core_ray.fixtures.media_golden as G
from core_ray.media import (
    ahash64,
    box_cells,
    box_resize_rgb,
    decode_bmp,
    encode_bmp,
    feature_cells,
    gray_of,
    synth_image,
)
from core_ray.media.ops import thumb_dims

IDS = [0, 1, 5, 6, 7, 13, 14, 42, 100, 999, 4242, 123456]


class TestBmpCodec:
    def test_round_trip_random_images(self):
        rng = np.random.default_rng(3)
        for h, w in [(1, 1), (2, 3), (16, 16), (33, 47), (48, 21)]:
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            assert np.array_equal(decode_bmp(encode_bmp(img)), img)

    def test_row_padding_is_zeroed_and_stride_correct(self):
        img = np.full((2, 3, 3), 200, np.uint8)  # 9-byte rows pad to 12
        blob = encode_bmp(img)
        assert len(blob) == 54 + 2 * 12
        assert blob[54 + 9: 54 + 12] == b"\x00\x00\x00"

    def test_top_down_negative_height_decodes(self):
        img = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
        blob = bytearray(encode_bmp(img))
        # flip to top-down: negate height, reverse the stored row order
        struct.pack_into("<i", blob, 22, -2)
        stride = 8
        rows = blob[54:]
        blob[54:] = rows[stride:] + rows[:stride]
        assert np.array_equal(decode_bmp(bytes(blob)), img)

    def test_fail_loud_on_garbage_and_unsupported(self):
        with pytest.raises(ValueError):
            decode_bmp(b"not a bmp at all" * 10)
        img = np.zeros((4, 4, 3), np.uint8)
        blob = bytearray(encode_bmp(img))
        struct.pack_into("<H", blob, 28, 8)  # bpp 8
        with pytest.raises(NotImplementedError):
            decode_bmp(bytes(blob))
        blob = bytearray(encode_bmp(img))
        struct.pack_into("<I", blob, 30, 1)  # BI_RLE8
        with pytest.raises(NotImplementedError):
            decode_bmp(bytes(blob))
        with pytest.raises(ValueError):
            decode_bmp(encode_bmp(img)[:-5])  # truncated pixel data


class TestCrossImplementationParity:
    def test_blob_bytes_identical(self):
        for d in IDS:
            w, h, rows = G.synth_pixels(d)
            assert G.encode_bmp(w, h, rows) == encode_bmp(synth_image(d))

    def test_golden_decodes_engine_blob_and_agrees(self):
        for d in IDS:
            blob = encode_bmp(synth_image(d))
            gw, gh, grows = G.decode_bmp(blob)
            img = decode_bmp(blob)
            assert (gh, gw) == img.shape[:2]
            gray = gray_of(img)
            ggray = G.gray_rows(grows)
            assert gray.tolist() == ggray
            assert ahash64(gray) == G.ahash64(ggray, gw, gh)
            assert feature_cells(gray) == [
                c / 255.0 for c in G.box_cells(ggray, gw, gh, 4, 2)
            ]

    def test_thumbnail_bytes_and_crc_match_golden(self):
        t = G.golden_media(IDS)
        for i, d in enumerate(IDS):
            img = decode_bmp(encode_bmp(synth_image(d)))
            h, w = img.shape[:2]
            tw, th = thumb_dims(w, h)
            tblob = encode_bmp(box_resize_rgb(img, tw, th))
            assert t["thumb_w"][i].as_py() == tw
            assert t["thumb_h"][i].as_py() == th
            assert t["thumb_bytes"][i].as_py() == len(tblob)
            assert t["thumb_crc"][i].as_py() == zlib.crc32(tblob)


class TestKernels:
    def test_box_cells_exact_means(self):
        g = np.arange(16, dtype=np.int64).reshape(4, 4)
        c = box_cells(g, 2, 2)
        assert c.tolist() == [[(0 + 1 + 4 + 5) // 4, (2 + 3 + 6 + 7) // 4],
                              [(8 + 9 + 12 + 13) // 4, (10 + 11 + 14 + 15) // 4]]

    def test_box_cells_refuses_upscale(self):
        with pytest.raises(ValueError):
            box_cells(np.zeros((4, 4), np.int64), 8, 2)

    def test_hash_structure_groups_of_seven(self):
        hs = [ahash64(gray_of(synth_image(i))) for i in range(21)]
        for a, b in itertools.combinations(range(21), 2):
            hd = bin(hs[a] ^ hs[b]).count("1")
            if a // 7 == b // 7:
                assert hd == 0  # constant-luma marker: identical gray plane
            else:
                assert hd > 3


class TestVideoFrames:
    def test_chain_walk_round_trip(self):
        from core_ray.media.video import split_frames, synth_frame, synth_video

        for d in (0, 3, 11, 999):
            blob = synth_video(d)
            frames = split_frames(blob)
            assert len(frames) == 3 + (d % 5)
            for f, fb in enumerate(frames):
                assert np.array_equal(decode_bmp(fb), synth_frame(d, f))

    def test_chain_fails_loud_on_truncation_and_garbage(self):
        from core_ray.media.video import split_frames, synth_video

        blob = synth_video(5)
        with pytest.raises(ValueError):
            split_frames(blob[:-10])
        with pytest.raises(ValueError):
            split_frames(blob + b"XX garbage")

    def test_golden_frames_agree_with_engine(self):
        from core_ray.media.video import split_frames, synth_video

        ids = [0, 1, 4, 7, 42]
        t = G.golden_frames(ids)
        rows = t.to_pylist()
        for d in ids:
            frames = split_frames(synth_video(d))
            mine = [
                ahash64(gray_of(decode_bmp(fb))) for fb in frames
            ]
            golden = [r["frame_ahash"] for r in rows if r["doc_id"] == d]
            assert golden == mine

    def test_frame_sample_actor_strides_and_hashes(self):
        from core_ray.media.video import synth_video
        from core_ray.queries.media import FrameSample

        t = pa.table(
            {
                "doc_id": pa.array([9], pa.int64()),
                "media": pa.array([synth_video(9)], pa.binary()),
            }
        )
        out = FrameSample(stride=2)(t)
        n_frames = 3 + (9 % 5)
        assert out["frame_idx"].to_pylist() == list(range(0, n_frames, 2))
        assert out["frame_offset_ms"].to_pylist() == [
            i * 40 for i in range(0, n_frames, 2)
        ]


def test_phash_pairs_match_brute_force(ray_session):
    """The banded distributed path over real decoded hashes must equal the
    all-pairs brute force (exact for max_hamming <= 3 by pigeonhole)."""
    import ray

    from core_ray.queries.media import MediaAHash
    from core_ray.text.dedup import hamming_band_pairs

    ids = list(range(40)) + [200, 201, 202, 500]
    blobs = [encode_bmp(synth_image(i)) for i in ids]
    t = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "media": pa.array(blobs, pa.binary()),
        }
    )
    sig = ray.data.from_arrow(t).map_batches(
        MediaAHash, batch_format="pyarrow", batch_size=8, concurrency=1
    )
    got = hamming_band_pairs(sig, "doc_id", "phash", 3, pa.int64()).take_all()
    got_set = {(r["id_a"], r["id_b"], r["hamming"]) for r in got}
    hs = {i: ahash64(gray_of(synth_image(i))) for i in ids}
    want = {
        (a, b, bin(hs[a] ^ hs[b]).count("1"))
        for a, b in itertools.combinations(sorted(ids), 2)
        if bin(hs[a] ^ hs[b]).count("1") <= 3
    }
    assert got_set == want and len(want) > 50
