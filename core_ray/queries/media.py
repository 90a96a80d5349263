"""Media queries over the media table: decode, thumbnails, frame sampling,
perceptual hashes and PSNR, checked against the media goldens.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from core_ray.fixtures import media_golden as mg
from core_ray.media import (
    ahash64, box_resize_rgb, decode_bmp, encode_bmp, feature_cells, gray_of, synth_image,
)
from core_ray.media.ops import thumb_dims
from core_ray.media.video import split_frames, synth_video
from core_ray.queries._shared import (
    _DGD, _DOCS_GOLDEN_SF, _docs_golden_dir, _p, _read, _sf_of, query,
)
from core_ray.rounding import sql_round_np
from core_ray.text.dedup import hamming_band_pairs


# ---------------------------------------------------------------- multimodal
# REAL image leg (round 5 — replaces the r4 integer-arithmetic stubs): the
# media column carries real encoded BMP payloads (core_ray/media/bmp.py, a
# from-scratch public-format codec — no image libraries in this env, none
# needed for uncompressed BI_RGB), and every stage decodes real pixels.
# Oracle: an INDEPENDENT pure-Python implementation (fixtures/media_golden.py,
# dict/loop style — the docs_golden pattern) writes a golden parquet that the
# SQL reads; the two codecs are additionally cross-checked byte-for-byte in
# tests/test_media.py. Reference analog for "real heavy per-doc kernel":
# pkg/parser/strategies/shared/jstest/parser.go:160-483.


def _media_blobs(sf_dir: str):
    """documents -> (doc_id, media: binary) with REAL encoded BMP payloads
    (media/ops.synth_image -> media/bmp.encode_bmp): the deterministic
    synthetic stand-in for a crawl's image column. Generated in tasks —
    at 100 TB the blobs come off storage instead; everything downstream
    is payload-source-agnostic."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def synth(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        blobs = [encode_bmp(synth_image(int(i))) for i in ids]
        return pa.table(
            {"doc_id": b["doc_id"], "media": pa.array(blobs, pa.binary())}
        )

    return ds.map_batches(synth, batch_format="pyarrow", batch_size=2048)


class MediaDecode:
    """REAL decode+featurize actor: (doc_id, media: binary BMP) ->
    (doc_id, media_bytes, width, height, feature[8]). Decodes actual
    pixels per row (numpy frombuffer/reshape — the per-image kernel is
    vectorized; the per-row loop is the decode kernel itself, same class
    as the text analyzers) and emits the 4x2 block-luma feature vector.
    Small batches + actor pool because decoded pixels are ~16x the blob."""

    def __init__(self):
        self._decode, self._gray, self._feat = decode_bmp, gray_of, feature_cells

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["media"].to_pylist()
        nb = np.empty(len(blobs), np.int64)
        w = np.empty(len(blobs), np.int32)
        h = np.empty(len(blobs), np.int32)
        feats = []
        for i, blob in enumerate(blobs):
            img = self._decode(blob)
            nb[i] = len(blob)
            h[i], w[i] = img.shape[:2]
            feats.append(self._feat(self._gray(img)))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "media_bytes": pa.array(nb, pa.int64()),
                "width": pa.array(w, pa.int32()),
                "height": pa.array(h, pa.int32()),
                # list child named "l" to byte-match the SQL oracle's Arrow
                # export (DuckDB names list children "l"; the driver hash is
                # schema-type-sensitive)
                "feature": pa.array(
                    feats, pa.list_(pa.field("l", pa.float64()))
                ),
            }
        )


@query(sql=f"""
SELECT doc_id, media_bytes, width, height, feature
FROM read_parquet('{_DGD}/media.parquet')
""")
def media_features(sf_dir: str):
    _ensure_media_golden(sf_dir)
    media = _media_blobs(sf_dir)
    return media.map_batches(
        MediaDecode, batch_format="pyarrow", batch_size=512, concurrency=(1, 4)
    )


class MediaThumbnail:
    """REAL decode -> box-resize -> re-encode actor, task-fused so decoded
    pixels and thumb payloads never enter the object store separately
    (the flagship html-never-in-plasma pattern): (doc_id, media) ->
    (doc_id, thumb_w, thumb_h, thumb_bytes, thumb_crc). thumb_bytes is the
    real re-encoded BMP size and thumb_crc its crc32 — proof real pixels
    flowed through the resize."""

    def __init__(self, max_side: int = 16):
        self.max_side = max_side
        self._decode, self._encode = decode_bmp, encode_bmp
        self._resize, self._dims, self._crc = box_resize_rgb, thumb_dims, zlib.crc32

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["media"].to_pylist()
        n = len(blobs)
        tw = np.empty(n, np.int32)
        th = np.empty(n, np.int32)
        tb = np.empty(n, np.int64)
        crc = np.empty(n, np.int64)
        for i, blob in enumerate(blobs):
            img = self._decode(blob)
            h, w = img.shape[:2]
            tw[i], th[i] = self._dims(w, h, self.max_side)
            tblob = self._encode(self._resize(img, int(tw[i]), int(th[i])))
            tb[i] = len(tblob)
            crc[i] = self._crc(tblob)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "thumb_w": pa.array(tw, pa.int32()),
                "thumb_h": pa.array(th, pa.int32()),
                "thumb_bytes": pa.array(tb, pa.int64()),
                "thumb_crc": pa.array(crc, pa.int64()),
            }
        )


@query(sql=f"""
SELECT doc_id, thumb_w, thumb_h, thumb_bytes, thumb_crc
FROM read_parquet('{_DGD}/media.parquet')
""")
def media_thumbnails(sf_dir: str):
    """Real thumbnail chain over the opaque media column: decode + resize
    + re-encode fused in one actor stage."""
    _ensure_media_golden(sf_dir)
    media = _media_blobs(sf_dir)
    return media.map_batches(
        MediaThumbnail, batch_format="pyarrow", batch_size=512, concurrency=(1, 4)
    )


class FrameSample:
    """REAL frame-sampling actor (round 5 — the video leg's last stub
    replaced): the media payload is a BMP-chain video (media/video.py:
    concatenated standard frames, each frame's own header carries its
    size). One input row explodes into one row per SAMPLED frame
    (every ``stride``-th), each frame actually decoded and average-hashed
    — (doc_id, frame_idx, frame_offset_ms, frame_ahash). Chain walk +
    decode + hash all fused per actor call; truncated chains fail loud."""

    def __init__(self, stride: int = 2):
        self.stride = stride
        self._split = split_frames
        self._decode, self._gray, self._hash = decode_bmp, gray_of, ahash64

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_id, out_idx, out_hash = [], [], []
        for i, blob in enumerate(batch["media"].to_pylist()):
            frames = self._split(blob)
            for f in range(0, len(frames), self.stride):
                out_id.append(int(ids[i]))
                out_idx.append(f)
                out_hash.append(self._hash(self._gray(self._decode(frames[f]))))
        idx = np.asarray(out_idx, np.int64)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "frame_idx": pa.array(idx, pa.int64()),
                "frame_offset_ms": pa.array(idx * 40, pa.int64()),  # 25 fps
                "frame_ahash": pa.array(np.asarray(out_hash, np.uint64), pa.uint64()),
            }
        )


@query(sql=f"""
SELECT doc_id, frame_idx, frame_offset_ms, frame_ahash
FROM read_parquet('{_DGD}/media_frames.parquet')
WHERE frame_idx % 2 = 0
""")
def media_frames(sf_dir: str):
    """Frame-sampling explode over BMP-chain video payloads (flat-map
    shape: one row in, one row per sampled frame out, every frame REALLY
    decoded + hashed). Oracle: the independent pure-Python golden walks
    and hashes every frame; the SQL takes its frame_idx % stride slice."""
    _ensure_media_golden(sf_dir)
    ds = _read(sf_dir, "documents", ["doc_id"])

    def to_media(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "media": pa.array(
                    [synth_video(int(i)) for i in ids], pa.binary()
                ),
            }
        )

    media = ds.map_batches(to_media, batch_format="pyarrow", batch_size=2048)
    return media.map_batches(
        FrameSample, batch_format="pyarrow", batch_size=512, concurrency=(1, 4)
    )


class MediaAHash:
    """REAL perceptual-hash actor: decode BMP pixels -> integer luma ->
    8x8 box cells -> 64-bit average hash (media/ops.ahash64)."""

    def __init__(self):
        self._decode, self._gray, self._hash = decode_bmp, gray_of, ahash64

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["media"].to_pylist()
        ph = np.empty(len(blobs), np.uint64)
        for i, blob in enumerate(blobs):
            ph[i] = self._hash(self._gray(self._decode(blob)))
        return pa.table(
            {"doc_id": batch["doc_id"], "phash": pa.array(ph, pa.uint64())}
        )


@query(sql=f"""
WITH p AS (
  SELECT doc_id, ahash FROM read_parquet('{_DGD}/media.parquet'))
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(bit_count(xor(a.ahash, b.ahash)) AS INTEGER) AS hamming
FROM p a JOIN p b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.ahash, b.ahash)) <= 3
""")
def media_phash_pairs(sf_dir: str, max_hamming: int = 3):
    """Perceptual-hash near-dup dedup over the media family with REAL
    pixel hashes (round 5): decode -> average-hash per image, then the
    SAME distributed 4x16-bit banding machinery as simhash
    (text/dedup.hamming_band_pairs). With max_hamming <= 3 the banding is
    EXACT (pigeonhole over 4 bands), so the oracle — an all-pairs
    bit_count(xor(...)) over the INDEPENDENT pure-Python golden's hashes —
    checks the full distributed path, not an approximation. The synthetic
    corpus groups doc_ids by sevens sharing pixels except a constant-luma
    color marker, so same-group pairs sit at hamming 0 and cross-group
    pairs far above the threshold."""
    _ensure_media_golden(sf_dir)
    sig = _media_blobs(sf_dir).map_batches(
        MediaAHash, batch_format="pyarrow", batch_size=512, concurrency=(1, 4)
    )
    return hamming_band_pairs(sig, "doc_id", "phash", max_hamming, pa.int64())


class MediaPsnr:
    """REAL thumbnail round-trip quality actor: decode -> 16-box thumb ->
    NEAREST-upscale back to (w, h) (floor source map y*th//h, x*tw//w) ->
    exact integer SSE against the original over all RGB samples, PSNR =
    10*log10(255^2 * n / sse) (NULL when lossless, i.e. the image already
    fits the thumb box). The SSE is an int64 on both sides, so the hash
    checks the pixel arithmetic exactly; the PSNR is one log10 of an
    exact int ratio, micro-rounded."""

    def __init__(self, max_side: int = 16):
        self.max_side = max_side
        self._decode, self._resize, self._dims = decode_bmp, box_resize_rgb, thumb_dims

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["media"].to_pylist()
        n = len(blobs)
        sse = np.empty(n, np.int64)
        npx = np.empty(n, np.int64)
        psnr = np.full(n, np.nan, np.float64)
        for i, blob in enumerate(blobs):
            img = self._decode(blob).astype(np.int64)
            h, w = img.shape[:2]
            tw, th = self._dims(w, h, self.max_side)
            thumb = self._resize(img.astype(np.uint8), tw, th).astype(np.int64)
            up = thumb[(np.arange(h) * th) // h][:, (np.arange(w) * tw) // w]
            d = img - up
            s = int((d * d).sum())
            sse[i] = s
            npx[i] = w * h * 3
            if s > 0:
                psnr[i] = float(
                    sql_round_np(
                        10.0 * np.log10(255.0 * 255.0 * npx[i] / s), 6
                    )
                )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sse": pa.array(sse, pa.int64()),
                "n_px": pa.array(npx, pa.int64()),
                "psnr_db": pa.array(
                    [None if np.isnan(p) else p for p in psnr], pa.float64()
                ),
            }
        )


@query(sql=f"""
SELECT doc_id, sse, n_px, psnr_db
FROM read_parquet('{_DGD}/media_psnr.parquet')
""")
def media_psnr(sf_dir: str):
    """Thumbnail round-trip PSNR per image — the quality-loss eval next to
    media_thumbnails' byte/crc proof: how much signal the 16-box thumb
    actually destroys, measured on real pixels."""
    _ensure_media_golden(sf_dir)
    media = _media_blobs(sf_dir)
    return media.map_batches(
        MediaPsnr, batch_format="pyarrow", batch_size=512, concurrency=(1, 4)
    )


def _ensure_media_golden(sf_dir: str) -> None:
    """Write the independent pure-Python media golden parquets (features,
    ahash, thumbnail stats per doc; per-frame index/offset/ahash for the
    video leg; thumbnail round-trip PSNR) at the driver-correctness scale
    — the oracle surface for the five real-media queries."""
    if _sf_of(sf_dir) != _DOCS_GOLDEN_SF:
        return
    root = _docs_golden_dir()
    path = f"{root}/media.parquet"
    fpath = f"{root}/media_frames.parquet"
    ppath = f"{root}/media_psnr.parquet"
    if os.path.exists(path) and os.path.exists(fpath) and os.path.exists(ppath):
        return
    os.makedirs(root, exist_ok=True)
    ids = pq.read_table(_p(sf_dir, "documents"), columns=["doc_id"])[
        "doc_id"
    ].to_pylist()
    if not os.path.exists(path):
        pq.write_table(mg.golden_media(ids), path)
    if not os.path.exists(fpath):
        pq.write_table(mg.golden_frames(ids), fpath)
    pq.write_table(mg.golden_psnr(ids), ppath)
