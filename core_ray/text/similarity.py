"""Embedding similarity: brute-force cosine top-k, LSH-bucketed ANN, centroids.

Patterns (per the brief's similarity-search requirement):
- brute-force top-k: the BASELINE — query matrix shipped once per actor
  (``fn_constructor_args``), each batch computes a numpy matmul against it and emits only its local
  top-k per query; a final small groupby merges per-query top-k. No stage
  ever materializes the full similarity matrix.
- LSH ANN: the SCALE PATH — signed-random-projection signatures bucket the
  corpus (groupby bucket); queries probe their own bucket. Approximate by
  construction; recall measured in tests against brute force.
- centroids: per-(label, dim) partial sums inside map_batches, then a tiny
  groupby — the canonical pre-aggregate/combiner shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.collect import collect_table
from core_ray.rounding import sql_round_np
from core_ray.stages.agg import fold


def _batch_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if arr.num_chunks == 1:
        flat = arr.chunk(0).flatten().to_numpy(zero_copy_only=False)
        dim = len(flat) // len(batch) if len(batch) else 0
        return flat.astype(np.float64).reshape(len(batch), dim)
    return np.array(arr.to_pylist(), dtype=np.float64)


class _BruteTopK:
    """Per-batch local top-k against the broadcast query matrix."""

    def __init__(self, q_ids: np.ndarray, q: np.ndarray, k: int, id_col: str, col: str):
        self.q_ids = q_ids
        self.q_mat = q / np.linalg.norm(q, axis=1, keepdims=True)  # (q, d) float64
        self.k = k
        self.id_col = id_col
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = _batch_matrix(batch, self.col)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
        sims = self.q_mat @ xn.T  # (q, n)
        k = min(self.k + 1, sims.shape[1])  # +1 headroom for self-hits
        out_q, out_v, out_s = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            top = np.argpartition(-row, k - 1)[:k] if k < len(row) else np.arange(len(row))
            # deterministic order: sim desc, then id asc
            top = top[np.lexsort((ids[top], -row[top]))]
            for ci in top:
                if ids[ci] == self.q_ids[qi]:
                    continue  # exclude self
                out_q.append(self.q_ids[qi])
                out_v.append(ids[ci])
                out_s.append(row[ci])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )


def _merge_topk(group: pa.Table, k: int) -> pa.Table:
    sims = group["sim"].to_numpy(zero_copy_only=False)
    vids = group["vec_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((vids, -sims))[:k]
    qid = group["query_id"][0].as_py()
    return pa.table(
        {
            "query_id": pa.array([qid] * len(order), pa.int64()),
            "vec_id": pa.array(vids[order], pa.int64()),
            "rank": pa.array(np.arange(len(order), dtype=np.int32), pa.int32()),
            "sim": pa.array(sql_round_np(sims[order], 6), pa.float64()),
        }
    )


def brute_force_topk(ds, query_ids: np.ndarray, query_matrix: np.ndarray,
                     k: int = 5, id_col: str = "vec_id", col: str = "embedding"):
    """Exact cosine top-k of each query against the whole dataset (self
    excluded). Returns (query_id, vec_id, rank, sim[rounded 6])."""
    partial = ds.map_batches(
        _BruteTopK,
        fn_constructor_args=(np.asarray(query_ids, dtype=np.int64),
                             np.asarray(query_matrix, dtype=np.float64), k, id_col, col),
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 8),
    )
    return partial.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# ---------------- LSH ANN (scale path) ----------------

N_PLANES = 5  # 32 buckets — sized so buckets hold tens of vectors at the test
# scales; at corpus scale raise this (buckets should hold ~1-10k vectors)


def _planes(dim: int) -> np.ndarray:
    return np.random.default_rng(99).normal(size=(N_PLANES, dim))


class _LshTag:
    def __init__(self, id_col: str, col: str):
        self.id_col = id_col
        self.col = col
        self.planes: np.ndarray | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = _batch_matrix(batch, self.col)
        if self.planes is None:
            self.planes = _planes(x.shape[1])
        bits = (x @ self.planes.T) > 0
        bucket = np.zeros(len(x), dtype=np.int64)
        for b in range(N_PLANES):
            bucket |= bits[:, b].astype(np.int64) << b
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "bucket": pa.array(bucket, pa.int64()),
                self.col: batch[self.col],
            }
        )


def _bucket_topk(group: pa.Table, query_id_set: frozenset, k: int,
                 id_col: str, col: str) -> pa.Table:
    ids = group[id_col].to_numpy(zero_copy_only=False)
    is_q = np.array([int(i) in query_id_set for i in ids])
    if not is_q.any():
        return pa.table(
            {"query_id": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64()),
             "rank": pa.array([], pa.int32()), "sim": pa.array([], pa.float64())}
        )
    x = _batch_matrix(group, col)
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
    sims = xn[is_q] @ xn.T
    out_q, out_v, out_r, out_s = [], [], [], []
    q_ids = ids[is_q]
    for qi in range(sims.shape[0]):
        row = sims[qi].copy()
        row[ids == q_ids[qi]] = -np.inf
        order = np.lexsort((ids, -row))[: min(k, (np.isfinite(row)).sum())]
        for r, ci in enumerate(order):
            out_q.append(q_ids[qi])
            out_v.append(ids[ci])
            out_r.append(r)
            out_s.append(float(sql_round_np(row[ci], 6)))
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "rank": pa.array(out_r, pa.int32()),
            "sim": pa.array(out_s, pa.float64()),
        }
    )


def lsh_ann_topk(ds, query_ids, k: int = 5, id_col: str = "vec_id", col: str = "embedding"):
    """Approximate top-k: signed-random-projection buckets; each query is
    answered from its own bucket only (recall < 1 by design; tested vs brute
    force). One groupby('bucket') shuffle."""
    qset = frozenset(int(i) for i in np.asarray(query_ids).tolist())
    tagged = ds.map_batches(
        _LshTag, fn_constructor_args=(id_col, col),
        batch_format="pyarrow", batch_size=4096, concurrency=(1, 8),
    )
    return tagged.groupby("bucket").map_groups(
        lambda g: _bucket_topk(g, qset, k, id_col, col), batch_format="pyarrow"
    )


# ---------------- label centroids (combiner pattern) ----------------


def label_centroids(ds, label_col: str = "label", col: str = "embedding"):
    """(label, dim, mean_val[rounded 6]) via per-batch partial sums."""

    def partial(batch: pa.Table) -> pa.Table:
        x = _batch_matrix(batch, col)
        labels = batch[label_col].to_numpy(zero_copy_only=False)
        out_l, out_d, out_s, out_c = [], [], [], []
        for lab in np.unique(labels):
            m = labels == lab
            s = x[m].sum(axis=0)
            for d in range(x.shape[1]):
                out_l.append(int(lab))
                out_d.append(d + 1)  # 1-based to match SQL generate_subscripts
                out_s.append(float(s[d]))
                out_c.append(int(m.sum()))
        return pa.table(
            {
                "label": pa.array(out_l, pa.int32()),
                "dim": pa.array(out_d, pa.int32()),
                "sum_val": pa.array(out_s, pa.float64()),
                "cnt": pa.array(out_c, pa.int64()),
            }
        )

    agg = fold(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=8192),
        ["label", "dim"],
        {"sum_val": ("sum_val", "sum"), "cnt": ("cnt", "sum")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        mean = sql_round_np(
            batch["sum_val"].to_numpy(zero_copy_only=False)
            / batch["cnt"].to_numpy(zero_copy_only=False),
            6,
        )
        return pa.table(
            {
                "label": batch["label"],
                "dim": batch["dim"],
                "mean_val": pa.array(mean, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")



# ---------------- IVF ANN (coarse-quantizer scale path) ----------------


def _kmeans_fit(x: np.ndarray, n_clusters: int, n_iter: int = 10, seed: int = 7) -> np.ndarray:
    """Tiny deterministic Lloyd's k-means on a driver-side sample (the coarse
    quantizer training step of IVF — published FAISS-style design)."""
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(n_iter):
        d = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(centers)):
            m = assign == c
            if m.any():
                centers[c] = x[m].mean(axis=0)
    return centers


def ivf_ann_topk(ds, query_ids, k: int = 5, n_clusters: int = 16, nprobe: int = 3,
                 train_sample: int = 2048, id_col: str = "vec_id", col: str = "embedding"):
    """IVF-style ANN: train a coarse quantizer on a driver-side sample, assign
    every vector to its nearest centroid (map), then answer each query from
    its ``nprobe`` nearest centroid buckets (groupby('ivf_probe') shuffle).

    Approximate (recall < 1 when true neighbors live outside probed buckets);
    tested against brute force for recall. Queries are replicated nprobe
    ways; candidates once per bucket — the standard IVF trade.
    """
    # --- train on a sample (driver-side; tiny) ---
    xs = _batch_matrix(collect_table(ds.limit(train_sample)), col)
    xs = xs / np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1e-30)
    centers = _kmeans_fit(xs, n_clusters)
    centers = centers / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-30)
    qset = frozenset(int(i) for i in np.asarray(query_ids).tolist())

    def assign(batch: pa.Table, cs=centers) -> pa.Table:
        x = _batch_matrix(batch, col)
        xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
        sims = xn @ cs.T
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        is_q = np.array([int(i) in qset for i in ids])
        home = sims.argmax(axis=1)
        out_rows, out_bucket, out_isq = [], [], []
        # every vector lives in its home bucket as a candidate
        out_rows.append(np.arange(len(ids)))
        out_bucket.append(home)
        out_isq.append(np.zeros(len(ids), dtype=bool))
        # queries probe their nprobe nearest buckets
        if is_q.any():
            qi = np.nonzero(is_q)[0]
            probes = np.argsort(-sims[qi], axis=1, kind="stable")[:, :nprobe]
            out_rows.append(np.repeat(qi, nprobe))
            out_bucket.append(probes.ravel())
            out_isq.append(np.ones(len(qi) * nprobe, dtype=bool))
        take = np.concatenate(out_rows)
        t = batch.take(pa.array(take))
        return t.append_column(
            "ivf_probe", pa.array(np.concatenate(out_bucket).astype(np.int32), pa.int32())
        ).append_column("is_query", pa.array(np.concatenate(out_isq), pa.bool_()))

    tagged = ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)

    def bucket_topk(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        is_q = group["is_query"].to_numpy(zero_copy_only=False)
        x = _batch_matrix(group, col)
        xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-30)
        cand = np.nonzero(~is_q)[0]
        out_q, out_v, out_s = [], [], []
        for qi in np.nonzero(is_q)[0]:
            row = xn[cand] @ xn[qi]
            keep = ids[cand] != ids[qi]
            for ci in np.nonzero(keep)[0]:
                out_q.append(ids[qi])
                out_v.append(ids[cand][ci])
                out_s.append(row[ci])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    partial = tagged.groupby("ivf_probe").map_groups(bucket_topk, batch_format="pyarrow")
    # per-query merge across probed buckets (dedupe candidates, then top-k)
    def merge(group: pa.Table) -> pa.Table:
        sims = group["sim"].to_numpy(zero_copy_only=False)
        vids = group["vec_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((vids, -sims))
        seen: set = set()
        keep = []
        for i in order:
            if vids[i] not in seen:
                seen.add(vids[i])
                keep.append(i)
            if len(keep) >= k:
                break
        qid = group["query_id"][0].as_py()
        return pa.table(
            {
                "query_id": pa.array([qid] * len(keep), pa.int64()),
                "vec_id": pa.array(vids[keep], pa.int64()),
                "rank": pa.array(np.arange(len(keep), dtype=np.int32), pa.int32()),
                "sim": pa.array(sql_round_np(sims[keep], 6), pa.float64()),
            }
        )

    return partial.groupby("query_id").map_groups(merge, batch_format="pyarrow")
