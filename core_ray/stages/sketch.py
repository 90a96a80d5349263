"""Mergeable quantile sketch (DDSketch-style log-linear histogram).

The scale hatch for per-group percentiles, sibling of the HLL tile sketch
and the Bloom dedup hatch: exact per-group quantiles
(queries/events_ops.py events_value_quantiles) must hold a whole group's
values in one task, which is fine at test scale and wrong at 10^12 rows.
The published DDSketch design (relative-error-guaranteed quantiles from a
log-spaced histogram; bins merge by addition) fits the engine's canonical
combiner shape instead:

    map_batches: per-batch (group, bin) counts         # combiner, vectorized
    -> pack (group_code, bin) into one uint64 key
    -> agg.sum_by_u64                                  # ONE small shuffle
    -> per-group bin walk on the driver (tiny: #groups x #bins rows)

Guarantee (from the construction): for values > min_positive, the returned
quantile q' satisfies |q' - q| <= alpha * q (relative error alpha); values
in [0, min_positive) collapse into a zero bin whose absolute error is
min_positive. Negative values are rejected (the engine's value columns are
non-negative; a two-sided variant would add a mirrored negative store).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from core_ray.collect import collect_table


class DDSketchParams:
    def __init__(self, alpha: float = 0.01, min_positive: float = 1e-9,
                 two_sided: bool = False):
        """``two_sided=True`` adds the mirrored negative store from the
        published design: negative values land in sign-mirrored bins
        (-bin_of(|v|)) with the same relative-error guarantee on |v|;
        values in (-min_positive, min_positive) share the zero bin."""
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.min_positive = min_positive
        self.two_sided = two_sided
        self.gamma = (1 + alpha) / (1 - alpha)
        self.log_gamma = math.log(self.gamma)

    def bin_of(self, v: np.ndarray) -> np.ndarray:
        """Vectorized bin index; bin 0 is the zero/underflow bin, positive
        values map to ceil(log_gamma(v)) shifted to stay >= 1; negatives
        (two-sided stores only) mirror to the negated index."""
        v = np.asarray(v, dtype=np.float64)
        neg = v < 0
        if neg.any() and not self.two_sided:
            raise ValueError("DDSketch store is one-sided (values must be >= 0)")
        a = np.abs(v)
        out = np.zeros(len(v), dtype=np.int64)
        pos = a >= self.min_positive
        if pos.any():
            raw = np.ceil(np.log(a[pos]) / self.log_gamma).astype(np.int64)
            out[pos] = raw - self._bin_floor
        if neg.any():
            out[neg] = -out[neg]
        return out

    @property
    def _bin_floor(self) -> int:
        # lowest representable raw bin (for min_positive), shifted to 1
        return int(math.ceil(math.log(self.min_positive) / self.log_gamma)) - 1

    def value_of(self, bins: np.ndarray) -> np.ndarray:
        """Bin index -> representative value (the bin's geometric midpoint,
        2*gamma^k/(gamma+1) per the published estimator); bin 0 -> 0.0;
        negative bins mirror to the negated midpoint."""
        bins = np.asarray(bins, dtype=np.int64)
        out = np.zeros(len(bins), dtype=np.float64)
        nz = bins != 0
        raw = np.abs(bins[nz]) + self._bin_floor
        out[nz] = np.sign(bins[nz]) * (
            2.0 * np.power(self.gamma, raw.astype(np.float64)) / (self.gamma + 1.0)
        )
        return out


def quantiles_from_bins(bins: np.ndarray, counts: np.ndarray, qs, params: DDSketchParams):
    """Walk one group's merged (bin, count) histogram for each quantile
    (lower-rank rule, matching the sketch's published estimator)."""
    order = np.argsort(bins)
    b, c = bins[order], counts[order]
    cum = np.cumsum(c)
    total = cum[-1]
    out = []
    for q in qs:
        rank = q * (total - 1)
        idx = int(np.searchsorted(cum, rank + 1))
        idx = min(idx, len(b) - 1)
        out.append(float(params.value_of(np.array([b[idx]]))[0]))
    return out


_BIN_OFF = np.uint64(1 << 19)  # signed-bin offset inside the 20-bit key field


def approx_group_quantiles(ds, group_col: str, val_col: str, qs=(0.5, 0.9),
                           alpha: float = 0.01, max_groups: int = 1 << 20,
                           two_sided: bool = False):
    """Dataset -> pyarrow Table (group_col, q_0.5, q_0.9, ...) with
    relative-error-alpha approximate quantiles per group.

    Group names are dictionary-coded per batch and carried as a SMALL
    broadcast-free side: each batch emits (group_name, bin, count) partial
    rows; the group string is hashed into the packed key and the name rides
    one representative row per (group, bin) — exactness of counts is
    preserved because sum_by_u64 keys on (group_hash, bin) and hash
    collisions across groups are rejected by a final name check."""
    from core_ray.stages.agg import hash_strings, sum_by_u64

    params = DDSketchParams(alpha=alpha, two_sided=two_sided)

    def partial(b: pa.Table) -> pa.Table:
        v = b[val_col].to_numpy(zero_copy_only=False)
        bins = params.bin_of(v)
        gh = hash_strings(b[group_col]) % np.uint64(max_groups)
        # 20 bits of bin, offset so signed (two-sided) bins pack cleanly
        key = (gh << np.uint64(20)) | (bins + np.int64(_BIN_OFF)).astype(np.uint64)
        order = np.argsort(key, kind="stable")
        ks = key[order]
        new = np.ones(len(ks), dtype=bool)
        if len(ks):
            new[1:] = ks[1:] != ks[:-1]
        starts = np.nonzero(new)[0]
        cnt = np.diff(np.append(starts, len(ks)))
        names = np.asarray(b[group_col].to_pylist())[order][starts]
        return pa.table(
            {
                "key": pa.array(ks[starts], pa.uint64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                "name": pa.array(names, pa.string()),
            }
        )

    # materialized: BOTH consumers below (the count sum and the key->name
    # side pull) read the same execution — without this the full input scan
    # and bin combiner would run twice
    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=131072
    ).materialize()
    # counts: exact sum per (group_hash, bin) key
    sums = sum_by_u64(partials.select_columns(["key", "cnt"]), "key", "cnt")
    merged = collect_table(sums)
    # representative names per key (first wins; dedup driver-side — #keys is
    # #groups x #occupied-bins, small by construction)
    names = collect_table(partials.select_columns(["key", "name"]))
    # representative name per GROUP HASH (not per key): a collision between
    # two group names on the same hash corrupts the merged histogram, so it
    # must be detected even when the groups occupy disjoint bins
    name_of: dict[int, str] = {}
    collide = set()
    for k, n in zip(names["key"].to_pylist(), names["name"].to_pylist()):
        ghash = int(k) >> 20
        prev = name_of.setdefault(ghash, n)
        if prev != n:
            collide.add(ghash)
    if collide:
        raise ValueError(
            f"group hash collision on {len(collide)} group(s); raise max_groups"
        )

    keys = merged["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    cnts = merged["cnt"].to_numpy(zero_copy_only=False)
    gh = keys >> np.uint64(20)
    bins = (keys & np.uint64((1 << 20) - 1)).astype(np.int64) - np.int64(_BIN_OFF)
    order = np.argsort(gh, kind="stable")
    gh, bins, cnts, keys = gh[order], bins[order], cnts[order], keys[order]
    new = np.ones(len(gh), dtype=bool)
    new[1:] = gh[1:] != gh[:-1]
    starts = np.nonzero(new)[0]
    ends = np.append(starts[1:], len(gh))
    out_names, out_qs = [], [[] for _ in qs]
    for s, e in zip(starts, ends):
        out_names.append(name_of[int(gh[s])])
        vals = quantiles_from_bins(bins[s:e], cnts[s:e], qs, params)
        for i, v in enumerate(vals):
            out_qs[i].append(v)
    cols = {group_col: pa.array(out_names, pa.string())}
    for i, q in enumerate(qs):
        cols[f"q_{q}"] = pa.array(out_qs[i], pa.float64())
    t = pa.table(cols)
    return t.take(pa.compute.sort_indices(t, sort_keys=[(group_col, "ascending")]))


# ---------------- mergeable heavy hitters (Misra-Gries) ----------------
# The approximate scale hatch for frequency top-k, sibling of the DDSketch
# quantiles above and the HLL/Bloom hatches: the EXACT path
# (queries/doc_text.py doc_vocab_top20) hash-partitions every distinct token through
# one shuffle, which is right when the distinct set is worth counting and
# wrong when only the heavy head matters over 10^12 rows. Misra-Gries
# summaries are mergeable with the one-pass guarantee intact (published
# result — "Mergeable Summaries", Agarwal et al., PODS 2012: ANY merge tree
# of MG(m) summaries keeps total undercount <= N/(m+1)), so the engine
# shape is pure combiner:
#
#     per-batch exact counts -> MG(m) compression      # combiner
#     -> agg.sum_by_u64 over the survivors             # ONE small shuffle
#     -> per-output-batch MG(m) compression            # disjoint key sets
#     -> driver top-k over <= m x n_blocks rows
#
# Estimates are LOWER bounds: true count in [est, est + N // (m+1)].


def mg_compress(items: np.ndarray, counts: np.ndarray, m: int):
    """One Misra-Gries compression step: if more than ``m`` items, subtract
    the (m+1)-th largest count from every count and keep the positives.
    Returns (items, counts, decrement)."""
    if len(items) <= m:
        return items, counts.astype(np.int64), 0
    # descending by count, item-ascending tie-break for determinism
    order = np.lexsort((items, -counts.astype(np.int64)))
    dec = int(counts[order[m]])
    c = counts.astype(np.int64) - dec
    pos = c > 0
    return items[pos], c[pos], dec


def approx_top_k(ds, key_col: str, k: int = 20, m: int = 4096):
    """Dataset with a uint64 ``key_col`` -> (pyarrow Table (item, est),
    n_total, err_bound).

    Heavy-hitter top-k with Misra-Gries summaries of size ``m`` (see module
    note): ``est`` is a lower bound on the true count and
    ``true <= est + err_bound`` with ``err_bound = n_total // (m + 1)``;
    every item whose true count exceeds ``err_bound`` is guaranteed to
    survive into the candidate set. Rows with est <= 0 never surface."""
    from core_ray.stages.agg import sum_by_u64

    def partial(b: pa.Table) -> pa.Table:
        ks = b[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        u, c = np.unique(ks, return_counts=True)
        u, c, _ = mg_compress(u, c.astype(np.int64), m)
        # sentinel row carries the batch row count even when compression
        # empties the summary (all-distinct batches); key 0 / cnt 0 is inert
        items = np.concatenate([u, np.zeros(1, dtype=np.uint64)])
        cnts = np.concatenate([c, np.zeros(1, dtype=np.int64)])
        nrows = np.zeros(len(items), dtype=np.int64)
        nrows[-1] = len(ks)
        return pa.table(
            {
                "key": pa.array(items, pa.uint64()),
                "cnt": pa.array(cnts, pa.int64()),
                "nrows": pa.array(nrows, pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=131072).materialize()
    nrows = collect_table(partials.select_columns(["nrows"]))
    n_total = int(np.sum(nrows["nrows"].to_numpy(zero_copy_only=False))) if nrows.num_rows else 0

    sums = sum_by_u64(partials.select_columns(["key", "cnt"]), "key", "cnt")

    def recompress(b: pa.Table) -> pa.Table:
        u = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = b["cnt"].to_numpy(zero_copy_only=False)
        u, c, _ = mg_compress(u, c, m)
        return pa.table(
            {"key": pa.array(u, pa.uint64()), "cnt": pa.array(c, pa.int64())}
        )

    comp = sums.map_batches(recompress, batch_format="pyarrow")
    merged = collect_table(comp)
    if merged.num_rows:
        items = merged["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ests = merged["cnt"].to_numpy(zero_copy_only=False)
    else:
        items = np.zeros(0, dtype=np.uint64)
        ests = np.zeros(0, dtype=np.int64)
    pos = ests > 0
    items, ests = items[pos], ests[pos]
    order = np.lexsort((items, -ests))[:k]
    out = pa.table(
        {
            "item": pa.array(items[order].astype(np.int64), pa.int64()),
            "est": pa.array(ests[order], pa.int64()),
        }
    )
    return out, n_total, n_total // (m + 1)
