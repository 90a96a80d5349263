"""Per-cell kNN self-join with ring-1 semantics, coarse-group partitioning,
and salted hot groups.

Semantics (matched exactly by the fixture oracle, core_ray/fixtures/oracle.py):

  for each geocoded point: the k nearest OTHER points (euclidean in degree
  space) among points whose hex cell is within ring-1 of the query's cell;
  ties broken by (dist, neighbor url, neighbor mention_idx).

Partitioning design (the large-to-large join the reference has no analog
for, SURVEY.md §2.5):

- GROUP KEY is the res-(R-2) coarse hex of the point's home-cell center
  (~49 res-R cells per group). Grouping coarser than the semantic cell cuts
  the number of Python group invocations ~49x and drops the candidate
  duplication factor from 7x (one copy per ring-1 cell) to ~1.3x (one copy
  per distinct coarse group overlapping the ring).
- a candidate is sent to every coarse group that contains any cell of
  ring1(home); a query lives in the coarse group of its home cell. Inside a
  group, each query's candidate set is masked back to exact ring-1 by hex
  distance — so coarse grouping is a pure re-partitioning, not a semantic
  change (verified: oracle equivalence tests incl. forced salting).
- SKEW (mega-city hot cells): a first cheap pass counts rows per cell
  (uint64 key + count only), folded map-side per block and, while the
  distinct cells fit ``_hot_sets``'s driver threshold, summed on the
  driver, so it runs no shuffle. Coarse groups above ``hot_threshold`` are
  salted: queries hash-partition into ceil(n/salt_target) sub-groups;
  candidates targeting a hot group are replicated into every sub-group.
- ROUTING + SHUFFLE: the expansion itself tags every row with its reduce
  ``part`` (a hash of (knn_grp, salt) into ``agg._n_parts()`` partitions),
  so the plan has exactly one sort shuffle on that column behind the
  expansion and no repartition barrier. The sort's reduce tasks follow the
  expansion's blocks: ≈ input rows / 16,384 (the expansion batch size).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from core_ray.collect import collect_table
from core_ray.geo import hexgrid
from core_ray.stages.agg import _GOLD, _n_parts, _reduce_by_key, sum_by_u64
from core_ray.stages.join import fits_broadcast

_KNN_COLS = ["url", "mention_idx", "lat", "lon", "hex_cell"]
COARSEN = 2  # group at res - COARSEN
_MIX = np.uint64(0xBF58476D1CE4E5B9)  # salt multiplier of the partition hash


def _group_key(cells: np.ndarray, group_res: int) -> np.ndarray:
    """Coarse key = hex at ``group_res`` containing the cell center.

    Not required to be a true hierarchy — only a deterministic cell->key map
    used identically by the query and candidate paths."""
    lon, lat = hexgrid.cell_to_center(cells)
    return hexgrid.lonlat_to_cell(lon, lat, group_res)


class _Expand:
    """Expansion UDF: emit query + candidate rows keyed by (knn_grp, salt),
    each tagged with the reduce ``part`` its group hashes to (of ``n_parts``).

    ADAPTIVE MULTI-RESOLUTION grouping (the skew plan):
    - default group = the coarse (res-2) key of a point's home cell;
    - cells whose coarse group is HOT descend to FINE grouping: the group key
      is the res-R home cell itself and candidates fan out per ring-1 cell
      (the classic 7x duplication, but only inside hot regions);
    - fine cells that are STILL hot are salted: queries hash-split into
      ceil(n/salt_target) buckets, candidates replicated per bucket.
      Replication is bounded by |cell + ring|, never by the whole coarse
      group — naive coarse-group salting was O(n^2/salt_target) rows on a
      mega-city group (measured: 1.5M replicas for one 55k-row group).

    Mixing res-(R-2) and res-R cell ids in one uint64 key space is safe: the
    id embeds the resolution bits. The reduce (_process_partition) masks each 
    query's candidates back to exact ring-1 by hex distance, so grouping is a
    pure re-partitioning — results are identical whichever path a row takes
    (verified by the forced-salting oracle-equivalence test).
    """

    def __init__(self, hot_coarse: np.ndarray, fine_salts: dict[int, int], cell_res: int,
                 n_parts: int):
        self.hot_coarse = np.asarray(hot_coarse, dtype=np.uint64)
        self.fine_salts = fine_salts or {}
        self.group_res = cell_res - COARSEN
        self.n_parts = n_parts

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib

        cells = batch["hex_cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(cells)
        nbrs = hexgrid.neighbors(cells)
        ring_t = np.concatenate([cells[:, None], nbrs], axis=1)  # (n,7) fine; col0=home
        coarse_t = _group_key(ring_t.ravel(), self.group_res).reshape(n, 7)
        if len(self.hot_coarse):
            hot_t = np.isin(coarse_t, self.hot_coarse)
        else:
            hot_t = np.zeros((n, 7), dtype=bool)
        target = np.where(hot_t, ring_t, coarse_t)
        home_target = target[:, 0]

        st = np.sort(target, axis=1)
        keep = np.ones_like(st, dtype=bool)
        keep[:, 1:] = st[:, 1:] != st[:, :-1]
        cand_keep = keep & (st != home_target[:, None])

        fine_salts = self.fine_salts
        if fine_salts:
            salt_keys = np.fromiter(fine_salts.keys(), dtype=np.uint64, count=len(fine_salts))
            touches_salted = np.isin(st, salt_keys).any(axis=1)
        else:
            touches_salted = np.zeros(n, dtype=bool)

        fast = np.nonzero(~touches_salted)[0]
        out_idx = [fast]
        out_grp = [home_target[fast]]
        out_salt = [np.zeros(len(fast), dtype=np.int32)]
        out_q = [np.ones(len(fast), dtype=bool)]
        fk = cand_keep[fast]
        rep = fk.sum(axis=1)
        out_idx.append(np.repeat(fast, rep))
        out_grp.append(st[fast][fk])
        out_salt.append(np.zeros(int(rep.sum()), dtype=np.int32))
        out_q.append(np.zeros(int(rep.sum()), dtype=bool))

        slow = np.nonzero(touches_salted)[0]
        if len(slow):
            urls = batch["url"].to_pylist()
            midx = batch["mention_idx"].to_numpy(zero_copy_only=False)
            s_idx, s_grp, s_salt, s_q = [], [], [], []
            for i in slow:
                h = zlib.crc32(f"{urls[i]}#{int(midx[i])}".encode())
                hg = int(home_target[i])
                s_n = fine_salts.get(hg, 1)
                my_salt = h % s_n
                s_idx.append(i); s_grp.append(hg); s_salt.append(my_salt); s_q.append(True)
                for sb in range(s_n):
                    if sb != my_salt:
                        s_idx.append(i); s_grp.append(hg); s_salt.append(sb); s_q.append(False)
                for t in range(7):
                    if not cand_keep[i, t]:
                        continue
                    tg = int(st[i, t])
                    for sb in range(fine_salts.get(tg, 1)):
                        s_idx.append(i); s_grp.append(tg); s_salt.append(sb); s_q.append(False)
            out_idx.append(np.asarray(s_idx, dtype=np.int64))
            out_grp.append(np.asarray(s_grp, dtype=np.uint64))
            out_salt.append(np.asarray(s_salt, dtype=np.int32))
            out_q.append(np.asarray(s_q, dtype=bool))

        take = pa.array(np.concatenate(out_idx))
        out = batch.select(_KNN_COLS).take(take)
        grp = np.concatenate(out_grp).astype(np.uint64)
        salt = np.concatenate(out_salt)
        # route each (knn_grp, salt) group to its reduce partition here, so
        # the groupby sort reads the expansion's blocks directly. Salted
        # sub-groups of a hot cell hash to DIFFERENT partitions.
        h = (grp * _GOLD) ^ ((salt.astype(np.uint64) + np.uint64(1)) * _MIX)
        part = (h % np.uint64(self.n_parts)).astype(np.int32)
        return out.append_column(
            "knn_grp", pa.array(grp, pa.uint64())
        ).append_column(
            "salt", pa.array(salt, pa.int32())
        ).append_column(
            "is_query", pa.array(np.concatenate(out_q), pa.bool_())
        ).append_column("part", pa.array(part, pa.int32()))


def _process_partition(part: pa.Table, k: int) -> pa.Table:
    """Reduce ONE hash partition holding many (knn_grp, salt) groups.

    One Python call per PARTITION (not per group): arrays are extracted once,
    groups become numpy slices, so per-group cost is raw numpy. Measured ~30x
    cheaper than groupby().map_groups(per_group_fn) at ~100k mostly-singleton
    groups (per-group pyarrow slicing + to_pylist dominated at ~1.4 ms/group).
    """
    n = part.num_rows
    if n == 0:
        return _knn_empty()
    grp = part["knn_grp"].to_numpy(zero_copy_only=False).astype(np.uint64)
    salt = part["salt"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((salt, grp))  # exact (grp, salt) grouping — no hashing

    lat = part["lat"].to_numpy(zero_copy_only=False)[order]
    lon = part["lon"].to_numpy(zero_copy_only=False)[order]
    midx = part["mention_idx"].to_numpy(zero_copy_only=False)[order]
    is_q = part["is_query"].to_numpy(zero_copy_only=False)[order]
    cells = part["hex_cell"].to_numpy(zero_copy_only=False).astype(np.uint64)[order]
    cq, cr, _ = hexgrid.unpack(cells)
    grp, salt = grp[order], salt[order]

    # factorize (url) ONCE into string-rank-ordered codes, so the integer
    # lexsorts below preserve the documented (dist, url, midx) tie-break
    # exactly while avoiding per-query string comparisons. Arrow-side
    # dictionary_encode + a rank permutation of the (small) dictionary is
    # ~6x cheaper than to_pylist + np.unique over Python strings (the
    # string columns never materialize as Python objects).
    denc = pc.dictionary_encode(part["url"]).combine_chunks()
    d_arr = denc.dictionary
    d_sort = pc.sort_indices(d_arr).to_numpy(zero_copy_only=False)
    rank = np.empty(len(d_arr), dtype=np.int64)
    rank[d_sort] = np.arange(len(d_arr))
    u_code = rank[denc.indices.to_numpy(zero_copy_only=False)][order]
    u_uniq = d_arr.take(pa.array(d_sort))  # pyarrow StringArray in rank order

    boundary = (np.diff(grp) != 0) | (np.diff(salt) != 0)
    bounds = np.nonzero(boundary)[0] + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [n]])

    out_code, out_midx, out_ncode, out_nmidx, out_rank, out_dist = [], [], [], [], [], []
    for s, e in zip(starts, ends):
        if e - s == 1:
            continue  # isolated point: no ring-1 candidates were routed here
        g_lat, g_lon = lat[s:e], lon[s:e]
        g_code, g_midx = u_code[s:e], midx[s:e]
        g_cq, g_cr = cq[s:e], cr[s:e]
        q_rows = np.nonzero(is_q[s:e])[0]
        if len(q_rows) == 0:
            continue
        # ring-1 candidate mask is a function of the QUERY'S CELL — compute
        # it once per distinct cell (city cells hold many queries)
        q_ck = g_cq[q_rows] * np.int64(1 << 30) + g_cr[q_rows]
        cko = np.argsort(q_ck, kind="stable")
        q_sorted = q_rows[cko]
        ck_sorted = q_ck[cko]
        cell_bounds = np.nonzero(np.diff(ck_sorted))[0] + 1
        c_starts = np.concatenate([[0], cell_bounds])
        c_ends = np.concatenate([cell_bounds, [len(q_sorted)]])
        for cs, ce in zip(c_starts, c_ends):
            q0 = q_sorted[cs]
            dq = g_cq - g_cq[q0]
            dr = g_cr - g_cr[q0]
            ring = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) <= 2  # hexdist <= 1
            cand = np.nonzero(ring)[0]
            if len(cand) == 0:
                continue
            c_lat, c_lon = g_lat[cand], g_lon[cand]
            c_code, c_midx = g_code[cand], g_midx[cand]
            qs_all = q_sorted[cs:ce]

            # COLLAPSE TO DISTINCT COORDINATES: geo-IP rows share exact host
            # coords (hundreds of members per coord in city cells), so kNN is
            # computed over distinct coords (O(#coords) per query) and
            # expanded through a tie-exact member pool — instead of
            # O(#points) per query. complex128 packs (lat, lon) losslessly.
            zc = c_lat + 1j * c_lon
            uc, cinv = np.unique(zc, return_inverse=True)
            ulat, ulon = uc.real, uc.imag
            # members of each coord, pre-sorted by (code, midx)
            mo = np.lexsort((c_midx, c_code, cinv))
            cinv_s = cinv[mo]
            cb = np.nonzero(np.diff(cinv_s))[0] + 1
            cstarts = np.concatenate([[0], cb])
            cends = np.concatenate([cb, [len(cinv_s)]])
            mcounts = (cends - cstarts).astype(np.int64)

            # group queries by THEIR coord (same-coord queries share dvec)
            zq = g_lat[qs_all] + 1j * g_lon[qs_all]
            qo = np.argsort(zq, kind="stable")
            qs_srt = qs_all[qo]
            zq_srt = zq[qo]
            qb = np.nonzero(np.diff(zq_srt) != 0)[0] + 1
            q_cs = np.concatenate([[0], qb])
            q_ce = np.concatenate([qb, [len(qs_srt)]])
            cap = max(2 * k + 8, 32)
            for a, b in zip(q_cs, q_ce):
                qla, qlo = zq_srt[a].real, zq_srt[a].imag
                dvec = np.hypot(ulat - qla, ulon - qlo)
                # nearest coords only: full argsort per query coord was the
                # profile hot spot (O(U log U) x #query-coords); argpartition
                # + small sort is O(U). Tie boundary falls back to full sort.
                partial = len(dvec) > cap
                if partial:
                    near = np.argpartition(dvec, cap - 1)[:cap]
                    corder = near[np.argsort(dvec[near], kind="stable")]
                else:
                    corder = np.argsort(dvec, kind="stable")
                # collect coords in distance order until the pool holds at
                # least k+1 members, then extend through all distance ties
                need = k + 1
                got = 0
                take_end = 0
                while take_end < len(corder) and got < need:
                    got += mcounts[corder[take_end]]
                    take_end += 1
                if take_end:
                    last_d = dvec[corder[take_end - 1]]
                    while take_end < len(corder) and dvec[corder[take_end]] == last_d:
                        got += mcounts[corder[take_end]]
                        take_end += 1
                take = corder[:take_end]
                if partial and (
                    got < need
                    or take_end == len(corder)
                    or int((dvec == last_d).sum()) != int((dvec[take] == last_d).sum())
                ):
                    # boundary ties may extend beyond the partial selection
                    corder = np.argsort(dvec, kind="stable")
                    need = k + 1
                    got = 0
                    take_end = 0
                    while take_end < len(corder) and got < need:
                        got += mcounts[corder[take_end]]
                        take_end += 1
                    if take_end:
                        last_d = dvec[corder[take_end - 1]]
                        while take_end < len(corder) and dvec[corder[take_end]] == last_d:
                            got += mcounts[corder[take_end]]
                            take_end += 1
                    take = corder[:take_end]
                pool_rows = np.concatenate([mo[cstarts[j] : cends[j]] for j in take]) if take_end else np.zeros(0, np.int64)
                pool_d = np.repeat(dvec[take], mcounts[take])
                po = np.lexsort((c_midx[pool_rows], c_code[pool_rows], pool_d))
                p_code = c_code[pool_rows][po]
                p_midx = c_midx[pool_rows][po]
                p_d = pool_d[po]
                for qi in qs_srt[a:b]:
                    not_self = ~((p_code == g_code[qi]) & (p_midx == g_midx[qi]))
                    idx = np.nonzero(not_self)[0][:k]
                    if len(idx) == 0:
                        continue
                    out_code.append(np.full(len(idx), g_code[qi]))
                    out_midx.append(np.full(len(idx), g_midx[qi]))
                    out_ncode.append(p_code[idx])
                    out_nmidx.append(p_midx[idx])
                    out_rank.append(np.arange(len(idx)))
                    out_dist.append(p_d[idx])
    if not out_code:
        return _knn_empty()
    return pa.table(
        {
            "url": u_uniq.take(pa.array(np.concatenate(out_code))).cast(pa.string()),
            "mention_idx": pa.array(np.concatenate(out_midx).astype(np.int32), pa.int32()),
            "neighbor_url": u_uniq.take(pa.array(np.concatenate(out_ncode))).cast(pa.string()),
            "neighbor_mention_idx": pa.array(np.concatenate(out_nmidx).astype(np.int32), pa.int32()),
            "rank": pa.array(np.concatenate(out_rank).astype(np.int32), pa.int32()),
            "dist": pa.array(np.concatenate(out_dist).astype(np.float64), pa.float64()),
        }
    )


def _knn_empty() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "mention_idx": pa.array([], pa.int32()),
            "neighbor_url": pa.array([], pa.string()),
            "neighbor_mention_idx": pa.array([], pa.int32()),
            "rank": pa.array([], pa.int32()),
            "dist": pa.array([], pa.float64()),
        }
    )


def _hot_sets(ds, group_res: int, hot_threshold: int, salt_target: int):
    """Hot-set discovery for the skew plan, with at most one shuffle.

    Each block folds map-side to one (cell, count) row per distinct cell
    (``agg._reduce_by_key``, the combiner of ``count_by_u64``), and those
    partials are materialized: no shuffle yet. Their row count and Arrow
    bytes come from block metadata. While the bytes fit the broadcast rule
    (``join.fits_broadcast``, as ``agg.fold_table`` decides), the driver
    folds them and computes the sets locally, so the pass is ONE map-only
    execution. Above it, the full per-cell histogram is a DATASET (at
    planet scale it is itself big) and only ABOVE-THRESHOLD keys ever reach
    the driver: per-cell totals are a distributed SUM of the partial counts,
    coarse totals a distributed weighted sum over them (a hot fine cell's
    coarse group is necessarily hot too, so the fine filter needs no
    coarse-membership check). Both branches give identical sets."""
    import math

    def partial(b: pa.Table) -> pa.Table:
        cells = b["hex_cell"].to_numpy(zero_copy_only=False).astype(np.uint64)
        u, c = _reduce_by_key(cells, np.ones(len(cells), np.int64), np.add)
        return pa.table({"key": pa.array(u, pa.uint64()), "cnt": pa.array(c, pa.int64())})

    partials = (
        ds.select_columns(["hex_cell"])
        .map_batches(partial, batch_format="pyarrow", batch_size=131072)
        .materialize()
    )
    if partials.count() == 0:  # block metadata: executes nothing
        return np.zeros(0, dtype=np.uint64), {}

    if fits_broadcast(partials):
        t = collect_table(partials)
        cells, counts = _reduce_by_key(
            t["key"].to_numpy(zero_copy_only=False).astype(np.uint64),
            t["cnt"].to_numpy(zero_copy_only=False),
            np.add,
        )
        coarse, totals = _reduce_by_key(_group_key(cells, group_res), counts, np.add)
        hot_coarse = coarse[totals > hot_threshold]
        fine_salts = {
            int(c): math.ceil(int(n_c) / salt_target)
            for c, n_c in zip(cells[counts > hot_threshold], counts[counts > hot_threshold])
        }
        return hot_coarse, fine_salts

    def to_coarse(b: pa.Table) -> pa.Table:
        cells = b["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "key": pa.array(_group_key(cells, group_res), pa.uint64()),
                "cnt": b["cnt"],
            }
        )

    # partial rows carry counts: the per-cell total is their SUM
    fine = sum_by_u64(partials, "key", "cnt").materialize()  # one row per DISTINCT cell
    coarse = sum_by_u64(
        fine.map_batches(to_coarse, batch_format="pyarrow", batch_size=131072),
        "key",
        "cnt",
    )
    hot_co = collect_table(coarse.filter(expr=f"cnt > {hot_threshold}"))
    hot_coarse = (
        hot_co["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if hot_co.num_rows
        else np.zeros(0, dtype=np.uint64)
    )
    fine_salts: dict[int, int] = {}
    hot_fine = collect_table(fine.filter(expr=f"cnt > {hot_threshold}"))
    if hot_fine.num_rows:
        for k, c in zip(hot_fine["key"].to_pylist(), hot_fine["cnt"].to_pylist()):
            fine_salts[int(k)] = math.ceil(int(c) / salt_target)
    return hot_coarse, fine_salts


def knn_per_cell(ds, k: int = 5, hot_threshold: int = 4000, salt_target: int = 2000,
                 cell_res: int = 7):
    """Dataset[joined rows] -> Dataset[(url, mention_idx, neighbor_url,
    neighbor_mention_idx, rank, dist)].

    Two passes: a per-cell count pass drives the adaptive grouping plan
    (coarse / fine / salted — see _Expand). It is map-only (per-block
    partial counts, summed on the driver) unless the partials exceed
    ``_hot_sets``'s driver threshold; then a distributed sum keeps all but
    the tiny above-threshold hot sets off the driver. Then the expansion emits
    query + candidate rows already tagged with their hash ``part``, ONE
    sort shuffle groups them by part, and _process_partition reduces each
    part in one vectorized call. Reduce tasks ≈ input rows / 16,384.
    """
    group_res = cell_res - COARSEN
    hot_coarse, fine_salts = _hot_sets(ds, group_res, hot_threshold, salt_target)

    # stateless expansion tasks (plan state is tiny; closure capture beats an
    # actor pool: no startup latency, elastic across the cluster)
    expander = _Expand(hot_coarse, fine_salts, cell_res, n_parts=_n_parts())
    # The sort's reduce task count equals its input block count: one block
    # per expansion task, ~input rows / 16,384. No split in front of the
    # sort: a separate routing map plus repartition(32) there cost more than
    # the rest of the pass (2,500 pages, 2 CPUs: 1.53 s with them, 0.41 s
    # without, median of 10),
    # and the reduce still spreads (100 k pages: 7 blocks, 4.02 -> 3.33 s
    # at 4 CPUs; ~67 expected for 1.1 M joined rows).
    # Hand-rolled shuffle, not agg.map_groups_partitioned: _Expand picks
    # the partition of each row itself (salted hot cells, replicas).
    return (
        ds.map_batches(expander, batch_format="pyarrow", batch_size=16384)
        .groupby("part")
        .map_groups(lambda g: _process_partition(g, k), batch_format="pyarrow")
    )
