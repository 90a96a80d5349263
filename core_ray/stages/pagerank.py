"""Sharded-rank PageRank — the web-graph-scale sibling of the broadcast
iteration in queries.emb_pagerank (VERDICT r3 item 4).

The broadcast path holds the whole (node, rank) vector on the driver and
re-ships it inside the map UDF every iteration: bounded by the PAIRED-node
count, fine for near-dup graphs, a scale-killer when the graph approaches
corpus size (billions of nodes x 8 B through one process per iteration).
Here the rank vector stays a DISTRIBUTED Dataset end to end:

    deg     = count_by_u64(src)                  # one shuffle, once
    state_0 = deg with rank = 1/n
    each iteration:
      share   = state.map_batches(rank / deg)                 # streaming
      contrib = hash_join(edges, share, on src)               # one shuffle
                -> per-batch combiner sum of share by dst     # streaming
      sums    = fsum_by_u64(dst)                              # one shuffle
      state   = hash_join(deg, sums, how=left)                # tiny join
                -> rank = round((1-d)/n + d*s, 12)

Nothing O(nodes) ever reaches the driver (the per-iteration state
materialize holds block REFS only). Determinism contract: both paths round
every iteration to 1e-12, which absorbs the few-ULP float-addition-order
differences between the sharded reduceat tree and the broadcast
sequential sum — the same assumption the golden oracle itself makes. A
pre-rounding sum landing within an ULP of a 0.5e-12 boundary could still
round apart; with ~1e-17 order noise that is a ~1e-5-per-sum-per-iteration
event, absent on the tested graphs (equivalence-forced unit in
tests/test_pagerank.py) and sub-observable under the final 6-dp output
rounding in practice.

Undirected-graph contract (matches emb_pagerank): ``und`` must already
contain both (a,b) and (b,a) for every edge, so every node appears as both
src and dst — no dangling-node mass term is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pagerank_sharded(und, n_iters: int = 10, damping: float = 0.85):
    """und: Dataset[(src:int64, dst:int64)], symmetric, materialized by the
    caller (it is consumed ``n_iters + 1`` times). Node ids must be >= 0
    (they are hashed as uint64 partition keys). Returns a DISTRIBUTED
    Dataset[(node:int64, rank:float64)]; rank is rounded to 12 decimals."""
    from core_ray.stages.agg import count_by_u64, fsum_by_u64
    from core_ray.stages.join import hash_join

    deg = count_by_u64(
        und.map_batches(
            lambda b: pa.table({"key": pc.cast(b["src"], pa.uint64())}),
            batch_format="pyarrow",
        ),
        "key",
    ).map_batches(
        lambda b: pa.table(
            {
                "node": pc.cast(b["key"], pa.int64()),
                "deg": pc.cast(b["cnt"], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n = deg.count()
    if n == 0:
        import ray

        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.float64())})
        )

    state = deg.map_batches(
        lambda b: pa.table(
            {
                "node": b["node"],
                "deg": b["deg"],
                "rank": pa.array(np.full(b.num_rows, 1.0 / n), pa.float64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.float64())])
    sum_schema = pa.schema([("node", pa.int64()), ("s", pa.float64())])
    base = (1.0 - damping) / n

    def share_of(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b["node"],
                "share": pc.divide(b["rank"], b["deg"]),
            }
        )

    def contrib_combiner(b: pa.Table) -> pa.Table:
        dst = b["dst"].to_numpy(zero_copy_only=False)
        v = b["share"].to_numpy(zero_copy_only=False)
        order = np.argsort(dst, kind="stable")
        dsts, vs = dst[order], v[order]
        new = np.ones(len(dsts), dtype=bool)
        if len(dsts):
            new[1:] = dsts[1:] != dsts[:-1]
        starts = np.nonzero(new)[0]
        return pa.table(
            {
                "key": pa.array(dsts[starts].astype(np.uint64), pa.uint64()),
                "s": pa.array(
                    np.add.reduceat(vs, starts) if len(starts) else vs[:0],
                    pa.float64(),
                ),
            }
        )

    def next_rank(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        s = np.where(np.isnan(s), 0.0, s)  # left-join miss = no inbound mass
        return pa.table(
            {
                "node": b["node"],
                "deg": b["deg"],
                "rank": pa.array(np.round(base + damping * s, 12), pa.float64()),
            }
        )

    for _ in range(n_iters):
        share = state.map_batches(share_of, batch_format="pyarrow")
        # schemas passed explicitly: hash_join would otherwise call
        # .schema() on the lazy share chain, executing a probe block
        # EVERY iteration (the same probe class commit 5de47bb removed)
        joined = hash_join(
            und, share, on="src", right_on="node", how="inner",
            left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
            right_schema=pa.schema([("node", pa.int64()), ("share", pa.float64())]),
        )
        sums = fsum_by_u64(
            joined.map_batches(contrib_combiner, batch_format="pyarrow"),
            "key",
            "s",
        ).map_batches(
            lambda b: pa.table(
                {"node": pc.cast(b["key"], pa.int64()), "s": b["s"]}
            ),
            batch_format="pyarrow",
        )
        state = hash_join(
            deg, sums, on="node", how="left",
            left_schema=deg_schema, right_schema=sum_schema,
        ).map_batches(next_rank, batch_format="pyarrow").materialize()

    return state.map_batches(
        lambda b: b.select(["node", "rank"]), batch_format="pyarrow"
    )
