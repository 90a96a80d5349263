"""Distributed connected components over an edge-pair Dataset.

The cluster-assignment step of corpus deduplication: near-dup PAIRS (from
MinHash/SimHash/embedding banding) become CLUSTERS by taking connected
components of the pair graph, and every document gets its component's
minimum doc id as ``cluster_id`` (reference parity: the repo's exact-dedup
stage already emits rep/star clusters, stages/dedup.py — this generalizes
that contract to arbitrary pair graphs, where chained near-dups A~B~C must
land in ONE cluster even though A and C never paired directly).

Algorithm: min-label propagation with pointer jumping ("hash-to-min" /
Hash-Greater-to-Min family — Rastogi et al., "Finding Connected Components
in Map-Reduce in Logarithmic Rounds", ICDE 2013). Per round, every node's
label candidates are

    its own label  ∪  each neighbor's label  ∪  its label's label

reduced by per-key MIN (agg.min_by_u64 — combiner + one hash partition +
minimum.reduceat). The parent-of-parent term is the pointer jump that
collapses long chains in O(log diameter) rounds instead of O(diameter);
each round costs two hash-partitioned equi-joins (stages/join.py) and one
min reduce — all-to-alls over the LABEL table (|V| rows) and the edge
table (2|E| rows), never over the corpus.

Scale notes:
- the driver loop only moves an 8-byte checksum per round (labels are
  monotonically non-increasing, so an unchanged order-independent checksum
  is a fixpoint proof up to a 2^-64 collision);
- labels are materialized per round — they are the iteration's working
  set (nodes touched by at least one pair, typically ≪ corpus);
- skew: a mega-cluster's rows spread across partitions during the min
  reduce (reduceat over sorted runs), so a hot component costs bandwidth,
  not a single straggler.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.collect import collect_table

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_M = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z + _GOLD) & _M
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _M
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _M
    return z ^ (z >> np.uint64(31))


def _checksum(labels_ds) -> int:
    """Order-independent XOR checksum of (node, label) rows."""
    def part(b: pa.Table) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False).astype(np.uint64)
        l = b["label"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _mix(n * np.uint64(3) ^ _mix(l))
        acc = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
        return pa.table({"x": pa.array([acc], pa.uint64())})

    parts = labels_ds.map_batches(part, batch_format="pyarrow").take_all()
    acc = 0
    for row in parts:
        acc ^= int(row["x"])
    return acc


def _cc_local(eu: np.ndarray, ev: np.ndarray) -> pa.Table:
    """Driver-side components for a SMALL edge set: dense-relabel + numpy
    min-propagation with pointer jumping (each round O(E+V) vectorized,
    O(log diameter) rounds). Same output contract as the distributed path."""
    nodes, inv = np.unique(np.concatenate([eu, ev]), return_inverse=True)
    iu, iv = inv[: len(eu)], inv[len(eu):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lab.copy()
        np.minimum.at(new, iu, lab[iv])
        np.minimum.at(new, iv, lab[iu])
        new = new[new]  # pointer jump
        if np.array_equal(new, lab):
            break
        lab = new
    # nodes is sorted ascending, so the min dense label IS the min node id
    return pa.table(
        {
            "node": pa.array(nodes.astype(np.int64), pa.int64()),
            "comp": pa.array(nodes[lab].astype(np.int64), pa.int64()),
        }
    )


def connected_components(edges_ds, src: str = "src", dst: str = "dst",
                         max_rounds: int = 64,
                         local_edges_threshold: int = 4_000_000):
    """edges Dataset[(src:int64, dst:int64)] (undirected, self-loops and
    duplicates tolerated) -> Dataset[(node:int64, comp:int64)] where comp
    is the component's minimum node id. Node ids must be non-negative.

    Adaptive strategy (same policy as the broadcast-vs-hash join
    selectors): the edge table is the iteration's entire working set, so
    when its bidirectional form is at most ``local_edges_threshold`` rows
    (~64 MB) the components are solved on the driver in one vectorized
    pass — the log-round distributed loop costs ~6 chained executions of
    fixed latency, which dwarfs the compute for the near-dup pair sets
    dedup actually produces. Above the threshold the Rastogi-style
    distributed rounds run unchanged (force with ``local_edges_threshold=0``,
    as the equivalence tests do)."""
    import ray.data

    from core_ray.stages.agg import min_by_u64
    from core_ray.stages.join import hash_join

    empty = pa.table({"node": pa.array([], pa.int64()), "comp": pa.array([], pa.int64())})

    def bidir(b: pa.Table) -> pa.Table:
        u = b[src].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = b[dst].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "eu": pa.array(np.concatenate([u, v]), pa.uint64()),
                "ev": pa.array(np.concatenate([v, u]), pa.uint64()),
            }
        )

    edges = edges_ds.map_batches(bidir, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(empty)
    if n_edges <= local_edges_threshold:
        t = collect_table(edges)
        return ray.data.from_arrow(
            _cc_local(
                t["eu"].to_numpy(zero_copy_only=False),
                t["ev"].to_numpy(zero_copy_only=False),
            )
        )

    # L0(v) = min(v, min over incident edges of the other endpoint)
    labels = min_by_u64(
        edges.map_batches(
            lambda b: pa.table(
                {
                    "node": b["eu"],
                    "label": pa.array(
                        np.minimum(
                            b["eu"].to_numpy(zero_copy_only=False),
                            b["ev"].to_numpy(zero_copy_only=False),
                        ),
                        pa.uint64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        "node",
        "label",
    ).materialize()
    prev = _checksum(labels)

    lbl_schema = pa.schema([("node", pa.uint64()), ("label", pa.uint64())])
    for _ in range(max_rounds):
        # neighbor propagation: edge (eu, ev) contributes L(ev) to eu
        nbr = hash_join(
            edges, labels, on="ev", right_on="node",
            left_schema=pa.schema([("eu", pa.uint64()), ("ev", pa.uint64())]),
            right_schema=lbl_schema,
        ).map_batches(
            lambda b: pa.table({"node": b["eu"], "label": b["label"]}),
            batch_format="pyarrow",
        )
        # pointer jump: node's candidate = L(L(node))
        as_child = labels.map_batches(
            lambda b: pa.table({"cnode": b["node"], "key": b["label"]}),
            batch_format="pyarrow",
        )
        as_parent = labels.map_batches(
            lambda b: pa.table({"key": b["node"], "plabel": b["label"]}),
            batch_format="pyarrow",
        )
        jump = hash_join(
            as_child, as_parent, on="key",
            left_schema=pa.schema([("cnode", pa.uint64()), ("key", pa.uint64())]),
            right_schema=pa.schema([("key", pa.uint64()), ("plabel", pa.uint64())]),
        ).map_batches(
            lambda b: pa.table({"node": b["cnode"], "label": b["plabel"]}),
            batch_format="pyarrow",
        )
        cand = labels.union(nbr).union(jump)
        labels = min_by_u64(cand, "node", "label").materialize()
        cur = _checksum(labels)
        if cur == prev:
            break
        prev = cur

    return labels.map_batches(
        lambda b: pa.table(
            {
                "node": pa.array(
                    b["node"].to_numpy(zero_copy_only=False).astype(np.int64), pa.int64()
                ),
                "comp": pa.array(
                    b["label"].to_numpy(zero_copy_only=False).astype(np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
