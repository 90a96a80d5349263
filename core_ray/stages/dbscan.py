"""Distributed DBSCAN over point tables (density-based spatial clustering).

The classic sequential DBSCAN expands clusters point-by-point through a
mutable visited set — inexpressible as a batch transform. The distributed
formulation used here is the standard equivalence (e.g. MR-DBSCAN /
RDD-DBSCAN lineage): DBSCAN's clusters are exactly the connected components
of the eps-neighbor graph RESTRICTED to core points, with border points
attaching to a neighboring core's cluster — so the whole algorithm
decomposes into operators this engine already has:

  1. eps-neighbor pairs  -> stages/distband.py (home+ghost cell replication,
     ONE shuffle, no all-pairs);
  2. degrees             -> count_by_u64 over both pair endpoints (work
     scales with points that have >=1 neighbor, not with pairs^2);
  3. core points         -> degree + 1 >= min_pts (the point itself counts
     toward its own eps-neighborhood, matching the textbook definition);
  4. clusters            -> stages/cc.py over core-core edges (log-round
     pointer jumping above its guard); a core point with no core neighbor
     still founds its own singleton cluster;
  5. border points       -> non-core endpoints of (non-core, core) pair
     orientations; each takes the MINIMUM cluster label among its core
     neighbors (the deterministic tie-break — sequential DBSCAN's border
     assignment is famously order-dependent; min-label makes it a function
     of the data);
  6. everything else     -> noise (cluster NULL).

Scale shape: the core set is O(points) on dense data, so core-membership
filters are semi/anti stages/join.lookup_join calls — broadcast
searchsorted while the core set fits, distributed anti/semi hash join above
it (the keep-list lesson from VERDICT r3 item 3 applied from day one).
Cluster labels are component-minimum point ids: deterministic, and stable
under any partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.stages.agg import count_by_u64, min_by_u64
from core_ray.stages.cc import connected_components
from core_ray.stages.distband import distance_pairs
from core_ray.stages.join import hash_join, lookup_join


def dbscan(pts, eps: float, min_pts: int, id_col: str = "doc_id",
           lat_col: str = "lat", lon_col: str = "lon"):
    """Dataset[(id, lat, lon)] -> Dataset[(id, cluster, role)].

    cluster = minimum point id in the cluster (int64, NULL for noise);
    role in {'core', 'border', 'noise'}. Distance is squared euclidean in
    coordinate space (same bit-exact kernel as distance_pairs).
    """
    pairs = distance_pairs(pts, eps, id_col=id_col,
                           lat_col=lat_col, lon_col=lon_col).materialize()
    return dbscan_from_pairs(pts, pairs, min_pts, id_col=id_col)


def dbscan_from_pairs(pts, pairs, min_pts: int, id_col: str = "doc_id"):
    """DBSCAN over a PRECOMPUTED eps-neighbor edge set: ``pairs`` is a
    materialized Dataset[(doc_a, doc_b, sq_dist)] of unique undirected
    qualifying pairs. Factored out of dbscan() so other neighbor
    predicates reuse steps 2-6 of the decomposition unchanged — e.g.
    ST-DBSCAN feeds the space-AND-time pairs from
    stages/stjoin.py::spacetime_all_pairs (the neighborhood definition is
    the ONLY thing that differs between DBSCAN variants)."""

    def endpoints(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        c = b["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"key": pa.array(np.concatenate([a, c]), pa.uint64())})

    deg = count_by_u64(pairs.map_batches(endpoints, batch_format="pyarrow"), "key")

    def core_of(b: pa.Table) -> pa.Table:
        k = b["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = b["cnt"].to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(k[c + 1 >= min_pts], pa.int64())})

    core = deg.map_batches(core_of, batch_format="pyarrow").materialize()
    node_schema = pa.schema([("node", pa.int64())])
    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("sq_dist", pa.float64())]
    )

    core_edges = lookup_join(
        lookup_join(pairs, core, on="doc_a", right_on="node", how="semi",
                    left_schema=pair_schema),
        core, on="doc_b", right_on="node", how="semi", left_schema=pair_schema,
    )
    comps = connected_components(core_edges, src="doc_a", dst="doc_b").materialize()
    singles = lookup_join(
        core, comps, on="node", how="anti", left_schema=node_schema,
    ).map_batches(
        lambda b: pa.table({"node": b["node"], "comp": b["node"]}),
        batch_format="pyarrow",
    )
    core_lab = comps.union(singles).materialize()

    # (non-core u, core v) oriented pair endpoints -> min core-cluster label
    def orient(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy(zero_copy_only=False)
        c = b["doc_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(np.concatenate([a, c]), pa.int64()),
                "node": pa.array(np.concatenate([c, a]), pa.int64()),
            }
        )

    oriented = pairs.map_batches(orient, batch_format="pyarrow")
    uv_schema = pa.schema([("u", pa.int64()), ("node", pa.int64())])
    cand = lookup_join(
        lookup_join(oriented, core, on="node", how="semi", left_schema=uv_schema),
        core, on="u", right_on="node", how="anti", left_schema=uv_schema,
    )
    lab_schema = pa.schema([("node", pa.int64()), ("comp", pa.int64())])
    bj = hash_join(cand, core_lab, on="node",
                   left_schema=uv_schema, right_schema=lab_schema)

    def to_u64(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "uk": pa.array(
                    b["u"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    pa.uint64()),
                "ck": pa.array(
                    b["comp"].to_numpy(zero_copy_only=False).astype(np.uint64),
                    pa.uint64()),
            }
        )

    border_lab = min_by_u64(
        bj.map_batches(to_u64, batch_format="pyarrow"), "uk", "ck"
    ).map_batches(
        lambda b: pa.table(
            {
                "node": pa.array(
                    b["uk"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64()),
                "comp": pa.array(
                    b["ck"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    ids = pts.map_batches(
        lambda b: pa.table({"node": b[id_col]}), batch_format="pyarrow"
    )
    id_schema = pa.schema([("node", pa.int64())])
    noise = lookup_join(
        lookup_join(ids, core, on="node", how="anti", left_schema=id_schema),
        border_lab, on="node", how="anti", left_schema=id_schema,
    )

    def tag(role):
        def fn(b: pa.Table) -> pa.Table:
            comp = (b["comp"] if role != "noise"
                    else pa.array([None] * b.num_rows, pa.int64()))
            return pa.table(
                {
                    id_col: b["node"],
                    "cluster": comp,
                    "role": pa.array([role] * b.num_rows, pa.string()),
                }
            )
        return fn

    return (
        core_lab.map_batches(tag("core"), batch_format="pyarrow")
        .union(border_lab.map_batches(tag("border"), batch_format="pyarrow"))
        .union(noise.map_batches(tag("noise"), batch_format="pyarrow"))
    )
