"""Point-in-polygon join against the broadcast admin-polygon table.

The J1 analog — the reference's file ⋈ config-scope containment join
(pkg/parser/framework/scope.go:72-138; winner selection
pkg/parser/detection/detector.go:162-233): a broadcast small-side join run
inside ``map_batches`` by an actor pool that builds an STRtree over the
polygon bboxes once per actor (ST4: scope shared read-only by all workers,
scanner.go:181-186).

Precedence (mirrors the reference's deterministic nearest-scope selection,
depth -> tie-break, detector.go:176-183): deepest admin ``level`` wins; ties
broken by lexicographically smallest ``admin_id``. No containing polygon ->
admin_id null, admin_level -1 (rows are kept — errors are data, not drops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.config import register_stage
from core_ray.geo import geometry, wkt
from core_ray.geo.strtree import STRtree


def build_polygon_index(admin_table: pa.Table):
    """Parse WKT parts + bulk-load the STRtree. Driver- or actor-side."""
    parts = []  # (admin_id, level, Polygon)
    for aid, lvl, wkt_text in zip(
        admin_table["admin_id"].to_pylist(),
        admin_table["level"].to_pylist(),
        admin_table["wkt"].to_pylist(),
    ):
        for poly in wkt.parse_wkt(wkt_text):
            parts.append((aid, int(lvl), poly))
    bboxes = np.array([p[2].bbox for p in parts], dtype=np.float64).reshape(-1, 4)
    return parts, STRtree(bboxes)


@register_stage("pip")
class PipJoin:
    def __init__(self, admin: pa.Table):
        self.parts, self.tree = build_polygon_index(admin)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        n = len(lat)
        admin_id = np.full(n, None, dtype=object)
        admin_level = np.full(n, -1, dtype=np.int8)
        valid = ~(np.isnan(lat) | np.isnan(lon))
        if valid.any():
            vidx = np.nonzero(valid)[0]
            pt, item = self.tree.query_points(lon[vidx], lat[vidx])
            if len(pt):
                # exact containment per candidate polygon part, vectorized per part
                keep_pt, keep_item = [], []
                for it in np.unique(item):
                    m = item == it
                    pts = pt[m]
                    poly = self.parts[it][2]
                    inside = geometry.points_in_polygon(lon[vidx[pts]], lat[vidx[pts]], poly)
                    keep_pt.append(pts[inside])
                    keep_item.append(np.full(int(inside.sum()), it, dtype=np.int64))
                if keep_pt:
                    pts = np.concatenate(keep_pt)
                    items = np.concatenate(keep_item)
                    if len(pts):
                        levels = np.array([self.parts[i][1] for i in items], dtype=np.int64)
                        aids = np.array([self.parts[i][0] for i in items])
                        # winner per point: deepest level, then smallest admin_id
                        order = np.lexsort((aids, -levels, pts))
                        pts_o, items_o = pts[order], items[order]
                        first = np.ones(len(pts_o), dtype=bool)
                        first[1:] = pts_o[1:] != pts_o[:-1]
                        for p, it in zip(pts_o[first], items_o[first]):
                            gi = vidx[p]
                            admin_id[gi] = self.parts[it][0]
                            admin_level[gi] = self.parts[it][1]
        return batch.append_column(
            "admin_id", pa.array(admin_id.tolist(), pa.string())
        ).append_column("admin_level", pa.array(admin_level, pa.int8()))
