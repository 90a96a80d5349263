"""Round-5 operator units: ST-DBSCAN vs a sequential reference, trajectory
Hausdorff vs brute force, and the point-pattern statistics' closed forms vs
naive recomputation. The driver oracle checks these on the real tables; these
tests hammer the kernels on adversarial synthetic inputs instead."""

import numpy as np
import pyarrow as pa


def _st_dbscan_reference(ids, lat, lon, us, eps, window_us, min_pts):
    """Sequential textbook ST-DBSCAN with MIN-label clusters (the repo's
    deterministic border contract): neighbor = within eps in space AND
    window in time; core = |N(p)| + 1 >= min_pts; clusters = CC of cores;
    border = non-core with a core neighbor, takes min core-cluster label."""
    n = len(ids)
    nbrs = [[] for _ in range(n)]
    r2 = eps * eps
    for i in range(n):
        for j in range(i + 1, n):
            dla = lat[i] - lat[j]
            dlo = lon[i] - lon[j]
            if dla * dla + dlo * dlo <= r2 and abs(us[i] - us[j]) <= window_us:
                nbrs[i].append(j)
                nbrs[j].append(i)
    core = [len(nbrs[i]) + 1 >= min_pts for i in range(n)]
    label = {}
    for i in range(n):
        if not core[i] or i in label:
            continue
        stack, comp = [i], []
        seen = {i}
        while stack:
            k = stack.pop()
            comp.append(k)
            for m in nbrs[k]:
                if core[m] and m not in seen:
                    seen.add(m)
                    stack.append(m)
        lab = min(int(ids[k]) for k in comp)
        for k in comp:
            label[k] = lab
    out = {}
    for i in range(n):
        if core[i]:
            out[int(ids[i])] = (label[i], "core")
        else:
            cn = [label[m] for m in nbrs[i] if core[m]]
            if cn:
                out[int(ids[i])] = (min(cn), "border")
            else:
                out[int(ids[i])] = (None, "noise")
    return out


def test_st_dbscan_matches_sequential_reference(ray_session):
    import ray.data

    from core_ray.stages.dbscan import dbscan_from_pairs
    from core_ray.stages.stjoin import spacetime_all_pairs

    rng = np.random.default_rng(31)
    n = 250
    ids = np.arange(n, dtype=np.int64)
    rng.shuffle(ids)
    # three dense space-time blobs + uniform noise
    blob = rng.integers(0, 4, n)
    lat = np.where(blob < 3, blob * 3.0 + rng.normal(0, 0.3, n),
                   rng.uniform(-10, 10, n))
    lon = np.where(blob < 3, blob * 2.0 + rng.normal(0, 0.3, n),
                   rng.uniform(-10, 10, n))
    us = np.where(blob < 3, blob * 10_000_000_000 + rng.integers(0, 2_000_000_000, n),
                  rng.integers(0, 40_000_000_000, n)).astype(np.int64)
    eps, window, min_pts = 1.0, 1_500_000_000, 4

    pts = ray.data.from_arrow(
        pa.table(
            {
                "event_id": pa.array(ids, pa.int64()),
                "lat": pa.array(lat, pa.float64()),
                "lon": pa.array(lon, pa.float64()),
                "us": pa.array(us, pa.int64()),
            }
        )
    ).repartition(4)
    pairs = spacetime_all_pairs(pts, eps, window,
                                id_col="event_id").materialize()
    got = {
        r["event_id"]: (r["cluster"], r["role"])
        for r in dbscan_from_pairs(pts, pairs, min_pts,
                                   id_col="event_id").take_all()
    }
    expect = _st_dbscan_reference(ids, lat, lon, us, eps, window, min_pts)
    assert got == expect


def test_traj_hausdorff_matches_brute_force(ray_session):
    """The end-to-end query on sf0.001 vs a from-scratch recomputation of
    the cohort, the pairs and the max-min fold."""
    import duckdb

    import ray  # noqa: F401  (session held by fixture)
    from core_ray.queries import QUERIES
    from core_ray.queries.events_mobility import _contact_coords

    sf = "/root/testdata/sf0.001"
    import pyarrow as pa_mod

    res = QUERIES["events_traj_hausdorff"](sf)
    got = (res if isinstance(res, pa_mod.Table)
           else pa_mod.Table.from_pylist(res.take_all())).to_pydict()

    t = duckdb.sql(
        f"SELECT event_id, user_id FROM '{sf}/events.parquet'"
    ).arrow()
    eid = t["event_id"].to_numpy().astype(np.int64)
    uid = t["user_id"].to_numpy().astype(np.int64)
    lat, lon = _contact_coords(eid, uid)
    # cohort: top-5 per city by count, tie-break lowest uid
    users, counts = np.unique(uid, return_counts=True)
    expect_rows = {}
    for c in range(12):
        m = users % 12 == c
        uu, cc = users[m], counts[m]
        order = np.lexsort((uu, -cc))
        sel = np.sort(uu[order][:5])
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                a, b = sel[i], sel[j]
                pa_, pb_ = uid == a, uid == b
                dla = lat[pa_][:, None] - lat[pb_][None, :]
                dlo = lon[pa_][:, None] - lon[pb_][None, :]
                d2 = dla * dla + dlo * dlo
                h = max(d2.min(axis=1).max(), d2.min(axis=0).max())
                expect_rows[(c, int(a), int(b))] = (
                    int(pa_.sum()), int(pb_.sum()), float(h))
    got_rows = {
        (got["city"][k], got["uid_a"][k], got["uid_b"][k]):
        (got["n_a"][k], got["n_b"][k], got["hausdorff_sq"][k])
        for k in range(len(got["city"]))
    }
    assert got_rows == expect_rows
