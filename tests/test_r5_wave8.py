"""Round-5 wave-8 operator units. The driver oracle checks these on the
real tables; here each kernel is verified against a fully independent
pure-Python reference on synthetic throwaway-parquet inputs."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _write(table_rows: dict[str, dict]) -> str:
    d = tempfile.mkdtemp(prefix="core_ray_wave8_")
    for name, rows in table_rows.items():
        pq.write_table(pa.table(rows), os.path.join(d, f"{name}.parquet"))
    return d


# ---------------------------------------------------- snapshot diff


def _diff_reference(ids, texts):
    """Dict re-derivation of the CDC classes over the deterministic
    two-snapshot split (old = id%10 < 7, new = id%10 >= 3, new-side
    perturbation on id%7 == 0)."""
    old = {i: t for i, t in zip(ids, texts) if i % 10 < 7}
    new = {
        i: (t + " [updated]" if i % 7 == 0 else t)
        for i, t in zip(ids, texts)
        if i % 10 >= 3
    }
    out = {}
    for i in set(old) | set(new):
        if i not in old:
            out[i] = "added"
        elif i not in new:
            out[i] = "deleted"
        elif old[i] != new[i]:
            out[i] = "changed"
        else:
            out[i] = "unchanged"
    return out


def test_snapshot_diff_matches_dict_reference(ray_session):
    from core_ray.queries import doc_snapshot_diff

    rng = np.random.default_rng(41)
    n = 400
    ids = np.arange(n, dtype=np.int64)
    # duplicate TEXTS across different doc_ids on purpose: the diff keys
    # on doc_id, so cross-doc twins must not leak between rows
    texts = [
        "page body " + str(int(v))
        for v in rng.integers(0, 50, size=n)
    ]
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    got = {
        r["doc_id"]: r["change"] for r in doc_snapshot_diff(d).take_all()
    }
    want = _diff_reference(ids.tolist(), texts)
    assert got == want
    # every CDC class is populated (a vacuous pass is impossible)
    classes = set(got.values())
    assert classes == {"added", "deleted", "changed", "unchanged"}


def test_snapshot_diff_single_class_corpora(ray_session):
    """Edge cases: a corpus entirely in one snapshot-side bucket."""
    from core_ray.queries import doc_snapshot_diff

    # ids 7,17,27: %10>=7 -> added only (never in the old snapshot)
    d = _write(
        {
            "documents": {
                "doc_id": pa.array([7, 17, 27], pa.int64()),
                "text": pa.array(["a", "b", "c"], pa.string()),
            }
        }
    )
    got = doc_snapshot_diff(d).take_all()
    assert sorted(r["doc_id"] for r in got) == [7, 17, 27]
    assert {r["change"] for r in got} == {"added"}

    # ids 0,10,20: %10<3 -> deleted only; and id 0 is %7==0 — the
    # perturbation must NOT apply to a doc absent from the new side
    d2 = _write(
        {
            "documents": {
                "doc_id": pa.array([0, 10, 20], pa.int64()),
                "text": pa.array(["a", "b", "c"], pa.string()),
            }
        }
    )
    got2 = doc_snapshot_diff(d2).take_all()
    assert {r["change"] for r in got2} == {"deleted"}


# ---------------------------------------------- allpairs jaccard join


def _jaccard_bruteforce(ids, texts, tau):
    sets = {i: set(t.split(" ")) for i, t in zip(ids, texts)}
    out = {}
    ks = sorted(sets)
    for x in range(len(ks)):
        for y in range(x + 1, len(ks)):
            a, b = sets[ks[x]], sets[ks[y]]
            i = len(a & b)
            j = i / (len(a) + len(b) - i)
            if j >= tau:
                out[(ks[x], ks[y])] = round(j, 6)
    return out


def _allpairs_corpus():
    """(sf dir, ids, texts): random small-vocab sets plus a clone family."""
    rng = np.random.default_rng(97)
    vocab = np.array(["w%02d" % i for i in range(18)])
    n = 120
    ids = np.arange(n, dtype=np.int64)
    texts = []
    base = sorted(rng.choice(vocab, size=12, replace=False).tolist())
    for i in range(n):
        if i % 3 == 0:
            # near-clone of the base set: drop/add one token
            s = set(base)
            if i % 6 == 0 and len(s) > 2:
                s.discard(sorted(s)[i // 6 % len(s)])
            else:
                s.add("w%02d" % (i % 18))
            texts.append(" ".join(sorted(s)))
        else:
            k = int(rng.integers(4, 14))
            texts.append(" ".join(sorted(rng.choice(vocab, size=k, replace=False).tolist())))
    d = _write(
        {
            "documents": {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        }
    )
    return d, ids, texts


def test_allpairs_jaccard_matches_bruteforce(ray_session):
    """Random small-vocab sets (the prefix filter's adversarial regime:
    hot inverted lists + near-identical sizes) against the O(n^2)
    reference — exercises prefix generation, the length filter, pair
    dedup across multiple shared prefix tokens, and verify."""
    from core_ray.queries import doc_allpairs_jaccard

    d, ids, texts = _allpairs_corpus()
    for tau in (0.7, 0.95):
        got = {
            (r["doc_a"], r["doc_b"]): r["jaccard"]
            for r in doc_allpairs_jaccard(d, tau=tau).take_all()
        }
        want = _jaccard_bruteforce(ids.tolist(), texts, tau)
        assert set(got) == set(want), (
            f"tau={tau}: missing={set(want)-set(got)} extra={set(got)-set(want)}"
        )
        for k in want:
            assert abs(got[k] - want[k]) < 1e-9
    # sanity: the clone family actually produced matches
    assert len(want) > 0


def test_allpairs_jaccard_both_join_regimes(ray_session, monkeypatch):
    """The canonical sets attach by lookup_join: broadcast, then forced
    onto its hash_join fallback; both match the O(n^2) reference."""
    from core_ray.queries import doc_allpairs_jaccard
    from core_ray.stages import join

    d, ids, texts = _allpairs_corpus()
    want = _jaccard_bruteforce(ids.tolist(), texts, 0.7)
    assert want
    for bmax in (join.BROADCAST_MAX_BYTES, 0):  # broadcast regime, then distributed
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        got = {
            (r["doc_a"], r["doc_b"]): r["jaccard"]
            for r in doc_allpairs_jaccard(d, tau=0.7).take_all()
        }
        assert set(got) == set(want), bmax
        assert all(abs(got[k] - want[k]) < 1e-9 for k in want), bmax


def test_winnow_overlap_both_join_regimes(ray_session, monkeypatch):
    """The per-doc set sizes attach by lookup_join: broadcast, then forced
    onto its hash_join fallback; both give the oracle's rows on the sf0.01
    reference tables the benchmark ships."""
    from core_ray.compare import check_query
    from core_ray.stages import join

    sf = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "reftables")
    for bmax in (join.BROADCAST_MAX_BYTES, 0):  # broadcast regime, then distributed
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", bmax)
        r = check_query("doc_winnow_overlap", sf)
        assert r["ok"] and r["rows_ray"] > 0, (bmax, r)
