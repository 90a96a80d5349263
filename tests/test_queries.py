"""Driver-gate replica: every ORACLE_SQL query must match DuckDB exactly at
sf0.001 (row count + column names + order-insensitive values); rows-only
queries must execute and return sane row counts."""

import pytest

from core_ray.compare import check_query
from core_ray.queries import ORACLE_SQL, QUERIES

SF_DIR = "/root/testdata/sf0.001"
# the golden-diff oracles (pages_* and the sketch/ANN docs goldens) are pinned
# to the DRIVER correctness corpus (sf0.01) — check them at that scale,
# exactly as the driver will
SF_PAGES = "/root/testdata/sf0.01"
_GOLDEN_PINNED = (
    "pages_",
    "doc_fingerprint",
    "doc_minhash_pairs",
    "doc_dup_",  # clusters + geo_spread + source_matrix (all golden-joined)
    "doc_cross_lingual_dup",
    "doc_dedup_keep",
    "doc_curated",
    "doc_simhash_pairs",
    "emb_ann_lsh",
    "emb_ann_ivf",
    "emb_ann_recall",  # joins the IVF golden, same pin as emb_ann_ivf
    "doc_dedup_method_overlap",  # joins the minhash+simhash goldens
    "doc_curation_funnel",  # joins the dup_clusters golden
    "emb_pagerank",
    "emb_kmeans",
    "emb_pca_power",
    "doc_bpe_merges",  # golden-parquet oracle, pinned to the golden sf
    "doc_bpe_apply",
    "emb_pq_distortion",
    "emb_pq_recall",
    "geo_convex_hull",
    "geo_traj_simplify",
    "events_frechet_pairs",  # golden DP parquet over the sf0.01 events
    "geo_jenks_breaks",  # golden exhaustive-enumeration parquet, sf0.01
    "emb_semdedup",  # golden_kmeans-chained parquet, sf0.01
    "events_absorbing_markov",  # golden Cramer-rule parquet, sf0.01
    "media_",  # media goldens pinned to the sf0.01 corpus (docs coincide
               # at sf0.001, but pin explicitly rather than by accident)
)

ORACLE_NAMES = sorted(ORACLE_SQL)
ROWS_ONLY = sorted(set(QUERIES) - set(ORACLE_SQL) - {
    "pages_knn",  # covered by the test_flagship golden suite (incl. kNN)
})


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_query_matches(ray_session, name):
    r = check_query(name, SF_PAGES if name.startswith(_GOLDEN_PINNED) else SF_DIR)
    assert r["ok"], {k: v for k, v in r.items() if k != "ok"}


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_query_runs(ray_session, name):
    r = check_query(name, SF_DIR)
    assert r["ok"] and r["rows_ray"] >= 0


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    q = e.queries()
    s = e.oracle_sql()
    assert set(s) <= set(q), "oracle_sql keys must be a subset of queries"
    assert len(q) >= 20
    # the registry is frozen: a refactor must not drop a query or its oracle
    assert len(QUERIES) == 353
    assert set(ORACLE_SQL) == set(QUERIES)


def test_ngram_novelty_paths_agree(ray_session, monkeypatch):
    """Broadcast and distributed-join pass-2 paths must be value-identical."""
    from core_ray.queries import doc_ngram_novelty
    from core_ray.stages import join

    a = (
        doc_ngram_novelty(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)  # force the join path
    b = (
        doc_ngram_novelty(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert a.equals(b)
