"""End-to-end golden test: Ray flagship pipeline vs pure-Python oracle.

Comparison discipline mirrors the reference's snapshot diff
(tests/integration/snapshot.go:216-276): exact counts, exact key sets in both
directions, order-insensitive, plus the byte-identity invariant on extracted
text per url."""

import hashlib

import numpy as np
import pytest

from core_ray.config import PipelineConfig
from core_ray.fixtures.oracle import compute_golden
from core_ray.fixtures.pages import write_corpus
from core_ray.pipelines.flagship import run_flagship

N_PAGES = 1200


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    c = write_corpus(out, N_PAGES, n_page_files=3)
    return out, c


@pytest.fixture(scope="module")
def result_and_golden(ray_session, corpus, tmp_path_factory):
    import glob

    out_dir, c = corpus
    golden = compute_golden(c.pages, c.admin_polygons, c.geoip_ranges)
    ckpt = str(tmp_path_factory.mktemp("ckpt"))
    res = run_flagship(
        sorted(glob.glob(f"{out_dir}/pages/*.parquet")),
        c.admin_polygons,
        c.geoip_ranges,
        PipelineConfig(),
        checkpoint_dir=ckpt,
    )
    return res, golden, c, ckpt


def _joined_key(r):
    return (r["url"], r["mention_idx"])


def test_joined_matches_golden(result_and_golden):
    res, golden, _, _ = result_and_golden
    got = {
        _joined_key(r): r for r in res.joined.take_all()
    }
    want = {_joined_key(r): r for r in golden.joined}
    assert set(got) == set(want), (
        f"missing={list(set(want) - set(got))[:5]} extra={list(set(got) - set(want))[:5]}"
    )
    for k, w in want.items():
        g = got[k]
        assert g["derivation_source"] == w["derivation_source"], k
        assert g["lat"] == pytest.approx(w["lat"], abs=0), k
        assert g["lon"] == pytest.approx(w["lon"], abs=0), k
        assert int(g["hex_cell"]) == w["hex_cell"], k
        assert int(g["s2_cell"]) == w["s2_cell"], k
        assert g["admin_id"] == w["admin_id"], (k, g["admin_id"], w["admin_id"])
        assert g["admin_level"] == w["admin_level"], k


def test_text_byte_identity(result_and_golden):
    # engine-extracted text must be byte-identical to the fixture's expected
    # text for EVERY url, all the way through the joined checkpoint
    res, golden, _, _ = result_and_golden
    seen = {}
    for r in res.joined.select_columns(["url", "text"]).take_all():
        seen[r["url"]] = hashlib.sha256(r["text"].encode("utf-8")).hexdigest()
    for url, h in seen.items():
        assert golden.text_hashes[url] == h, url


def test_errors_side_channel(result_and_golden):
    res, golden, _, _ = result_and_golden
    got = {r["url"] for r in res.errors.take_all()}
    want = {e["url"] for e in golden.errors}
    assert got == want


def test_stats_match(result_and_golden):
    res, golden, _, _ = result_and_golden
    assert res.stats["rows_geocoded"] == golden.stats["rows_geocoded"]
    assert res.stats["rows_no_signal"] == golden.stats["rows_no_signal"]
    assert res.stats["pages_deduped"] == golden.stats["pages_deduped"]
    assert res.stats["derivation_source_hist"] == golden.stats["derivation_source_hist"]


def test_stats_pass_is_one_map_only_execution(result_and_golden, executions):
    """The stats counters fold per batch and sum on the driver: one
    execution, with no shuffle and no Ray Data aggregate."""
    from core_ray.pipelines.flagship import _stats_pass
    from core_ray.state.lineage import CheckpointStore

    res, _, _, ckpt = result_and_golden
    deduped = CheckpointStore(ckpt).load("deduped", columns=["derivation_source", "mention_idx"])
    executions.clear()
    stats = _stats_pass(deduped)
    assert len(executions) == 1, executions
    assert "Sort" not in executions[0] and "Aggregate" not in executions[0], executions
    assert stats == {k: res.stats[k] for k in stats}


def test_phase_b_consumers_overlap(ray_session, corpus, tmp_path, monkeypatch):
    """kNN, tiles and stats run as concurrent executions at any CPU count:
    on a cold run at the session's 4 CPUs all three start before any of
    them returns. Each span ends when the stage's rows are materialized."""
    import glob
    import threading
    import time

    import core_ray.pipelines.flagship as fl

    spans, lock = {}, threading.Lock()

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            out = fn(*args, **kwargs)
            if hasattr(out, "materialize"):
                out = out.materialize()
            with lock:
                spans[name] = (t0, time.monotonic())
            return out

        return wrapper

    for name in ("knn_per_cell", "tile_rollup", "_stats_pass"):
        monkeypatch.setattr(fl, name, timed(name, getattr(fl, name)))
    out_dir, c = corpus
    fl.run_flagship(sorted(glob.glob(f"{out_dir}/pages/*.parquet")), c.admin_polygons,
                    c.geoip_ranges, PipelineConfig(), checkpoint_dir=str(tmp_path))
    assert sorted(spans) == ["_stats_pass", "knn_per_cell", "tile_rollup"]
    first_return = min(end for _, end in spans.values())
    assert all(start < first_return for start, _ in spans.values()), spans


def test_knn_matches_golden(result_and_golden):
    res, golden, _, _ = result_and_golden
    got = {
        (r["url"], r["mention_idx"], r["rank"]): (
            r["neighbor_url"], r["neighbor_mention_idx"], r["dist"],
        )
        for r in res.knn.take_all()
    }
    want = {
        (r["url"], r["mention_idx"], r["rank"]): (
            r["neighbor_url"], r["neighbor_mention_idx"], r["dist"],
        )
        for r in golden.knn
    }
    assert set(got) == set(want)
    for k, (wu, wm, wd) in want.items():
        gu, gm, gd = got[k]
        assert (gu, gm) == (wu, wm), k
        assert gd == pytest.approx(wd, rel=1e-12), k


def test_tiles_match_golden(result_and_golden):
    res, golden, _, _ = result_and_golden
    got = {
        (r["tile_z"], r["tile_x"], r["tile_y"]): (r["page_count"], r["mention_count"])
        for r in res.tiles.take_all()
    }
    assert got == golden.tiles


def test_resume_skips_completed_shards(result_and_golden, corpus):
    """Second run over the same checkpoint dir must reuse every stage."""
    import glob
    import json
    import os

    res, golden, c, ckpt = result_and_golden
    out_dir, _ = corpus
    manifests = sorted(glob.glob(f"{ckpt}/**/manifest.json", recursive=True))
    assert manifests, "no lineage manifests written"
    before = {m: os.stat(m).st_mtime_ns for m in manifests}
    res2 = run_flagship(
        sorted(glob.glob(f"{out_dir}/pages/*.parquet")),
        c.admin_polygons,
        c.geoip_ranges,
        PipelineConfig(),
        checkpoint_dir=ckpt,
    )
    after = {m: os.stat(m).st_mtime_ns for m in manifests}
    assert before == after, "resume recomputed a completed stage"
    assert res2.stats == res.stats
    for m in manifests:
        with open(m) as f:
            j = json.load(f)
        assert j["rows"] >= 0 and "files" in j and "wall_s" in j


def test_checkpoint_reader_count(ray_session, corpus, tmp_path_factory, monkeypatch):
    """Every checkpoint open (``CheckpointStore.load``) and every
    ``read_parquet`` call, per run. With S shards a cold run reads each
    page shard once and opens the phase-A checkpoints once, as one
    Dataset, plus the kNN and tiles checkpoints (S + 3); a full resume
    opens the deduped checkpoint (for joined / errors) and the kNN and
    tiles checkpoints (3): the kNN and tiles inputs are opened only when
    those stages compute, and the stats come from their record. An
    mtime-only delta recomputes one shard to the same rows and opens no
    phase-A checkpoint."""
    import glob
    import os

    import ray.data

    from core_ray.state.lineage import CheckpointStore

    out_dir, c = corpus
    files = sorted(glob.glob(f"{out_dir}/pages/*.parquet"))
    n_shards = len(files)
    calls = []
    read_parquet = ray.data.read_parquet
    load = CheckpointStore.load

    def counting_read_parquet(*args, **kwargs):
        calls.append(("read_parquet", args[0] if args else kwargs.get("paths")))
        return read_parquet(*args, **kwargs)

    def counting_load(store, stage, shard=None, columns=None):
        calls.append((stage, shard))
        return load(store, stage, shard, columns)

    monkeypatch.setattr(ray.data, "read_parquet", counting_read_parquet)
    monkeypatch.setattr(CheckpointStore, "load", counting_load)
    ckpt = str(tmp_path_factory.mktemp("ckpt_readers"))

    def run():
        calls.clear()
        res = run_flagship(files, c.admin_polygons, c.geoip_ranges,
                           PipelineConfig(), checkpoint_dir=ckpt, n_shards=n_shards)
        return res, list(calls)

    def stages(cs):
        return sorted(stage for stage, _ in cs)

    cold, cold_calls = run()
    assert len(cold_calls) <= n_shards + 3, cold_calls
    assert stages(cold_calls) == ["knn", "phaseA", *["read_parquet"] * n_shards, "tiles"]
    resumed, resume_calls = run()
    assert len(resume_calls) <= 3, resume_calls
    assert stages(resume_calls) == ["deduped", "knn", "tiles"]
    assert resumed.stats == cold.stats

    st = os.stat(files[0])
    os.utime(files[0], ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    try:
        delta, delta_calls = run()
    finally:
        os.utime(files[0], ns=(st.st_atime_ns, st.st_mtime_ns))
    assert stages(delta_calls) == ["deduped", "knn", "read_parquet", "tiles"], delta_calls
    assert delta.stats == cold.stats


def test_oversize_error_rows(ray_session, tmp_path_factory):
    """Pages over max_html_bytes surface as (phase='extract',
    reason='max-html-bytes') error rows — never silently dropped — and are
    excluded from joined; stats count them (the MaxFileSize analog)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from core_ray.fixtures.pages import generate_pages

    c = generate_pages(120)
    big_url = "https://oversized.example.com/p/big"
    big_html = b"<html><body>" + b"<p>big</p>" * 4000 + b"</body></html>"
    extra = pa.table(
        {
            "url": pa.array([big_url], pa.string()),
            "warc_ts": pa.array([c.pages["warc_ts"][0].as_py()], pa.timestamp("us")),
            "html": pa.array([big_html], pa.binary()),
            "text": pa.array(["big"], pa.large_string()),
            "lang": pa.array(["en"], pa.string()),
        }
    )
    pages = pa.concat_tables([c.pages, extra])
    out = str(tmp_path_factory.mktemp("corpus_oversize"))
    os.makedirs(f"{out}/pages")
    pq.write_table(pages, f"{out}/pages/part-0000.parquet")

    cap = 20_000  # fixture pages are ~1-2 KB; the big page is ~40 KB
    cfg = PipelineConfig(max_html_bytes=cap)
    res = run_flagship(
        sorted(glob.glob(f"{out}/pages/*.parquet")),
        c.admin_polygons,
        c.geoip_ranges,
        cfg,
        checkpoint_dir=str(tmp_path_factory.mktemp("ckpt_oversize")),
    )
    golden = compute_golden(pages, c.admin_polygons, c.geoip_ranges, max_html_bytes=cap)

    errs = {(r["url"], r["phase"], r["reason"]) for r in res.errors.take_all()}
    want = {(e["url"], e["phase"], e["reason"]) for e in golden.errors}
    assert (big_url, "extract", "max-html-bytes") in errs
    assert errs == want
    assert res.stats["pages_oversize"] == golden.stats["pages_oversize"] == 1
    assert res.stats["rows_no_signal"] == golden.stats["rows_no_signal"]
    assert res.stats["pages_deduped"] == golden.stats["pages_deduped"]
    joined_urls = {r["url"] for r in res.joined.select_columns(["url"]).take_all()}
    assert big_url not in joined_urls


def test_config_change_invalidates_checkpoint(ray_session, corpus, tmp_path_factory):
    """Resuming in an existing checkpoint dir with a CHANGED config must
    recompute the affected stages, not return stale results (ADVICE round 1:
    config is part of lineage)."""
    import glob

    out_dir, c = corpus
    ckpt = str(tmp_path_factory.mktemp("ckpt_cfgchange"))
    files = sorted(glob.glob(f"{out_dir}/pages/*.parquet"))
    res1 = run_flagship(
        files, c.admin_polygons, c.geoip_ranges,
        PipelineConfig(tile_zooms=(7, 12)), checkpoint_dir=ckpt,
    )
    assert {r["tile_z"] for r in res1.tiles.take_all()} == {7, 12}
    res2 = run_flagship(
        files, c.admin_polygons, c.geoip_ranges,
        PipelineConfig(tile_zooms=(5, 7, 12)), checkpoint_dir=ckpt,
    )
    assert {r["tile_z"] for r in res2.tiles.take_all()} == {5, 7, 12}


def test_hot_cell_salting_equivalence(ray_session, corpus, tmp_path_factory):
    """Force salting (threshold below the top-city cell count) — results must
    be identical to the unsalted run (exactness of the salt/replicate plan)."""
    import glob

    out_dir, c = corpus
    cfg = PipelineConfig(hot_cell_threshold=10, salt_group_target=10)
    res = run_flagship(
        sorted(glob.glob(f"{out_dir}/pages/*.parquet")),
        c.admin_polygons,
        c.geoip_ranges,
        cfg,
        checkpoint_dir=str(tmp_path_factory.mktemp("ckpt_salted")),
    )
    golden = compute_golden(c.pages, c.admin_polygons, c.geoip_ranges)
    got = {
        (r["url"], r["mention_idx"], r["rank"]): (r["neighbor_url"], r["neighbor_mention_idx"])
        for r in res.knn.take_all()
    }
    want = {
        (r["url"], r["mention_idx"], r["rank"]): (r["neighbor_url"], r["neighbor_mention_idx"])
        for r in golden.knn
    }
    assert got == want


def test_deleted_phase_a_part_recomputes_that_shard(ray_session, corpus, tmp_path_factory):
    """A phase-A shard whose part file is gone is recomputed on rerun (not
    resumed with its rows missing); the other shards resume and every
    output equals the first run's."""
    import glob
    import os

    out_dir, c = corpus
    files = sorted(glob.glob(f"{out_dir}/pages/*.parquet"))
    ckpt = str(tmp_path_factory.mktemp("ckpt_lost_part"))

    def run():
        return run_flagship(files, c.admin_polygons, c.geoip_ranges,
                            PipelineConfig(), checkpoint_dir=ckpt)

    def rows(ds):
        return sorted(ds.take_all(), key=repr)

    res1 = run()
    first = {k: rows(getattr(res1, k)) for k in ("joined", "tiles", "knn")}
    shards = sorted(glob.glob(f"{ckpt}/phaseA/shard-*/manifest.json"))
    assert len(shards) > 1
    before = {m: os.stat(m).st_mtime_ns for m in shards}
    lost = shards[0]
    parts = sorted(glob.glob(os.path.join(os.path.dirname(lost), "data", "*.parquet")))
    assert parts
    os.remove(parts[0])

    res2 = run()
    after = {m: os.stat(m).st_mtime_ns for m in shards}
    assert after[lost] != before[lost], "the shard with a lost part was not recomputed"
    assert all(after[m] == before[m] for m in shards if m != lost)
    assert res2.stats == res1.stats
    for k, want in first.items():
        assert rows(getattr(res2, k)) == want, k


def _sorted_table(ds, keys):
    from core_ray.collect import collect_table

    return collect_table(ds).sort_by([(k, "ascending") for k in keys])


_OUTPUT_KEYS = {
    "joined": ["url", "mention_idx"],
    "knn": ["url", "mention_idx", "rank"],
    "tiles": ["tile_z", "tile_x", "tile_y"],
}


def _outputs(res) -> dict:
    out = {k: _sorted_table(getattr(res, k), keys) for k, keys in _OUTPUT_KEYS.items()}
    out["stats"] = res.stats
    return out


def _assert_same_outputs(got: dict, want: dict) -> None:
    assert got["stats"] == want["stats"]
    for k in _OUTPUT_KEYS:
        assert got[k].equals(want[k]), k


def _wide_manifests(ckpt: str) -> dict:
    """(mtime_ns, fingerprint) of the phase-B checkpoints' manifests."""
    import json
    import os

    out = {}
    for stage in ("deduped", "knn", "tiles"):
        path = os.path.join(ckpt, stage, "manifest.json")
        with open(path) as f:
            out[stage] = (os.stat(path).st_mtime_ns, json.load(f)["fingerprint"])
    return out


def _edit_page_file(path: str) -> None:
    """Change one page file's content: move one page's coordinate mention
    to another city, delete another page, and append a byte-identical
    duplicate of a third (a warc_ts tie, so dedup keeps either copy)."""
    import re

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    texts = t["text"].to_pylist()
    mention = re.compile(r"located at (-?\d+\.\d{4}), (-?\d+\.\d{4}) nearby")
    moved = next(i for i, x in enumerate(texts) if mention.search(x))
    old = mention.search(texts[moved]).group(0)
    lat = float(mention.search(texts[moved]).group(1))
    new = "located at -33.8688, 151.2093 nearby" if lat > 0 else "located at 35.6762, 139.6503 nearby"
    htmls = t["html"].to_pylist()
    assert old.encode() in htmls[moved]
    texts[moved] = texts[moved].replace(old, new, 1)
    htmls[moved] = htmls[moved].replace(old.encode(), new.encode(), 1)
    t = t.set_column(t.column_names.index("text"), "text", pa.array(texts, t["text"].type))
    t = t.set_column(t.column_names.index("html"), "html", pa.array(htmls, t["html"].type))

    urls = t["url"].to_pylist()
    unique = [i for i, u in enumerate(urls) if urls.count(u) == 1 and i != moved]
    dropped, duplicated = unique[0], unique[1]
    keep = pc.not_equal(pa.array(range(t.num_rows)), dropped)
    t = pa.concat_tables([t.filter(keep), t.slice(duplicated, 1)])
    pq.write_table(t, path, row_group_size=8192)


@pytest.mark.parametrize("salted", [False, True], ids=["unsalted", "salted"])
def test_phase_b_cutoff_follows_row_content(ray_session, corpus, tmp_path, salted):
    """Phase B is keyed on phase A's output digests. Editing a page file's
    content recomputes dedup, kNN and tiles, with outputs equal to a cold
    run over the edited corpus; bumping a file's mtime alone recomputes
    that one phase-A shard and reuses every wide stage."""
    import glob
    import json
    import os
    import shutil

    out_dir, c = corpus
    pages = tmp_path / "pages"
    shutil.copytree(f"{out_dir}/pages", pages)
    files = sorted(glob.glob(f"{pages}/*.parquet"))
    cfg = (PipelineConfig(hot_cell_threshold=10, salt_group_target=10) if salted
           else PipelineConfig())
    ckpt = str(tmp_path / "ckpt")

    def run(checkpoint_dir):
        return run_flagship(files, c.admin_polygons, c.geoip_ranges, cfg,
                            checkpoint_dir=checkpoint_dir)

    orig = _outputs(run(ckpt))
    before = _wide_manifests(ckpt)

    _edit_page_file(files[1])
    delta = _outputs(run(ckpt))
    edited = _wide_manifests(ckpt)
    for stage in before:
        assert edited[stage][1] != before[stage][1], f"{stage} was not recomputed"
    cold = _outputs(run(str(tmp_path / "ckpt_cold")))
    _assert_same_outputs(delta, cold)
    # the edit reached the outputs: one page fewer, one mention moved
    assert delta["stats"]["pages_deduped"] == orig["stats"]["pages_deduped"] - 1
    for k in _OUTPUT_KEYS:
        assert not delta[k].equals(orig[k]), k

    shard_manifests = sorted(glob.glob(f"{ckpt}/phaseA/shard-*/manifest.json"))
    shards_before = {m: os.stat(m).st_mtime_ns for m in shard_manifests}
    st = os.stat(files[2])
    os.utime(files[2], ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    bumped = _outputs(run(ckpt))
    shards_after = {m: os.stat(m).st_mtime_ns for m in shard_manifests}
    rerun = [m for m in shard_manifests if shards_after[m] != shards_before[m]]
    assert len(rerun) == 1, rerun
    with open(rerun[0]) as f:
        assert json.load(f)["digest"]
    assert _wide_manifests(ckpt) == edited, "an mtime-only change reran a wide stage"
    _assert_same_outputs(bumped, delta)


def _most_common(col):
    import pyarrow.compute as pc

    counts = pc.value_counts(col.drop_null()).to_pylist()
    return max(counts, key=lambda v: (v["counts"], v["values"]))["values"]


def test_worker_analyzer_follows_side_tables(ray_session, corpus, tmp_path):
    """Phase A's workers cache their PageAnalyzer across runs, keyed on the
    side-table fingerprint: a run with one admin polygon removed must not
    reuse the analyzer built for the full table, and a run back on the full
    table gives the first run's rows exactly."""
    import glob

    import pyarrow.compute as pc

    from core_ray.collect import collect_table
    from core_ray.pipelines.flagship import scan_files

    out_dir, c = corpus
    files = sorted(glob.glob(f"{out_dir}/pages/*.parquet"))
    sort_keys = [("url", "ascending"), ("mention_idx", "ascending"), ("warc_ts", "ascending")]

    def run(admin, name):
        ds = scan_files(files, admin, c.geoip_ranges, PipelineConfig(),
                        checkpoint_dir=str(tmp_path / name))
        return collect_table(ds).sort_by(sort_keys)

    first = run(c.admin_polygons, "first")
    gone = _most_common(first["admin_id"])
    fewer = c.admin_polygons.filter(pc.not_equal(c.admin_polygons["admin_id"], gone))
    assert fewer.num_rows == c.admin_polygons.num_rows - 1

    second = run(fewer, "second")
    assert second.num_rows == first.num_rows
    was_gone = pc.equal(first["admin_id"], gone).fill_null(False)
    assert pc.sum(was_gone).as_py() > 0
    assert pc.sum(pc.equal(second["admin_id"], gone).fill_null(False)).as_py() == 0
    unchanged = pc.invert(was_gone)
    assert second.filter(unchanged).equals(first.filter(unchanged))

    third = run(c.admin_polygons, "third")
    assert third.equals(first)


def test_analyzer_cache_key_is_side_fingerprint(corpus, monkeypatch):
    """The same cache in one process, where reuse is certain: a new side
    fingerprint rebuilds the analyzer, so the removed polygon's pages move
    to another admin_id."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from core_ray.pipelines.flagship import _sides_fp
    from core_ray.stages import analyzer
    from core_ray.stages.analyzer import analyze_batch_task

    monkeypatch.setattr(analyzer, "_WORKER_ANALYZERS", {})  # this process's cache only
    out_dir, c = corpus
    pages = pq.read_table(sorted(glob.glob(f"{out_dir}/pages/*.parquet"))[0],
                          columns=["url", "warc_ts", "html", "lang"])
    cfg = PipelineConfig()

    def analyze(admin):
        return analyze_batch_task(
            pages, c.geoip_ranges, admin, _sides_fp(admin, c.geoip_ranges),
            cfg.max_html_bytes, cfg.hex_res, cfg.s2_level, cfg.stage_sel_phase_a,
        )

    full = analyze(c.admin_polygons)
    gone = _most_common(full["admin_id"])
    fewer = c.admin_polygons.filter(pc.not_equal(c.admin_polygons["admin_id"], gone))
    assert pc.sum(pc.equal(full["admin_id"], gone).fill_null(False)).as_py() > 0
    assert pc.sum(pc.equal(analyze(fewer)["admin_id"], gone).fill_null(False)).as_py() == 0
    assert analyze(c.admin_polygons).equals(full)
