"""Arrow IPC connector + sink units: pages roundtrip through write_ipc ->
ingest_ipc byte-identically, text-only tables normalize through the shared
inverse-extract so the flagship extract stage reproduces the text, and a
table with neither html nor text fails loud."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _ipc_bytes(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def test_ipc_pages_roundtrip(ray_session, tmp_path):
    import ray.data

    from core_ray.sources.ipc import ingest_ipc, write_ipc

    pages = pa.table(
        {
            "url": ["https://a/1", "https://a/2", "https://b/3"],
            "warc_ts": pa.array(
                [np.datetime64("2024-03-01T10:00:00", "us")] * 3,
                pa.timestamp("us"),
            ),
            "html": [b"<p>one</p>", b"<p>two &amp; half</p>", b"<p>three</p>"],
            "lang": ["en", "de", "fr"],
        }
    )
    sink_dir = tmp_path / "ipc_out"
    n = write_ipc(ray.data.from_arrow(pages), str(sink_dir))
    assert n == 3
    files = sorted(sink_dir.glob("part-*.arrow"))
    assert files, "sink must write .arrow parts"
    # the sink is content-addressed: a re-run rewrites, never duplicates
    n2 = write_ipc(ray.data.from_arrow(pages), str(sink_dir), overwrite=True)
    assert n2 == 3 and sorted(sink_dir.glob("part-*.arrow")) == files

    out = tmp_path / "pages"
    n3 = ingest_ipc(str(sink_dir), str(out))
    assert n3 == 3
    got = pq.read_table(sorted(out.glob("*.parquet"))[0]).sort_by("url")
    assert got["url"].to_pylist() == pages["url"].to_pylist()
    assert got["html"].to_pylist() == pages["html"].to_pylist()  # bytes ==
    assert got["lang"].to_pylist() == pages["lang"].to_pylist()
    assert [x.isoformat() for x in got["warc_ts"].to_pylist()] == [
        "2024-03-01T10:00:00"
    ] * 3


def test_ipc_text_table_extract_roundtrip(ray_session, tmp_path):
    from core_ray.sources import open_source
    from core_ray.stages.extract import ExtractText

    t = pa.table(
        {
            "id": ["d1", "d2"],
            "timestamp": [1700000000, 1700000001],
            "text": ["First & <second>\nline two", "plain body"],
            "language": ["de", None],
        }
    )
    (tmp_path / "corpus.arrow").write_bytes(_ipc_bytes(t))
    with open_source("ipc", str(tmp_path)) as src:
        assert src.n_pages == 2
        assert src.describe()["type"] == "ipc"
        pages = pq.read_table(src.pages()[0])
        rows = dict(zip(pages["url"].to_pylist(), pages["lang"].to_pylist()))
        assert rows == {"d1": "de", "d2": "en"}
        got = ExtractText()(pages)
        texts = dict(zip(got["url"].to_pylist(), got["text"].to_pylist()))
        # the core contract: byte-identical text through extract
        assert texts["d1"] == "First & <second>\nline two"
        assert texts["d2"] == "plain body"


def test_ipc_no_payload_fails_loud(ray_session, tmp_path):
    from core_ray.sources.ipc import ingest_ipc

    t = pa.table({"url": ["https://x/1"], "n": [1]})
    (tmp_path / "bad.feather").write_bytes(_ipc_bytes(t))
    with pytest.raises(Exception, match="neither"):
        ingest_ipc(str(tmp_path), str(tmp_path / "pages"))


def test_write_ipc_stale_parts_refused_or_cleared(ray_session, tmp_path):
    import ray.data

    from core_ray.sources.ipc import ingest_ipc, write_ipc

    sink_dir = tmp_path / "ipc_out"
    old = pa.table({"url": ["https://old/1", "https://old/2"], "html": [b"<p>a</p>", b"<p>b</p>"]})
    new = pa.table({"url": ["https://new/1"], "html": [b"<p>c</p>"]})
    assert write_ipc(ray.data.from_arrow(old), str(sink_dir)) == 2
    # a different dataset into the same dir: refused without overwrite ...
    with pytest.raises(ValueError, match="overwrite=True"):
        write_ipc(ray.data.from_arrow(new), str(sink_dir))
    # ... and with overwrite the old parts are gone, not read beside the new
    assert write_ipc(ray.data.from_arrow(new), str(sink_dir), overwrite=True) == 1
    out = tmp_path / "pages"
    assert ingest_ipc(str(sink_dir), str(out)) == 1
    got = pq.read_table(sorted(out.glob("*.parquet"))[0])
    assert got["url"].to_pylist() == ["https://new/1"]


def test_write_ipc_identical_batches_keep_separate_parts(ray_session, tmp_path):
    """Two batches with identical content must land in two files: the
    returned total has to match the rows actually on disk."""
    import ray.data

    from core_ray.sources.ipc import write_ipc

    t = pa.table({"url": [f"https://x/{i}" for i in range(5000)], "n": list(range(5000))})
    sink_dir = tmp_path / "ipc_out"
    assert write_ipc(ray.data.from_arrow([t, t]), str(sink_dir)) == 10_000
    on_disk = [
        pa.ipc.open_file(pa.BufferReader(p.read_bytes())).read_all().num_rows
        for p in sink_dir.glob("*.arrow")
    ]
    assert sum(on_disk) == 10_000, on_disk


def test_ipc_aware_timestamps_to_utc_and_dates_to_midnight(ray_session, tmp_path):
    import datetime as dt

    from core_ray.sources.ipc import ingest_ipc

    aware = pa.table(
        {
            "url": ["https://a/1"],
            "warc_ts": pa.array(
                [dt.datetime(2024, 3, 1, 12, 0, tzinfo=dt.timezone.utc)],
                pa.timestamp("us", tz="Europe/Berlin"),
            ),
            "html": [b"<p>a</p>"],
        }
    )
    dated = pa.table(
        {
            "url": ["https://b/1"],
            "date": pa.array([dt.date(2024, 3, 2)], pa.date32()),
            "html": [b"<p>b</p>"],
        }
    )
    (tmp_path / "aware.arrow").write_bytes(_ipc_bytes(aware))
    (tmp_path / "dated.arrow").write_bytes(_ipc_bytes(dated))
    out = tmp_path / "pages"
    assert ingest_ipc(str(tmp_path), str(out)) == 2
    got = pa.concat_tables(pq.read_table(p) for p in sorted(out.glob("*.parquet")))
    ts = dict(zip(got["url"].to_pylist(), got["warc_ts"].to_pylist()))
    # the UTC instant, not the Berlin wall clock (13:00) with its offset dropped
    assert ts["https://a/1"].isoformat() == "2024-03-01T12:00:00"
    assert ts["https://b/1"].isoformat() == "2024-03-02T00:00:00"


def test_ipc_mixed_nulls_text_fallback_and_aware_timestamps(ray_session, tmp_path):
    """Null urls and langs take their defaults, rows without html are built
    from their text, and tz-aware timestamps land as naive UTC — in one
    table, written as two record batches."""
    import datetime as dt

    from core_ray.sources.ipc import ingest_ipc

    utc = dt.timezone.utc
    t = pa.table(
        {
            "url": ["https://m/1", None, "https://m/3", None],
            # New York wall clocks 08:30 and 00:00 (EDT) of these instants
            "ts": pa.array(
                [
                    dt.datetime(2024, 5, 1, 12, 30, tzinfo=utc),
                    dt.datetime(2024, 5, 2, 4, 0, tzinfo=utc),
                    None,
                    dt.datetime(2024, 5, 2, 0, 0, 0, 250, tzinfo=utc),
                ],
                pa.timestamp("us", tz="America/New_York"),
            ),
            "html": pa.array([b"<p>h1</p>", None, None, b"<p>h4</p>"], pa.binary()),
            "text": ["ignored", "a & b\nline 2", "<tag>", None],
            "lang": [None, "de", None, "fr"],
        }
    )
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, t.schema) as w:
        for b in t.to_batches(max_chunksize=2):
            w.write_batch(b)
    (tmp_path / "mixed.arrow").write_bytes(sink.getvalue().to_pybytes())

    out = tmp_path / "pages"
    assert ingest_ipc(str(tmp_path), str(out), default_lang="xx") == 4
    got = pa.concat_tables(pq.read_table(p) for p in sorted(out.glob("*.parquet")))
    rows = sorted(
        (r["url"], r["warc_ts"].isoformat(), r["html"], r["lang"]) for r in got.to_pylist()
    )
    assert rows == sorted(
        [
            ("https://m/1", "2024-05-01T12:30:00", b"<p>h1</p>", "xx"),
            ("ipc:mixed.arrow:2", "2024-05-02T04:00:00",
             b"<p>a &amp; b</p><p>line 2</p>", "de"),
            ("https://m/3", "1970-01-01T00:00:00", b"<p>&lt;tag&gt;</p>", "xx"),
            ("ipc:mixed.arrow:4", "2024-05-02T00:00:00.000250", b"<p>h4</p>", "fr"),
        ]
    )
