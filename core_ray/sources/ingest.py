"""Raw-corpus ingestion: directory of html files -> pages-schema parquet.

The S2/S1 analog (SURVEY.md §2.1 — GitSource shallow-clones then exposes a
LocalSource; "ingestion connector run once, driver-side, before
read_parquet"): converts a crawl dump (one .html file per page) into the
engine's canonical pages table so every downstream pipeline starts from
`read_parquet`. Distributed via ray.data.read_binary_files (one task per
file group); metadata derived deterministically from the path.

Extension surface: any connector that lands parquet with the input_hint
schema (url, warc_ts, html, text?, lang) plugs into the same pipelines —
the Source-interface analog (pkg/source/source.go:15-35).
"""

from __future__ import annotations

import os

import pyarrow as pa


def prep_out_dir(out_dir: str, overwrite: bool, suffix: str = ".parquet") -> None:
    """Refuse to mix corpora: error if ``out_dir`` already holds ``*suffix``
    files unless ``overwrite`` (then clear them). Shared by every ingester
    and sink."""
    if os.path.isdir(out_dir):
        stale = [f for f in os.listdir(out_dir) if f.endswith(suffix)]
        if stale and not overwrite:
            raise ValueError(
                f"out_dir {out_dir!r} already holds {len(stale)} *{suffix} file(s); "
                "pass overwrite=True to replace them"
            )
        for f in stale:
            os.remove(os.path.join(out_dir, f))


def write_pages_parquet(pages, out_dir: str) -> int:
    """Write a pages Dataset to ``out_dir`` (version-tolerant row-group
    sizing) and return the row count from the parquet footers."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    try:
        pages.write_parquet(out_dir, min_rows_per_file=32_768)
    except TypeError:
        pages.write_parquet(out_dir, num_rows_per_file=32_768)
    return sum(
        pq.read_metadata(os.path.join(out_dir, f)).num_rows
        for f in os.listdir(out_dir)
        if f.endswith(".parquet")
    )


def ingest_html_dir(
    src_dir: str,
    out_dir: str,
    base_url: str = "https://ingested.example.com",
    default_lang: str = "en",
    warc_ts: str = "2025-01-01T00:00:00",
    overwrite: bool = False,
) -> int:
    """Read every *.html under ``src_dir`` into pages-schema parquet at
    ``out_dir``. Returns the number of pages written. Ray must be running.

    ``out_dir`` must not already hold parquet (a second ingest would
    silently mix corpora and inflate the returned count) — pass
    ``overwrite=True`` to clear previous output first."""
    import numpy as np
    import ray.data

    prep_out_dir(out_dir, overwrite)
    ds = ray.data.read_binary_files(
        src_dir, include_paths=True, file_extensions=["html", "htm"]
    )
    ts = np.datetime64(warc_ts, "us")

    def to_pages(batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        rels = [os.path.relpath(p, src_dir) if os.path.isabs(p) else p for p in paths]
        urls = [f"{base_url}/{r}" for r in rels]
        n = len(urls)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array([ts] * n, pa.timestamp("us")),
                "html": pa.array(blobs, pa.binary()),
                "lang": pa.array([default_lang] * n, pa.string()),
            }
        )

    pages = ds.map_batches(to_pages, batch_format="pyarrow", batch_size=256)
    return write_pages_parquet(pages, out_dir)
