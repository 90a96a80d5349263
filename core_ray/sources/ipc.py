"""Arrow IPC (Feather v2) corpus connector + sink.

Arrow IPC files (*.arrow / *.feather) are the zero-copy interchange format
between Arrow-native engines (Polars, DuckDB, pandas, Ray Data itself) —
the third container format the engine ingests natively beside WARC/WET
(sources/warc.py) and JSONL (sources/jsonl.py). Records carry HTML
(binary/string) or already-extracted TEXT; text-only records normalize
through the same inverse-extract ``text_to_html`` the WET/JSONL connectors
share, so the flagship extract stage reproduces the text BYTE-IDENTICALLY
(roundtrip unit in tests/test_ipc.py) and every downstream pipeline sees
one canonical page shape regardless of container.

Scale shape: file-level parallelism via ray.data.read_binary_files (one
task per file group, the ingest_warc shape); the IPC decode is a zero-copy
``pa.ipc.open_file`` over the blob buffer inside the task. The sink
(``write_ipc``) is distributed the same way — each batch task serializes
its own .arrow file under a unique name and only (path, rows) manifest
rows reach the calling process."""

from __future__ import annotations

import glob as _glob
import hashlib
import itertools
import os
from datetime import date, datetime, timezone
from typing import Any

import numpy as np
import pyarrow as pa

from core_ray.sources.base import Source, register_source
from core_ray.sources.jsonl import _parse_ts, text_to_html
from core_ray.sources.warc import _paths_with_suffix

_IPC_SUFFIXES = (".arrow", ".feather", ".ipc")
_URL_COLS = ("url", "uri", "id")
_TS_COLS = ("warc_ts", "ts", "timestamp", "date")
_TEXT_COLS = ("text", "content", "raw_content")
_LANG_COLS = ("lang", "language")


def _pick_col(t: pa.Table, candidates: tuple[str, ...]):
    for c in candidates:
        if c in t.column_names:
            return t[c]
    return None


def ingest_ipc(
    src: str,
    out_dir: str,
    default_lang: str = "en",
    overwrite: bool = False,
) -> int:
    """Read every *.arrow / *.feather / *.ipc table under ``src`` into
    pages-schema parquet at ``out_dir`` (url, warc_ts, html, lang — the
    ingest_html_dir shape). Returns the number of pages written. Ray must
    be running. A table with neither an html nor a text column fails
    LOUD (a corrupt shard should stop the run, not silently shrink it)."""
    import ray.data

    from core_ray.sources.ingest import prep_out_dir, write_pages_parquet

    prep_out_dir(out_dir, overwrite)
    paths = _paths_with_suffix(src, _IPC_SUFFIXES)
    if not paths:
        return 0
    ds = ray.data.read_binary_files(paths, include_paths=True)

    def to_pages(batch: pa.Table) -> pa.Table:
        urls, tss, payloads, langs = [], [], [], []
        for path, blob in zip(
            batch["path"].to_pylist(), batch["bytes"].to_pylist()
        ):
            base = os.path.basename(path)
            t = pa.ipc.open_file(pa.BufferReader(blob)).read_all()
            url_c = _pick_col(t, _URL_COLS)
            ts_c = _pick_col(t, _TS_COLS)
            lang_c = _pick_col(t, _LANG_COLS)
            html_c = t["html"] if "html" in t.column_names else None
            text_c = _pick_col(t, _TEXT_COLS)
            if html_c is None and text_c is None:
                raise ValueError(
                    f"{base}: IPC table has neither an 'html' nor a text "
                    f"column (one of {_TEXT_COLS})"
                )
            for i in range(t.num_rows):
                u = url_c[i].as_py() if url_c is not None else None
                urls.append(str(u) if u is not None else f"ipc:{base}:{i + 1}")
                tv = ts_c[i].as_py() if ts_c is not None else None
                if isinstance(tv, np.datetime64):
                    tss.append(tv)
                elif isinstance(tv, datetime):  # timestamp col: naive = UTC
                    if tv.tzinfo is not None:
                        tv = tv.astimezone(timezone.utc).replace(tzinfo=None)
                    tss.append(np.datetime64(tv, "us"))
                elif isinstance(tv, date):  # date col: midnight
                    tss.append(np.datetime64(tv, "us"))
                else:
                    tss.append(_parse_ts(tv))
                hv = html_c[i].as_py() if html_c is not None else None
                if hv is not None:
                    payloads.append(
                        hv if isinstance(hv, bytes) else str(hv).encode()
                    )
                else:
                    payloads.append(text_to_html(str(text_c[i].as_py())))
                lv = lang_c[i].as_py() if lang_c is not None else None
                langs.append(str(lv) if lv is not None else default_lang)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us")),
                "html": pa.array(payloads, pa.binary()),
                "lang": pa.array(langs, pa.string()),
            }
        )

    pages = ds.map_batches(to_pages, batch_format="pyarrow")
    return write_pages_parquet(pages, out_dir)


def write_ipc(ds, out_dir: str, overwrite: bool = False) -> int:
    """Distributed Arrow-IPC sink: every batch task serializes its own
    .arrow file under ``out_dir`` and returns one (path, rows) manifest
    row; the calling process folds only those. Returns total rows written.
    A directory that already holds *.arrow parts is refused, or cleared
    first with ``overwrite=True``.

    A part is named ``part-<md5 of its bytes>-<n>.arrow``, where ``n`` is
    the first ordinal whose file does not exist yet (exclusive create), so
    batches with identical content still get one file each and the
    returned total matches the rows on disk. A re-run reproduces the same
    names only if Ray reproduces the same batch boundaries."""
    from core_ray.sources.ingest import prep_out_dir

    # the sink's own parts, so a changed dataset never leaves stale parts
    # beside the new ones (a later ingest_ipc would read both)
    prep_out_dir(out_dir, overwrite, suffix=".arrow")
    os.makedirs(out_dir, exist_ok=True)

    def write_batch(b: pa.Table) -> pa.Table:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, b.schema) as w:
            w.write_table(b)
        data = sink.getvalue().to_pybytes()
        digest = hashlib.md5(data).hexdigest()[:16]
        for n in itertools.count():
            path = os.path.join(out_dir, f"part-{digest}-{n}.arrow")
            try:
                with open(path, "xb") as f:
                    f.write(data)
                break
            except FileExistsError:
                continue
        return pa.table(
            {
                "path": pa.array([path], pa.string()),
                "rows": pa.array([b.num_rows], pa.int64()),
            }
        )

    manifest = ds.map_batches(write_batch, batch_format="pyarrow")
    return int(sum(r["rows"] for r in manifest.take_all()))


@register_source("ipc")
class IpcSource(Source):
    """Arrow IPC connector: one-time distributed ingest into pages
    parquet, then the standard parquet read path."""

    def __init__(self, src: str, out_dir: str | None = None, **ingest_kwargs):
        import tempfile

        self._own_tmp = out_dir is None
        self.out_dir = out_dir or tempfile.mkdtemp(prefix="core_ray_src_ipc_")
        self.src = src
        self.n_pages = ingest_ipc(
            src, self.out_dir, overwrite=True, **ingest_kwargs
        )

    def pages(self) -> list[str]:
        return sorted(_glob.glob(os.path.join(self.out_dir, "*.parquet")))

    def describe(self) -> dict[str, Any]:
        return {"type": "ipc", "src": self.src, "out_dir": self.out_dir,
                "n_pages": self.n_pages}

    def close(self) -> None:
        if self._own_tmp:
            import shutil

            shutil.rmtree(self.out_dir, ignore_errors=True)
