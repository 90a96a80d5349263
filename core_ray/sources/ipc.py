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
``pa.ipc.open_file`` over the blob buffer inside the task, and the pages
columns are built column by column with Arrow compute. The sink
(``write_ipc``) is distributed the same way — each batch task serializes
its own .arrow file under a unique name and only (path, rows) manifest
rows reach the calling process."""

from __future__ import annotations

import glob as _glob
import hashlib
import itertools
import os
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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
            return t[c].combine_chunks()
    return None


_PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("lang", pa.string()),
    ]
)


def _as_string(c: pa.Array) -> pa.Array:
    """A column as strings, nulls kept: one cast for string and integer
    columns, ``str()`` per row for any other type."""
    if pa.types.is_string(c.type) or pa.types.is_large_string(c.type) \
            or pa.types.is_integer(c.type):
        return pc.cast(c, pa.string())
    return pa.array([None if v is None else str(v) for v in c.to_pylist()],
                    pa.string())


def _decode(t: pa.Table, base: str, default_lang: str) -> pa.Table:
    """One IPC table -> pages rows, column by column. Defaults: url
    ``ipc:<file>:<row>`` (1-based), warc_ts epoch 0, lang
    ``default_lang``. Timestamp columns convert to naive UTC, date columns
    to midnight, and only string or epoch timestamps go through
    ``_parse_ts`` row by row; rows without html get
    ``text_to_html(text)``."""
    n = t.num_rows
    url_c = _pick_col(t, _URL_COLS)
    ts_c = _pick_col(t, _TS_COLS)
    lang_c = _pick_col(t, _LANG_COLS)
    html_c = _pick_col(t, ("html",))
    text_c = _pick_col(t, _TEXT_COLS)
    if html_c is None and text_c is None:
        raise ValueError(
            f"{base}: IPC table has neither an 'html' nor a text "
            f"column (one of {_TEXT_COLS})"
        )

    url = pc.binary_join_element_wise(
        f"ipc:{base}:", pc.cast(pa.array(np.arange(1, n + 1)), pa.string()), ""
    )
    if url_c is not None:
        url = pc.coalesce(_as_string(url_c), url)

    epoch0 = pa.scalar(0, pa.timestamp("us"))
    if ts_c is None:
        ts = pa.repeat(epoch0, n)
    elif pa.types.is_timestamp(ts_c.type) or pa.types.is_date(ts_c.type):
        ts = pc.fill_null(pc.cast(ts_c, pa.timestamp("us"), safe=False), epoch0)
    else:
        ts = pa.array([_parse_ts(v) for v in ts_c.to_pylist()], pa.timestamp("us"))

    html = (
        pc.cast(html_c, pa.binary())
        if html_c is not None
        else pa.nulls(n, pa.binary())
    )
    if html.null_count:
        if text_c is None:
            raise ValueError(f"{base}: rows without html and no text column")
        missing = pc.is_null(html)
        texts = text_c.filter(missing).to_pylist()
        html = pc.replace_with_mask(
            html, missing, pa.array([text_to_html(str(x)) for x in texts], pa.binary())
        )

    lang = (
        pc.fill_null(_as_string(lang_c), default_lang)
        if lang_c is not None
        else pa.repeat(pa.scalar(default_lang, pa.string()), n)
    )
    return pa.Table.from_arrays([url, ts, html, lang], schema=_PAGES_SCHEMA)


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
        tables = [
            _decode(
                pa.ipc.open_file(pa.BufferReader(blob)).read_all(),
                os.path.basename(path),
                default_lang,
            )
            for path, blob in zip(
                batch["path"].to_pylist(), batch["bytes"].to_pylist()
            )
        ]
        return pa.concat_tables(tables) if tables else _PAGES_SCHEMA.empty_table()

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
