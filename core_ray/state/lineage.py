"""Parquet checkpoints with per-partition lineage manifests.

The resumability design SURVEY.md §4 calls for (the reference has none —
scanner.go:224-270 ScanFiles only re-parses changed files; here a failed run
skips finished work):

- each checkpointed stage writes to ``<root>/<stage>/data/`` (a directory of
  part files) ATOMICALLY: written to a ``<stage>.tmp-<id>`` dir first,
  renamed into place. A write that raises removes its tmp dir, and a save
  sweeps the tmp dirs a killed process left behind.
- a ``manifest.json`` records stage name + STAGE VERSION + the INPUT
  FINGERPRINT + per-file row counts + wall time + an order-independent
  128-bit DIGEST of the rows written. A code change bumps the stage version
  and invalidates the checkpoint instead of silently mixing outputs
  (SURVEY.md §7.3 "Resume semantics").
- resume = if the manifest matches (stage, version, fingerprint), read the
  parquet back instead of recomputing; the streaming pipeline downstream is
  unaffected.
- every checkpoint read goes through ONE reader, ``read_parts``: a Ray Data
  datasource built from the manifest, with one read task per listed part
  file. Row counts come from the manifest and in-memory sizes from the
  per-column Arrow bytes the write tasks record, the schema from one
  footer. Opening a checkpoint therefore lists no directory and samples
  no file (``ray.data.read_parquet`` blocks the driver on a remote
  footer-sampling task per call), and ``schema()`` / ``count()`` execute
  nothing.
  ``ensure`` computes-or-resumes a stage WITHOUT opening it, so a caller
  opens only what it reads (pipelines/flagship.py opens the phase-A shards
  only when dedup recomputes, all of them as one Dataset).

The digest is the sum, mod 2**64 in each of two lanes, of one hash per
row, so it is the same for the same multiset of rows however they are
ordered or split into blocks and files, and sums across checkpoints
(``combine_digests``). The write tasks compute it (``_digest_sink_class``),
so it costs no extra execution and no read-back. A consumer keyed on it
instead of on its input paths reruns only when the rows changed — the early
cutoff of build systems (Mokhov, Mitchell & Peyton Jones, *Build Systems à
la Carte*, ICFP 2018); pipelines/flagship.py keys phase B on it.

Sharded map phases additionally write one checkpoint per input shard
(``<root>/<stage>/shard-K/``) so partial progress survives: finished shards
are skipped on rerun (see pipelines/flagship.py).
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# compact: shuffle/union stages emit hundreds of tiny blocks; writing them
# 1:1 would make every downstream read/groupby pay one task and one shuffle
# partition per tiny file
_MIN_ROWS_PER_FILE = 32_768


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _dir(self, stage: str, shard: str | None = None) -> str:
        # "shard-K", not "shard=K": an "=" in the path would trigger hive
        # partition inference on read and inject a spurious column
        return os.path.join(self.root, stage if shard is None else f"{stage}/shard-{shard}")

    def manifest_path(self, stage: str, shard: str | None = None) -> str:
        return os.path.join(self._dir(stage, shard), "manifest.json")

    def is_complete(self, stage: str, version: int, fingerprint: str, shard: str | None = None) -> bool:
        """The manifest matches AND the data it lists is intact: exactly the
        listed part files, each with its recorded footer row count. A
        deleted, stray or truncated part makes the stage recompute instead
        of resuming with missing rows or failing on read."""
        return self._complete_manifest(stage, version, fingerprint, shard) is not None

    def _manifest(self, stage: str, shard: str | None = None) -> dict:
        with open(self.manifest_path(stage, shard)) as f:
            return json.load(f)

    def _complete_manifest(self, stage: str, version: int, fingerprint: str,
                           shard: str | None = None) -> dict | None:
        """The manifest when ``is_complete`` holds, else None."""
        try:
            m = self._manifest(stage, shard)
            if not (
                m.get("stage") == stage
                and m.get("version") == version
                and m.get("fingerprint") == fingerprint
            ):
                return None
            data_dir = os.path.join(self._dir(stage, shard), "data")
            files = {f["file"]: f["rows"] for f in m["files"]}
            if {n for n in os.listdir(data_dir) if n.endswith(".parquet")} != set(files):
                return None
            intact = all(
                pq.read_metadata(os.path.join(data_dir, name)).num_rows == rows
                for name, rows in files.items()
            )
            return m if intact else None
        except (OSError, ValueError, KeyError, TypeError):
            # ValueError covers json.JSONDecodeError and pyarrow's ArrowInvalid
            return None

    def digest(self, stage: str, shard: str | None = None) -> str:
        """The row digest a completed checkpoint's manifest records."""
        return self._manifest(stage, shard)["digest"]

    def load(self, stage: str, shard=None, columns: list[str] | None = None):
        """Open a checkpoint as one lazy Dataset, from its manifest alone
        (``read_parts``). ``shard`` is one shard id, or a list of them
        opened together as one Dataset."""
        parts = []
        for one in shard if isinstance(shard, (list, tuple)) else [shard]:
            data_dir = os.path.join(self._dir(stage, one), "data")
            parts += [(os.path.join(data_dir, f["file"]), f)
                      for f in self._manifest(stage, one)["files"]]
        return read_parts(parts, columns)

    def save(self, ds, stage: str, version: int, fingerprint: str, shard: str | None = None) -> dict:
        """Write ``ds`` + manifest atomically and return the manifest. Only
        writes: a caller that needs the data back opens it with ``load``
        (``load_or_compute`` does), and a caller that still holds ``ds``
        keeps using that."""
        final = self._dir(stage, shard)
        for stale in glob.glob(glob.escape(final) + ".tmp-*"):
            shutil.rmtree(stale, ignore_errors=True)  # left by a killed save
        tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
        data_dir = os.path.join(tmp, "data")
        os.makedirs(data_dir, exist_ok=True)  # empty output still checkpoints
        try:
            t0 = time.perf_counter()
            sink = _digest_sink_class()(data_dir)
            ds.write_datasink(sink)
            wall = time.perf_counter() - t0
            rows = sum(f["rows"] for f in sink.files)
            manifest = {
                "stage": stage,
                "version": version,
                "fingerprint": fingerprint,
                "rows": rows,
                "digest": combine_digests([f.pop("digest") for f in sink.files]),
                "wall_s": round(wall, 3),
                "throughput_rows_per_s": round(rows / wall, 1) if wall > 0 else None,
                "files": sink.files,
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            }
            with open(os.path.join(tmp, "manifest.json"), "w") as f:
                json.dump(manifest, f, indent=1)
            if os.path.isdir(final):
                shutil.rmtree(final)
            os.makedirs(os.path.dirname(final), exist_ok=True)
            os.replace(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return manifest

    def ensure(self, stage: str, version: int, fingerprint: str, compute,
               shard: str | None = None) -> dict:
        """Compute and save the stage unless it is complete; return its
        manifest (rows, part files, digest). Opens nothing: a caller opens
        the data with ``load`` only if and when it reads it."""
        m = self._complete_manifest(stage, version, fingerprint, shard)
        return m if m is not None else self.save(compute(), stage, version, fingerprint, shard)

    def load_or_compute(self, stage: str, version: int, fingerprint: str, compute, shard: str | None = None):
        """Resume-or-run one stage; ``compute`` is a thunk returning a Dataset.
        Returns the checkpoint read back, opened once either way (reading
        back decouples downstream stages from upstream lineage — later
        consumers don't re-execute the upstream pipeline)."""
        self.ensure(stage, version, fingerprint, compute, shard)
        return self.load(stage, shard)

    def _record_path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.json")

    def save_record(self, name: str, version: int, fingerprint: str, value) -> None:
        """Store a small JSON-able ``value`` (a driver-side result, not a
        Dataset) atomically under ``<root>/<name>.json``."""
        path = self._record_path(name)
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp, "w") as f:
                json.dump({"version": version, "fingerprint": fingerprint, "value": value}, f)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def load_record(self, name: str, version: int, fingerprint: str):
        """The value ``save_record`` stored under this version and
        fingerprint, or None."""
        try:
            with open(self._record_path(name)) as f:
                r = json.load(f)
        except (OSError, ValueError):
            return None
        if r.get("version") != version or r.get("fingerprint") != fingerprint:
            return None
        return r.get("value")


@functools.cache
def _digest_sink_class():
    """The Ray Data datasink behind ``CheckpointStore.save`` (built on
    first use: this module does not import Ray at import time). Each write
    task writes its rows (at least ``_MIN_ROWS_PER_FILE`` per file, as
    ``write_parquet(min_rows_per_file=...)`` would) to one part file and
    returns ``{file, rows, arrow_bytes, digest}`` (``arrow_bytes``: the
    in-memory Arrow size of each column); ``files`` collects those returns
    on the driver, so the manifest needs no footer re-read."""
    from ray.data import Datasink
    from ray.data.block import BlockAccessor

    class DigestParquetSink(Datasink):
        def __init__(self, data_dir: str):
            self.data_dir = data_dir
            self.files: list[dict] = []

        @property
        def min_rows_per_write(self) -> int:
            return _MIN_ROWS_PER_FILE

        def write(self, blocks, ctx):
            tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
            tables = [t for t in tables if t.num_rows]
            if not tables:
                return None
            schema = pa.unify_schemas([t.schema for t in tables])
            table = pa.concat_tables([t.cast(schema) for t in tables])
            name = f"part-{ctx.task_idx:05d}-{uuid.uuid4().hex[:8]}.parquet"
            pq.write_table(table, os.path.join(self.data_dir, name))
            return {"file": name, "rows": table.num_rows,
                    "arrow_bytes": {c: table[c].nbytes for c in table.column_names},
                    "digest": table_digest(table)}

        def on_write_complete(self, write_result):
            self.files = sorted((r for r in write_result.write_returns if r),
                                key=lambda r: r["file"])

    return DigestParquetSink


# ---------------------------------------------------------------- reader


def read_parts(parts: list[tuple[str, dict]], columns: list[str] | None = None):
    """One lazy Dataset over checkpoint part files, each given as
    ``(path, manifest entry)``: one read task per part, its row count and
    Arrow size (of the ``columns`` read) from the entry, the schema from
    the first part's footer. So opening lists no directory, reads one
    footer and runs no sampling task; ``schema()`` and ``count()``
    execute nothing. An entry without ``arrow_bytes`` (an older manifest) is sized
    by its on-disk bytes. No parts gives an empty, schema-less Dataset."""
    import ray.data

    if not parts:
        return ray.data.from_items([])
    schema = pq.read_schema(parts[0][0])
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns], metadata=schema.metadata)
    sized = []
    for path, entry in parts:
        col_bytes = entry.get("arrow_bytes")
        size = (sum(col_bytes.get(c, 0) for c in schema.names) if col_bytes
                else os.path.getsize(path))
        sized.append((path, entry["rows"], size))
    return ray.data.read_datasource(_manifest_source_class()(sized, schema, columns))


def _read_row_groups(path: str, columns: list[str] | None):
    """A read task's body: the part one row group at a time, so a large
    part file is never read into one table (Ray Data's output buffer
    bounds the blocks it builds from them)."""
    f = pq.ParquetFile(path)
    for i in range(f.metadata.num_row_groups):
        yield f.read_row_group(i, columns=columns)


@functools.cache
def _manifest_source_class():
    """The Ray Data datasource behind ``read_parts`` (built on first use,
    like ``_digest_sink_class``)."""
    from ray.data.block import BlockMetadata
    from ray.data.datasource import Datasource, ReadTask

    class ManifestDatasource(Datasource):
        def __init__(self, parts: list[tuple[str, int, int]], schema: pa.Schema,
                     columns: list[str] | None):
            self.parts = parts  # (path, rows, Arrow bytes)
            self.schema = schema
            self.columns = columns

        def get_name(self) -> str:
            return "Checkpoint"

        def estimate_inmemory_data_size(self) -> int:
            return sum(size for _, _, size in self.parts)

        def get_read_tasks(self, parallelism: int) -> list:
            return [
                ReadTask(
                    functools.partial(_read_row_groups, path, self.columns),
                    BlockMetadata(num_rows=rows, size_bytes=size, input_files=[path],
                                  exec_stats=None),
                    schema=self.schema,
                )
                for path, rows, size in self.parts
            ]

    return ManifestDatasource


# ---------------------------------------------------------------- digest

_LANE_SEEDS = (0x243F6A8885A308D3, 0x13198A2E03707344)
_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; array arithmetic wraps mod 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _tag(*parts) -> np.uint64:
    h = hashlib.blake2b("\x1f".join(map(str, parts)).encode(), digest_size=8).digest()
    return np.uint64(int.from_bytes(h, "little"))


def _type_family(t: pa.DataType) -> str:
    """Type name folded into each value's hash. String and binary widths
    (``string`` / ``large_string``) share one name so the digest follows
    the values, not the offset width a block happened to get."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "utf8"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "binary"
    return str(t)


def _value_words(arr: pa.Array, lane: int) -> np.ndarray:
    """One uint64 per value of ``arr`` for the caller to hash (null slots
    are arbitrary; the caller masks them). Fixed-width values give their
    BIT PATTERN, so ``-0.0`` and ``0.0`` differ (a spurious difference
    only costs a recompute); strings and binaries go through polars'
    vectorized hash (fixed seed, deterministic for one polars build);
    anything else through blake2b of its Python repr."""
    t = arr.type
    if pa.types.is_boolean(t):
        arr = arr.cast(pa.uint8())
    try:
        width = arr.type.bit_width
    except ValueError:
        width = 0
    if width in (8, 16, 32, 64):
        n = width // 8
        raw = np.frombuffer(arr.buffers()[1], dtype=np.dtype(f"<u{n}"),
                            count=arr.offset + len(arr))[arr.offset:]
        return raw.astype(np.uint64)
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) \
            or pa.types.is_large_binary(t):
        try:
            import polars as pl

            return pl.from_arrow(arr).hash(seed=_LANE_SEEDS[lane]).to_numpy().astype(np.uint64)
        except ImportError:
            pass
    key = _LANE_SEEDS[lane].to_bytes(8, "little")
    return np.fromiter(
        (int.from_bytes(hashlib.blake2b(repr(v).encode(), digest_size=8, key=key).digest(), "little")
         for v in arr.to_pylist()),
        dtype=np.uint64, count=len(arr),
    )


def table_digest(table: pa.Table) -> str:
    """Order-independent 128-bit digest of ``table``'s rows (module
    docstring), as 32 hex digits. Each row hash covers every column by
    name, type family and value, with null distinct from every value; a
    duplicated or dropped row changes the sum."""
    n = table.num_rows
    cols = []
    for name in sorted(table.column_names):
        arr = table[name].combine_chunks()
        if pa.types.is_dictionary(arr.type):
            arr = arr.cast(arr.type.value_type)
        valid = (np.ones(n, dtype=bool) if arr.null_count == 0
                 else arr.is_valid().to_numpy(zero_copy_only=False))
        cols.append((name, arr, valid))
    lanes = []
    for lane, seed in enumerate(_LANE_SEEDS):
        row = np.full(n, seed, dtype=np.uint64)
        for name, arr, valid in cols:
            if pa.types.is_null(arr.type):
                h = np.zeros(n, dtype=np.uint64)
            else:
                h = _mix(_value_words(arr, lane) ^ _tag(lane, name, _type_family(arr.type)))
            h = np.where(valid, h, _tag(lane, name, "null"))
            row = _mix(row * _GOLD + h)
        lanes.append(int(row.sum(dtype=np.uint64)))
    return "".join(f"{v:016x}" for v in lanes)


def combine_digests(digests: list[str]) -> str:
    """Digest of the union of the row multisets behind ``digests``: the
    lane-wise sum mod 2**64. Independent of how rows were split among
    checkpoints (or shards)."""
    lanes = [0, 0]
    for d in digests:
        lanes = [(a + int(d[16 * i:16 * (i + 1)], 16)) & 0xFFFFFFFFFFFFFFFF
                 for i, a in enumerate(lanes)]
    return "".join(f"{v:016x}" for v in lanes)


# ---------------------------------------------------------------- inputs


def fingerprint_paths(paths: list[str]) -> str:
    """Input fingerprint: sorted (path, size, mtime_ns) digest."""
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{st.st_mtime_ns}\n".encode())
    return h.hexdigest()[:16]


def fingerprint_config(cfg, fields: tuple[str, ...]) -> str:
    """Digest of the config fields a stage's OUTPUT depends on. Folded into
    the stage fingerprint so resuming in an existing checkpoint dir with a
    changed config recomputes instead of silently returning stale results
    (execution-only knobs like batch sizes are deliberately excluded)."""
    s = "|".join(f"{f}={getattr(cfg, f)!r}" for f in fields)
    return hashlib.sha256(s.encode()).hexdigest()[:8]


def fingerprint_table(table) -> str:
    """Content digest of a small broadcast-side pyarrow Table (admin polygons,
    geo-IP map): IPC-serialize and hash. Small sides only — never a fact
    table."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:8]
