"""Parquet checkpoints with per-partition lineage manifests.

The resumability design SURVEY.md §4 calls for (the reference has none —
scanner.go:224-270 ScanFiles only re-parses changed files; here a failed run
skips finished work):

- each checkpointed stage writes to ``<root>/<stage>/data/`` (a directory of
  part files) ATOMICALLY: written to a tmp dir first, renamed into place.
- a ``manifest.json`` records stage name + STAGE VERSION + the INPUT
  FINGERPRINT + per-file row counts + wall time. A code change bumps the
  stage version and invalidates the checkpoint instead of silently mixing
  outputs (SURVEY.md §7.3 "Resume semantics").
- resume = if the manifest matches (stage, version, fingerprint), read the
  parquet back instead of recomputing; the streaming pipeline downstream is
  unaffected.

Sharded map phases additionally write one checkpoint per input shard
(``<root>/<stage>/shard=K/``) so partial progress survives: finished shards
are skipped on rerun (see pipelines/flagship.py).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow.parquet as pq


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
        try:
            with open(self.manifest_path(stage, shard)) as f:
                m = json.load(f)
            if not (
                m.get("stage") == stage
                and m.get("version") == version
                and m.get("fingerprint") == fingerprint
            ):
                return False
            data_dir = os.path.join(self._dir(stage, shard), "data")
            files = {f["file"]: f["rows"] for f in m["files"]}
            if {n for n in os.listdir(data_dir) if n.endswith(".parquet")} != set(files):
                return False
            return all(
                pq.read_metadata(os.path.join(data_dir, name)).num_rows == rows
                for name, rows in files.items()
            )
        except (OSError, ValueError, KeyError, TypeError):
            # ValueError covers json.JSONDecodeError and pyarrow's ArrowInvalid
            return False

    def load(self, stage: str, shard: str | None = None, columns: list[str] | None = None):
        import ray.data

        data_dir = os.path.join(self._dir(stage, shard), "data")
        if not any(n.endswith(".parquet") for n in os.listdir(data_dir)):
            return ray.data.from_items([])  # empty stage output (schema-less)
        return ray.data.read_parquet(data_dir, columns=columns)

    def save(self, ds, stage: str, version: int, fingerprint: str, shard: str | None = None) -> None:
        """Write ``ds`` + manifest atomically. Only writes: a caller that
        needs the data back opens it with ``load`` (``load_or_compute``
        does), and a caller that still holds ``ds`` keeps using that."""
        final = self._dir(stage, shard)
        tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
        data_dir = os.path.join(tmp, "data")
        os.makedirs(data_dir, exist_ok=True)  # empty output still checkpoints
        t0 = time.perf_counter()
        # compact: shuffle/union stages emit hundreds of tiny blocks; writing
        # them 1:1 would make every downstream read/groupby pay one task and
        # one shuffle partition per tiny file
        try:
            ds.write_parquet(data_dir, min_rows_per_file=32_768)
        except TypeError:  # older ray: num_rows_per_file
            ds.write_parquet(data_dir, num_rows_per_file=32_768)
        wall = time.perf_counter() - t0
        files = []
        for name in sorted(os.listdir(data_dir)):
            if name.endswith(".parquet"):
                meta = pq.read_metadata(os.path.join(data_dir, name))
                files.append({"file": name, "rows": meta.num_rows})
        manifest = {
            "stage": stage,
            "version": version,
            "fingerprint": fingerprint,
            "rows": sum(f["rows"] for f in files),
            "wall_s": round(wall, 3),
            "throughput_rows_per_s": round(sum(f["rows"] for f in files) / wall, 1) if wall > 0 else None,
            "files": files,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(os.path.join(tmp, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1)
        if os.path.isdir(final):
            shutil.rmtree(final)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        os.replace(tmp, final)

    def load_or_compute(self, stage: str, version: int, fingerprint: str, compute, shard: str | None = None):
        """Resume-or-run one stage; ``compute`` is a thunk returning a Dataset.
        Returns the checkpoint read back, opened once either way (reading
        back decouples downstream stages from upstream lineage — later
        consumers don't re-execute the upstream pipeline)."""
        if not self.is_complete(stage, version, fingerprint, shard):
            self.save(compute(), stage, version, fingerprint, shard)
        return self.load(stage, shard)


def fingerprint_paths(paths: list[str]) -> str:
    """Input fingerprint: sorted (path, size, mtime_ns) digest."""
    import hashlib

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
    import hashlib

    s = "|".join(f"{f}={getattr(cfg, f)!r}" for f in fields)
    return hashlib.sha256(s.encode()).hexdigest()[:8]


def fingerprint_table(table) -> str:
    """Content digest of a small broadcast-side pyarrow Table (admin polygons,
    geo-IP map): IPC-serialize and hash. Small sides only — never a fact
    table."""
    import hashlib

    import pyarrow as pa

    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:8]
