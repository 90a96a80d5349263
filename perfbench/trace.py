"""The traced run: spans around calls into the engine, from outside it.

``Tracer.install`` replaces module attributes the engine calls through:

- ``core_ray.pipelines.flagship``: ``knn_per_cell``, ``tile_rollup``,
  ``_stats_pass``;
- ``core_ray.stages.dedup.dedup_exact`` (imported inside ``run_flagship``);
- the ``CheckpointStore`` methods ``load_or_compute``, ``save`` and ``load``;
- ``core_ray.stages.agg`` ``count_by_u64`` / ``sum_by_u64`` /
  ``map_groups_partitioned`` and ``core_ray.stages.join.hash_join``, in
  their own module and in every ``core_ray`` module that imported them by
  name (``queries.py`` imports them inside function bodies, so patching
  the defining module catches those calls);
- ``Dataset.stats()`` of each computed phase-A shard gives its worker CPU;
- Ray Data's ``StreamingExecutor.execute``, to count executions.

A wrapped call that returns a lazy Dataset materializes it inside the span,
so the span covers the work and not just plan construction. ``save`` first
materializes a lazy input outside its own span (the caller's stage pays for
the compute) and then times only the write. Work the tracer itself adds
(counting kNN input cells) is recorded as ``trace.self`` spans, reported as
``trace.self_s``.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
from collections import defaultdict

from perfbench.harness import cpu_ticks

PRIMITIVES = (
    ("core_ray.stages.agg", "count_by_u64", "agg.count_by_u64"),
    ("core_ray.stages.agg", "sum_by_u64", "agg.sum_by_u64"),
    ("core_ray.stages.agg", "map_groups_partitioned", "agg.map_groups_partitioned"),
    ("core_ray.stages.join", "hash_join", "join.hash_join"),
)
_CPU_RE = re.compile(r"Remote cpu time: .*?([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _is_lazy(ds) -> bool:
    from ray.data.dataset import Dataset, MaterializedDataset

    return isinstance(ds, Dataset) and not isinstance(ds, MaterializedDataset)


def remote_cpu_s(ds) -> float:
    """Worker CPU seconds summed over the operators ``ds.stats()`` lists."""
    return sum(float(v) * _UNIT[u] for v, u in _CPU_RE.findall(ds.stats()))


def _data_bytes(store, stage: str, shard) -> int:
    """On-disk parquet bytes of one checkpoint's data dir."""
    path = os.path.join(os.path.dirname(store.manifest_path(stage, shard)), "data")
    try:
        return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path)
                   if n.endswith(".parquet"))
    except OSError:
        return 0


def covered_s(spans) -> float:
    """Length of the union of [start, end) intervals."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(spans):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.count: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _add(self, name: str, t0: float, t1: float) -> None:
        with self._lock:
            self.spans.append((name, t0, t1))
            self.count[name + ".s"] += t1 - t0
            self.count[name + ".calls"] += 1

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.count[key] += value

    def _depth(self, key: str) -> int:
        return getattr(self._local, key, 0)

    def _nest(self, key: str, step: int) -> None:
        setattr(self._local, key, self._depth(key) + step)

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module: str, attr: str, new) -> None:
        """Patch ``module.attr`` and every core_ray module holding it by name."""
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("core_ray") and getattr(mod, attr, None) is original:
                self._patch(mod, attr, new)

    def _stage(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if _is_lazy(out):
                out = out.materialize()
            tracer._add(name, t0, time.perf_counter())
            return out

        return wrapper

    def _primitive(self, name: str, fn):
        """Shuffle primitive: only the outermost call materializes, so a
        primitive built from another is timed once as a whole."""
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            tracer._nest("prim", 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._nest("prim", -1)
            if tracer._depth("prim") == 0 and _is_lazy(out):
                out = out.materialize()
            tracer._add(name, t0, time.perf_counter())
            return out

        return wrapper

    def count_executions(self) -> None:
        """Install only the Ray Data execution counter (no spans)."""
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        self._patch(StreamingExecutor, "execute", self._execute(StreamingExecutor.execute))

    def install(self) -> None:
        import importlib

        import core_ray.pipelines.flagship as fl
        import core_ray.queries  # noqa: F401 - load every module that imports a primitive
        import core_ray.stages.dedup as dedup
        from core_ray.state.lineage import CheckpointStore

        for module, attr, name in PRIMITIVES:
            fn = getattr(importlib.import_module(module), attr)
            self._patch_everywhere(module, attr, self._primitive(name, fn))
        self._patch(dedup, "dedup_exact", self._stage("dedup", dedup.dedup_exact))
        self._patch(fl, "knn_per_cell", self._knn(fl.knn_per_cell))
        self._patch(fl, "tile_rollup", self._stage("tiles", fl.tile_rollup))
        self._patch(fl, "_stats_pass", self._stage("stats", fl._stats_pass))
        self._patch(CheckpointStore, "load_or_compute",
                    self._load_or_compute(CheckpointStore.load_or_compute))
        self._patch(CheckpointStore, "save", self._save(CheckpointStore.save))
        self._patch(CheckpointStore, "load", self._load(CheckpointStore.load))
        self.count_executions()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ---------------------------------------------------------- wrappers

    def _knn(self, fn):
        """kNN span = materializing its input (the program's read of the
        deduped checkpoint) + the kNN itself; the hot-cell counting between
        the two is the tracer's own work, recorded as ``trace.self``."""
        tracer = self

        def wrapper(ds, *args, **kwargs):
            import numpy as np

            from core_ray.collect import collect_table
            from core_ray.config import PipelineConfig

            c0 = cpu_ticks()
            t0 = time.perf_counter()
            ds = ds.materialize()
            t1 = time.perf_counter()
            cpu_s = cpu_ticks() - c0
            tracer._add("knn", t0, t1)
            cells = collect_table(ds.select_columns(["hex_cell"]))["hex_cell"].to_numpy()
            _, counts = np.unique(cells, return_counts=True)
            hot = kwargs.get("hot_threshold", PipelineConfig().hot_cell_threshold)
            tracer.add("knn.rows_in", len(cells))
            tracer.add("knn.hot_cells", int((counts > hot).sum()))
            tracer.add("knn.max_cell_rows", int(counts.max()) if len(counts) else 0)
            t2 = time.perf_counter()
            tracer._add("trace.self", t1, t2)
            c1 = cpu_ticks()
            t3 = time.perf_counter()
            out = fn(ds, *args, **kwargs)
            if _is_lazy(out):
                out = out.materialize()
            tracer._add("knn", t3, time.perf_counter())
            tracer.add("knn.cpu_s", cpu_s + cpu_ticks() - c1)
            return out

        return wrapper

    def _load_or_compute(self, fn):
        tracer = self

        def wrapper(store, stage, version, fingerprint, compute, shard=None):
            reused = store.is_complete(stage, version, fingerprint, shard)
            t0 = time.perf_counter()
            out = fn(store, stage, version, fingerprint, compute, shard)
            if stage == "phaseA":
                tracer._add("phase_a", t0, time.perf_counter())
                tracer.add("phase_a.shards_reused" if reused else "phase_a.shards_run", 1)
            else:
                tracer._add(f"stage.{stage}", t0, time.perf_counter())
            return out

        return wrapper

    def _save(self, fn):
        tracer = self

        def wrapper(store, ds, stage, *args, **kwargs):
            if _is_lazy(ds):
                ds = ds.materialize()
                if stage == "phaseA":
                    tracer.add("phase_a.cpu_s", remote_cpu_s(ds))
            t0 = time.perf_counter()
            tracer._nest("save", 1)
            try:
                out = fn(store, ds, stage, *args, **kwargs)
            finally:
                tracer._nest("save", -1)
            tracer._add("state.save", t0, time.perf_counter())
            shard = args[2] if len(args) > 2 else kwargs.get("shard")
            tracer.add("state.bytes_written", _data_bytes(store, stage, shard))
            return out

        return wrapper

    def _load(self, fn):
        tracer = self

        def wrapper(store, stage, shard=None, columns=None):
            if tracer._depth("save"):
                return fn(store, stage, shard, columns)  # the re-read inside save
            t0 = time.perf_counter()
            out = fn(store, stage, shard, columns)
            tracer._add("state.load", t0, time.perf_counter())
            tracer.add("state.bytes_read", _data_bytes(store, stage, shard))
            return out

        return wrapper

    def _execute(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.add("ray_data.executions", 1)
            return fn(*args, **kwargs)

        return wrapper
