"""PageAnalyzer: the fused per-document stage of phase A.

Composition of ExtractText -> Geocoder -> CellEncoder -> PipJoin in ONE
callable. Phase A runs it as one task-based ``map_batches``
(``analyze_batch_task`` below, from pipelines/flagship.py ``_phase_a``), not
as an actor pool. Rationale (same as the reference amortizing parse +
domain-hints in a single pass, SURVEY.md §2.2 M10/M11):

- per-document stages have no shuffle between them, so separate map_batches
  stages would only add object-store hops for the wide html/text columns
  (and, as actor pools, reserve one CPU per pool: four chained pools
  deadlock a small cluster, each pinning >= 1 actor while the read task
  also needs a slot);
- all expensive state (compiled regexes, geo-IP dict, STRtree over admin
  polygons, s2/hex lookup tables) is built once per WORKER PROCESS and
  cached across tasks and shards, keyed on the side tables' fingerprint
  (``sides_fp``) — the ST1 + ST4 pattern (tspool/pool.go:40-121,
  scanner.go:181-186) without an actor.

The individual stage classes stay importable and unit-testable; this class
just chains their __call__ bodies.
"""

from __future__ import annotations

import pyarrow as pa

from core_ray.config import register_stage
from core_ray.stages.cellencode import CellEncoder
from core_ray.stages.extract import ExtractText
from core_ray.stages.geocode import Geocoder, geoip_dict
from core_ray.stages.pip import PipJoin


@register_stage("analyze")
class PageAnalyzer:
    def __init__(
        self,
        geoip: dict,
        admin: pa.Table,
        max_html_bytes: int = 10 * 1024 * 1024,
        hex_res: int = 7,
        s2_level: int = 12,
        registry=None,  # DerivationRegistry; None -> the default cascade
        stage_sel: tuple[str, ...] = ("s2-encode", "pip"),  # enabled optional stages
        extra_state=None,  # extra broadcast side tables for registry rules
    ):
        self.extract = ExtractText(max_html_bytes)
        self.geocode = Geocoder(geoip, registry=registry, extra_state=extra_state)
        self.encode = CellEncoder(hex_res, s2_level, with_s2="s2-encode" in stage_sel)
        self.pip = PipJoin(admin) if "pip" in stage_sel else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.encode(self.geocode(self.extract(batch)))
        return self.pip(out) if self.pip is not None else out


# ---- task-mode variant with worker-process-cached state ----------------
# An ACTOR pool cannot fuse with the upstream parquet read, so every html
# block round-trips through the object store; on one node that memcpy path
# saturates memory bandwidth and the read stops scaling past ~8 cores
# (measured: actor phase A 25.7 s @ 8 cpus -> 23.7 s @ 32; task-fused:
# 21.3 s -> 10.2 s). A PLAIN FUNCTION fuses into the read task — html goes
# decode -> UDF without touching plasma — and Ray reuses worker processes,
# so caching the built PageAnalyzer in a module global amortizes state
# exactly like an actor would (state here is light: regexes + STRtree over
# ~10^2 polygons; a heavy-model stage should stay an actor pool). The side
# tables ride the UDF by value; the cache is keyed on their fingerprint, so a
# worker reuses its analyzer across shards and runs until the tables change.

_WORKER_ANALYZERS: dict = {}


def analyze_batch_task(
    batch: pa.Table,
    geoip_table: pa.Table,
    admin_table: pa.Table,
    sides_fp: str,
    max_html_bytes: int,
    hex_res: int,
    s2_level: int,
    stage_sel: tuple[str, ...] = ("s2-encode", "pip"),
) -> pa.Table:
    """``sides_fp`` must fingerprint both side tables (state/lineage.py
    fingerprint_table): it is the worker cache key in their place."""
    key = (sides_fp, max_html_bytes, hex_res, s2_level, stage_sel)
    analyzer = _WORKER_ANALYZERS.get(key)
    if analyzer is None:
        analyzer = PageAnalyzer(
            geoip_dict(geoip_table), admin_table, max_html_bytes, hex_res, s2_level,
            stage_sel=stage_sel,
        )
        _WORKER_ANALYZERS.clear()  # one live config per worker is plenty
        _WORKER_ANALYZERS[key] = analyzer
    return analyzer(batch)
