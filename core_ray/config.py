"""Pipeline configuration + stage registry.

The registry mirrors the reference's framework-registration ergonomics
(pkg/parser/framework/registry.go:12-66, blank-import activation in
strategies/all/all.go): stages register by name; a pipeline selects a subset.
Options mirror the reference's functional options (pkg/parser/options.go:42-100
WithWorkers/WithTimeout/WithMaxFileSize/...) as a plain dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

STAGE_REGISTRY: dict[str, Callable[..., Any]] = {}


def register_stage(name: str):
    """Decorator: register a stage factory under ``name``."""

    def deco(obj):
        STAGE_REGISTRY[name] = obj
        return obj

    return deco


@dataclass
class PipelineConfig:
    """Flagship-pipeline knobs (WithWorkers/WithMaxFileSize analog).

    Sizing rationale for 100 TB scale: per-document stages use modest batch
    sizes (html rows are wide — a 1024-row batch of ~2 KB pages is ~2 MB);
    `html` is dropped at extract so downstream blocks stay small. Actor-pool
    concurrency is a (min, max) range so the streaming executor can balance
    stages instead of one pool starving the others.
    """

    hex_res: int = 7
    s2_level: int = 12
    knn_k: int = 5
    tile_zooms: tuple[int, ...] = (7, 9, 12)
    max_html_bytes: int = 10 * 1024 * 1024  # MaxFileSize analog (scanner.go:37-38)

    # skew handling (FIXTURES.md skew spec): cells with more rows than
    # hot_cell_threshold get salted into ceil(n / salt_group_target) buckets
    hot_cell_threshold: int = 4000
    salt_group_target: int = 2000

    # execution sizing
    extract_batch_size: int = 1024

    # WithPatterns / WithExcludePatterns analog (pkg/parser/options.go:42-100,
    # doublestar semantics scanner.go:954-971): applied to the page-file list
    # relative to its common root before sharding; part of the phase-A
    # lineage fingerprint, so toggling a pattern invalidates exactly the
    # shards whose input set changed.
    include_patterns: tuple[str, ...] | None = None
    exclude_patterns: tuple[str, ...] = ()
    # root the patterns are relative to; None infers the files' common
    # directory (fine programmatically, ambiguous from the CLI — run.py
    # pins it to --pages so 'pages/*.parquet' means the same thing
    # regardless of sibling directories)
    pattern_root: str | None = None

    checkpoint_dir: str | None = None
    resume: bool = True

    # SELECTIVE STAGE SUBSET (the WithDomainHints / selective-plugin-import
    # analog, pkg/parser/options.go:64-72; VERDICT r2 item 8): None runs the
    # full pipeline; otherwise only the named optional stages run. Skippable:
    # 's2-encode' (secondary cell extraction -> drops the s2_cell column),
    # 'pip' (admin containment join -> drops admin_id/admin_level),
    # 'knn', 'tiles' (their outputs become empty). Folded into lineage
    # fingerprints PER STAGE (stage_sel_phase_a below), so toggling a stage
    # invalidates exactly the checkpoints that depend on it.
    stages: tuple[str, ...] | None = None

    SKIPPABLE_STAGES = ("s2-encode", "pip", "knn", "tiles")
    _PHASE_A_SKIPPABLE = ("s2-encode", "pip")

    def stage_enabled(self, name: str) -> bool:
        return self.stages is None or name in self.stages

    @property
    def stage_sel_phase_a(self) -> tuple[str, ...]:
        """Deterministic phase-A-relevant stage selection (fingerprint
        input): skipping e.g. 'tiles' must NOT invalidate phase A."""
        return tuple(s for s in self._PHASE_A_SKIPPABLE if self.stage_enabled(s))
