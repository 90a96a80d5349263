"""Geocode stage: the coordinate-derivation cascade (early-return).

The M3 analog (reference Detector.Detect, pkg/parser/detection/detector.go:42-79
— 4-stage early-return classification with the winning stage recorded in
ConfidenceDist):

  0. text null (extract skipped the page: oversize) -> one row with
     derivation_source='oversize' (error-as-data; routed to the errors
     side-channel as phase='extract' downstream)
  1. explicit coordinate mentions in text  -> one row PER MENTION
     (counting policy per SURVEY.md §7.3 / ADR-02 analog)
  2. host geo-IP via a broadcast lookup table -> exactly one row
  3. no signal -> one row with derivation_source='none' (error-as-data;
     routed to the side-channel table downstream, scanner.go:81-100 analog)

The geo-IP table is the broadcast small side (ST4/J1 pattern): a plain
``{host: (lat, lon)}`` dict handed to __init__ by value, built once per actor
or cached worker (``geoip_dict``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from core_ray.config import register_stage


def geoip_dict(geoip_table: pa.Table) -> dict[str, tuple[float, float]]:
    """(host, lat, lon) table -> the ``{host: (lat, lon)}`` dict Geocoder takes."""
    return dict(
        zip(
            geoip_table["host"].to_pylist(),
            zip(geoip_table["lat"].to_pylist(), geoip_table["lon"].to_pylist()),
        )
    )


def host_of(url: str) -> str:
    """scheme://host/... -> host (cheap, no urlparse allocation per row)."""
    start = url.find("//")
    start = start + 2 if start >= 0 else 0
    end = url.find("/", start)
    return url[start:] if end < 0 else url[start:end]


@register_stage("geocode")
class Geocoder:
    """Actor-pool batch UDF: explodes pages into geocoded rows.

    Output: (url, warc_ts, lang, text, derivation_source, mention_idx, lat, lon)
    — lat/lon are null for 'none' rows.

    The cascade is ROUTED THROUGH THE DERIVATION REGISTRY (core_ray/registry
    — priority classes + per-language candidate lists, the reference's
    registry/detect pairing, registry.go:68-96 / detector.go:42-79): rules
    are consulted in priority order, each over only the rows still
    unresolved by higher-priority rules (batch-vectorized early-return).
    The default registry reproduces the original inlined cascade exactly:
    text-mention (Specialized) -> host-geoip (Generic) -> 'none'.
    'oversize' (text null: extract skipped the page) bypasses the cascade.
    """

    def __init__(self, geoip: dict, registry=None, extra_state=None):
        # broadcast small sides, handed over once per actor (zero per-batch
        # cost). ``extra_state``: additional {name: table} entries exposed to
        # registry rules via the cascade state dict (e.g. the catalog's
        # 'airports' / 'gazetteer' broadcast tables).
        from core_ray.registry import DEFAULT_REGISTRY

        self.geoip: dict[str, tuple[float, float]] = geoip
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.state = {"geoip": self.geoip, **(extra_state or {})}

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        texts = batch["text"].to_pylist()
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else [None] * len(urls)
        )
        n = len(urls)
        # per-row result: (rule_name, [(lat, lon), ...]) or None
        results: list = [None] * n
        live = [i for i in range(n) if texts[i] is not None]

        # group unresolved rows by lang (candidate lists are per-language),
        # then walk that language's priority-ordered rules over the shrinking
        # unresolved subset — per-document early-return, batch-vectorized
        by_lang: dict = {}
        for i in live:
            by_lang.setdefault(langs[i], []).append(i)
        for lang, rows in by_lang.items():
            unresolved = rows
            for rule in self.registry.candidates(lang):
                if not unresolved:
                    break
                matches = rule.match_batch(
                    [urls[i] for i in unresolved],
                    [texts[i] for i in unresolved],
                    self.state,
                )
                still = []
                for i, m in zip(unresolved, matches):
                    if m:
                        results[i] = (rule.name, m)
                    else:
                        still.append(i)
                unresolved = still

        idx, srcs, midx, lats, lons = [], [], [], [], []
        for i in range(n):
            if texts[i] is None:  # extract skipped this page (oversize)
                idx.append(i)
                srcs.append("oversize")
                midx.append(0)
                lats.append(None)
                lons.append(None)
            elif results[i] is None:
                idx.append(i)
                srcs.append("none")
                midx.append(0)
                lats.append(None)
                lons.append(None)
            else:
                name, coords = results[i]
                for j, (la, lo) in enumerate(coords):
                    idx.append(i)
                    srcs.append(name)
                    midx.append(j)
                    lats.append(la)
                    lons.append(lo)
        take = pa.array(np.asarray(idx, dtype=np.int64))
        out = batch.take(take)
        return out.append_column(
            "derivation_source", pa.array(srcs, pa.string())
        ).append_column(
            "mention_idx", pa.array(midx, pa.int32())
        ).append_column(
            "lat", pa.array(lats, pa.float64())
        ).append_column(
            "lon", pa.array(lons, pa.float64())
        )
