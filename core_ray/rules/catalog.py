"""Derivation-rule catalog: the breadth analog of the reference's 22
framework strategies (SURVEY.md §2.9, each strategies/*/definition.go =
{matchers, parser, priority}). Every rule here is a named, prioritized,
batch-vectorized coordinate matcher with its own trigger pattern and decode
semantics, registered exactly like the built-ins:

| rule          | priority    | signal                                        |
|---------------|-------------|-----------------------------------------------|
| ddm           | Specialized | degrees-decimal-minutes pair in text          |
| exif-gps      | Specialized | 'GPSLatitude:/GPSLongitude:' EXIF-style labels|
| geo-position  | Specialized | 'geo.position: lat;lon' meta-tag value        |
| geojson       | Specialized | '"coordinates": [lon, lat]' GeoJSON fragment  |
| icbm          | Specialized | 'ICBM: lat, lon' geotag meta value            |
| iso6709       | Specialized | ISO 6709 degree string '+DD.D+DDD.D/' in text |
| latlon-qs     | Specialized | 'lat=..&lon=..' URL query parameters          |
| map-url       | Specialized | '@lat,lon' coordinates embedded in the URL    |
| text-mention  | Specialized | built-in (geo URI / DMS / decimal pair)       |
| wkt-point     | Specialized | 'POINT(lon lat)' WKT literal in text          |
| geohash       | E2E         | 'geohash:<base32>' token in text              |
| maidenhead    | E2E         | 'grid <locator>' ham-radio grid square        |
| mgrs          | E2E         | 'MGRS <grid reference>' token in text         |
| osm-map       | E2E         | '#map=z/lat/lon' URL fragment                 |
| pluscode      | E2E         | full Open Location Code in text               |
| quadkey       | E2E         | 'quadkey:<digits>' Bing tile key in text      |
| s2-token      | E2E         | 's2:<hex>' S2 cell token in text              |
| tile-url      | E2E         | '/tiles/z/x/y' slippy-map path in the URL     |
| utm           | E2E         | 'UTM <zone><hemi> <easting> <northing>'       |
| airport       | Generic     | '<IATA> Airport' vs broadcast airport table   |
| gazetteer     | Generic     | 'in <City>' vs broadcast gazetteer table      |
| host-geoip    | Generic     | built-in (URL host vs broadcast geo-IP table) |
| zip-centroid  | Generic     | 'ZIP <5 digits>' vs broadcast zip table       |

23 registered rules in ``full_registry()`` (21 catalog + 2 built-ins) —
matching-and-exceeding the reference's 22 strategies/*/definition.go.

Priorities encode signal strength exactly like the reference's constants
(Specialized=explicit coordinates beat E2E=encoded coordinates beat
Generic=place-name/host heuristics). Within a class the registry's
name-ascending order applies (so 'airport' < 'gazetteer' < 'host-geoip').

The catalog is OPT-IN (``full_registry()``): the default registry keeps the
two built-ins so golden outputs stay pinned; pipelines choose the wide
catalog explicitly (PipelineConfig/registry argument), mirroring the
reference's selective blank-import activation (strategies/all/all.go).

Broadcast side tables ride the Geocoder's ``state`` dict: rules that need
one (airport, gazetteer) read ``state['airports']`` / ``state['gazetteer']``
(plain ``{name: (lat, lon)}`` dicts, handed to each actor by value) and
fall through when the table is absent.
"""

from __future__ import annotations

import re

from core_ray.geo.codes import (
    geohash_decode,
    iso6709_decode,
    maidenhead_decode,
    mgrs_decode,
    pluscode_decode,
    quadkey_decode,
    s2_token_decode,
    tile_center,
    utm_to_lonlat,
)
from core_ray.registry import (
    PRIORITY_E2E,
    PRIORITY_GENERIC,
    PRIORITY_SPECIALIZED,
    DerivationRule,
    default_registry,
)

# compiled once at import; pinned per actor through the rule closure (ST1)
_MAP_URL_RE = re.compile(r"@(-?\d{1,2}\.\d+),(-?\d{1,3}\.\d+)")
_GEOHASH_RE = re.compile(r"\bgeohash:([0-9bcdefghjkmnpqrstuvwxyz]{4,12})\b")
_PLUSCODE_RE = re.compile(r"\b([23456789CFGHJMPQRVWX]{8}\+[23456789CFGHJMPQRVWX]{2,7})\b")
_UTM_RE = re.compile(r"\bUTM\s+(\d{1,2})([NS])\s+(\d{1,7}(?:\.\d+)?)\s+(\d{1,8}(?:\.\d+)?)\b")
_MGRS_RE = re.compile(r"\bMGRS\s+(\d{1,2}[C-HJ-NP-X][A-HJ-NP-Z]{2}\d{2,10})\b")
_AIRPORT_RE = re.compile(r"\b([A-Z]{3})\s+[Aa]irport\b")
_GAZETTEER_RE = re.compile(r"\bin\s+([A-Z][A-Za-z]+(?:\s+[A-Z][A-Za-z]+)?)\b")
_ISO6709_RE = re.compile(r"([+-]\d{2}(?:\.\d+)?[+-]\d{3}(?:\.\d+)?/)")
_LATLON_QS_RE = re.compile(
    r"[?&]lat(?:itude)?=(-?\d{1,2}(?:\.\d+)?)&l(?:on|ng)(?:gitude)?=(-?\d{1,3}(?:\.\d+)?)"
)
_MAIDENHEAD_RE = re.compile(r"\bgrid\s+([A-R]{2}\d{2}(?:[a-xA-X]{2}(?:\d{2})?)?)\b")
_TILE_URL_RE = re.compile(r"/tiles?/(\d{1,2})/(\d{1,7})/(\d{1,7})(?:\b|\.)")
# GeoJSON Point fragment: [lon, lat] order per RFC 7946 §3.1.1
_GEOJSON_RE = re.compile(
    r'"coordinates"\s*:\s*\[\s*(-?\d{1,3}(?:\.\d+)?)\s*,\s*(-?\d{1,2}(?:\.\d+)?)\s*\]'
)
# WKT point literal: POINT(lon lat), axis order per the OGC simple-features spec
_WKT_POINT_RE = re.compile(
    r"\bPOINT\s*\(\s*(-?\d{1,3}(?:\.\d+)?)\s+(-?\d{1,2}(?:\.\d+)?)\s*\)"
)
# geotag meta values as they surface in extracted text (ICBM / geo.position)
_ICBM_RE = re.compile(
    r"\bICBM:\s*(-?\d{1,2}(?:\.\d+)?)\s*,\s*(-?\d{1,3}(?:\.\d+)?)\b"
)
_GEO_POSITION_RE = re.compile(
    r"\bgeo\.position:\s*(-?\d{1,2}(?:\.\d+)?)\s*;\s*(-?\d{1,3}(?:\.\d+)?)\b"
)
# EXIF-style ADJACENT label pair (one regex, so an unpaired GPSLatitude can
# never mispair with a later photo block's GPSLongitude)
_EXIF_RE = re.compile(
    r"\bGPSLatitude:\s*(-?\d{1,2}(?:\.\d+)?)\s+GPSLongitude:\s*(-?\d{1,3}(?:\.\d+)?)\b"
)
# degrees + DECIMAL minutes (the GPS-receiver display form); the mandatory
# '.' in minutes keeps this disjoint from the built-in DMS matcher
_DDM_RE = re.compile(
    r"\b(\d{1,2})°(\d{1,2}\.\d+)'([NS])\s+(\d{1,3})°(\d{1,2}\.\d+)'([EW])"
)
# OpenStreetMap-style URL fragment '#map=zoom/lat/lon'
_OSM_MAP_RE = re.compile(r"#map=(\d{1,2})/(-?\d{1,2}\.\d+)/(-?\d{1,3}\.\d+)\b")
_QUADKEY_RE = re.compile(r"\bquadkey:([0-3]{1,23})\b")
_S2_TOKEN_RE = re.compile(r"\bs2:([0-9a-f]{1,16})\b")
_ZIP_RE = re.compile(r"\bZIP\s+(\d{5})\b")

_LAT_OK = lambda la: -90.0 <= la <= 90.0  # noqa: E731
_LON_OK = lambda lo: -180.0 <= lo <= 180.0  # noqa: E731


def _match_map_url(urls, texts, state):
    out = []
    for u in urls:
        coords = [
            (float(m.group(1)), float(m.group(2)))
            for m in _MAP_URL_RE.finditer(u)
        ]
        coords = [(la, lo) for la, lo in coords if _LAT_OK(la) and _LON_OK(lo)]
        out.append(coords or None)
    return out


def _match_geohash(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _GEOHASH_RE.finditer(t):
            dec = geohash_decode(m.group(1))
            if dec is not None:
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_pluscode(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _PLUSCODE_RE.finditer(t):
            dec = pluscode_decode(m.group(1))
            if dec is not None and _LAT_OK(dec[0]) and _LON_OK(dec[1]):
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_mgrs(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _MGRS_RE.finditer(t):
            dec = mgrs_decode(m.group(1))
            if dec is not None:
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_utm(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _UTM_RE.finditer(t):
            dec = utm_to_lonlat(
                int(m.group(1)), m.group(2), float(m.group(3)), float(m.group(4))
            )
            if dec is not None and _LAT_OK(dec[0]) and _LON_OK(dec[1]):
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_airport(urls, texts, state):
    table = state.get("airports")
    if not table:
        return [None] * len(texts)
    out = []
    for t in texts:
        coords = []
        for m in _AIRPORT_RE.finditer(t):
            hit = table.get(m.group(1))
            if hit is not None:
                coords.append(hit)
        out.append(coords or None)
    return out


def _match_gazetteer(urls, texts, state):
    table = state.get("gazetteer")
    if not table:
        return [None] * len(texts)
    out = []
    for t in texts:
        coords = []
        for m in _GAZETTEER_RE.finditer(t):
            hit = table.get(m.group(1))
            if hit is not None:
                coords.append(hit)
        out.append(coords or None)
    return out


def _match_iso6709(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _ISO6709_RE.finditer(t):
            dec = iso6709_decode(m.group(1))
            if dec is not None:
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_latlon_qs(urls, texts, state):
    out = []
    for u in urls:
        coords = [
            (float(m.group(1)), float(m.group(2)))
            for m in _LATLON_QS_RE.finditer(u)
        ]
        coords = [(la, lo) for la, lo in coords if _LAT_OK(la) and _LON_OK(lo)]
        out.append(coords or None)
    return out


def _match_maidenhead(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _MAIDENHEAD_RE.finditer(t):
            dec = maidenhead_decode(m.group(1))
            if dec is not None:
                coords.append(dec)
        out.append(coords or None)
    return out


def _match_tile_url(urls, texts, state):
    out = []
    for u in urls:
        coords = []
        for m in _TILE_URL_RE.finditer(u):
            dec = tile_center(int(m.group(1)), int(m.group(2)), int(m.group(3)))
            if dec is not None:
                coords.append(dec)
        out.append(coords or None)
    return out


def _pair_rule(regex, lat_group, lon_group, over="text"):
    """Factory for plain (lat, lon) float-pair matchers: findall, parse the
    two named groups, range-validate. Scans ``urls`` or ``texts``."""

    def match(urls, texts, state):
        rows = urls if over == "url" else texts
        out = []
        for r in rows:
            coords = []
            for m in regex.finditer(r):
                la, lo = float(m.group(lat_group)), float(m.group(lon_group))
                if _LAT_OK(la) and _LON_OK(lo):
                    coords.append((la, lo))
            out.append(coords or None)
        return out

    return match


def _match_ddm(urls, texts, state):
    out = []
    for t in texts:
        coords = []
        for m in _DDM_RE.finditer(t):
            if float(m.group(2)) >= 60.0 or float(m.group(5)) >= 60.0:
                continue  # minutes must be < 60 in well-formed DDM
            la = int(m.group(1)) + float(m.group(2)) / 60.0
            lo = int(m.group(4)) + float(m.group(5)) / 60.0
            if m.group(3) == "S":
                la = -la
            if m.group(6) == "W":
                lo = -lo
            if _LAT_OK(la) and _LON_OK(lo):
                coords.append((la, lo))
        out.append(coords or None)
    return out


def _match_osm_map(urls, texts, state):
    out = []
    for u in urls:
        coords = [
            (float(m.group(2)), float(m.group(3)))
            for m in _OSM_MAP_RE.finditer(u)
        ]
        coords = [(la, lo) for la, lo in coords if _LAT_OK(la) and _LON_OK(lo)]
        out.append(coords or None)
    return out


def _decode_rule(regex, decode, over="text"):
    """Factory for single-capture decoder matchers (quadkey, s2 token)."""

    def match(urls, texts, state):
        rows = urls if over == "url" else texts
        out = []
        for r in rows:
            coords = []
            for m in regex.finditer(r):
                dec = decode(m.group(1))
                if dec is not None:
                    coords.append(dec)
            out.append(coords or None)
        return out

    return match


def _match_zip(urls, texts, state):
    table = state.get("zipcodes")
    if not table:
        return [None] * len(texts)
    out = []
    for t in texts:
        coords = []
        for m in _ZIP_RE.finditer(t):
            hit = table.get(m.group(1))
            if hit is not None:
                coords.append(hit)
        out.append(coords or None)
    return out


CATALOG_RULES = [
    DerivationRule("ddm", PRIORITY_SPECIALIZED, _match_ddm),
    DerivationRule("exif-gps", PRIORITY_SPECIALIZED, _pair_rule(_EXIF_RE, 1, 2)),
    DerivationRule(
        "geo-position", PRIORITY_SPECIALIZED, _pair_rule(_GEO_POSITION_RE, 1, 2)
    ),
    # GeoJSON / WKT carry (lon, lat) axis order — groups swapped here
    DerivationRule("geojson", PRIORITY_SPECIALIZED, _pair_rule(_GEOJSON_RE, 2, 1)),
    DerivationRule("icbm", PRIORITY_SPECIALIZED, _pair_rule(_ICBM_RE, 1, 2)),
    DerivationRule("wkt-point", PRIORITY_SPECIALIZED, _pair_rule(_WKT_POINT_RE, 2, 1)),
    DerivationRule("osm-map", PRIORITY_E2E, _match_osm_map),
    DerivationRule("quadkey", PRIORITY_E2E, _decode_rule(_QUADKEY_RE, quadkey_decode)),
    DerivationRule("s2-token", PRIORITY_E2E, _decode_rule(_S2_TOKEN_RE, s2_token_decode)),
    DerivationRule("zip-centroid", PRIORITY_GENERIC, _match_zip),
    DerivationRule("iso6709", PRIORITY_SPECIALIZED, _match_iso6709),
    DerivationRule("latlon-qs", PRIORITY_SPECIALIZED, _match_latlon_qs),
    DerivationRule("map-url", PRIORITY_SPECIALIZED, _match_map_url),
    DerivationRule("geohash", PRIORITY_E2E, _match_geohash),
    DerivationRule("maidenhead", PRIORITY_E2E, _match_maidenhead),
    DerivationRule("mgrs", PRIORITY_E2E, _match_mgrs),
    DerivationRule("pluscode", PRIORITY_E2E, _match_pluscode),
    DerivationRule("tile-url", PRIORITY_E2E, _match_tile_url),
    DerivationRule("utm", PRIORITY_E2E, _match_utm),
    DerivationRule("airport", PRIORITY_GENERIC, _match_airport),
    DerivationRule("gazetteer", PRIORITY_GENERIC, _match_gazetteer),
]


def full_registry():
    """default cascade + the whole catalog (the strategies/all/all.go
    activation pattern: import everything, select by registration)."""
    reg = default_registry()
    for r in CATALOG_RULES:
        reg.register(r)
    return reg
