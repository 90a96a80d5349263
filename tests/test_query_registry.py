"""The query registry has one source: ``@query(sql=...)`` in the subject
modules of ``core_ray/queries/``. These checks keep it that way."""

from __future__ import annotations

import ast
import pathlib

import pytest

import core_ray.queries as Q
from core_ray.queries import ORACLE_SQL, QUERIES, query

PKG = pathlib.Path(Q.__file__).resolve().parent
MODULES = sorted(PKG.glob("*.py"))
MAX_LINES = 8000

# public top-level functions that are not queries, each with its reason
NOT_QUERIES = {
    "query": "the registering decorator itself",
    "oracle_golden_ensures": "the golden builders oracle_sql() runs first, not a query",
    "tile_hulls": "geo_convex_hull's per-tile hull stage; tests drive it on hand-built input",
}


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def test_every_public_function_is_registered():
    unregistered = []
    for path in MODULES:
        mod = getattr(Q, path.stem) if path.stem != "__init__" else Q
        for node in _tree(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if node.name in NOT_QUERIES:
                continue
            if QUERIES.get(node.name) is not getattr(mod, node.name):
                unregistered.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unregistered
    assert set(ORACLE_SQL) == set(QUERIES)


def test_query_returns_the_function_and_rejects_a_duplicate_name():
    def _registry_probe(sf_dir):
        return sf_dir

    try:
        assert query(sql="SELECT 1")(_registry_probe) is _registry_probe
        assert ORACLE_SQL["_registry_probe"] == "SELECT 1"
        with pytest.raises(ValueError, match="_registry_probe"):
            query(sql="SELECT 2")(_registry_probe)
    finally:
        QUERIES.pop("_registry_probe", None)
        ORACLE_SQL.pop("_registry_probe", None)
    assert ORACLE_SQL.get("_registry_probe") is None

    existing = next(iter(QUERIES))

    def dup(sf_dir):
        return sf_dir

    dup.__name__ = existing
    with pytest.raises(ValueError, match=existing):
        query(sql="SELECT 1")(dup)
    assert QUERIES[existing] is not dup


def test_no_module_is_over_the_line_limit():
    sizes = {p.name: len(p.read_text().splitlines()) for p in MODULES}
    assert all(n <= MAX_LINES for n in sizes.values()), sizes


# top-level packages imported inside the functions that use them, with the reason
LAZY_IMPORTS = {
    "ray": "reading the registry (ORACLE_SQL for an oracle run, say) must not load Ray",
}


def _root(node) -> str:
    if isinstance(node, ast.Import):
        return node.names[0].name.split(".")[0]
    return node.module.split(".")[0]


def test_no_function_local_import_without_a_reason():
    """Imports live in each module's import block; a local one needs a
    one-line reason: its package in LAZY_IMPORTS, or a comment on its line
    or the line above."""
    bare = []
    for path in MODULES:
        lines = path.read_text().splitlines()
        for top in _tree(path).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if node is top or not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if _root(node) in LAZY_IMPORTS:
                    continue
                here, above = lines[node.lineno - 1], lines[node.lineno - 2]
                if "#" not in here and not above.strip().startswith("#"):
                    bare.append(f"{path.name}:{node.lineno}")
    assert not bare


def test_bench_covers_the_registry():
    import bench

    assert not set(bench.BENCH_QUERIES) & set(bench.BENCH_EXCLUDED)
    assert set(bench.BENCH_QUERIES) | set(bench.BENCH_EXCLUDED) == set(QUERIES)
    assert len(bench.BENCH_QUERIES) == len(set(bench.BENCH_QUERIES))
    assert all(isinstance(r, str) and r for r in bench.BENCH_EXCLUDED.values())
