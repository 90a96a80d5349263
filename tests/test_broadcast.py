"""Side values ride the UDF: no map task fetches a driver object.

Ray Data ships a map's UDF, closure and default arguments included, once
per operator, and each task receives it as a resolved argument. A driver
``ray.put`` plus an in-task ``ray.get`` adds a nested get (a hang class seen
in the tier-1 suite) and buys nothing, so the engine keeps the object store
API to the few places that need it. The scan is an AST walk, not a text grep:
``types_ray.get(`` in compare.py is a dict lookup, not Ray.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1] / "core_ray"

# module -> why it may call ray.put
PUT_ALLOWED = {
    "stages/join.py": "lookup_join broadcasts up to BROADCAST_MAX_BYTES (256 MiB), "
                      "above Ray Data's 100 MiB UDF-size warning",
}

# module -> why it may call ray.get
GET_ALLOWED = {
    "collect.py": "collect_table is the one driver-side gather of a small Dataset",
    "stages/join.py": "resolves its own broadcast refs (see PUT_ALLOWED)",
}

# (module, top-level function) -> why it may call ray.get
GET_ALLOWED_FUNCS = {
    ("queries/emb.py", f): "block-nested-loop scorer: fetches Dataset blocks on demand"
    for f in ("emb_near_dup_pairs", "emb_silhouette", "emb_hubness", "emb_intrinsic_dim")
}


def _ray_calls():
    """Yield (module, top-level function or None, lineno, "put" | "get")."""
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text())
        for top in tree.body:
            name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "ray"
                    and node.func.attr in ("put", "get")
                ):
                    yield rel, name, node.lineno, node.func.attr


def test_ray_put_only_in_join():
    bad = [f"{rel}:{line}" for rel, _, line, op in _ray_calls()
           if op == "put" and rel not in PUT_ALLOWED]
    assert not bad, f"{len(bad)} ray.put outside stages/join.py: " + ", ".join(bad)


def test_ray_get_only_where_listed():
    bad = [f"{rel}:{line}" for rel, fn, line, op in _ray_calls()
           if op == "get" and rel not in GET_ALLOWED
           and (rel, fn) not in GET_ALLOWED_FUNCS]
    assert not bad, f"{len(bad)} ray.get outside the listed sites: " + ", ".join(bad)


def test_no_objectref_guards_outside_join():
    """A value handed to a UDF is never a ref, so an isinstance(..., ray.ObjectRef)
    test outside the one ref site is dead code."""
    bad = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel in PUT_ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "ObjectRef":
                bad.append(f"{rel}:{node.lineno}")
    assert not bad, "ObjectRef checks outside stages/join.py: " + ", ".join(bad)
