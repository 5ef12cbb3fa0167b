"""No public name in src/homtt that only the tests (or nothing) use.

Every public top-level name of a package module must be referenced by
some other top-level statement of the package, or be on the allowlist
of entry points and documented API below.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homtt"

# the console entry point and the derived terms the README documents
ALLOWED = {"main", "derive_transport", "derive_comp", "print_source"}


def _defined(stmt):
    match stmt:
        case ast.FunctionDef(name=name) | ast.ClassDef(name=name):
            return [name]
        case ast.Assign(targets=targets):
            return [t.id for t in targets if isinstance(t, ast.Name)]
        case ast.AnnAssign(target=ast.Name(id=name)):
            return [name]
    return []


def _referenced(stmt):
    out = set()
    for node in ast.walk(stmt):
        match node:
            case ast.Name(id=name, ctx=ast.Load()):
                out.add(name)
            case ast.Attribute(attr=name):
                out.add(name)
            case ast.alias(name=name):
                out.add(name)
    return out


def test_every_public_name_is_used_inside_the_package():
    stmts = [stmt for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    refs = [_referenced(stmt) for stmt in stmts]
    unused = []
    for i, stmt in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("_") or name in ALLOWED:
                continue
            if not any(name in r for j, r in enumerate(refs) if j != i):
                unused.append(name)
    assert not unused, f"public but unused inside the package: {unused}"
