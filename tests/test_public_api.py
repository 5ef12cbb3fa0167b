"""No public name in src/homtt that only the tests (or nothing) use.

Every public top-level name of a package module must be referenced by
some other top-level statement of the package, or be on the allowlist
of entry points and documented API below.  Every public method or
property of a public class must be read by attribute name somewhere in
the package outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homtt"

# the console entry point
ALLOWED = {"main"}


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


def _attributes(node):
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def test_every_public_method_is_used_inside_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    uses = sum((_attributes(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")
                        and uses[fn.name] == _attributes(fn)[fn.name]):
                    unused.append(f"{cls.name}.{fn.name}")
    assert not unused, f"public but unused inside the package: {unused}"
