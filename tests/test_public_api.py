"""No public name in src/homtt that only the tests (or nothing) use.

Every public top-level name of a package module must be referenced by
some other top-level statement of the package, or be on the allowlist
of entry points and documented API below.  Every public method or
property of a public class must be read by attribute name somewhere in
the package outside its own body, and every field of a public dataclass,
or of a public class that names its fields in __match_args__ or
__slots__, by attribute name or through a class pattern; so must every
attribute that a public class's __init__ sets on self, by assignment or
through object.__setattr__.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

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


def _is_dataclass(cls):
    for d in cls.decorator_list:
        match d:
            case ast.Name(id="dataclass") | ast.Call(
                    func=ast.Name(id="dataclass")):
                return True
    return False


def _fields(cls):
    """The names in a class's __match_args__ or __slots__ tuple, else a
    dataclass's annotated fields, then the attributes its __init__ sets
    on self, by assignment or through object.__setattr__."""
    fields = []
    for s in cls.body:
        match s:
            case ast.Assign(targets=targets, value=ast.Tuple(elts=elts)) \
                    if {"__match_args__", "__slots__"} & {
                        t.id for t in targets if isinstance(t, ast.Name)}:
                # a slot such as __weakref__ is no field
                fields += [e.value for e in elts
                           if not e.value.startswith("__")]
    if not fields and _is_dataclass(cls):
        fields = [s.target.id for s in cls.body
                  if isinstance(s, ast.AnnAssign)]
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
            for node in ast.walk(fn):
                match node:
                    case ast.Attribute(value=ast.Name(id="self"), attr=name,
                                       ctx=ast.Store()):
                        fields.append(name)
                    case ast.Call(func=ast.Attribute(
                            value=ast.Name(id="object"), attr="__setattr__"),
                            args=[ast.Name(id="self"),
                                  ast.Constant(value=str(name)), _]):
                        fields.append(name)
    return list(dict.fromkeys(fields))


def _unread_fields(trees):
    fields = {cls.name: _fields(cls) for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and not cls.name.startswith("_")}
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            match node:
                case ast.Attribute(attr=name, ctx=ast.Load()):
                    read.add(name)
                case ast.MatchClass(cls=ast.Name(id=cls) | ast.Attribute(
                        attr=cls), patterns=pos, kwd_attrs=kwd):
                    # positional patterns bind fields in __match_args__,
                    # which for a dataclass is its field order
                    read.update(fields.get(cls, ())[:len(pos)])
                    read.update(kwd)
    return [f"{cls}.{name}" for cls, names in fields.items()
            for name in names if name not in read]


def test_every_dataclass_field_is_read_inside_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    unread = _unread_fields(trees)
    assert not unread, f"fields never read inside the package: " \
        f"{unread}"


def test_an_unread_match_args_field_is_reported():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    planted = ast.parse("class Planted(Interned):\n"
                        "    __match_args__ = ('name', 'never_read')\n")
    assert _unread_fields(trees + [planted]) == ["Planted.never_read"]


@pytest.mark.parametrize("body", [
    "    __slots__ = __match_args__ = ('name', 'never_read')\n",
    "    __slots__ = ('name', 'never_read', '__weakref__')\n",
    "    def __init__(self, name, never_read):\n"
    "        object.__setattr__(self, 'name', name)\n"
    "        object.__setattr__(self, 'never_read', never_read)\n",
], ids=["slots-and-match-args", "slots", "object-setattr"])
def test_an_unread_field_of_a_value_class_is_reported(body):
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    planted = ast.parse("class Planted(Value):\n" + body)
    assert _unread_fields(trees + [planted]) == ["Planted.never_read"]


def test_an_unread_init_attribute_is_reported():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    planted = ast.parse("class Planted(Exception):\n"
                        "    def __init__(self, msg):\n"
                        "        super().__init__(msg)\n"
                        "        self.never_read = msg\n")
    assert _unread_fields(trees + [planted]) == ["Planted.never_read"]


# defaulted parameters that no call inside the package passes, and why
# they stay: the entry points take them from their callers outside it
# (perfbench passes `stream` to run)
DEFAULTS_ALLOWED = {("run", "stream"), ("main", "argv")}


def _defaulted(fn):
    """The (position, name) of each defaulted parameter of fn; keyword-only
    parameters have no position."""
    args = fn.args.posonlyargs + fn.args.args
    out = [(i, a.arg) for i, a in enumerate(args)
           if i >= len(args) - len(fn.args.defaults)]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults) if d]
    return out


def _passes(call, pos, name):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if pos is not None and len(call.args) > pos:
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def test_every_defaulted_parameter_is_passed_inside_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                match node.func:
                    case ast.Name(id=name) | ast.Attribute(attr=name):
                        calls.setdefault(name, []).append(node)
    unpassed = []
    for tree in trees:
        fns = [(s, 0) for s in tree.body if isinstance(s, ast.FunctionDef)]
        fns += [(f, 1) for c in tree.body if isinstance(c, ast.ClassDef)
                and not c.name.startswith("_") for f in c.body
                if isinstance(f, ast.FunctionDef)]
        for fn, self_arg in fns:
            if fn.name.startswith("_"):
                continue
            for pos, name in _defaulted(fn):
                pos = None if pos is None else pos - self_arg
                if (fn.name, name) in DEFAULTS_ALLOWED:
                    continue
                if not any(_passes(c, pos, name)
                           for c in calls.get(fn.name, [])):
                    unpassed.append(f"{fn.name}({name})")
    assert not unpassed, f"defaulted but never passed: {unpassed}"


def test_the_package_reads_no_environment_variable():
    # the command line is the only input besides the files it names
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            match node:
                case ast.Attribute(attr=name) | ast.alias(name=name) \
                        if name in reads:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"environment read in the package: {found}"
