"""Surface syntax: .dtt declaration files and .fincat category files.

The .dtt language uses named variables; parsing resolves them to de Bruijn
levels (position in the telescope).  Nodes are built by the kernel's
interning constructors, so equal subterms are one object.  An eliminator
header `[...]` whose tokens come again in the same scope is parsed once per
file; its later copies reuse the nodes of the first.  Keywords:

    assume NAME (x : T, ...) : Type          -- base type
    assume NAME (x : T, ...) : T             -- term constant
    define NAME (x : T, ...) : T := term
    assert type (x : T, ...) T               -- well-formedness assertion
    assert (x : T, ...) t == u : T           -- definitional equality assertion

    core T | op T | hom T s t                -- types
    i t | iop t | one t                      -- terms
    elimR[x. Th; x y f w. D; x w. d](f, w)   -- eliminators (elimL likewise)

`#` starts a line comment.  Identifiers may contain primes (t').

.fincat files are line oriented and hold named blocks: `category`, `functor`,
`fiber` and `section`; see the README for the full format.
Category laws are not checked here (fincat.validate does that); this module
checks shape and referential integrity inside each block.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import kernel as k


class ParseError(Exception):
    def __init__(self, msg, path="<input>", line=0, col=0):
        super().__init__(f"{path}:{line}:{col}: {msg}")
        self.msg = msg
        self.path = path
        self.line = line
        self.col = col


def read_source(path):
    """The text of an input file; bytes that are not UTF-8 make it unusable
    input, a ParseError at the first bad byte's line and byte column."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        bad = err.start
        raise ParseError(f"not UTF-8 text ({err.reason})", path,
                         err.object.count(b"\n", 0, bad) + 1,
                         bad - err.object.rfind(b"\n", 0, bad)) from None


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class AssumeType:
    name: str
    telescope: tuple
    line: int = 0


@dataclass(frozen=True)
class AssumeTerm:
    name: str
    telescope: tuple
    ty: k.TypeExpr
    line: int = 0


@dataclass(frozen=True)
class Define:
    name: str
    telescope: tuple
    ty: k.TypeExpr
    body: k.TermExpr
    line: int = 0


@dataclass(frozen=True)
class AssertType:
    telescope: tuple
    ty: k.TypeExpr
    line: int = 0


@dataclass(frozen=True)
class AssertEqual:
    telescope: tuple
    lhs: k.TermExpr
    rhs: k.TermExpr
    ty: k.TypeExpr
    line: int = 0


@dataclass(frozen=True)
class SourceFile:
    decls: tuple


# the one-argument formers, each keyword with its node class: the type
# formers take a type, the term formers a term atom
_FORMERS = {"core": k.Core, "op": k.Op,
            "i": k.IncCore, "iop": k.IncOp, "one": k.One}
_KEYWORD = {cls: kw for kw, cls in _FORMERS.items()}

KEYWORDS = {"assume", "define", "assert", "type", "Type", "hom", "elimR",
            "elimL", *_FORMERS}
# every token that is not a name
_RESERVED = KEYWORDS | {"(", ")", "[", "]", ",", ";", ".", ":", ":=", "=="}

# a token is group 1; any other non-blank character is stray
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|:=|==|[()\[\],;.:])|\S")


def _code(raw):
    """One line of source without its comment."""
    return raw.split("#", 1)[0]


def _lex_dtt(text, path):
    """The token texts of a file, and the running token count at each line end.

    A stray character comes out of findall as an empty group; only then
    are the lines walked again to find where the first one is.
    """
    toks, ends = [], []
    for raw in text.splitlines():
        toks += _TOKEN.findall(_code(raw))
        ends.append(len(toks))
    if "" in toks:
        for ln, raw in enumerate(text.splitlines(), start=1):
            for m in _TOKEN.finditer(_code(raw)):
                if m.lastindex is None:
                    raise ParseError(f"stray character {m.group()!r}", path,
                                     ln, m.start() + 1)
    return toks, ends


# The deepest nesting a .dtt file may have, counting each open "(" or "["
# and each "core" or "op" (they nest without brackets).  Parsing, checking,
# reducing and printing recurse on it, so deeper input is refused before
# any of them starts, with the RecursionError they would meet.  At this
# depth an f(...) or core chain still fits under 100 more caller frames
# than the shell's; nested eliminators can still run out of stack below it.
MAX_NESTING = 246


class _DttParser:
    def __init__(self, text, path):
        self.text = text
        self.toks, self.ends = _lex_dtt(text, path)
        self.pos = 0
        self.path = path
        # name -> ("base" | "term", telescope length)
        self.declared = {}
        # index of each "[" -> index of its matching "]" (none if unmatched)
        self.close = {}
        # a bracket holds its own level and those of the core/op before it
        opened, held, depth, run = [], [], 0, 0
        for i, tok in enumerate(self.toks):
            if tok in {"(", "[", "core", "op"}:
                run += 1
                if depth + run > MAX_NESTING:
                    raise RecursionError("input nests too deeply")
                if tok in {"core", "op"}:
                    continue
                held.append(run)
                depth += run
                if tok == "[":
                    opened.append(i)
            elif tok in {")", "]"}:
                depth -= held.pop() if held else 0
                if tok == "]" and opened:
                    self.close[opened.pop()] = i
            run = 0
        # (eliminator header tokens, scope) -> its parsed motives
        self.headers = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            self.fail("unexpected end of input")
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, text):
        tok = self.next()
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}", self.pos - 1)

    def name(self, role="name"):
        tok = self.next()
        if tok in _RESERVED:
            self.fail(f"expected {role}, found {tok!r}", self.pos - 1)
        return tok

    def line(self, at):
        return bisect.bisect_right(self.ends, at) + 1

    def fail(self, msg, at=None):
        """Raise at token `at`: by default the next one, or the last at the end."""
        at = min(self.pos if at is None else at, len(self.toks) - 1)
        ln = self.line(at)
        first = self.ends[ln - 2] if ln > 1 else 0
        raw = self.text.splitlines()[ln - 1]
        col = list(_TOKEN.finditer(_code(raw)))[at - first].start() + 1
        raise ParseError(msg, self.path, ln, col)

    # -- declarations ------------------------------------------------------

    def parse_file(self):
        decls = []
        while self.pos < len(self.toks):
            line = self.line(self.pos)
            kw = self.next()
            if kw == "assume":
                decls.append(self._assume(line))
            elif kw == "define":
                decls.append(self._define(line))
            elif kw == "assert":
                decls.append(self._assert(line))
            else:
                self.fail(f"expected a declaration, found {kw!r}", self.pos - 1)
        return SourceFile(tuple(decls))

    def _declare(self, at, kind, arity):
        name = self.toks[at]
        if name in self.declared:
            self.fail(f"duplicate name {name!r}", at)
        self.declared[name] = (kind, arity)

    def _assume(self, line):
        at = self.pos
        name = self.name("declaration name")
        tele, scope = self._telescope()
        self.expect(":")
        if self.peek() == "Type":
            self.next()
            self._declare(at, "base", len(tele))
            return AssumeType(name, tele, line)
        ty = self._type(scope)
        self._declare(at, "term", len(tele))
        return AssumeTerm(name, tele, ty, line)

    def _define(self, line):
        at = self.pos
        name = self.name("declaration name")
        tele, scope = self._telescope()
        self.expect(":")
        ty = self._type(scope)
        self.expect(":=")
        body = self._term(scope)
        self._declare(at, "term", len(tele))
        return Define(name, tele, ty, body, line)

    def _assert(self, line):
        if self.peek() == "type":
            self.next()
            tele, scope = self._telescope()
            ty = self._type(scope)
            return AssertType(tele, ty, line)
        tele, scope = self._telescope()
        lhs = self._term(scope)
        self.expect("==")
        rhs = self._term(scope)
        self.expect(":")
        ty = self._type(scope)
        return AssertEqual(tele, lhs, rhs, ty, line)

    def _telescope(self):
        scope = []
        entries = []
        if self.peek() == "(" and self.peek(1) not in _RESERVED \
                and self.peek(2) == ":":
            self.next()
            while True:
                name = self.name("telescope variable")
                if name in scope:
                    self.fail(f"duplicate name {name!r}", self.pos - 1)
                self.expect(":")
                entries.append((name, self._type(scope)))
                scope.append(name)
                if self.peek() == ",":
                    self.next()
                    continue
                self.expect(")")
                break
        return tuple(entries), scope

    # -- types -------------------------------------------------------------

    def _type(self, scope):
        tok = self.peek()
        cls = _FORMERS.get(tok)
        if cls is not None and issubclass(cls, k.TypeExpr):
            self.next()
            return cls(self._type(scope))
        if tok == "hom":
            self.next()
            carrier = self._type_atom(scope)
            src = self._term_atom(scope)
            tgt = self._term_atom(scope)
            return k.Hom(carrier, src, tgt)
        return self._type_atom(scope)

    def _type_atom(self, scope):
        if self.peek() == "(":
            self.next()
            ty = self._type(scope)
            self.expect(")")
            return ty
        at = self.pos
        name = self.name("type")
        kind = self.declared.get(name)
        if kind is None:
            if name in scope:
                self.fail(f"{name!r} is a variable, not a type", at)
            self.fail(f"unbound name {name!r}", at)
        if kind[0] != "base":
            self.fail(f"{name!r} is a term, not a type", at)
        return k.BaseT(name, self._args(scope, at, kind[1]))

    def _args(self, scope, at, arity):
        # names of arity 0 never take parens (a following "(" belongs to the
        # enclosing form, e.g. the source term in `hom B (iop s) t`)
        args = []
        if arity > 0 and self.peek() == "(":
            self.next()
            while True:
                args.append(self._term(scope))
                if self.peek() == ",":
                    self.next()
                    continue
                self.expect(")")
                break
        if len(args) != arity:
            self.fail(f"{self.toks[at]!r} expects {arity} argument(s), "
                      f"got {len(args)}", at)
        return tuple(args)

    # -- terms -------------------------------------------------------------

    def _term(self, scope):
        tok = self.peek()
        cls = _FORMERS.get(tok)
        if cls is not None and issubclass(cls, k.TermExpr):
            self.next()
            return cls(self._term_atom(scope))
        if tok in ("elimR", "elimL"):
            return self._elim(scope)
        return self._term_atom(scope)

    def _elim(self, scope):
        cls = k.ElimR if self.next() == "elimR" else k.ElimL
        # A header's parse reads no token past its "]", and a name it found
        # declared keeps its kind for the rest of the file; so a header that
        # parsed once parses the same wherever its tokens come again in the
        # same scope.  Only a parse that succeeded is kept.
        end = self.close.get(self.pos)
        key = None if end is None else (tuple(self.toks[self.pos:end]),
                                         tuple(scope))
        if key in self.headers:
            th, dm, body = self.headers[key]
            self.pos = end + 1
        else:
            self.expect("[")
            th = self._motive(scope, 1, self._type)
            self.expect(";")
            dm = self._motive(scope, 4, self._type)
            self.expect(";")
            body = self._motive(scope, 2, self._term)
            self.expect("]")
            # the brackets of a header that parsed balance: its "[" has a key
            self.headers[key] = th, dm, body
        self.expect("(")
        f = self._term(scope)
        self.expect(",")
        theta = self._term(scope)
        self.expect(")")
        return cls(th, dm, body, f, theta)

    def _motive(self, scope, arity, sub):
        binders = []
        for _ in range(arity):
            name = self.name("binder")
            if name in binders:
                self.fail(f"duplicate name {name!r}", self.pos - 1)
            binders.append(name)
        self.expect(".")
        return sub(scope + binders)

    def _term_atom(self, scope):
        if self.peek() == "(":
            self.next()
            tm = self._term(scope)
            self.expect(")")
            return tm
        at = self.pos
        name = self.name("term")
        if name in scope:
            # innermost binding wins
            level = len(scope) - 1 - scope[::-1].index(name)
            return k.Var(level)
        kind = self.declared.get(name)
        if kind is None:
            self.fail(f"unbound name {name!r}", at)
        if kind[0] != "term":
            self.fail(f"{name!r} is a type, not a term", at)
        return k.Const(name, self._args(scope, at, kind[1]))


def parse_dtt(text, path="<input>"):
    return _DttParser(text, path).parse_file()


# ---------------------------------------------------------------------------
# printing (the inverse: levels back to names)


def _fresh(base, taken):
    # the first of base, base0, base1, ... neither taken nor a keyword; a
    # base drawn from maps to where its search resumes (taken only grows)
    if base not in taken and base not in KEYWORDS:
        taken[base] = 0
        return base
    n = taken.get(base) or 0
    while f"{base}{n}" in taken or f"{base}{n}" in KEYWORDS:
        n += 1
    taken[f"{base}{n}"], taken[base] = None, n + 1
    return f"{base}{n}"


def print_term(tm, env=()):
    """The surface text of term tm; env names the levels of its context."""
    return _print(_term_out, tm, env)


def print_type(ty, env=()):
    """The surface text of type ty; env names the levels of its context."""
    return _print(_type_out, ty, env)


def _print(walk, node, env):
    # every eliminator draws its binder names from one table for the
    # whole text, in the order the text is written
    out = []
    walk(node, list(env), dict.fromkeys([*node.names, *env]), out)
    return "".join(out)


def _term_out(tm, env, taken, out):
    """Append the pieces of term tm to out; env is the list of names in
    scope, extended in place under each binder and restored after it."""
    cls = type(tm)
    if cls is k.Var:
        i = tm.level
        out.append(env[i] if i < len(env) else f"?{i}")
    elif cls is k.Const:
        out.append(tm.name)
        _args_out(tm.args, env, taken, out)
    elif cls is k.ElimR or cls is k.ElimL:
        v1 = [_fresh("x", taken)]
        v4 = [_fresh(c, taken) for c in ("x", "y", "h", "w")]
        v2 = [_fresh(c, taken) for c in ("x", "w")]
        n = len(env)
        out.append("elimR[" if cls is k.ElimR else "elimL[")
        for names, walk, body, end in (
                (v1, _type_out, tm.motive_theta, "; "),
                (v4, _type_out, tm.motive_d, "; "),
                (v2, _term_out, tm.base, "](")):
            out.append(" ".join(names) + ". ")
            env += names
            walk(body, env, taken, out)
            del env[n:]
            out.append(end)
        _term_out(tm.f, env, taken, out)
        out.append(", ")
        _term_out(tm.theta, env, taken, out)
        out.append(")")
    elif cls in _KEYWORD and issubclass(cls, k.TermExpr):
        out.append(_KEYWORD[cls] + " ")
        _atom_out(_term_out, tm.arg, env, taken, out)
    else:
        raise k.InternalError(f"print_term: {tm!r}")


def _type_out(ty, env, taken, out):
    cls = type(ty)
    if cls is k.BaseT:
        out.append(ty.name)
        _args_out(ty.args, env, taken, out)
    elif cls is k.Hom:
        out.append("hom ")
        _atom_out(_type_out, ty.carrier, env, taken, out)
        out.append(" ")
        _atom_out(_term_out, ty.source, env, taken, out)
        out.append(" ")
        _atom_out(_term_out, ty.target, env, taken, out)
    elif cls in _KEYWORD and issubclass(cls, k.TypeExpr):
        out.append(_KEYWORD[cls] + " ")
        _atom_out(_type_out, ty.inner, env, taken, out)
    else:
        raise k.InternalError(f"print_type: {ty!r}")


def _args_out(args, env, taken, out):
    sep = "("
    for a in args:
        out.append(sep)
        _term_out(a, env, taken, out)
        sep = ", "
    if args:
        out.append(")")


# the nodes printed without parentheses where an atom is expected
_ATOMS = {k.Var, k.Const, k.BaseT}


def _atom_out(walk, node, env, taken, out):
    if type(node) in _ATOMS:
        walk(node, env, taken, out)
    else:
        out.append("(")
        walk(node, env, taken, out)
        out.append(")")


# ---------------------------------------------------------------------------
# .fincat files


@dataclass
class CatBlock:
    name: str
    objects: list = field(default_factory=list)
    arrows: list = field(default_factory=list)       # (name, dom, cod)
    composites: list = field(default_factory=list)   # (g, f, h) meaning g.f = h
    line: int = 0


@dataclass
class FunctorBlock:
    name: str
    source: str
    target: str
    ob: list = field(default_factory=list)
    arr: list = field(default_factory=list)
    line: int = 0


@dataclass
class FiberBlock:
    name: str
    constant: str | None = None
    fibers: list = field(default_factory=list)       # (addr, category name)
    transitions: list = field(default_factory=list)  # (addr, functor name)
    line: int = 0


@dataclass
class SectionBlock:
    name: str
    components: list = field(default_factory=list)   # (addr, value name)
    line: int = 0


@dataclass
class CatFile:
    categories: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)
    fibers: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)


_FC_TOKEN = re.compile(r"[A-Za-z0-9_']+|->|[\[\]():=*]|\S")
_FC_WORD = re.compile(r"[A-Za-z0-9_']+\Z")
_FC_PUNCT = frozenset({"->", "[", "]", "(", ")", ":", "=", "*"})


def _fc_lex(line, path, ln):
    toks = []
    for m in _FC_TOKEN.finditer(line.split("#", 1)[0]):
        t = m.group()
        if t not in _FC_PUNCT and not _FC_WORD.match(t):
            raise ParseError(f"stray character {t!r}", path, ln, m.start() + 1)
        toks.append(t)
    return toks


class _FincatParser:
    def __init__(self, text, path, out):
        self.lines = text.splitlines()
        self.path = path
        self.out = out

    def err(self, msg, ln):
        raise ParseError(msg, self.path, ln, 1)

    def register(self, table, block):
        """Enter a block under its name, which no block of any kind may
        hold already."""
        if any(block.name in t for t in vars(self.out).values()):
            self.err(f"duplicate name {block.name!r}", block.line)
        table[block.name] = block

    def parse(self):
        i = 0
        while i < len(self.lines):
            ln = i + 1
            toks = _fc_lex(self.lines[i], self.path, ln)
            if not toks:
                i += 1
                continue
            head = toks[0]
            body, i = self._block_lines(i + 1)
            match head:
                case "category":
                    self._category(toks, body, ln)
                case "functor":
                    self._functor(toks, body, ln)
                case "fiber":
                    self._fiber(toks, body, ln)
                case "section":
                    self._section(toks, body, ln)
                case _:
                    self.err(f"expected a block header, found {head!r}", ln)

    def _block_lines(self, i):
        body = []
        while True:
            if i >= len(self.lines):
                self.err("missing 'end'", i)
            ln = i + 1
            toks = _fc_lex(self.lines[i], self.path, ln)
            i += 1
            if toks == ["end"]:
                return body, i
            if toks:
                body.append((toks, ln))

    def _category(self, header, body, ln):
        if len(header) != 2:
            self.err("usage: category NAME", ln)
        block = CatBlock(header[1], line=ln)
        self.register(self.out.categories, block)
        seen_objects = False
        arrow_names = set()
        for toks, bln in body:
            match toks:
                case ["objects", *objs]:
                    if seen_objects:
                        self.err("repeated objects line", bln)
                    seen_objects = True
                    if len(set(objs)) != len(objs):
                        self.err("duplicate object", bln)
                    block.objects = objs
                case ["arrow", name, ":", dom, "->", cod]:
                    if name in arrow_names or name in (f"id_{o}" for o in block.objects):
                        self.err(f"duplicate arrow {name!r}", bln)
                    if dom not in block.objects:
                        self.err(f"unknown object {dom!r}", bln)
                    if cod not in block.objects:
                        self.err(f"unknown object {cod!r}", bln)
                    arrow_names.add(name)
                    block.arrows.append((name, dom, cod))
                case ["compose", g, f, "=", h]:
                    for a in (g, f, h):
                        if a not in arrow_names and not self._is_identity(a, block):
                            self.err(f"unknown arrow {a!r}", bln)
                    block.composites.append((g, f, h))
                case _:
                    self.err(f"bad category line: {' '.join(toks)}", bln)
        if not seen_objects:
            self.err("category block needs an objects line", ln)

    @staticmethod
    def _is_identity(name, block):
        return name.startswith("id_") and name[3:] in block.objects

    def _functor(self, header, body, ln):
        match header:
            case ["functor", name, ":", src, "->", tgt]:
                block = FunctorBlock(name, src, tgt, line=ln)
            case _:
                self.err("usage: functor NAME : C -> D", ln)
        self.register(self.out.functors, block)
        for toks, bln in body:
            match toks:
                case ["ob", x, "->", y]:
                    block.ob.append((x, y))
                case ["arr", f, "->", g]:
                    block.arr.append((f, g))
                case _:
                    self.err(f"bad functor line: {' '.join(toks)}", bln)

    def _addr_line(self, toks, bln, kind):
        """The (address, name) of a `KEYWORD ADDRESS : NAME` line.  An
        address is NAME, [a b c], or [a b] (f g) for a morphism."""
        rest = toks[1:]
        if not rest:
            self.err("missing address", bln)
        if rest[0] != "[":
            addr, rest = rest[0], rest[1:]
        else:
            if "]" not in rest:
                self.err("unterminated '['", bln)
            stop = rest.index("]")
            addr, rest = tuple(rest[1:stop]), rest[stop + 1:]
            if rest and rest[0] == "(":
                if ")" not in rest:
                    self.err("unterminated '('", bln)
                stop = rest.index(")")
                addr, rest = (addr, tuple(rest[1:stop])), rest[stop + 1:]
        if len(rest) != 2 or rest[0] != ":":
            self.err(f"bad {kind} line: {' '.join(toks)}", bln)
        return addr, rest[1]

    def _fiber(self, header, body, ln):
        # the base after `over` is not checked: the binding gives the base
        match header:
            case ["fiber", name] | ["fiber", name, "over", _]:
                block = FiberBlock(name, line=ln)
            case _:
                self.err("usage: fiber NAME [over C]", ln)
        self.register(self.out.fibers, block)
        for toks, bln in body:
            match toks:
                case ["constant", cat]:
                    block.constant = cat
                case ["at", *_]:
                    block.fibers.append(self._addr_line(toks, bln, "fiber"))
                case ["along", *_]:
                    block.transitions.append(
                        self._addr_line(toks, bln, "fiber"))
                case _:
                    self.err(f"bad fiber line: {' '.join(toks)}", bln)

    def _section(self, header, body, ln):
        # likewise the fiber after `in`: the bound constant's type gives it
        match header:
            case ["section", name, "in", _]:
                block = SectionBlock(name, line=ln)
            case _:
                self.err("usage: section NAME in FIBER", ln)
        self.register(self.out.sections, block)
        for toks, bln in body:
            if toks[0] != "at":
                self.err(f"bad section line: {' '.join(toks)}", bln)
            block.components.append(self._addr_line(toks, bln, "section"))


def parse_fincat(text, path="<input>", cf=None):
    """Parse .fincat text into cf, a new CatFile by default.  A block name
    that cf already holds is a duplicate, as one repeated in the text is."""
    cf = CatFile() if cf is None else cf
    _FincatParser(text, path, cf).parse()
    return cf
