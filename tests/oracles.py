"""Independent reference implementations used to cross-check the engine.

Everything here deliberately avoids the package's own de Bruijn machinery:
terms are plain tuples with *named* variables, substitution is the classic
capture-avoiding one, and the rewriter contracts one redex at a time.  The
tests convert engine terms into this world and compare up to alpha.  One
de Bruijn operation is kept here, one-variable substitution on engine
terms, to referee the checker's single instantiate of an eliminator's
motive at the unit.  The Grothendieck construction is built pair-shaped,
as in the textbook, to referee the interpreter's flat context extension,
and the unit `one t` is built from its own op fibers, strict sections and
hom functor, to referee the interpreter's reading of the checker's type.
The laws of a fiber assignment are checked by building the identity and
composite functors they speak of and comparing them as values, and, as
a differential referee, by the cell-by-cell reading that checks every
unit and every composite with none settled by another.
The category isomorphism search enumerates functors outright, cocartesian
morphisms are decided by building the opposite functor afresh, the
factorization's middle is the strict pullback of the functor against
domain evaluation on the whole square category of its target, and grid
closures are found by walking monotone paths, forbidden cells box by
box, from boxes a test wrote or read off a program's hold ranges,
deadlocks by trying every forward step out of every reachable cell.
The .dtt lexer is the token-object one: one `Tok` with its line and
column per token, stray characters reported as they are met.  The left eliminator is computed through the mirror of its transport
extension, relabelled into right-handed shape, with a private copy of the
right-handed transport formula.  Interning is refereed by structural keys
that never compare or hash a node.  The kernel's subtree summaries are
recomputed from the fields of the whole subtree, and the printers are
checked against the recursive printer that returns a string per call.
The command line's arguments are read by the argparse parser `homtt`
was first built on, the reference for `cli.parse_args`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
from dataclasses import dataclass

from homtt import checker as ch
from homtt import cli
from homtt import fincat as fc
from homtt import kernel as k
from homtt.parser import KEYWORDS

# ---------------------------------------------------------------------------
# named representation
#
# terms:  ("var", x) ("const", name, args) ("i", t) ("iop", t) ("one", t)
#         ("elimr"|"eliml", (s, Th), (svars, D), (bvars, d), f, th)
# types:  ("base", name, args) ("core", T) ("op", T) ("hom", T, s, t)


def fresh_namer(prefix="b"):
    counter = itertools.count()
    return lambda: f"{prefix}{next(counter)}"


def to_named(x, env, fresh=None):
    """Convert a kernel expression to the named world; env maps levels to names."""
    if fresh is None:
        fresh = fresh_namer()
    match x:
        case k.Var(i):
            return ("var", env[i])
        case k.Const(name, args):
            return ("const", name, tuple(to_named(a, env, fresh) for a in args))
        case k.IncCore(t):
            return ("i", to_named(t, env, fresh))
        case k.IncOp(t):
            return ("iop", to_named(t, env, fresh))
        case k.One(t):
            return ("one", to_named(t, env, fresh))
        case k.ElimR(th, dm, b, f, a) | k.ElimL(th, dm, b, f, a):
            tag = "elimr" if isinstance(x, k.ElimR) else "eliml"
            v1 = [fresh()]
            v4 = [fresh() for _ in range(4)]
            v2 = [fresh() for _ in range(2)]
            return (tag,
                    (tuple(v1), to_named(th, env + v1, fresh)),
                    (tuple(v4), to_named(dm, env + v4, fresh)),
                    (tuple(v2), to_named(b, env + v2, fresh)),
                    to_named(f, env, fresh),
                    to_named(a, env, fresh))
        case k.BaseT(name, args):
            return ("base", name, tuple(to_named(a, env, fresh) for a in args))
        case k.Core(t):
            return ("core", to_named(t, env, fresh))
        case k.Op(t):
            return ("op", to_named(t, env, fresh))
        case k.Hom(c, s, t):
            return ("hom", to_named(c, env, fresh), to_named(s, env, fresh),
                    to_named(t, env, fresh))
    raise AssertionError(f"to_named: {x!r}")


def free_names(x):
    match x:
        case ("var", n):
            return {n}
        case ("const", _, args) | ("base", _, args):
            out = set()
            for a in args:
                out |= free_names(a)
            return out
        case ("i", t) | ("iop", t) | ("one", t) | ("core", t) | ("op", t):
            return free_names(t)
        case ("hom", c, s, t):
            return free_names(c) | free_names(s) | free_names(t)
        case (tag, (v1, th), (v4, dm), (v2, b), f, a) if tag in ("elimr", "eliml"):
            out = free_names(f) | free_names(a)
            out |= free_names(th) - set(v1)
            out |= free_names(dm) - set(v4)
            out |= free_names(b) - set(v2)
            return out
    raise AssertionError(f"free_names: {x!r}")


_avoid = fresh_namer("r")


def _rename_binder(bound, body, taken):
    """Rename the bound names of one binder away from `taken`."""
    new_bound = []
    for v in bound:
        if v in taken:
            nv = _avoid()
            while nv in taken:
                nv = _avoid()
            body = subst_named(body, v, ("var", nv))
            new_bound.append(nv)
        else:
            new_bound.append(v)
    return tuple(new_bound), body


def subst_named(x, name, val):
    """Capture-avoiding substitution of val for the free variable `name`."""
    match x:
        case ("var", n):
            return val if n == name else x
        case ("const", c, args):
            return ("const", c, tuple(subst_named(a, name, val) for a in args))
        case ("base", c, args):
            return ("base", c, tuple(subst_named(a, name, val) for a in args))
        case ("i", t):
            return ("i", subst_named(t, name, val))
        case ("iop", t):
            return ("iop", subst_named(t, name, val))
        case ("one", t):
            return ("one", subst_named(t, name, val))
        case ("core", t):
            return ("core", subst_named(t, name, val))
        case ("op", t):
            return ("op", subst_named(t, name, val))
        case ("hom", c, s, t):
            return ("hom", subst_named(c, name, val), subst_named(s, name, val),
                    subst_named(t, name, val))
        case (tag, (v1, th), (v4, dm), (v2, b), f, a) if tag in ("elimr", "eliml"):
            danger = free_names(val) | {name}
            v1, th = _rename_binder(v1, th, danger)
            v4, dm = _rename_binder(v4, dm, danger)
            v2, b = _rename_binder(v2, b, danger)
            if name not in v1:
                th = subst_named(th, name, val)
            if name not in v4:
                dm = subst_named(dm, name, val)
            if name not in v2:
                b = subst_named(b, name, val)
            return (tag, (v1, th), (v4, dm), (v2, b),
                    subst_named(f, name, val), subst_named(a, name, val))
    raise AssertionError(f"subst_named: {x!r}")


def alpha_canon(x, env=None, counter=None):
    """Canonical bound names (and the core-of-op identification), so that
    plain tuple equality is alpha equality."""
    if env is None:
        env = {}
    if counter is None:
        counter = itertools.count()
    match x:
        case ("var", n):
            return ("var", env.get(n, n))
        case ("const", c, args):
            return ("const", c, tuple(alpha_canon(a, env, counter) for a in args))
        case ("base", c, args):
            return ("base", c, tuple(alpha_canon(a, env, counter) for a in args))
        case ("i", t):
            return ("i", alpha_canon(t, env, counter))
        case ("iop", t):
            return ("iop", alpha_canon(t, env, counter))
        case ("one", t):
            return ("one", alpha_canon(t, env, counter))
        case ("core", t):
            t = alpha_canon(t, env, counter)
            while t[0] == "op":
                t = t[1]
            return ("core", t)
        case ("op", t):
            return ("op", alpha_canon(t, env, counter))
        case ("hom", c, s, t):
            return ("hom", alpha_canon(c, env, counter),
                    alpha_canon(s, env, counter), alpha_canon(t, env, counter))
        case (tag, (v1, th), (v4, dm), (v2, b), f, a) if tag in ("elimr", "eliml"):
            def canon_binder(bound, body):
                inner = dict(env)
                new = tuple(f"c{next(counter)}" for _ in bound)
                inner.update(zip(bound, new))
                return new, alpha_canon(body, inner, counter)
            return (tag, canon_binder(v1, th), canon_binder(v4, dm),
                    canon_binder(v2, b),
                    alpha_canon(f, env, counter), alpha_canon(a, env, counter))
    raise AssertionError(f"alpha_canon: {x!r}")


def named_equal(a, b):
    return alpha_canon(a) == alpha_canon(b)


# ---------------------------------------------------------------------------
# one-variable substitution on the engine's own terms


def substitute(x, depth: int, replacement, scope: int):
    """Replace Var(depth) by `replacement` and close the gap.

    `x` lives in a context of length `scope`; `replacement` in that context
    with entry `depth` removed (so its levels >= depth already refer to the
    shortened numbering).  Levels above `depth` in `x` are decremented,
    including binder levels.  When the replacement is inserted under binders
    of `x`, its own binder levels are shifted clear of them.
    """
    def go(y, binders):
        if y.levels <= depth:
            return y
        if isinstance(y, k.Var):
            if y.level == depth:
                return k.shift(replacement, scope - 1, binders)
            return k.Var(y.level - 1)
        return k.map_children(y, go, binders)
    return go(x, 0)


# ---------------------------------------------------------------------------
# children and subtree summaries, recomputed


def children(x):
    """The (child, binders) pairs of x in field order, each child a node;
    `binders` is the number of variables x binds around that child (what
    `map_children` hands its function)."""
    pairs = []
    k.map_children(x, lambda c, b: pairs.append((c, b)) or c, 0)
    return pairs


def summaries(x, memo=None):
    """(levels, elims, names) of x from its whole subtree: one more than
    its highest variable level (0 if none), its eliminator count, and the
    set of its constants and base types.  Every node is read through its
    fields, never through the summaries the kernel stored."""
    memo = {} if memo is None else memo
    if x in memo:
        return memo[x]
    if isinstance(x, k.Var):
        out = (x.level + 1, 0, frozenset())
    else:
        named = isinstance(x, (k.Const, k.BaseT))
        kids = x.args if named else [getattr(x, f) for f in x.__match_args__]
        subs = [summaries(c, memo) for c in kids]
        out = (max([s[0] for s in subs], default=0),
               sum(s[1] for s in subs) + isinstance(x, (k.ElimR, k.ElimL)),
               frozenset({x.name} if named else ()).union(
                   *(s[2] for s in subs)))
    memo[x] = out
    return out


# ---------------------------------------------------------------------------
# the recursive printer: each call returns its own string, and an
# eliminator draws its binder names before it prints its parts


_KEYWORD = {k.Core: "core", k.Op: "op", k.IncCore: "i", k.IncOp: "iop",
            k.One: "one"}


def _fresh(base, taken):
    name, n = base, 0
    while name in taken or name in KEYWORDS:
        name, n = f"{base}{n}", n + 1
    taken.add(name)
    return name


def print_term(tm, env=(), taken=None):
    if taken is None:
        taken = set(tm.names) | set(env)
    if type(tm) in _KEYWORD and isinstance(tm, k.TermExpr):
        return f"{_KEYWORD[type(tm)]} {_term_atom(tm.arg, env, taken)}"
    match tm:
        case k.Var(i):
            return env[i] if i < len(env) else f"?{i}"
        case k.Const(name, args):
            return name + _print_args(args, env, taken)
        case k.ElimR(th, dm, b, f, a) | k.ElimL(th, dm, b, f, a):
            kw = "elimR" if isinstance(tm, k.ElimR) else "elimL"
            v1 = [_fresh("x", taken)]
            v4 = [_fresh(c, taken) for c in ("x", "y", "h", "w")]
            v2 = [_fresh(c, taken) for c in ("x", "w")]
            env_l = list(env)
            parts = [
                " ".join(v1) + ". " + print_type(th, env_l + v1, taken),
                " ".join(v4) + ". " + print_type(dm, env_l + v4, taken),
                " ".join(v2) + ". " + print_term(b, env_l + v2, taken),
            ]
            return (f"{kw}[{'; '.join(parts)}]"
                    f"({print_term(f, env, taken)}, {print_term(a, env, taken)})")
    raise k.InternalError(f"print_term: {tm!r}")


def _print_args(args, env, taken):
    inner = ", ".join(print_term(a, env, taken) for a in args)
    return f"({inner})" if args else ""


def _term_atom(tm, env, taken):
    out = print_term(tm, env, taken)
    return out if isinstance(tm, (k.Var, k.Const)) else f"({out})"


def print_type(ty, env=(), taken=None):
    if taken is None:
        taken = set(ty.names) | set(env)
    if type(ty) in _KEYWORD and isinstance(ty, k.TypeExpr):
        return f"{_KEYWORD[type(ty)]} {_type_atom(ty.inner, env, taken)}"
    match ty:
        case k.BaseT(name, args):
            return name + _print_args(args, env, taken)
        case k.Hom(c, s, t):
            return (f"hom {_type_atom(c, env, taken)} "
                    f"{_term_atom(s, env, taken)} {_term_atom(t, env, taken)}")
    raise k.InternalError(f"print_type: {ty!r}")


def _type_atom(ty, env, taken):
    out = print_type(ty, env, taken)
    return out if isinstance(ty, k.BaseT) else f"({out})"


# ---------------------------------------------------------------------------
# interning: equal live nodes must be one object


def interning_breaches(nodes):
    """Pairs (first, other) of distinct nodes among `nodes` with the same
    structure.  The structural key of a node is its class name and fields,
    each child by its own key; it is built without == or hash on a node, so
    it does not trust the identity that interning is meant to provide."""
    keys = {}   # id(node) -> structural key

    def key(x):
        if isinstance(x, tuple):
            return tuple(map(key, x))
        if not isinstance(x, k.Expr):
            return x
        if id(x) not in keys:
            keys[id(x)] = (type(x).__name__,
                           *(key(getattr(x, f)) for f in x.__match_args__))
        return keys[id(x)]

    seen, out = {}, []
    for x in nodes:
        first = seen.setdefault(key(x), x)
        if first is not x:
            out.append((first, x))
    return out


# ---------------------------------------------------------------------------
# single-step rewriter, leftmost-innermost


def named_step(x):
    """Return (reduced?, term) after contracting at most one redex."""
    match x:
        case ("var", _):
            return False, x
        case ("const", c, args) | ("base", c, args):
            tag = x[0]
            for i, a in enumerate(args):
                hit, a2 = named_step(a)
                if hit:
                    return True, (tag, c, args[:i] + (a2,) + args[i + 1:])
            return False, x
        case ("i", t) | ("iop", t) | ("one", t) | ("core", t) | ("op", t):
            hit, t2 = named_step(t)
            return hit, (x[0], t2)
        case ("hom", c, s, t):
            for i, part in enumerate((c, s, t)):
                hit, p2 = named_step(part)
                if hit:
                    parts = [c, s, t]
                    parts[i] = p2
                    return True, ("hom", *parts)
            return False, x
        case (tag, (v1, th), (v4, dm), (v2, b), f, a) if tag in ("elimr", "eliml"):
            hit, th2 = named_step(th)
            if hit:
                return True, (tag, (v1, th2), (v4, dm), (v2, b), f, a)
            hit, dm2 = named_step(dm)
            if hit:
                return True, (tag, (v1, th), (v4, dm2), (v2, b), f, a)
            hit, b2 = named_step(b)
            if hit:
                return True, (tag, (v1, th), (v4, dm), (v2, b2), f, a)
            hit, f2 = named_step(f)
            if hit:
                return True, (tag, (v1, th), (v4, dm), (v2, b), f2, a)
            hit, a2 = named_step(a)
            if hit:
                return True, (tag, (v1, th), (v4, dm), (v2, b), f, a2)
            if f[0] == "one":
                s_val = f[1]
                out = subst_named(b, v2[0], s_val)
                out = subst_named(out, v2[1], a)
                return True, out
            return False, x
    raise AssertionError(f"named_step: {x!r}")


def named_normalize(x, limit=10_000):
    for _ in range(limit):
        hit, x = named_step(x)
        if not hit:
            return x
    raise AssertionError("named_normalize: no fixpoint within limit")


# ---------------------------------------------------------------------------
# the unit section


def identity_section(fa, t):
    """1_t: picks id at t_γ inside hom_functor(fa, op-t, t).

    t is a section of core_fibers(fa); both composites of t with the
    inclusions are strict sections, and the chosen identities match up
    under every transition, which makes the result a strict section too.
    """
    s_op = fc.strict_section(fc.op_fibers(fa), t.obj)
    t_in = fc.strict_section(fa, t.obj)
    hf = fc.hom_functor(fa, s_op, t_in)
    obj = {x: fa.fibers[x].identity[t.obj[x]] for x in fa.base.objects}
    return fc.strict_section(hf, obj)


# ---------------------------------------------------------------------------
# the laws of a fiber assignment, by building functors


def fiber_assignment_problems(fa):
    """What fa.validate() reports, found the long way: every fiber and
    transition validated wherever it occurs, then each law checked by
    building the identity functor at every base object and the composite
    of the transitions at every composable pair of the base, and
    comparing them with the assigned transition as values."""
    out = []
    for x in fa.base.objects:
        c = fa.fibers.get(x)
        if c is None:
            out.append(f"no fiber at {fc._fmt(x)}")
        elif bad := c.validate():
            out.append(f"fiber at {fc._fmt(x)}: {bad[0]}")
    for m in fa.base.morphisms:
        t = fa.transitions.get(m)
        if t is None:
            out.append(f"no transition along {fc._fmt(m.name)}")
        elif t.source != fa.fibers.get(m.dom) \
                or t.target != fa.fibers.get(m.cod):
            out.append(f"transition along {fc._fmt(m.name)} has wrong "
                       "source or target")
        elif bad := t.validate():
            out.append(f"transition along {fc._fmt(m.name)}: {bad[0]}")
    if out:
        return out
    for x in fa.base.objects:
        if fa.transitions[fa.base.identity[x]] != \
                fc.identity_functor(fa.fibers[x]):
            out.append(f"transition at identity of {fc._fmt(x)} is not "
                       "the identity functor")
    for (g, f), h in fa.base.compose.items():
        comp = fc.functor_compose(fa.transitions[g], fa.transitions[f])
        if comp != fa.transitions[h]:
            out.append("transitions not functorial at "
                       f"({fc._fmt(g.name)}, {fc._fmt(f.name)})")
    return out


def fiber_assignment_every_cell(fa):
    """What fa.validate() reports, with no law settled by another: the
    unit law read off the maps at every base object and the functoriality
    law at every distinct triple of transitions, each cell by cell, as
    FiberAssignment.validate did before a unit verdict settled the
    composites with an identity factor."""
    out = []
    checked = {}   # id of a fiber or transition -> its problems
    for x in fa.base.objects:
        c = fa.fibers.get(x)
        if c is None:
            out.append(f"no fiber at {fc._fmt(x)}")
            continue
        bad = checked.get(id(c))
        if bad is None:
            bad = checked[id(c)] = c.validate()
        if bad:
            out.append(f"fiber at {fc._fmt(x)}: {bad[0]}")
    for m in fa.base.morphisms:
        t = fa.transitions.get(m)
        if t is None:
            out.append(f"no transition along {fc._fmt(m.name)}")
            continue
        if t.source != fa.fibers.get(m.dom) \
                or t.target != fa.fibers.get(m.cod):
            out.append(f"transition along {fc._fmt(m.name)} has wrong "
                       "source or target")
            continue
        bad = checked.get(id(t))
        if bad is None:
            bad = checked[id(t)] = t.validate()
        if bad:
            out.append(f"transition along {fc._fmt(m.name)}: {bad[0]}")
    if out:
        return out
    trs = fa.transitions
    for x in fa.base.objects:
        if not _is_identity_by_cell(trs[fa.base.identity[x]], fa.fibers[x]):
            out.append(f"transition at identity of {fc._fmt(x)} is not "
                       "the identity functor")
    functorial = {}  # ids of three transitions -> whether they compose
    for (g, f), h in fa.base.compose.items():
        tg, tf, th = trs[g], trs[f], trs[h]
        ok = functorial.get(key := (id(tg), id(tf), id(th)))
        if ok is None:
            ok = functorial[key] = _composes_to_by_cell(tg, tf, th)
        if not ok:
            out.append("transitions not functorial at "
                       f"({fc._fmt(g.name)}, {fc._fmt(f.name)})")
    return out


def _is_identity_by_cell(t, c):
    """t == identity_functor(c), read off t's own maps cell by cell."""
    ob, mor = t.ob, t.mor
    return (t.source == c and t.target == c
            and ob.keys() == set(c.objects)
            and all(ob[y] == y for y in c.objects)
            and mor.keys() == c.morset
            and all(mor[m] is m for m in c.morphisms))


def _composes_to_by_cell(outer, inner, h):
    """functor_compose(outer, inner) == h, read off the three functors'
    own maps cell by cell."""
    if inner.target != outer.source:
        raise ValueError("functors not composable")
    ob, mor, hob, hmor = outer.ob, outer.mor, h.ob, h.mor
    return (inner.source == h.source and outer.target == h.target
            and inner.ob.keys() == hob.keys()
            and all(ob[y] == hob[x] for x, y in inner.ob.items())
            and inner.mor.keys() == hmor.keys()
            and all(mor[v] is hmor[m] for m, v in inner.mor.items()))


# ---------------------------------------------------------------------------
# the Grothendieck construction, pair-shaped


@dataclass(frozen=True)
class GrothTotal:
    base: fc.FinCat
    fa: fc.FiberAssignment
    total: fc.FinCat
    projection: fc.Functor
    lifts: dict  # (object of total, base morphism out of its image) -> chosen


def groth(base, fa):
    """The textbook total: objects (x, y), morphisms named (f, g), with
    its projection and the canonical (f, id) cocartesian lifts."""
    bad = fa.validate()
    if bad:
        raise ValueError(f"fiber assignment: {bad[0]}")
    objects = [(x, y) for x in base.objects for y in fa.fibers[x].objects]
    morphisms = []
    for f in base.morphisms:
        tr = fa.transitions[f]
        for y in fa.fibers[f.dom].objects:
            for g in fa.fibers[f.cod].out_of(tr.ob[y]):
                morphisms.append(fc.Mor((f, g), (f.dom, y), (f.cod, g.cod)))
    identity = {(x, y): fc.Mor((base.identity[x], fa.fibers[x].identity[y]),
                               (x, y), (x, y))
                for (x, y) in objects}
    by_data = {(m.name, m.dom): m for m in morphisms}
    compose = {}
    for m2, m1 in fc.composable(morphisms):
        (f2, g2), (f1, g1) = m2.name, m1.name
        f = base.comp(f2, f1)
        g = fa.fibers[f2.cod].comp(g2, fa.transitions[f2].mor[g1])
        compose[(m2, m1)] = by_data[((f, g), m1.dom)]
    total = fc.FinCat(objects, morphisms, identity, compose)
    projection = fc.Functor(total, base, {o: o[0] for o in objects},
                            {m: m.name[0] for m in morphisms})
    lifts = {}
    for (x, y) in objects:
        for f in base.out_of(x):
            y2 = fa.transitions[f].ob[y]
            lifts[((x, y), f)] = by_data[
                ((f, fa.fibers[f.cod].identity[y2]), (x, y))]
    return GrothTotal(base, fa, total, projection, lifts)


# ---------------------------------------------------------------------------
# finite categories


def are_isomorphic(c, d):
    """Search for an invertible functor; exhaustive, for small inputs only."""
    if len(c.objects) != len(d.objects) \
            or len(c.morphisms) != len(d.morphisms):
        return False

    cm = list(c.morphisms)

    def extend(ob, mor, i):
        if i == len(cm):
            F = fc.Functor(c, d, ob, mor)
            return not F.validate() and len(set(mor.values())) == len(mor)
        m = cm[i]
        for v in d.morphisms:
            if v.dom != ob[m.dom] or v.cod != ob[m.cod] or v in mor.values():
                continue
            mor[m] = v
            if extend(ob, mor, i + 1):
                return True
            del mor[m]
        return False

    def assign(ob, rest):
        if not rest:
            return extend(ob, {}, 0)
        x, *more = rest
        for y in d.objects:
            if y in ob.values():
                continue
            ob[x] = y
            if assign(ob, more):
                return True
            del ob[x]
        return False

    return assign({}, list(c.objects))


def op_functor(F):
    return fc.Functor(fc.op(F.source), fc.op(F.target), dict(F.ob),
                      {fc.op_mor(m): fc.op_mor(v) for m, v in F.mor.items()})


def is_cartesian(P, e):
    """Exhaustive: every competitor with the right image factors uniquely."""
    E, B = P.source, P.target
    for e2 in E.morphisms:
        if e2.cod != e.cod:
            continue
        for b in B.hom(P.ob[e2.dom], P.ob[e.dom]):
            if B.comp(P.mor[e], b) != P.mor[e2]:
                continue
            fills = [l for l in E.hom(e2.dom, e.dom)
                     if P.mor[l] == b and E.comp(e, l) == e2]
            if len(fills) != 1:
                return False
    return True


def is_cocartesian(P, e):
    """e is cocartesian for P iff op e is cartesian for op P."""
    return is_cartesian(op_functor(P), fc.op_mor(e))


def relabel(c, ob_fn, name_fn):
    """Rename every object with ob_fn and every morphism name with name_fn.

    name_fn receives the whole morphism so renamings can consult endpoints.
    Both maps must be injective on c.  Returns the renamed category together
    with the old-to-new morphism table.
    """
    mor_map = {m: fc.Mor(name_fn(m), ob_fn(m.dom), ob_fn(m.cod))
               for m in c.morphisms}
    cat = fc.FinCat([ob_fn(x) for x in c.objects],
                    mor_map.values(),
                    {ob_fn(x): mor_map[i] for x, i in c.identity.items()},
                    {(mor_map[g], mor_map[f]): mor_map[h]
                     for (g, f), h in c.compose.items()})
    return cat, mor_map


# ---------------------------------------------------------------------------
# the factorization's middle through the square category


def square_cat(c, objs):
    """Category whose objects are the given morphisms of c and whose
    morphisms f -> g are the squares (u, v) with v f = g u."""
    morphisms = []
    for f in objs:
        for g in objs:
            for u in c.hom(f.dom, g.dom):
                for v in c.hom(f.cod, g.cod):
                    if c.comp(v, f) == c.comp(g, u):
                        morphisms.append(fc.Mor((u, v), f, g))
    identity = {f: fc.Mor((c.identity[f.dom], c.identity[f.cod]), f, f)
                for f in objs}
    compose = {}
    for m2, m1 in fc.composable(morphisms):
        u = c.comp(m2.name[0], m1.name[0])
        v = c.comp(m2.name[1], m1.name[1])
        compose[(m2, m1)] = fc.Mor((u, v), m1.dom, m2.cod)
    return fc.FinCat(objs, morphisms, identity, compose)


def arrow_cat(c):
    return square_cat(c, c.morphisms)


def invertible(c, f):
    return any(c.comp(g, f) == c.identity[f.dom]
               and c.comp(f, g) == c.identity[f.cod]
               for g in c.hom(f.cod, f.dom))


def iso_cat(c):
    return square_cat(c, tuple(f for f in c.morphisms if invertible(c, f)))


def square_middle(F, flavor):
    """The middle of factor(F, flavor) as the strict pullback of F against
    domain evaluation on the arrow or iso category of its target; a
    morphism is named (u, square)."""
    sq_cat = arrow_cat(F.target) if flavor == "arrow" else iso_cat(F.target)
    dom_eval = fc.Functor(sq_cat, F.target,
                          {f: f.dom for f in sq_cat.objects},
                          {m: m.name[0] for m in sq_cat.morphisms})
    return fc.pullback_cat(F, dom_eval)


# ---------------------------------------------------------------------------
# the left eliminator through the mirror


def mirror_left_elim(itp, ctx, e):
    """The section of one elimL node, computed the right-handed way.

    The left transport extension (gamma, s, t, f, th), with s : op T free
    and t : core T, is relabelled into its mirror (gamma, t, s, op f, th),
    which has the right-handed shape over the carrier op T.  The seed is
    carried there by the right-handed formula, over the motive reindexed
    along the swap, and pulled back along the slots (t, s, op f, th).
    Only the interpreter's context, type and term caches are used; none
    of its transport code.
    """
    n = len(ctx)
    f_ty = ch.nf(itp.sig, ch.infer_term(itp.sig, ctx, e.f), n)
    match f_ty:
        case k.Hom(car, sv, k.IncCore(tv)):
            pass
        case _:
            raise AssertionError(f"not a left eliminand: {f_ty!r}")
    ctx_b, ctx_d = k.elim_contexts(ctx, car, e.motive_theta, False)
    left = itp.context(ctx_d)

    def ob(y):
        return y[:n] + (y[n + 1], y[n], fc.op_mor(y[n + 2]), y[n + 3])

    def name_fn(m):
        return m.name[:n] + (m.name[n + 1], m.name[n],
                             fc.identity_mor(fc.op_mor(m.cod[n + 2])),
                             m.name[n + 3])

    mirror, mor_map = relabel(left, ob, name_fn)
    swap = fc.Functor(mirror, left, {ob(y): y for y in left.objects},
                      {mor_map[m]: m for m in left.morphisms})
    d_fa = fc.reindex(itp.type(ctx_d, e.motive_d), swap)
    carrier_fa = itp.type(ctx, k.Op(car))
    theta_fa = itp.type(ctx_b[:-1], e.motive_theta)
    d_sec = itp.term(ctx_b, e.base)

    def mu(x):
        gamma, s, f, th = x[:n], x[n], x[n + 2], x[n + 3]
        one = carrier_fa.fibers[gamma].identity[s]
        return fc.Mor(
            carrier_fa.base.identity[gamma].name
            + (fc.identity_mor(s), f, fc.identity_mor(f),
               theta_fa.fibers[gamma + (s,)].identity[th]),
            gamma + (s, s, one, th), x)

    obj = {x: d_fa.transitions[mu(x)].ob[d_sec.obj[x[:n] + (x[n], x[n + 3])]]
           for x in mirror.objects}
    mor = {}
    for m in mirror.morphisms:
        psi = fc.Mor(m.name[:n] + (m.name[n], m.name[n + 3]),
                     m.dom[:n] + (m.dom[n], m.dom[n + 3]),
                     m.cod[:n] + (m.cod[n], m.cod[n + 3]))
        mor[m] = d_fa.transitions[mu(m.cod)].mor[d_sec.mor[psi]]
    full = fc.Section(d_fa, obj, mor)

    s_sec, t_sec, f_sec, th_sec = (itp.term(ctx, x)
                                   for x in (sv, tv, e.f, e.theta))
    cat = itp.context(ctx)
    args_ob = {x: x + (t_sec.obj[x], s_sec.obj[x], fc.op_mor(f_sec.obj[x]),
                       th_sec.obj[x])
               for x in cat.objects}
    args_mor = {m: fc.Mor(m.name + (t_sec.mor[m], s_sec.mor[m],
                                    fc.identity_mor(fc.op_mor(
                                        f_sec.obj[m.cod])),
                                    th_sec.mor[m]),
                          args_ob[m.dom], args_ob[m.cod])
                for m in cat.morphisms}
    return fc.reindex_section(full,
                              fc.Functor(cat, mirror, args_ob, args_mor))


# ---------------------------------------------------------------------------
# directed grids


# A referee grid is its cells per axis and the boxes (lo, hi) of its
# forbidden cells, hi exclusive: the boxes a test wrote, or those pv_boxes
# reads from a program's text.  Nothing here reads a homtt.dspace space,
# so these share no code with homtt.dspace.


@dataclass(frozen=True)
class Grid:
    """A referee grid; each box has one coordinate per axis and lies in
    the grid, 0 <= lo <= hi <= cells on every axis, or the grid is
    refused with ValueError.  A test builds the boxes of a hand-built
    space here first, so only boxes in the grid reach homtt.dspace."""

    shape: tuple
    boxes: tuple

    def __post_init__(self):
        for box in self.boxes:
            lo, hi = box
            if not len(lo) == len(hi) == len(self.shape):
                raise ValueError(f"box {box} does not have one coordinate "
                                 f"per axis of a {self.shape} grid")
            if not all(0 <= a <= b <= n
                       for a, b, n in zip(lo, hi, self.shape)):
                raise ValueError(f"box {box} does not lie in a "
                                 f"{self.shape} grid")


def _pv_events(text):
    """Per process, its (op, semaphore) events; comments and blank lines
    carry none."""
    procs = [re.findall(r"([PV])\((\w+)\)", line.split("#", 1)[0])
             for line in text.splitlines()]
    return [evs for evs in procs if evs]


def pv_boxes(text):
    """The forbidden boxes of a valid program, from its text alone.

    Cell c of an axis lies after the process's first c events, so the
    cells where it holds s after a P(s) form one maximal run, its hold
    range.  Two processes holding one semaphore forbid the cells inside
    both of their ranges, anywhere on a third axis.
    """
    procs = _pv_events(text)
    shape = [len(evs) + 1 for evs in procs]
    holds = []
    for evs in procs:
        held = [frozenset()]
        for op, s in evs:
            held.append(held[-1] | {s} if op == "P" else held[-1] - {s})
        runs = []
        for s in sorted(frozenset().union(*held)):
            cells = [c for c, h in enumerate(held) if s in h]
            for _, run in itertools.groupby(enumerate(cells),
                                            lambda ic: ic[1] - ic[0]):
                run = [c for _, c in run]
                runs.append((s, run[0], run[-1] + 1))
        holds.append(runs)
    boxes = []
    for i, j in itertools.combinations(range(len(procs)), 2):
        for (s, lo_i, hi_i), (t, lo_j, hi_j) in itertools.product(holds[i],
                                                                 holds[j]):
            if s == t:
                lo, hi = [0] * len(shape), list(shape)
                lo[i], hi[i], lo[j], hi[j] = lo_i, hi_i, lo_j, hi_j
                boxes.append((tuple(lo), tuple(hi)))
    return tuple(boxes)


def pv_grid(text):
    """The referee grid of a valid program, from its text alone."""
    return Grid(tuple(len(evs) + 1 for evs in _pv_events(text)),
                pv_boxes(text))


def box_cells(box):
    """The cells of a box (lo, hi), hi exclusive."""
    return frozenset(itertools.product(*map(range, *box)))


def forbidden_cells(grid):
    """The cells of some forbidden box."""
    return frozenset().union(*map(box_cells, grid.boxes))


def _steps(shape, cell, delta):
    for axis, n in enumerate(shape):
        if 0 <= cell[axis] + delta < n:
            yield cell[:axis] + (cell[axis] + delta,) + cell[axis + 1:]


def closure_cells(grid, forward=True):
    """Cells that some monotone path from the start corner reaches.

    Walks paths depth first by unit steps, forward from the initial
    corner or backward from the final one, in no fixed cell order and
    with no link table.  A cell already seen is not walked again, so the
    walk is linear in the cells and suits every grid from_pv accepts.
    """
    blocked, shape = forbidden_cells(grid), grid.shape
    start = tuple(0 if forward else n - 1 for n in shape)
    delta = 1 if forward else -1
    seen = set()
    stack = [] if start in blocked else [start]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        stack += (step for step in _steps(shape, cell, delta)
                  if step not in blocked)
    return seen


def link_table(grid, forward=True):
    """A closure's link table, built cell by cell in sweep order.

    Cells come in lexicographic order, reversed when walking backward;
    each allowed cell links to its neighbour one step back on the first
    axis whose neighbour is already in the table, and the start corner
    links to None.
    """
    blocked, shape = forbidden_cells(grid), grid.shape
    delta = 1 if forward else -1
    start = tuple(0 if forward else n - 1 for n in shape)
    links = {}
    if start in blocked:
        return links
    for cell in itertools.product(*(range(n)[::delta] for n in shape)):
        if cell == start:
            links[cell] = None
        elif cell not in blocked:
            back = [c for c in _steps(shape, cell, -delta) if c in links]
            if back:
                links[cell] = back[0]
    return links


def deadlocks_by_scan(grid):
    """Reachable non-final cells with no legal forward step, in order."""
    blocked, shape = forbidden_cells(grid), grid.shape
    final = tuple(n - 1 for n in shape)
    return tuple(c for c in sorted(closure_cells(grid)) if c != final
                 and all(n in blocked for n in _steps(shape, c, 1)))


# ---------------------------------------------------------------------------
# .dtt tokens

# a token is group 1; any other non-blank character is stray
_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|:=|==|[()\[\],;.:])|\S")


@dataclass(slots=True)
class Tok:
    text: str
    line: int
    col: int


def lex_dtt(text, path):
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(line):
            if m.lastindex is None:
                raise k.ParseError(f"stray character {m.group()!r}", path, ln, m.start() + 1)
            toks.append(Tok(m.group(), ln, m.start() + 1))
    return toks


# ---------------------------------------------------------------------------
# the command line's arguments, as argparse reads them


@functools.cache
def arg_parser():
    ap = argparse.ArgumentParser(
        prog="homtt",
        description="Check directed type theory sources and their "
                    "finite-category and grid models.")
    # each subcommand takes only the flags it reads; this default stands
    # in for check, which takes no --oracle
    ap.set_defaults(oracle=False)
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [
        ("check", "typecheck .dtt source files", False),
        ("interp", "verify scenario files against their workspaces", True),
        ("wfs", "certify factorizations and lifts in .fincat workspaces",
         True),
        ("pv", "analyze .pv lock programs on their grids", True),
    ]
    for name, help_text, takes_oracle in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("paths", nargs="+", metavar="FILE")
        if takes_oracle:
            p.add_argument("--oracle", action="store_true",
                           help="also run the oracle cross-checks")
        p.add_argument("--format", choices=("human", "records"),
                       default="human", help="report style")
    return ap


def parse_args(argv):
    """`cli.parse_args(argv)` as argparse reads it; argparse wraps its
    usage and help texts to $COLUMNS."""
    ns = arg_parser().parse_args(argv)
    return cli.RunConfig(ns.command, tuple(ns.paths), ns.oracle, ns.format)
