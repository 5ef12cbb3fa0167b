"""Every small category of a few kinds, listed exhaustively up to isomorphism.

The small-scope hypothesis: most bugs already show on small instances, so
the semantic checks run over every member of these classes, not a
hand-picked few.

- posets on 1-4 points: 1, 2, 5, 16 of them;
- monoids of order 2-3: 2 and 7 (the order-1 monoid is the one-point
  poset);
- two-object categories that are neither: the parallel pair, and an arrow
  out of an object that has an idempotent.

That is 33 posets and monoids, 35 categories in all.  Each class is found
by naive table search and kept when no earlier member is isomorphic to it.
"""

from itertools import permutations, product

import cats
from homtt import fincat as fc


def _canonical(items, n, fixed=0):
    """The least image of a set of index tuples under the permutations of
    range(n) that fix the first `fixed` indices."""
    perms = (tuple(range(fixed)) + rest
             for rest in permutations(range(fixed, n)))
    return min(tuple(sorted(tuple(perm[v] for v in item) for item in items))
               for perm in perms)


def poset_orders(n):
    """The partial orders on range(n), one per isomorphism class, each as
    its set of pairs (i, j) with i <= j."""
    strict = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen, out = set(), []
    for bits in product((False, True), repeat=len(strict)):
        le = {(i, i) for i in range(n)}
        le.update(p for p, b in zip(strict, bits) if b)
        if any((j, i) in le for i, j in le if i != j):
            continue
        if any((i, k) not in le for i, j in le for j2, k in le if j == j2):
            continue
        key = _canonical(le, n)
        if key not in seen:
            seen.add(key)
            out.append(frozenset(le))
    return out


def monoid_tables(n):
    """The monoids on range(n) with unit 0, one per isomorphism class, each
    as its multiplication table {(a, b): a b}."""
    free = [(a, b) for a in range(1, n) for b in range(1, n)]
    seen, out = set(), []
    for values in product(range(n), repeat=len(free)):
        mul = {(a, 0): a for a in range(n)}
        mul.update({(0, b): b for b in range(n)})
        mul.update(zip(free, values))
        if any(mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]
               for a, b, c in product(range(n), repeat=3)):
            continue
        key = _canonical([(a, b, c) for (a, b), c in mul.items()], n, 1)
        if key not in seen:
            seen.add(key)
            out.append(mul)
    return out


def poset_cat(le):
    """The category of a partial order: one morphism i -> j when i <= j."""
    def mor(i, j):
        return (fc.identity_mor(str(i)) if i == j
                else fc.Mor(f"{i}{j}", str(i), str(j)))
    objects = sorted({i for i, _ in le})
    compose = {(mor(j, k), mor(i, j)): mor(i, k)
               for i, j in le for j2, k in le if j == j2}
    return fc.FinCat([str(i) for i in objects],
                     [mor(i, j) for i, j in le],
                     {str(i): mor(i, i) for i in objects}, compose)


def monoid_cat(mul):
    """The one-object category of a monoid; g after f is the product g f."""
    n = max(a for a, _ in mul) + 1
    mors = [fc.identity_mor("*")] + [fc.Mor(f"m{a}", "*", "*")
                                      for a in range(1, n)]
    compose = {(mors[a], mors[b]): mors[c] for (a, b), c in mul.items()}
    return fc.FinCat(["*"], mors, {"*": mors[0]}, compose)


def idem_arrow():
    """An arrow a : 0 -> 1 and an idempotent e on 0 with a e = a."""
    i0, i1 = fc.identity_mor("0"), fc.identity_mor("1")
    e, a = fc.Mor("e", "0", "0"), fc.Mor("a", "0", "1")
    compose = {(i0, i0): i0, (i1, i1): i1, (e, i0): e, (i0, e): e,
               (e, e): e, (a, i0): a, (i1, a): a, (a, e): a}
    return fc.FinCat(("0", "1"), (i0, i1, e, a), {"0": i0, "1": i1}, compose)


def all_small():
    """Every category listed above, by name."""
    out = {}
    for n in range(1, 5):
        for k, le in enumerate(poset_orders(n)):
            out[f"poset{n}.{k}"] = poset_cat(le)
    for n in range(2, 4):
        for k, mul in enumerate(monoid_tables(n)):
            out[f"monoid{n}.{k}"] = monoid_cat(mul)
    out["para"] = cats.para()
    out["idem-arrow"] = idem_arrow()
    return out
