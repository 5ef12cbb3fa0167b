"""Known answers, checked without `homtt`.

`verdict(workload, expect, rc, out, err)` returns None when one
operation's exit code and `--format records` output match the answer the
generator planted, and otherwise a one-line reason.  A traceback, exit 3
or an exception escaping `cli.run` (rc None) is always wrong.

The PV answer is computed here from the program alone: a cell is
forbidden when two processes hold one semaphore in it, and reachable,
safe and deadlocked cells come from a breadth-first search over the
remaining cells.  This is a reimplementation, not a call into
`homtt.dspace`.
"""

from __future__ import annotations

from collections import deque


def _records(out):
    rows = []
    for line in out.splitlines():
        check, subject, verdict, detail = line.split("\t", 3)
        rows.append((check, subject, verdict, detail))
    return rows


def pv_regions(procs, backward=True):
    """(reachable count, safe count, deadlock cells, final reachable).

    With backward=False the safe count, which needs a second search, is
    left out (None)."""
    shape = [len(evs) + 1 for evs in procs]
    held = []
    for evs in procs:
        now, cells = set(), [frozenset()]
        for op, s in evs:
            (now.add if op == "P" else now.discard)(s)
            cells.append(frozenset(now))
        held.append(cells)
    dims = len(procs)
    # per pair of processes: does some semaphore sit in both hold sets
    pairs = [(i, j, [[bool(hi & hj) for hj in held[j]] for hi in held[i]])
             for i in range(dims) for j in range(i + 1, dims)]

    def forbidden(c):
        return any(clash[c[i]][c[j]] for i, j, clash in pairs)

    def closure(start, step):
        seen = {start}
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for a in range(dims):
                v = c[a] + step
                if 0 <= v < shape[a]:
                    n = c[:a] + (v,) + c[a + 1:]
                    if n not in seen and not forbidden(n):
                        seen.add(n)
                        queue.append(n)
        return seen

    final = tuple(n - 1 for n in shape)
    fwd = closure((0,) * dims, +1)
    safe = len(closure(final, -1)) if backward else None
    dead = []
    for c in sorted(fwd):
        if c == final:
            continue
        nxt = [c[:a] + (c[a] + 1,) + c[a + 1:] for a in range(dims)
               if c[a] + 1 < shape[a]]
        if all(forbidden(n) for n in nxt):
            dead.append(c)
    return len(fwd), safe, dead, final in fwd


def _cells(text):
    if not text or text == "none":
        return []
    return [tuple(int(v) for v in cell.split(",")) for cell in text.split()]


def verdict(workload, expect, rc, out, err):
    if rc is None or "Traceback" in err:
        return "uncaught exception: " + (err.strip().splitlines() or ["?"])[-1]
    if rc == 3:
        return f"internal error: {err.strip()}"
    try:
        rows = _records(out)
    except ValueError:
        return "malformed records output"
    got = [[c, s, v == "ok"] for c, s, v, _ in rows]
    if workload == "pv-grids":
        path = expect["argv"][-1]
        _, _, dead, final_ok = pv_regions(expect["processes"],
                                          backward=False)
        want = [["final-reachable", path, final_ok],
                ["deadlock-free", path, not dead]]
        if got != want:
            return f"records {got} != expected {want}"
        if _cells(rows[1][3]) != dead:
            return f"deadlocks {rows[1][3]!r} != expected {dead}"
        want_rc = 0 if final_ok and not dead else 1
    elif workload == "interp-scenarios":
        if not rows or not all(ok for _, _, ok in got):
            bad = next((r for r in rows if r[2] != "ok"), None)
            return f"expected every record ok, got {bad or 'no records'}"
        want_rc = expect["exit"]
    else:
        if got != expect["records"]:
            diff = next((i for i, (g, w) in
                         enumerate(zip(got, expect["records"])) if g != w),
                        min(len(got), len(expect["records"])))
            return (f"record {diff}: got {got[diff:diff + 1]}, expected "
                    f"{expect['records'][diff:diff + 1]}")
        want_rc = expect["exit"]
    if expect.get("planted"):
        want_rc = 1 - want_rc
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    return None


def pv_counts_verdict(expect, human):
    """Compare the human report's reachable/safe counts with the search."""
    reach, safe, _, _ = pv_regions(expect["processes"])
    total = 1
    for evs in expect["processes"]:
        total *= len(evs) + 1
    want = {f"reachable: {reach} of {total} cells",
            f"safe: {safe} of {total} cells"}
    got = {line for line in human.splitlines()
           if line.startswith(("reachable: ", "safe: "))}
    return None if got == want else f"counts {sorted(got)} != {sorted(want)}"


def plant_wrong(expect):
    """The self-check's corruption: expect the other exit code."""
    expect["planted"] = True
    return expect
