"""Batch front-end for the checker, semantics, lifting, and grid tools.

Four subcommands: `check` typechecks .dtt files, `interp` verifies
scenario bindings semantically, `wfs` certifies factorizations and lifts
over .fincat workspaces, and `pv` analyzes lock programs.  Reports are
deterministic; `--format records` emits one tab-separated line per check
(check-id, subject, verdict, detail) and `--format human` a readable
transcript of the same records.

Exit codes: 0 all checks passed, 1 some check failed, 2 unusable input
(an unreadable file, a kernel.InputError, or input nested too deeply),
3 internal invariant breach.  Each subcommand imports its modules when
it runs; only the kernel is imported here.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import kernel as k


class RunConfig(k.Value):
    __slots__ = __match_args__ = ("command", "paths", "oracle", "format")

    def __init__(self, command, paths, oracle=False, format="human"):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "format", format)


@functools.cache
def _arg_parser():
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


def parse_args(argv=None):
    ns = _arg_parser().parse_args(argv)
    return RunConfig(ns.command, tuple(ns.paths), ns.oracle, ns.format)


def _verdict(r):
    tail = f" ({r.detail})" if r.detail else ""
    return f"{r.subject} : {r.check} {'OK' if r.ok else 'FAIL'}{tail}"


def format_records(records):
    """One tab-separated line per record: check, subject, verdict, detail."""
    lines = ["\t".join([r.check, r.subject, "ok" if r.ok else "FAIL",
                        r.detail])
             for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# subcommands; each handles one file and returns (human lines, records);
# pv builds its human lines only for --format human


def _cmd_check(cfg, path):
    from . import checker as ch, parser as ps
    text = k.read_source(path)
    _, records = ch.check_source(ps.parse_dtt(text, str(path)))
    out = []
    for r in records:
        shown = r.detail
        if r.check == "define" and r.ok:
            shown = shown.split(" := ", 1)[0]
        out.append(f"{r.subject} : {shown} {'OK' if r.ok else 'FAIL'}")
    return out, records


def _cmd_interp(cfg, path):
    from . import interp as ip
    recs, witnesses = ip.verify_soundness(ip.load_scenario(path))
    if cfg.oracle:
        from . import wfs
        recs += wfs.lift_oracle(witnesses)
    return [_verdict(r) for r in recs], recs


def _cmd_wfs(cfg, path):
    from . import interp as ip, wfs
    recs = wfs.workspace_records(ip.load_workspace([path], path), cfg.oracle)
    return [_verdict(r) for r in recs], recs


def _cells(cells):
    return " ".join(",".join(str(v) for v in c) for c in cells) or "none"


def _cmd_pv(cfg, path):
    from . import dspace as ds
    text = k.read_source(path)
    space = ds.from_pv(ds.parse_pv(text, str(path)))
    report = ds.analyze(space)
    dead = ds.deadlocks(report)
    reached = space.final in report.reachable
    recs = [
        k.Record(path, "final-reachable", reached,
                 "" if reached else "the final corner cannot be reached"),
        k.Record(path, "deadlock-free", not dead,
                 _cells(dead) if dead else ""),
    ]
    if cfg.oracle:
        recs.append(k.verdict(path, "closure-oracle", report.validate()))
    if cfg.format != "human":
        # the safe table, the region lists and the map are for people
        return [], recs
    out = [f"axis {chr(65 + i)}: {' '.join(ticks)}"
           for i, ticks in enumerate(space.ticks)]
    out.append("")
    if space.dims == 2:
        out += [ds.render(report).rstrip("\n"), ""]
    total = math.prod(space.shape)
    out += [
        f"reachable: {len(report.reachable)} of {total} cells",
        f"safe: {len(report.safe)} of {total} cells",
        f"unreachable: {_cells(report.unreachable)}",
        f"unsafe: {_cells(report.unsafe)}",
        f"deadlocks: {_cells(dead)}",
        "",
    ]
    return out + [_verdict(r) for r in recs], recs


_COMMANDS = {
    "check": _cmd_check,
    "interp": _cmd_interp,
    "wfs": _cmd_wfs,
    "pv": _cmd_pv,
}


def run(cfg, stream=None):
    """Execute one configuration, write the report, return the exit code."""
    stream = stream if stream is not None else sys.stdout
    out, records = [], []
    try:
        for path in cfg.paths:
            lines, recs = _COMMANDS[cfg.command](cfg, path)
            out += [f"== {path}", *lines]
            records += recs
    except (OSError, k.InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except Exception as err:
        if not isinstance(err, k.InternalError):
            err = f"{type(err).__name__}: {err}"
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    ok = all(r.ok for r in records)
    if cfg.format == "records":
        stream.write(format_records(records))
    else:
        passed = sum(1 for r in records if r.ok)
        out.append(f"{passed}/{len(records)} checks passed")
        stream.write("\n".join(out) + "\n")
    return 0 if ok else 1


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
