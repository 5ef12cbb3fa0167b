"""Batch front-end for the checker, semantics, lifting, and grid tools.

Four subcommands: `check` typechecks .dtt files, `interp` verifies
scenario bindings semantically, `wfs` certifies factorizations and lifts
over .fincat workspaces, and `pv` analyzes lock programs.  Reports are
deterministic; `--format records` emits one tab-separated line per check
(check-id, subject, verdict, detail) and `--format human` a readable
transcript of the same records.

Exit codes: 0 all checks passed, 1 some check failed, 2 unusable input
(missing or non-UTF-8 file, parse error, invalid program or workspace,
input nested too deeply), 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace

from . import checker as ch
from . import dspace as ds
from . import fincat as fc
from . import interp as ip
from . import kernel as k
from . import parser as ps
from . import wfs


@dataclass(frozen=True)
class RunConfig:
    command: str
    paths: tuple
    oracle: bool = False
    format: str = "human"


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


# ---------------------------------------------------------------------------
# subcommands; each handles one file and returns (human lines, records);
# pv builds its human lines only for --format human


def _cmd_check(cfg, path):
    text = ps.read_source(path)
    _, records = ch.check_source(ps.parse_dtt(text, str(path)))
    out = []
    for r in records:
        shown = r.detail
        if r.check == "define" and r.ok:
            shown = shown.split(" := ", 1)[0]
        out.append(f"{r.subject} : {shown} {'OK' if r.ok else 'FAIL'}")
    return out, records


def _cmd_interp(cfg, path):
    recs, witnesses = ip.verify_soundness(ip.load_scenario(path))
    if cfg.oracle:
        recs += _lift_oracle(witnesses)
    return [_verdict(r) for r in recs], recs


def _lift_oracle(witnesses):
    """Brute-force the lifting square of each soundness-pass eliminator."""
    recs = []
    for n, w in enumerate(witnesses, start=1):
        subject, check = f"elim#{n}", f"lift-oracle[{w.side}]"
        try:
            recs.append(_diagonal_record(subject, check,
                                         wfs.elimination_square(w)))
        except (wfs.WfsError, fc.SizeCapError, ValueError) as err:
            recs.append(ch.Record(subject, check, False, str(err)))
    return recs


def _diagonal_record(subject, check, witness):
    """Brute-force a certified lifting square; pass when some diagonal
    exists and the certified one is among them."""
    lifts = wfs.brute_force_lifts(witness.problem)
    found = any(witness.diagonal == lw.diagonal for lw in lifts)
    return ch.Record(subject, check, bool(lifts) and found,
                     f"{len(lifts)} diagonal(s) found" if lifts
                     else "no diagonal found")


def _cmd_wfs(cfg, path):
    recs = _wfs_records(ip.load_workspace([path], path), cfg)
    return [_verdict(r) for r in recs], recs


def _wfs_records(ws, cfg):
    recs = []
    for name, cat in ws.categories.items():
        try:
            _, _, alpha_recs = wfs.alpha_iso(cat)
            recs.extend(replace(r, subject=name) for r in alpha_recs)
        except fc.SizeCapError as err:
            recs.append(ch.Record(name, "alpha-iso", False, str(err)))
    for name, F in ws.functors.items():
        facts = {}
        for flavor in wfs.FLAVORS:
            try:
                facts[flavor] = wfs.factor(F, flavor)
                bad = facts[flavor].validate()
            except fc.SizeCapError as err:
                facts[flavor], bad = err, [str(err)]
            recs.append(ch.verdict(name, f"factor[{flavor}]", bad))
        ok, lifts = fc.has_cocartesian_lifts(F)
        if not ok:
            continue
        try:
            # a refused arrow factorization refuses the lift as well
            if isinstance(facts["arrow"], fc.SizeCapError):
                raise facts["arrow"]
            witness = wfs.opfib_lift(facts["arrow"], lifts)
            recs.append(ch.Record(name, "opfib-lift", True))
        except (wfs.WfsError, fc.SizeCapError) as err:
            recs.append(ch.Record(name, "opfib-lift", False, str(err)))
            continue
        if cfg.oracle:
            try:
                recs.append(_diagonal_record(name, "lift-oracle", witness))
            except wfs.WfsError as err:
                recs.append(ch.Record(name, "lift-oracle", False, str(err)))
    return recs


def _cells(cells):
    return " ".join(",".join(str(v) for v in c) for c in cells) or "none"


def _cmd_pv(cfg, path):
    text = ps.read_source(path)
    space = ds.from_pv(ds.parse_pv(text, str(path)))
    report = ds.analyze(space)
    dead = ds.deadlocks(report)
    reached = space.final in report.reachable
    recs = [
        ch.Record(path, "final-reachable", reached,
                  "" if reached else "the final corner cannot be reached"),
        ch.Record(path, "deadlock-free", not dead,
                  _cells(dead) if dead else ""),
    ]
    if cfg.oracle:
        recs.append(ch.verdict(path, "closure-oracle", report.validate()))
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
    except (OSError, ps.ParseError, ds.PvError, ip.InterpError,
            fc.SizeCapError) as err:
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
        stream.write(ch.format_records(records))
    else:
        passed = sum(1 for r in records if r.ok)
        out.append(f"{passed}/{len(records)} checks passed")
        stream.write("\n".join(out) + "\n")
    return 0 if ok else 1


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
