"""Batch front-end for the checker, semantics, lifting, and grid tools.

Four subcommands: `check` typechecks .dtt files, `interp` verifies
scenario bindings semantically, `wfs` certifies factorizations and lifts
over .fincat workspaces, and `pv` analyzes lock programs.  Reports are
deterministic; `--format records` emits one tab-separated line per check
(check-id, subject, verdict, detail) and `--format human` a readable
transcript of the same records.  Relative input paths resolve against
$HOMTT_CORPUS when that variable is set.

Exit codes: 0 all checks passed, 1 some check failed, 2 unusable input
(missing file, parse error, invalid program or workspace, input nested
too deeply), 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import checker as ch
from . import dspace as ds
from . import fincat as fc
from . import interp as ip
from . import kernel as k
from . import parser as ps
from . import wfs

CORPUS_VAR = "HOMTT_CORPUS"
BRUTE_CAP = 1_000_000
ENUM_CAP = 64


@dataclass(frozen=True)
class RunConfig:
    command: str
    paths: tuple
    oracle: bool = False
    size_cap: int = None
    format: str = "human"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(
        prog="homtt",
        description="Check directed type theory sources and their "
                    "finite-category and grid models.")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [
        ("check", "typecheck .dtt source files"),
        ("interp", "verify scenario files against their workspaces"),
        ("wfs", "certify factorizations and lifts in .fincat workspaces"),
        ("pv", "analyze .pv lock programs on their grids"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("paths", nargs="+", metavar="FILE")
        p.add_argument("--oracle", action="store_true",
                       help="also run the brute-force cross-checks")
        p.add_argument("--size-cap", type=int, default=None, metavar="N",
                       help="lower the oracle search caps (never raises "
                            "the built-in limits)")
        p.add_argument("--format", choices=("human", "records"),
                       default="human", help="report style")
    ns = ap.parse_args(argv)
    return RunConfig(ns.command, tuple(ns.paths), ns.oracle,
                     ns.size_cap, ns.format)


def _resolve(path):
    p = Path(path)
    root = os.environ.get(CORPUS_VAR)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _cap(cfg, hard):
    if cfg.size_cap is None:
        return hard
    return max(1, min(cfg.size_cap, hard))


def _verdict(r):
    tail = f" ({r.detail})" if r.detail else ""
    return f"{r.subject} : {r.check} {'OK' if r.ok else 'FAIL'}{tail}"


# ---------------------------------------------------------------------------
# subcommands; each returns (human lines, records)


def _cmd_check(cfg):
    out, records = [], []
    for path in cfg.paths:
        out.append(f"== {path}")
        text = _resolve(path).read_text(encoding="utf-8")
        _, recs = ch.check_source(ps.parse_dtt(text, str(path)))
        for r in recs:
            records.append(ip.VerifyRecord(r.subject, r.kind, r.ok, r.detail))
            shown = r.detail
            if r.kind == "define" and r.ok:
                shown = shown.split(" := ", 1)[0]
            out.append(f"{r.subject} : {shown} {'OK' if r.ok else 'FAIL'}")
    return out, records


def _cmd_interp(cfg):
    out, records = [], []
    for path in cfg.paths:
        out.append(f"== {path}")
        sc = ip.load_scenario(_resolve(path))
        recs = ip.verify_soundness(None, sc.env, sc.source)
        if cfg.oracle:
            recs += _lift_oracle(sc, _cap(cfg, BRUTE_CAP))
        records.extend(recs)
        out.extend(_verdict(r) for r in recs)
    return out, records


def _lift_oracle(sc, cap):
    """Brute-force every eliminator's lifting square in a scenario."""
    sig, _ = ch.check_source(sc.source)
    itp = ip.Interpreter(sig, sc.env)
    for decl in sc.source.decls:
        try:
            match decl:
                case ps.Define(_, tele, _, body):
                    itp.term(tele, body)
                case ps.AssertEqual(tele, lhs, rhs, _):
                    itp.term(tele, lhs)
                    itp.term(tele, rhs)
        except (ip.InterpError, ch.CheckError, fc.SizeCapError):
            continue
    recs = []
    for n, w in enumerate(itp.witnesses, start=1):
        subject = f"elim#{n}"
        try:
            _, witness = wfs.elimination_square(w)
            lifts = wfs.brute_force_lifts(witness.problem, cap)
            found = any(witness.diagonal == lw.diagonal for lw in lifts)
            recs.append(ip.VerifyRecord(
                subject, f"lift-oracle[{w.side}]", bool(lifts) and found,
                f"{len(lifts)} diagonal(s) found" if lifts
                else "no diagonal found"))
        except (wfs.WfsError, fc.SizeCapError, ValueError) as err:
            recs.append(ip.VerifyRecord(subject, f"lift-oracle[{w.side}]",
                                        False, str(err)))
    return recs


def _cmd_wfs(cfg):
    out, records = [], []
    for path in cfg.paths:
        out.append(f"== {path}")
        text = _resolve(path).read_text(encoding="utf-8")
        ws = fc.build_catfile(ps.parse_fincat(text, str(path)))
        if ws.diagnostics:
            name, msg = ws.diagnostics[0]
            raise ip.InterpError(f"{path}: workspace block {name!r}: {msg}")
        recs = _wfs_records(ws, cfg)
        records.extend(recs)
        out.extend(_verdict(r) for r in recs)
    return out, records


def _wfs_records(ws, cfg):
    recs = []
    for name, cat in ws.categories.items():
        try:
            _, _, alpha_recs = wfs.alpha_iso(cat)
            recs.extend(ip.VerifyRecord(name, r.check, r.ok, r.detail)
                        for r in alpha_recs)
        except (wfs.WfsError, fc.SizeCapError) as err:
            recs.append(ip.VerifyRecord(name, "alpha-iso", False, str(err)))
    for name, F in ws.functors.items():
        for flavor in wfs.FLAVORS:
            try:
                bad = wfs.factor(F, flavor).validate()
                recs.append(ip.VerifyRecord(name, f"factor[{flavor}]",
                                            not bad, bad[0] if bad else ""))
            except fc.SizeCapError as err:
                recs.append(ip.VerifyRecord(name, f"factor[{flavor}]",
                                            False, str(err)))
        ok, _ = fc.has_cocartesian_lifts(F)
        if not ok:
            continue
        try:
            witness = wfs.opfib_lift(F)
            recs.append(ip.VerifyRecord(name, "opfib-lift", True, ""))
        except (wfs.WfsError, fc.SizeCapError) as err:
            recs.append(ip.VerifyRecord(name, "opfib-lift", False, str(err)))
            continue
        if cfg.oracle:
            try:
                lifts = wfs.brute_force_lifts(witness.problem,
                                              _cap(cfg, BRUTE_CAP))
                found = any(witness.diagonal == lw.diagonal for lw in lifts)
                recs.append(ip.VerifyRecord(
                    name, "lift-oracle", bool(lifts) and found,
                    f"{len(lifts)} diagonal(s) found" if lifts
                    else "no diagonal found"))
            except wfs.WfsError as err:
                recs.append(ip.VerifyRecord(name, "lift-oracle", False,
                                            str(err)))
    return recs


def _cells(cells):
    return " ".join(",".join(str(v) for v in c) for c in cells) or "none"


def _cmd_pv(cfg):
    out, records = [], []
    for path in cfg.paths:
        out.append(f"== {path}")
        text = _resolve(path).read_text(encoding="utf-8")
        space = ds.from_pv(ds.parse_pv(text, str(path)))
        report = ds.analyze(space)
        dead = ds.deadlocks(space)
        for i, ticks in enumerate(space.ticks):
            out.append(f"axis {chr(65 + i)}: {' '.join(ticks)}")
        out.append("")
        if space.dims == 2:
            out.append(ds.render(report).rstrip("\n"))
            out.append("")
        total = 1
        for n in space.shape:
            total *= n
        out.append(f"reachable: {len(report.reachable)} of {total} cells")
        out.append(f"safe: {len(report.safe)} of {total} cells")
        out.append(f"unreachable: {_cells(report.unreachable)}")
        out.append(f"unsafe: {_cells(report.unsafe)}")
        out.append(f"deadlocks: {_cells(dead)}")
        out.append("")
        recs = [
            ip.VerifyRecord(path, "final-reachable",
                            space.final in report.reachable,
                            "" if space.final in report.reachable
                            else "the final corner cannot be reached"),
            ip.VerifyRecord(path, "deadlock-free", not dead, _cells(dead)
                            if dead else ""),
        ]
        if cfg.oracle:
            recs.append(_closure_oracle(path, space, report,
                                        _cap(cfg, ENUM_CAP)))
        records.extend(recs)
        out.extend(_verdict(r) for r in recs)
    return out, records


def _closure_oracle(path, space, report, cap):
    try:
        fwd = ds.enumerated_cells(space, forward=True, cap=cap)
        bwd = ds.enumerated_cells(space, forward=False, cap=cap)
        ok = fwd == set(report.reachable) and bwd == set(report.safe)
        return ip.VerifyRecord(path, "closure-oracle", ok, "" if ok
                               else "closure disagrees with enumeration")
    except ds.PvError as err:
        return ip.VerifyRecord(path, "closure-oracle", False, str(err))


_COMMANDS = {
    "check": _cmd_check,
    "interp": _cmd_interp,
    "wfs": _cmd_wfs,
    "pv": _cmd_pv,
}


def run(cfg, stream=None):
    """Execute one configuration, write the report, return the exit code."""
    stream = stream if stream is not None else sys.stdout
    try:
        out, records = _COMMANDS[cfg.command](cfg)
    except (OSError, ps.ParseError, ds.PvError, ip.InterpError,
            fc.SizeCapError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except (k.InternalError, AssertionError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    ok = all(r.ok for r in records)
    if cfg.format == "records":
        stream.write(ip.format_records(records))
    else:
        passed = sum(1 for r in records if r.ok)
        out.append(f"{passed}/{len(records)} checks passed")
        stream.write("\n".join(out) + "\n")
    return 0 if ok else 1


def main(argv=None):
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
