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

import math
import re
import sys

from . import kernel as k


class RunConfig(k.Value):
    __slots__ = __match_args__ = ("command", "paths", "oracle", "format")

    def __init__(self, command, paths, oracle, format):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "format", format)


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


# ---------------------------------------------------------------------------
# the front door: parse_args reads the arguments as argparse did and writes
# its usage, help and error texts at 80 columns, all from these two tables


_COMMANDS = {  # name: (handler, help line, takes --oracle)
    "check": (_cmd_check, "typecheck .dtt source files", False),
    "interp": (_cmd_interp, "verify scenario files against their workspaces",
               True),
    "wfs": (_cmd_wfs, "certify factorizations and lifts in .fincat "
                      "workspaces", True),
    "pv": (_cmd_pv, "analyze .pv lock programs on their grids", True),
}
_FLAGS = {  # flag: its lines in -h
    "-h": "  -h, --help            show this help message and exit\n",
    "--oracle": "  --oracle              also run the oracle cross-checks\n",
    "--format": "  --format {human,records}\n" + " " * 24 + "report style\n",
}
_HELP = ("-h", "--help")
_CHOICES = "{" + ",".join(_COMMANDS) + "}"
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a plain argument, not a flag


def _exit(command, error=None):
    """Exit 2 after the usage line and the error on stderr, or, without an
    error, 0 after the help text on stdout; command None is the top."""
    if command is None:
        prog, tail, flags = "homtt", f"{_CHOICES} ...", ["-h"]
        body = ("\nCheck directed type theory sources and their "
                "finite-category and grid models.\n\npositional arguments:"
                f"\n  {_CHOICES}\n" + "".join(
                    f"    {name:<20}{row[1]}\n"
                    for name, row in _COMMANDS.items()))
    else:
        oracle = _COMMANDS[command][2]
        prog, body = f"homtt {command}", "\npositional arguments:\n  FILE\n"
        tail = ("[--oracle] " * oracle
                + "[--format {human,records}] FILE [FILE ...]")
        flags = [f for f in _FLAGS if f != "--oracle" or oracle]
    usage = f"usage: {prog} [-h] {tail}\n"
    if error is not None:
        sys.stderr.write(f"{usage}{prog}: error: {error}\n")
        raise SystemExit(2)
    sys.stdout.write(usage + body + "\noptions:\n"
                     + "".join(_FLAGS[f] for f in flags))
    raise SystemExit(0)


def _flag(token, flags):
    """(flag, the value after its '=' or None) if argparse read token as a
    flag, one of flags or not; None if it read a plain argument."""
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if (token[:1] != "-" or token in ("-", "--") or " " in token
            or _NUMBER.match(token)):
        return None
    return token, None


def parse_args(argv=None):
    """Read `homtt [-h] COMMAND FILE...` and the command's flags as
    argparse did, less its prefix abbreviations: exit 2 on a refusal and
    0 after -h.  The files are the first run of plain arguments after the
    command, less the first '--' after it, after which all are plain."""
    args = sys.argv[1:] if argv is None else list(argv)
    command, paths, oracle, fmt, extras = None, [], False, "human", []
    # closed: a flag has followed the files, so a plain argument is extra
    flags, end, closed, i = _HELP, len(args), False, 0
    while i < len(args):
        f = _flag(args[i], flags) if i < end else None
        if f is None and command is None:
            if args[i:] == ["--"]:
                break
            command = args[i]
            if command not in _COMMANDS:
                _exit(None, f"argument command: invalid choice: {command!r} "
                            f"(choose from {', '.join(map(repr, _COMMANDS))})")
            flags = (*_HELP, "--format",
                     *("--oracle",) * _COMMANDS[command][2])
            end = args.index("--", i) if "--" in args[i:] else end
        elif f is None:
            if closed:
                extras.append(args[i])
            elif i != end:
                paths.append(args[i])
        else:
            closed, (name, value) = bool(paths), f
            if name not in flags:
                extras.append(args[i])
            elif name != "--format" and value is not None:
                shown = "-h/--help" if name in _HELP else name
                _exit(command, f"argument {shown}: ignored explicit "
                               f"argument {value!r}")
            elif name == "--oracle":
                oracle = True
            elif name in _HELP:
                _exit(command)
            else:
                if value is None:
                    i += 1  # the next argument, if plain and not '--'
                    if i in (len(args), end) or _flag(args[i], flags):
                        _exit(command, "argument --format: expected one "
                                       "argument")
                    value = args[i]
                if value not in ("human", "records"):
                    _exit(command, f"argument --format: invalid choice: "
                                   f"{value!r} (choose from 'human', "
                                   "'records')")
                fmt = value
        i += 1
    if command is None:
        _exit(None, "the following arguments are required: command")
    if not paths:
        _exit(command, "the following arguments are required: FILE")
    if extras:
        _exit(None, f"unrecognized arguments: {' '.join(extras)}")
    return RunConfig(command, tuple(paths), oracle, fmt)


def run(cfg, stream=None):
    """Execute one configuration, write the report, return the exit code."""
    stream = stream if stream is not None else sys.stdout
    out, records = [], []
    try:
        for path in cfg.paths:
            lines, recs = _COMMANDS[cfg.command][0](cfg, path)
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
