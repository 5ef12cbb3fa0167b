"""One workload process: import, warm up, run operations, check answers.

    python3 perfbench/worker.py JOB.json

JOB.json (written by run.py) names the workload, the op directories, the
mode and where to write the result.  Modes:

- "probe": import `homtt.cli` and run the warm-up operation, report the
  set-up time, exit.
- "measure": set up, then a closed loop (one client, the next operation
  starts when the last returns) over fresh inputs until the summed
  operation time reaches `seconds` and at least `min_samples` operations
  ran.  Every answer is checked after its operation, outside the timed
  call; afterwards a seeded sample is run again and must give the same
  bytes.  With "trace" (a path) the homtt layers are wrapped first and
  the spans are written to that path.
- "replay": run exactly the first `count` operations of `ops`, untraced:
  the untraced twin of a traced run.

Before every operation, and once after the last, the worker times
`calibrate()`, a fixed piece of Python that never touches `homtt`; set-up
is bracketed by calibrations too.  run.py uses these times to scale each
measured time to one host speed (see there).

The result is a JSON file; the worker prints nothing on success.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import answers

WALL_FACTOR = 5     # give up on min_samples after this many x seconds
SETUP_CALS = 3      # calibrations before and after set-up


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _tree(depth, key):
    kids = () if depth == 0 else (_tree(depth - 1, 2 * key),
                                  _tree(depth - 1, 2 * key + 1))
    return _Node(key, kids)


def _fold(node, memo):
    key = (node.key, len(node.kids))
    if key not in memo:
        memo[key] = hash(key) ^ sum(_fold(k, memo) for k in node.kids)
    return memo[key]


def calibrate():
    """Seconds taken by a fixed piece of pure Python: build a tree of 1023
    objects and fold it through a memo dict, the mix of allocation, calls
    and tuple hashing that homtt's own code is made of.  The cycle
    collector is off meanwhile, so the time does not depend on how many
    objects the program under test keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _fold(_tree(9, 1), {})
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _load(op_dir):
    return json.loads((Path(op_dir) / "expect.json").read_text("utf-8"))


def _run(cli, argv):
    """(seconds, exit code or None, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(cli.parse_args(argv), out)
        except Exception:
            rc = None
            traceback.print_exc()
        took = time.perf_counter() - start
    return took, rc, out.getvalue(), err.getvalue()


def _setup(job):
    """Import the program and run the warm-up operation; return timings."""
    root = Path(job["root"]).resolve()
    cals = [calibrate() for _ in range(SETUP_CALS)]
    start = time.perf_counter()
    from homtt import cli
    here = Path(cli.__file__).resolve()
    if root / "src" not in here.parents:
        raise SystemExit(f"imported homtt from {here}, not from {root}/src")
    warm = _load(job["warmup"])
    _, rc, out, err = _run(cli, warm["argv"])
    setup_s = time.perf_counter() - start
    cals += [calibrate() for _ in range(SETUP_CALS)]
    wrong = answers.verdict(job["workload"], warm, rc, out, err)
    return cli, setup_s, cals, wrong


def _measure(job, cli, tracer):
    workload = job["workload"]
    lat, cals, records, wrong, digests = [], [], [], [], []
    busy = 0.0
    wall0 = time.perf_counter()
    wall_cap = WALL_FACTOR * job["seconds"]
    for index, op_dir in enumerate(job["ops"]):
        if job["mode"] == "replay":
            if index >= job["count"]:
                break
        elif busy >= job["seconds"] and (
                len(lat) >= job["min_samples"]
                or time.perf_counter() - wall0 > wall_cap):
            break
        expect = _load(op_dir)
        if job.get("plant_wrong"):
            answers.plant_wrong(expect)
        if tracer is not None:
            tracer.op = index
        cals.append(calibrate())
        took, rc, out, err = _run(cli, expect["argv"])
        busy += took
        lat.append(took)
        records.append(out.count("\n"))
        bad = answers.verdict(workload, expect, rc, out, err)
        if bad:
            wrong.append(f"{op_dir}: {bad}")
        digests.append(hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest())
    cals.append(calibrate())
    return lat, cals, records, wrong, digests


def _recheck(job, cli, digests):
    """Run a seeded sample again: same bytes; PV counts in human form."""
    rng = random.Random(f"{job['seed']}/rerun")
    picks = sorted(rng.sample(range(len(digests)),
                              min(job["reruns"], len(digests))))
    wrong = []
    for index in picks:
        op_dir = job["ops"][index]
        expect = _load(op_dir)
        _, rc, out, _ = _run(cli, expect["argv"])
        bad = None
        if hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() != digests[index]:
            bad = "output differs when run again"
        elif job["workload"] == "pv-grids":
            human = [a for a in expect["argv"] if a not in ("--format",
                                                            "records")]
            _, _, text, _ = _run(cli, human)
            bad = answers.pv_counts_verdict(expect, text)
        if bad:
            wrong.append(f"{op_dir}: {bad}")
    return len(picks), wrong


def _peak_rss_mb():
    """Peak resident set of this process.  Linux carries the parent's peak
    across exec into ru_maxrss, so the kernel's own high-water mark of
    this process is read where there is one."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path):
    job = json.loads(Path(job_path).read_text("utf-8"))
    result = {}
    cli, result["setup_s"], result["setup_cals"], warm_wrong = _setup(job)
    if job["mode"] != "probe":
        tracer = None
        if job.get("trace"):
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        lat, cals, records, wrong, digests = _measure(job, cli, tracer)
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(job["trace"])
            result["per_layer"] = tracer.metrics(job["workload"], len(lat))
            result["missing"] = tracer.missing
        reruns = 0
        if job["mode"] == "measure":
            reruns, rerun_wrong = _recheck(job, cli, digests)
            wrong += rerun_wrong
        result.update(
            latencies=lat, calibrations=cals, records=records,
            attempted=len(lat) + reruns, failed=len(wrong), wrong=wrong[:20],
            exhausted=len(lat) == len(job["ops"]))
    if warm_wrong:
        result["warmup_wrong"] = warm_wrong
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
