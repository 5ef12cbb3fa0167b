"""The homtt benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 1]   # every workload, a table
    python3 perfbench/run.py --self-check                 # answers can fail

Run it from the root of a checkout; it imports `homtt` from `src/` there
and writes only under `.perfbench-work/`.  A run:

1. generates the workload's inputs from the seed (gen.py), once;
2. with --trace 0, starts PROBES fresh processes that import `homtt.cli`
   and run the warm-up operation (set-up time), then one measuring
   process: a closed loop, one client, over fresh inputs for S seconds of
   operation time.  Every answer is checked (answers.py);
3. with --trace 1, runs the loop for S/2 seconds with the homtt layers
   wrapped (tracing.py), then replays the same operations untraced to
   get the tracing overhead;
4. prints one JSON line: correct, attempted, failed and the metrics.

Times are scaled to one host speed.  The shared host this was written on
(2 vCPUs) runs all code up to ~1.7x slower for seconds or minutes at a
time, which moved the raw medians of two sets of ten runs by up to half.
So the worker times `calibrate()` (worker.py), a fixed piece of Python
that never touches `homtt`, before and after every operation, and each
operation's time is multiplied by REF_CAL_S over the mean of the two
calibrations that bracket it; set-up time likewise, by the median of the
calibrations around it.  A metric in ms is therefore the time at the
speed where `calibrate()` takes REF_CAL_S, about this host's speed when
unloaded.  A change to `homtt` moves it as much as it moves wall time;
what the program leaves running between operations (a thread, say) would
slow the calibration too and show only in part.  The raw wall-clock
median is printed on stderr.

Exit status is 0 when a result was printed, 2 when `src/homtt` is
missing, 1 when a process of the benchmark failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracing  # noqa: E402
from worker import WALL_FACTOR  # noqa: E402

WORK = ".perfbench-work"
PROBES = 6                  # fresh set-up processes besides the measuring one
MIN_SAMPLES = 100           # p90 then has at least 10 samples beyond it
RERUNS = 6                  # operations run twice to check determinism
REF_CAL_S = 0.0015          # calibrate() on an unloaded core of the host
# inputs written per second of a run: three to four times the rate
# measured when this was written, so a faster program still gets fresh
# inputs, while writing them stays a few seconds of the run
POOL_RATE = {"check-terms": 45, "interp-scenarios": 60,
             "wfs-certify": 80, "pv-grids": 180}
E2E_UNITS = {"setup_s": "s", "verdict_p50_ms": "ms", "verdict_p90_ms": "ms",
             "checks_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(root, work, job, timeout):
    path = work / f"job-{job['mode']}-{job.get('probe', 0)}.json"
    job["result"] = str(path.with_suffix(".result.json"))
    path.write_text(json.dumps(job), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "HOMTT_CORPUS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                          cwd=root, env=env, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} process failed "
                         f"(exit {proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(Path(job["result"]).read_text("utf-8"))


def _scaled(lat, cals):
    """Each time at the reference speed.  cals[i] was taken just before
    operation i and cals[i + 1] just after it; their mean follows even a
    slowdown that lasts only a few operations."""
    return [2 * t * REF_CAL_S / (cals[i] + cals[i + 1])
            for i, t in enumerate(lat)]


def _setup_s(result):
    return result["setup_s"] * REF_CAL_S / statistics.median(
        result["setup_cals"])


def _p90(lat):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(lat)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def run_workload(workload, seed, seconds, trace, plant_wrong=False,
                 min_samples=MIN_SAMPLES):
    root = Path.cwd()
    work = root / WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pool = max(2 * min_samples, POOL_RATE[workload] * seconds)
        ops = gen.write_inputs(workload, seed, pool, work / "in")
        rel = [str(d.relative_to(root)) for d in ops]
        job = {"workload": workload, "seed": seed, "seconds": seconds,
               "root": str(root), "warmup": rel[0], "ops": rel[1:],
               "min_samples": min_samples, "reruns": RERUNS,
               "plant_wrong": plant_wrong}
        timeout = 3 * seconds + 60
        if trace:
            spans = root / WORK / f"{workload}-seed{seed}.spans.tsv"
            main = _worker(root, work, dict(job, mode="measure",
                                            seconds=seconds / 2,
                                            trace=str(spans)), timeout)
            replay = _worker(root, work, dict(job, mode="replay",
                                              count=len(main["latencies"])),
                             timeout)
            metrics = main["per_layer"]
            metrics["trace.overhead_ratio"] = {
                "value": sum(_scaled(main["latencies"], main["calibrations"]))
                / sum(_scaled(replay["latencies"], replay["calibrations"])),
                "unit": "ratio"}
        else:
            setups = [_setup_s(_worker(root, work, dict(job, mode="probe",
                                                        probe=i), 60))
                      for i in range(PROBES)]
            main = _worker(root, work, dict(job, mode="measure"), timeout)
            setups.append(_setup_s(main))
            lat = _scaled(main["latencies"], main["calibrations"])
            p90, beyond = _p90(lat)
            if beyond < 10:
                main["short"] = (f"only {len(lat)} operations ran in "
                                 f"{WALL_FACTOR}x the time; the p90 has "
                                 f"{beyond} samples beyond it, not 10")
            main["raw_p50_ms"] = 1000 * statistics.median(main["latencies"])
            values = {
                "setup_s": statistics.median(setups),
                "verdict_p50_ms": 1000 * statistics.median(lat),
                "verdict_p90_ms": 1000 * p90,
                "checks_per_s": sum(main["records"]) / sum(lat),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = main["failed"] + (1 if "warmup_wrong" in main else 0)
    attempted = main["attempted"] + 1
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, main


def _notes(workload, result, main):
    """Human lines for stderr: what a JSON line does not say."""
    lines = [f"{workload}: {result['attempted']} operations, "
             f"{result['failed']} wrong, wrong_verdict_rate "
             f"{result['failed'] / result['attempted']:.4f}"]
    lines += [f"  wrong: {w}" for w in main.get("wrong", [])[:5]]
    if main.get("warmup_wrong"):
        lines.append(f"  warm-up wrong: {main['warmup_wrong']}")
    if "raw_p50_ms" in main:
        lines.append(f"  unscaled wall-clock p50 {main['raw_p50_ms']:.3f} ms")
    if main.get("short"):
        lines.append(f"  {main['short']}")
    if main.get("exhausted"):
        lines.append("  input pool exhausted before the time was up")
    m = result["metrics"]
    if "split.predicted_share" in m:
        share = m["split.predicted_share"]["value"]
        layers = "+".join(tracing.PREDICTED[workload])
        lines.append(f"  predicted split {layers}: {share:.1%} of operation "
                     f"time, {'held' if share > 0.5 else 'NOT held'}")
        caps = (f"max_objects {m['fincat.max_objects']['value']} of 64, "
                f"max_morphisms {m['fincat.max_morphisms']['value']} of 4096, "
                f"size_cap_refusals {m['fincat.size_cap_refusals']['value']}")
        lines.append(f"  fincat caps: {caps}")
    for name in main.get("missing", []):
        lines.append(f"  layer not found, reads as zero: {name}")
    return lines


def _all(seed, seconds, trace):
    rows, ok = [], True
    for w in gen.WORKLOADS:
        result, main = run_workload(w, seed, seconds, trace)
        print("\n".join(_notes(w, result, main)), flush=True)
        rows.append((w, result))
        ok &= result["correct"]
    for w, result in rows:
        print(f"\n== {w}  correct={result['correct']}  wrong_verdict_rate="
              f"{result['failed'] / result['attempted']:.4f} ratio")
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def _self_check(seed):
    """Plant a wrong expected answer; every workload must notice."""
    ok = True
    for w in gen.WORKLOADS:
        result, _ = run_workload(w, seed, 2, False, plant_wrong=True,
                                 min_samples=5)
        rate = result["failed"] / result["attempted"]
        print(f"{w}: planted wrong answers, wrong_verdict_rate {rate:.4f} "
              f"({'detected' if rate > 0 else 'NOT detected'})")
        ok &= rate > 0
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "homtt" / "cli.py").is_file():
        print("error: no src/homtt/cli.py here; run from a homtt checkout",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return _self_check(args.seed)
        if args.workload in (None, "all"):
            return _all(args.seed, args.seconds, args.trace)
        result, main_ = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("\n".join(_notes(args.workload, result, main_)), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
