#!/usr/bin/env python3
"""Benchmark of eqbundles: seeded classification workloads, measured end
to end and, in a separate traced run, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload klein_rank8 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each workload runs as a closed loop from one client in one single-threaded
process: the next case starts when the previous one (request plus its
independent check) has finished, until `--seconds` have passed.  With
`--workload all` every workload runs in its own child process.  The last
line of output is one JSON object; with `--trace 0` it holds the
end-to-end metrics, with `--trace 1` the per-layer ones.  See
`perfbench/README.md` for what each metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import SPAN_TIMES, Recorder, frame_bits, profile_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("klein_rank8", "cyclic12_rank4", "splitting_oracle",
                  "equivalence")

# Fresh-interpreter launches per run.  setup_s is their median; they are
# spread evenly over the timed loop, because the CPU speed of a shared
# host drifts by up to a third within a minute.  cli.import_s is the
# median of as many -X importtime launches.
LAUNCHES = 12
CLI_ANSWER = [sys.executable, "-m", "eqbundles.cli", "degree", "--bundle", "O(1)"]
CLI_IMPORT = [sys.executable, "-X", "importtime", "-c", "import eqbundles.cli"]

UNITS = {"setup_s": "s", "cases_per_s": "1/s", "peak_rss_mb": "MB",
         "answer_kb": "KB"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def _launch(cmd):
    """Run a fresh interpreter on the checkout's sources; wall seconds and
    the completed process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - start, proc


def setup_seconds():
    """Wall seconds of one cold start of the CLI answering
    `degree --bundle O(1)`, or None if it did not answer 1 with exit
    code 0."""
    seconds, proc = _launch(CLI_ANSWER)
    ok = proc.returncode == 0 and proc.stdout.strip() == "1"
    return seconds if ok else None


def cli_import_seconds():
    """Median cumulative import time of `eqbundles.cli`, from -X importtime."""
    times = []
    for _ in range(LAUNCHES):
        _, proc = _launch(CLI_IMPORT)
        found = re.search(r"\|\s*(\d+)\s*\|\s*eqbundles\.cli\s*$", proc.stderr,
                          re.MULTILINE)
        if proc.returncode != 0 or found is None:
            return None
        times.append(int(found.group(1)) / 1e6)
    return statistics.median(times)


def tail_percentile(latencies):
    """(percentile, value) of the highest listed percentile with at least
    ten cases beyond it, nearest rank; None when there are too few cases."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def run_case(workload, case):
    """(passed, seconds, answer text) of one request and its check.  A case
    that raises counts as failed; the run goes on.

    The seconds are CPU time of this process.  The loop is single-threaded
    and reads no files, so on an idle core this equals wall time; it leaves
    out only the time the hypervisor of a shared host runs other guests on
    this virtual CPU (steal time)."""
    start = time.process_time()
    try:
        answer, context = workload.solve(case)
        passed = workload.check(case, answer, context)
    except Exception:
        traceback.print_exc(limit=4, file=sys.stderr)
        answer, passed = "", False
    seconds = time.process_time() - start
    if not passed:
        print(f"case {case.id}: failed", file=sys.stderr)
    return passed, seconds, answer


def measure(workload, cases, seconds, launches=0):
    """Closed loop over the case pool until `seconds` of wall time have
    passed (always at least one case), after one untimed warm-up case that
    fills the library's caches; end-to-end numbers of the loop.

    Between cases, `launches` cold starts of the CLI are spread evenly over
    the `seconds`; they run in child processes, so they add nothing to the
    loop's case times."""
    run_case(workload, cases[0])
    latencies, setups, failed, answer_bytes = [], [], 0, 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < launches and elapsed >= len(setups) * seconds / launches:
            setups.append(setup_seconds())
            continue
        if i and elapsed >= seconds:
            break
        passed, seconds_taken, answer = run_case(workload, cases[i % len(cases)])
        latencies.append(seconds_taken)
        failed += not passed
        answer_bytes += len(answer.encode("utf-8"))
        i += 1
    return {"attempted": i, "failed": failed, "busy": sum(latencies),
            "latencies": latencies, "setups": setups,
            "answer_kb": answer_bytes / 1024 / i}


def trace(workload, cases, seconds, recorder):
    """The traced run: each case once untraced, then replayed stage by
    stage under spans and the profiler; the replay must give the same
    answer."""
    profile = cProfile.Profile()
    untraced = traced = 0.0
    failed, bits, i = 0, 0, 0
    start = time.perf_counter()
    while True:
        case = cases[i % len(cases)]
        passed, seconds_taken, answer = run_case(workload, case)
        untraced += seconds_taken
        recorder.case = f"{workload.name}:{case.id}:{i}"
        t0 = time.process_time()
        profile.enable()
        try:
            with recorder.span("case"):
                replayed = workload.replay(case, recorder)
        except Exception:
            traceback.print_exc(limit=4, file=sys.stderr)
            replayed = None
        finally:
            profile.disable()
        traced += time.process_time() - t0
        same = replayed is not None and passed and workload.same(answer, replayed)
        if not same:
            print(f"case {case.id}: replay does not reproduce the answer",
                  file=sys.stderr)
        failed += not same
        if same:
            bits = max(bits, frame_bits(answer))
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = profile_metrics(profile, i)
    spans = recorder.self_times()
    for name, span in SPAN_TIMES.items():
        metrics[name] = spans.get(span, 0.0) / i
    metrics["classify.frame_bits"] = bits
    metrics["trace.overhead_ratio"] = traced / untraced
    return {"attempted": i, "failed": failed, "metrics": metrics}


def run_workload(name, seed, seconds, traced):
    """One workload in this process; prints the report and returns the
    result object whose JSON is the last output line."""
    from workloads import WORKLOADS, generate, input_digest
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    cases = generate(workload, seed, workload.pool)
    print(f"workload {name} seed {seed}: {len(cases)} cases generated in "
          f"{time.perf_counter() - t0:.1f} s, inputs sha256 {input_digest(cases)}")
    if traced:
        return _traced_report(workload, cases, seed, seconds)
    out = measure(workload, cases, seconds, LAUNCHES)
    setup_ok = None not in out["setups"]
    setups = [s for s in out["setups"] if s is not None] or [math.nan]
    lat_ms = [s * 1000 for s in out["latencies"]]
    n = out["attempted"]
    metrics = {
        "setup_s": statistics.median(setups),
        "cases_per_s": n / out["busy"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answer_kb": out["answer_kb"],
    }
    for key, value in metrics.items():
        print(f"  {key:<14} {value:12.4f} {UNITS[key]}")
    print(f"  case_ms.p50    {statistics.median(lat_ms):12.4f} ms")
    tail = tail_percentile(lat_ms)
    if tail is None:
        print(f"  case_ms.tail   n={n} is too few cases for a tail percentile "
              f"with ten cases beyond it; p50 only")
    else:
        p, value = tail
        print(f"  case_ms.tail   {value:12.4f} ms (p{p:g}, n={n})")
    print(f"  fail_ratio     {out['failed'] / n:12.4f} ({out['failed']}/{n} cases)")
    if not setup_ok:
        print("  setup launch did not answer `degree --bundle O(1)` with 1",
              file=sys.stderr)
    return {"correct": out["failed"] == 0 and setup_ok, "attempted": n,
            "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


LAYER_UNITS = {"trace.overhead_ratio": "ratio", "bundle.iso_attempts": "ratio",
               "classify.frame_bits": "bits"}


def _layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _traced_report(workload, cases, seed, seconds):
    recorder = Recorder()
    out = trace(workload, cases, seconds, recorder)
    metrics = out["metrics"]
    metrics["cli.import_s"] = cli_import_seconds() or 0.0
    path = TRACE_DIR / f"spans-{workload.name}-{seed}.json"
    recorder.write(path)
    print(f"  {len(recorder.spans)} spans written to {path}")
    for key in sorted(metrics):
        print(f"  {key:<32} {metrics[key]:14.4f} {_layer_unit(key)}")
    n = out["attempted"]
    print(f"  per traced case, over n={n}; tracing overhead "
          f"{metrics['trace.overhead_ratio']:.2f}x (traced / untraced CPU time)")
    return {"correct": out["failed"] == 0 and metrics["cli.import_s"] > 0,
            "attempted": n, "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": _layer_unit(k)}
                        for k, v in sorted(metrics.items())}}


def run_all(args):
    """Every workload in its own child process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if all(r is not None for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eqbundles" / "__init__.py").is_file():
        print(f"perfbench: no eqbundles sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
