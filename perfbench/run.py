"""Benchmark of the mvtop command-line workbench.

    python3 perfbench/run.py --workload spaces --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The program is taken from `src/` next to this directory.  With `--trace 0`
every request is a `python -m mvtop.cli` subprocess, issued by one client in
a closed loop (one request at a time) for whole passes over the workload's
request list, at least one and more while they fit into `--seconds`; the last
line printed is the end-to-end result.  With `--trace 1` the same requests are
replayed in-process, untraced and then traced, and the last line
holds the per-layer metrics.  Outputs are checked outside the timed region.
`--workload all` runs every workload both ways, one after the other.
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
import threading
import time
from pathlib import Path

from checks import Outcome, check_outcomes, digest, failure_counts
from workloads import WORKLOADS, Request, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
PROBE_EVERY = 4
SETUP_CODE = "import mvtop.cli"
# The reference run: a bare interpreter start, which imports nothing of the
# program.  Against a start plus a 0.1-0.2 s integer loop it gave the smaller
# worst-case spread over the three workloads.
REF_CODE = "pass"
# `setup_s` is the cold import's time in reference runs, given in seconds on a
# nominal machine whose bare interpreter start (the reference run) takes
# this long.  The figure is of the order of the raw one, and it repeats like
# the other reference-unit timings.
NOMINAL_REF_S = 0.05
# A pass fills most of the window, so a run is one pass unless the program
# gets faster: more distinct requests repeat better across seeds than
# repeating a few.
MIN_PASSES = 1
REQUEST_TIMEOUT_S = 40.0
# A run stops issuing requests past this point, so it ends within three minutes
# even when a pass turns out far slower than the window.
RUN_LIMIT_S = 100.0
TAIL_BEYOND = 10


# -- subprocess requests -------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], workdir: Path, env: dict, stdout_name: str) -> Outcome:
    """Run one subprocess to completion; returns its wall time, exit code, output and peak RSS."""
    out_path, err_path = workdir / stdout_name, workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        Request("probe", tuple(argv)),
        seconds,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
        usage.ru_maxrss,
    )


def run_request(request: Request, workdir: Path, env: dict) -> Outcome:
    outcome = spawn(["-m", "mvtop.cli", *request.argv], workdir, env, request.save_as or "stdout.txt")
    outcome.request = request
    return outcome


def probe(code: str, workdir: Path, env: dict) -> float:
    """Seconds for a subprocess that runs `python -c code` and exits."""
    outcome = spawn(["-c", code], workdir, env, "stdout.txt")
    if outcome.exit_code:
        raise SystemExit(f"error: `python -c {code!r}` fails: " + outcome.stderr.decode().strip())
    return outcome.seconds


def closed_loop(
    workload: Workload, seconds: float, workdir: Path, env: dict
) -> tuple[list[Outcome], float, list[float], list[float]]:
    """Whole passes over the request list: at least MIN_PASSES, then more while
    another pass is expected to fit into the window.

    Before every PROBE_EVERY-th request a set-up probe imports the CLI and a
    reference run (REF_CODE) follows it, so both see the same machine as the
    requests.  Returns the outcomes, the wall time without the probes, and
    the two probes' times, in pairs.
    """
    probe(SETUP_CODE, workdir, env)  # may compile bytecode: not counted
    outcomes: list[Outcome] = []
    setups: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for i, request in enumerate(workload.requests):
            if time.perf_counter() - start > RUN_LIMIT_S:
                outcomes.append(Outcome(request, math.inf, -1, b"", b"", 0, "not run: time limit"))
                continue
            if i % PROBE_EVERY == 0:
                setups.append(probe(SETUP_CODE, workdir, env))
                refs.append(probe(REF_CODE, workdir, env))
            outcomes.append(run_request(request, workdir, env))
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds or elapsed > RUN_LIMIT_S:
            return outcomes, elapsed - sum(setups) - sum(refs), setups, refs


# -- checks and metrics ---------------------------------------------------------------------


def tail_level(per_pass: int) -> int:
    """Highest whole percentile with at least ten requests beyond it in a run
    of MIN_PASSES passes.

    Tied to the request list rather than to the run, it stays the same
    percentile when a faster program fits more passes into the window.
    """
    return max(50, math.floor(100 - 100 * TAIL_BEYOND / (MIN_PASSES * per_pass)))


def percentile(sorted_values: list[float], q: int) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    if math.isinf(sorted_values[hi]):
        return sorted_values[hi] if pos > lo else sorted_values[lo]
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def end_to_end(workload: Workload, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    """Gated timings are in units of the run's median reference run (`ref`).

    On a shared host the speed of the whole machine drifts by 10-20% over
    minutes; the reference, run between the requests, drifts with it, so
    timings divided by it repeat more closely across runs.  It runs none of
    the program, so every change to the program moves these figures as it
    moves the raw seconds, which are printed as well.
    """
    env = _env()
    outcomes, wall, setups, refs = closed_loop(workload, seconds, workdir, env)
    per_pass = len(workload.requests)
    check_outcomes(outcomes, per_pass)
    over_limit = [run_request(r, workdir, env) for r in workload.over_limit]
    check_outcomes(over_limit, len(over_limit))

    capped = sum(o.exit_code == 3 for o in outcomes[:per_pass] if o.reason is None)
    ok = [o for o in outcomes if o.reason is None]
    latencies = sorted(o.seconds if o.reason is None else math.inf for o in outcomes)
    q = tail_level(per_pass)
    n, n_ok = len(outcomes), len(ok)
    ref = statistics.median(refs)
    setup_ref = statistics.median(s / r for s, r in zip(setups, refs))
    p50, tail = percentile(latencies, 50), percentile(latencies, q)
    mean = statistics.fmean(o.seconds for o in ok) if ok else math.inf
    rows = [
        ("setup_s", setup_ref * NOMINAL_REF_S, "s", f"median of {len(setups)} cold imports, nominal seconds"),
        ("throughput_ref", n_ok / wall * ref, "1/ref", f"{n_ok} successful requests per reference run"),
        ("latency_p50_ref", p50 / ref, "ref", f"n={n}"),
        ("latency_tail_ref", tail / ref, "ref", f"p{q}, n={n}"),
        ("ok_frac", n_ok / n, "frac", f"{n_ok} of {n}"),
        ("peak_rss_mb", max(o.rss_kb for o in outcomes) / 1024, "MB", f"n={n}"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    rows += [
        ("latency_mean_ref", mean / ref, "ref", f"n={n_ok}"),
        ("setup_ref", setup_ref, "ref", f"median of {len(setups)} cold imports over the reference run after each"),
        ("setup_raw_s", statistics.median(setups), "s", f"median of {len(setups)} cold imports"),
        ("ref_s", ref, "s", f"median of {len(refs)} reference runs"),
        ("throughput_rps", n_ok / wall, "1/s", f"{n_ok} successful requests in {wall:.2f} s"),
        ("latency_p50_s", p50, "s", f"n={n}"),
        ("latency_tail_s", tail, "s", f"p{q}, n={n}"),
        ("latency_mean_s", mean, "s", f"n={n_ok}"),
        ("fail_frac", 1 - n_ok / n, "frac", f"{n - n_ok} of {n}"),
    ]
    for kind in dict.fromkeys(o.request.kind for o in outcomes):
        times = [o.seconds for o in ok if o.request.kind == kind]
        if times:
            rows.append((f"{kind}_s", statistics.fmean(times), "s", f"mean, n={len(times)}"))
    cases = sum(o.request.expect["cases"] for o in ok if o.request.kind == "verify")
    if cases:
        rows.append(("verify_cases_per_s", cases / wall, "1/s", f"{cases} cases"))
    lines = [f"{name:<20} {value:12.6f} {unit:<5} {note}" for name, value, unit, note in rows]
    for reason, count in failure_counts(outcomes).items():
        lines.append(f"failed: {count} x {reason}")
    for o in over_limit:
        lines.append(
            f"over-limit: {o.request.kind} on {len(o.request.expect['family'])} members,"
            f" exit {o.exit_code}, {o.seconds:.3f} s: {o.reason or 'correct'}"
        )
    lines.append(f"passes: {n // per_pass}, requests per pass: {per_pass}, stopped at the node cap: {capped}")
    lines.append(f"output_digest: sha256:{digest(outcomes[:per_pass])}")
    result = {"correct": n_ok == n, "attempted": n, "failed": n - n_ok, "metrics": metrics}
    return result, lines


def run_one(name: str, seed: int, seconds: float, trace: int) -> None:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        if trace:
            from tracing import per_layer

            result, lines = per_layer(workload, workdir, OUT)
        else:
            result, lines = end_to_end(workload, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name}, seed {seed}, trace {trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=[*sorted(WORKLOADS), "all"],
        required=True,
        help="one workload, or all: every workload end to end, then traced",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mvtop" / "cli.py").is_file():
        print(f"error: no mvtop sources under {SRC.name}/ next to {Path(__file__).parent.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(name, trace) for name in sorted(WORKLOADS) for trace in (0, 1)]
    for name, trace in runs:
        run_one(name, args.seed, args.seconds, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
