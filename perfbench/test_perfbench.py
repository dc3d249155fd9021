"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request, Workload  # noqa: E402


def _dump(obj: dict) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def test_output_check_rejects_corrupted_stdout(tmp_path):
    gen = next(r for r in workloads.spaces(3, tmp_path).requests if r.kind == "gen")
    good = gen.expect["doc"]
    assert checks.check(gen, 0, _dump(good), b"") is None
    corrupted = dict(good, opens=good["opens"][:-1])
    assert checks.check(gen, 0, _dump(corrupted), b"") == "output differs from the expected document"
    assert checks.check(gen, 0, _dump(good)[:-20], b"") == "stdout does not parse"
    assert checks.check(gen, 1, _dump(good), b"") == "exit 1 disagrees with the output"


def test_cover_checks_reject_a_non_optimal_answer():
    family = [(0, 2), (1, 1), (2, 0), (2, 2)]
    expect = {"n": 2, "family": family}
    sub = Request("subcover", ("subcover", "f.json"), expect)
    best = {"chain": 2, "points": ["p0", "p1"], "feasible": True, "family": [[2, 2]], "size": 1}
    assert checks.check(sub, 0, _dump(best), b"") is None
    worse = dict(best, family=[[0, 2], [2, 0]], size=2)
    assert checks.check(sub, 0, _dump(worse), b"") == "the exhaustive subcover oracle disagrees"
    mincover = Request("mincover", ("mincover", "f.json"), expect)
    entry = {"vector": [2, 2], "multiplicity": 1}
    answer = {"chain": 2, "points": ["p0", "p1"], "feasible": True, "entries": [entry], "total": 1}
    assert checks.check(mincover, 0, _dump(answer), b"") is None
    doubled = dict(answer, entries=[dict(entry, multiplicity=2)], total=2)
    assert checks.check(mincover, 0, _dump(doubled), b"") == "certificate total can be lowered"


def test_small_cover_families_run_the_exhaustive_oracles(tmp_path, monkeypatch):
    from mvtop import oracles

    calls = []
    for name in ("exhaustive_minimal_additive_cover", "exhaustive_minimal_subcover"):
        oracle = getattr(oracles, name)
        monkeypatch.setattr(oracles, name, lambda family, name=name, oracle=oracle: calls.append(name) or oracle(family))
    small = [r for r in workloads.covers(5, tmp_path).requests if r.argv[1].startswith("t")]
    outcomes, _ = tracing.replay(small, tmp_path)
    checks.check_outcomes(outcomes, len(outcomes))
    assert [o.reason for o in outcomes] == [None] * 2 * len(workloads.SMALL_FAMILIES)
    assert sorted(calls) == sorted(["exhaustive_minimal_additive_cover", "exhaustive_minimal_subcover"] * 3)


def test_node_cap_exit_needs_the_cap_error(tmp_path):
    mincover = next(r for r in workloads.covers(1, tmp_path).requests if r.kind == "mincover")
    capped = b"error: additive-cover search exceeded the node cap (cap 4000, reached 4001)\n"
    assert checks.check(mincover, 3, b"", capped) is None
    for stderr in (
        b"error: out of memory\n",
        b"error: additive-cover search exceeded the node cap (cap 4000, reached 12)\n",
        capped + b"error: a second line\n",
    ):
        assert checks.check(mincover, 3, b"", stderr) == "exit 3 without the node-cap error"
    answered = checks.Outcome(mincover, 0.1, 0, b"{}", b"")
    stopped = checks.Outcome(mincover, 0.1, 3, b"", capped)
    assert checks.digest([answered]) != checks.digest([stopped])
    first, later = checks.Outcome(mincover, 0.1, 3, b"", capped), checks.Outcome(mincover, 0.1, 3, b"", b"error: x\n")
    checks.check_outcomes([first, later], 1)
    assert (first.reason, later.reason) == (None, "output differs from the first pass")


def test_crashing_request_counts_as_failed(tmp_path):
    over_limit = workloads.covers(1, tmp_path).over_limit[0]
    good = Request("verify", ("verify", "algebra", "--seed", "1", "--cases", "5"), {"suite": "algebra", "seed": "1", "cases": 5})
    result, lines = run.end_to_end(Workload("crash", [good, over_limit], []), 0.01, tmp_path)
    passes = run.MIN_PASSES
    assert (result["attempted"], result["failed"], result["correct"]) == (2 * passes, passes, False)
    assert result["metrics"]["ok_frac"]["value"] == 0.5
    assert f"failed: {passes} x traceback RecursionError" in lines


def test_same_seed_gives_same_requests_and_digest(tmp_path):
    runs = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.covers(7, workdir)
        requests = workload.requests[:12]
        outcomes, _ = tracing.replay(requests, workdir)
        files = {p.name: p.read_bytes() for p in workdir.glob("c*.family.json")}
        runs.append((requests, files, checks.digest(outcomes)))
    assert runs[0] == runs[1]
    other = tmp_path / "other"
    other.mkdir()
    assert workloads.covers(8, other).requests[0].expect != runs[0][0][0].expect


def test_span_self_times_sum_to_replay_wall_time(tmp_path):
    from mvtop import cli, topology

    workload = workloads.spaces(2, tmp_path)
    originals = (cli.generate_from_subbase, topology.base_from_subbase, topology.FuzzySet.oplus)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.generate_from_subbase is not originals[0]
        start = next(i for i, r in enumerate(workload.requests) if r.kind == "gen")
        requests = workload.requests[start : start + 6]
        outcomes, wall = tracing.replay(requests, tmp_path, tracer)
    assert (cli.generate_from_subbase, topology.base_from_subbase, topology.FuzzySet.oplus) == originals
    checks.check_outcomes(outcomes, len(outcomes))
    assert all(o.reason is None for o in outcomes)
    root = tracer.spans[0]
    assert root.name == "bench.replay" and root.parent == -1
    total = sum(tracing.self_times(tracer.spans))
    assert abs(total - (root.end - root.start)) < 1e-9
    assert abs(total - wall) < 1e-3
    names = {s.name for s in tracer.spans}
    assert {"cli", "documents.parse", "topology.base", "topology.join", "topology.violation"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["topology.opens"][0] == len(requests[0].expect["doc"]["opens"])
    assert metrics["core.op_calls"][0] > 0 and metrics["core.sets_built"][0] > 0


def test_tail_level_leaves_ten_requests_beyond():
    for per_pass in (50, 81, 118, 200):
        requests = run.MIN_PASSES * per_pass
        q = run.tail_level(per_pass)
        assert requests * (100 - q) / 100 >= 10 > requests * (100 - q - 1) / 100
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert run.percentile([1.0, 2.0, math.inf], 75) == math.inf


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "spaces", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
