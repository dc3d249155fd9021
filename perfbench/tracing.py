"""Per-layer metrics from a traced in-process replay of a workload's requests.

The replay calls `mvtop.cli.main(argv)` with stdout captured.  Tracing wraps,
from here and only for the length of the replay, the public functions each
module looks up (by identity, so the names `mvtop.cli` imported are wrapped
too) and the public `FuzzySet` operations.  Each span records its name,
start, end, parent and request; spans stay in memory and are written out
once the replay ends.  A span's self time is its duration minus the time its
child spans cover.  Layers are named after the modules.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import io
import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import Outcome, check_outcomes, failure_counts
from workloads import SUITE_CASES, Request, Workload


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    request: int  # index of the replayed request, -1 outside any request
    error: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))

    def close(self, error: str | None = None) -> None:
        span = self.spans[self.stack.pop()]
        span.end = time.perf_counter()
        span.error = error

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(type(exc).__name__)
                raise
            self.close()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted


# (module, functions, span name, counts taken from the arguments and the result)
SPANS = (
    ("documents", ("loads_document",), "documents.parse", lambda a, r: {"documents.bytes_in": len(a[0])}),
    ("documents", ("parse_space_document", "parse_family_document", "parse_map_document"), "documents.parse", None),
    ("documents", ("dumps_canonical",), "documents.serialize", lambda a, r: {"documents.bytes_out": len(r)}),
    ("documents", ("space_document_to_obj",), "documents.serialize", None),
    ("topology", ("topology_violation",), "topology.violation", None),
    ("topology", ("base_from_subbase",), "topology.base", lambda a, r: {"topology.base_size": len(r)}),
    ("topology", ("generate_from_subbase",), "topology.join", lambda a, r: {"topology.opens": len(r.opens)}),
    ("topology", ("check_hausdorff",), "topology.hausdorff", None),
    ("topology", ("clopens",), "topology.clopens", None),
    ("topology", ("is_base",), "topology.is_base", None),
    ("maps", ("continuity_counterexample", "is_continuous_via_base", "is_open_map"), "maps.continuity", None),
    ("product", ("product",), "product.build", lambda a, r: {"product.subbase_size": len(r.subbase)}),
    ("covers", ("minimal_additive_cover_search",), "covers.mincover", lambda a, r: {"covers.mincover_nodes": r.nodes}),
    ("covers", ("find_additive_subcover",), "covers.greedy", None),
    ("covers", ("minimal_subcover_search",), "covers.subcover", lambda a, r: {"covers.subcover_nodes": r.nodes}),
    ("covers", ("product_subbasic_subcover",), "covers.subbasic", None),
    (
        "oracles",
        ("brute_force_compactness", "brute_force_strong_compactness"),
        "oracles.compactness",
        lambda a, r: {"oracles.covers_checked": r.covers_checked},
    ),
    ("oracles", ("exhaustive_certificate_for_cover",), "oracles.certificate", None),
    ("oracles", ("naive_generate_opens",), "oracles.naive_gen", None),
    (
        "generators",
        (
            "random_topology",
            "random_topology_where",
            "random_hausdorff_topology",
            "random_zero_dimensional_topology",
            "random_stone_topology",
            "random_compact_pair",
        ),
        "generators.instance",
        None,
    ),
    ("suites", ("run_suite",), lambda a: f"suites.{a[0]}", lambda a, r: {f"suites.{a[0]}.cases": a[2]}),
)
FUZZY_OPS = ("oplus", "odot", "meet", "join", "complement", "scaled", "leq")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every module-level name bound to a traced function; restore on exit."""
    from mvtop.core import FuzzySet

    wrappers = {}
    for module, names, span, count in SPANS:
        mod = importlib.import_module(f"mvtop.{module}")
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn, count))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname == "mvtop" or modname.startswith("mvtop."):
            for name, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patched.append((mod, name, value))
                    setattr(mod, name, entry[1])
    for name in FUZZY_OPS:
        patched.append((FuzzySet, name, FuzzySet.__dict__[name]))
        setattr(FuzzySet, name, tracer.counter("core.op_calls", FuzzySet.__dict__[name]))
    patched.append((FuzzySet, "__post_init__", FuzzySet.__dict__["__post_init__"]))
    FuzzySet.__post_init__ = tracer.counter("core.sets_built", FuzzySet.__post_init__)
    try:
        yield
    finally:
        for owner, name, value in reversed(patched):
            setattr(owner, name, value)


def replay(requests: list[Request], workdir: Path, tracer: Tracer | None = None) -> tuple[list[Outcome], float]:
    """Run each request through `mvtop.cli.main` in this process, in order."""
    from mvtop import cli

    outcomes = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        if tracer:
            tracer.open("bench.replay")
        for i, request in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            if tracer:
                tracer.request = i
                tracer.open("cli")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(request.argv))
            except Exception:  # a crash is the request's outcome, as in a subprocess
                code = 1
                err.write(traceback.format_exc())
            finally:
                if tracer:
                    tracer.close()
                    tracer.request = -1
            seconds = time.perf_counter() - t
            stdout = out.getvalue().encode()
            if request.save_as:
                Path(request.save_as).write_bytes(stdout)
            outcomes.append(Outcome(request, seconds, code, stdout, err.getvalue().encode()))
        if tracer:
            tracer.close()
        return outcomes, time.perf_counter() - start
    finally:
        os.chdir(cwd)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _ns_per_call(fn, calls: int) -> float:
    """Median over five rounds of the time per call of fn(), which makes `calls` calls."""
    rounds = []
    for _ in range(5):
        start = time.perf_counter_ns()
        fn()
        rounds.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(rounds)


def core_micro(vectors: list[tuple[int, tuple[int, ...]]]) -> tuple[float, float]:
    """Nanoseconds per `FuzzySet` operation and per construction on the workload's vectors."""
    from mvtop.core import Carrier, Chain, FuzzySet

    groups: dict[tuple[int, int], list] = defaultdict(list)
    for n, values in vectors:
        groups[len(values), n].append(values)
    triples, pairs = [], []
    for (k, n), rows in groups.items():
        carrier, chain = Carrier(tuple(f"p{i}" for i in range(k))), Chain(n)
        triples += [(carrier, chain, v) for v in rows]
        sets = [FuzzySet(carrier, chain, v) for v in rows]
        pairs += list(zip(sets, sets[1:] + sets[:1]))
    repeat = max(1, 20_000 // len(pairs))

    def ops():
        for _ in range(repeat):
            for a, b in pairs:
                a.oplus(b), a.odot(b), a.meet(b), a.join(b)

    def builds():
        for _ in range(repeat):
            for carrier, chain, v in triples:
                FuzzySet(carrier, chain, v)

    return _ns_per_call(ops, 4 * repeat * len(pairs)), _ns_per_call(builds, repeat * len(triples))


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as f:
        for s in spans:
            f.write(json.dumps(asdict(s)) + "\n")
    return path


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    spans, counts = tracer.spans, tracer.counts
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, self_times(spans)):
        own[s.name] += t
        total[s.name] += s.end - s.start
        calls[s.name] += 1

    def inside_generator(i: int) -> bool:
        i = spans[i].parent
        while i >= 0:
            if spans[i].name == "generators.instance":
                return True
            i = spans[i].parent
        return False

    instances = sum(
        1 for i, s in enumerate(spans) if s.name == "generators.instance" and not inside_generator(i)
    )
    closures = sum(1 for i, s in enumerate(spans) if s.name == "topology.join" and inside_generator(i))
    closure_s = own["topology.base"] + own["topology.join"]
    solver_errors = [s.error for s in spans if s.name in ("covers.mincover", "covers.subcover") and s.error]
    capped = solver_errors.count("ResourceLimitError")
    m: dict[str, tuple[float, str]] = {
        "cli.self_s": (own["cli"], "s"),
        "documents.parse_s": (own["documents.parse"], "s"),
        "documents.serialize_s": (own["documents.serialize"], "s"),
        "documents.bytes_in": (counts["documents.bytes_in"], "B"),
        "documents.bytes_out": (counts["documents.bytes_out"], "B"),
        "topology.violation_s": (own["topology.violation"], "s"),
        "topology.violation_calls": (calls["topology.violation"], "count"),
        "topology.base_s": (own["topology.base"], "s"),
        "topology.join_s": (own["topology.join"], "s"),
        "topology.base_size": (counts["topology.base_size"], "count"),
        "topology.opens": (counts["topology.opens"], "count"),
        "topology.opens_per_s": (counts["topology.opens"] / closure_s if closure_s else 0.0, "1/s"),
        "topology.hausdorff_s": (own["topology.hausdorff"], "s"),
        "topology.clopens_s": (own["topology.clopens"], "s"),
        "topology.is_base_s": (own["topology.is_base"], "s"),
        "core.op_calls": (counts["core.op_calls"], "count"),
        "core.sets_built": (counts["core.sets_built"], "count"),
        "maps.continuity_s": (own["maps.continuity"], "s"),
        "product.build_s": (own["product.build"], "s"),
        "product.subbase_size": (counts["product.subbase_size"], "count"),
        "covers.mincover_s": (own["covers.mincover"], "s"),
        "covers.mincover_nodes": (counts["covers.mincover_nodes"], "count"),
        "covers.greedy_s": (own["covers.greedy"], "s"),
        "covers.subcover_s": (own["covers.subcover"], "s"),
        "covers.subcover_nodes": (counts["covers.subcover_nodes"], "count"),
        "covers.capped": (capped, "count"),
        "covers.failed": (len(solver_errors) - capped, "count"),
        "covers.subbasic_s": (own["covers.subbasic"], "s"),
        "oracles.compactness_s": (own["oracles.compactness"], "s"),
        "oracles.certificate_s": (own["oracles.certificate"], "s"),
        "oracles.covers_checked": (counts["oracles.covers_checked"], "count"),
        "oracles.naive_gen_s": (own["oracles.naive_gen"], "s"),
        "generators.instance_s": (own["generators.instance"], "s"),
        "generators.accept_ratio": (instances / closures if closures else 0.0, "frac"),
    }
    for suite in SUITE_CASES:
        cases = counts[f"suites.{suite}.cases"]
        m[f"suites.{suite}.case_ms"] = (1000 * total[f"suites.{suite}"] / cases if cases else 0.0, "ms")
    return m


def per_layer(workload: Workload, workdir: Path, out_dir: Path) -> tuple[dict, list[str]]:
    """Untraced, then traced: the overhead compares the two replays' wall times."""
    _, untraced_wall = replay(workload.requests, workdir)
    tracer = Tracer()
    with installed(tracer):
        outcomes, traced_wall = replay(workload.requests, workdir, tracer)
    # the known-defect requests run apart: they add to covers.failed only
    over_limit, _ = replay(workload.over_limit, workdir)
    check_outcomes(over_limit, len(over_limit))
    check_outcomes(outcomes, len(outcomes))
    op_ns, build_ns = core_micro(workload.vectors)

    m = layer_metrics(tracer)
    m["covers.failed"] = (m["covers.failed"][0] + sum(o.reason is not None for o in over_limit), "count")
    m["core.op_ns"] = (op_ns, "ns")
    m["core.build_ns"] = (build_ns, "ns")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    path = out_dir / f"spans-{workload.name}.jsonl.gz"
    write_spans(tracer.spans, path)
    failed = sum(1 for o in outcomes if o.reason is not None)
    lines = [f"{name:<32} {value:16.6f} {unit}" for name, (value, unit) in m.items()]
    lines += [f"failed: {count} x {reason}" for reason, count in failure_counts(outcomes).items()]
    lines.append(f"replay: {len(outcomes)} requests, untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s")
    lines.append(f"spans: {len(tracer.spans)} written to {path.parent.name}/{path.name}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    return result, lines
