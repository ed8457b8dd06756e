"""Benchmark command for lamclock.

    python3 perfbench/run.py --workload separate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The workloads are defined in ``workloads.py``:

* ``separate``: ``discriminate`` on known-inconvertible pairs, plus one
  convertible control pair per round;
* ``unfold``: head reduction, trees, product exploration, serialisation
  and the ``repro`` goldens, with no reduct search.

With ``--trace 0`` the run times whole rounds of items, one item at a
time in this process, for about ``--seconds``, and reports the
end-to-end metrics; ``--seconds`` fixes the number of rounds.  With
``--trace 1`` it runs a fixed part of the first round untraced, traced,
traced and untraced again, and reports the per-layer metrics of the
first traced pass; the part is fixed so that its counts repeat exactly for a seed.
Metric names and units come from ``BENCHMARK.json``; ``README.md``
describes them.

Every item's output is checked against its known answer.  Failures are
recorded by check name and never stop the run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it say what the figures
rest on (recall base, tail percentile, behaviour fingerprint,
determinism checks, host speed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_CODE = (
    "import lamclock.cli\n"
    "from lamclock.combinators import standard_definitions\n"
    "standard_definitions()\n"
)
# One fresh interpreter is timed after every SETUP_EVERY-th item, so the
# set-up samples spread over the whole run instead of landing in one burst.
# The host switches between a fast and a slow speed within seconds, so the
# samples of one run are bimodal and their median jumps between the modes
# from run to run; the run's fastest sample is the steady figure.
SETUP_EVERY = 2
SEARCH_LAYERS = (
    "terms.subterm_at", "terms.replace_at", "terms.instantiate", "terms.positions",
    "reduction.redex_positions", "reduction.contract_at", "compare.enumerate_reducts",
)
UNFOLD_LAYERS = (
    "reduction.head_reduce", "trees.compact_cyclic", "trees.clocked",
    "trees.check_simple", "trees.tree_to_dict",
    "terms.subterm_at", "terms.replace_at", "terms.instantiate", "terms.positions",
)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


class Setup:
    """Wall time of fresh interpreters that import the CLI and build the
    standard definitions, as every ``lamclock`` command does.  One untimed
    start first fills the bytecode cache."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.times: list[float] = []
        subprocess.run(self.cmd, env=env, cwd=ROOT, check=True)

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.times.append(time.perf_counter() - t0)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value.  Every round has more than ten items."""
    xs = sorted(times)
    if len(xs) < 11:
        raise ValueError(f"{len(xs)} samples: no percentile has ten above it")
    k = len(xs) - 11
    return 100.0 * (k + 1) / len(xs), xs[k]


def determinism_problems(workloads, workload: str, seed: int) -> tuple[str, list[str]]:
    """The same seed must regenerate byte-identical inputs; on ``separate``
    another seed must draw differently."""
    make = workloads.WORKLOADS[workload]
    digest = workloads.inputs_digest(next(make(seed)))
    problems = []
    if workloads.inputs_digest(next(make(seed))) != digest:
        problems.append("determinism: the same seed generated different inputs")
    if workload == "separate" and workloads.inputs_digest(next(make(seed + 1))) == digest:
        problems.append("determinism: another seed generated the same draw")
    return digest, problems


def fingerprint(outcomes) -> str:
    """sha256 over the items' record digests, in item order."""
    return hashlib.sha256("\n".join(o.digest for o in outcomes).encode()).hexdigest()


def failure_lines(items, outcomes) -> list[str]:
    return [f"{item.label}: {p}" for item, o in zip(items, outcomes) for p in o.problems]


def timed_rounds(workloads, workload: str, seed: int, seconds: float, setup: Setup):
    """Time every item of the run's rounds, and a set-up sample after
    every ``SETUP_EVERY``-th item."""
    count = math.ceil(seconds / workloads.ROUND_SECONDS[workload])
    times, items, outcomes = [], [], []
    rounds = workloads.WORKLOADS[workload](seed)
    for _ in range(count):
        for item in next(rounds):
            dt, outcome = item.timed()
            times.append(dt)
            items.append(item)
            outcomes.append(outcome)
            if len(times) % SETUP_EVERY == 0:
                setup.sample()
    return times, items, outcomes, count


def answered(items, outcomes, expected: str) -> str:
    """``k/n``: of the ``n`` pairs with this known answer, ``k`` got it."""
    got = [o.answered for item, o in zip(items, outcomes) if item.expected == expected]
    return f"{sum(got)}/{len(got)}"


def end_to_end(workloads, workload: str, seed: int, seconds: float, report: list[str]):
    setup = Setup()
    times, items, outcomes, rounds = timed_rounds(workloads, workload, seed, seconds, setup)
    n = len(times)
    first = n // rounds
    pct, tail_s = tail(times)
    report.append(f"{n} items in {rounds} round(s), {sum(times):.3f} s of item time")
    if workload == "separate":
        report.append(f"recall {answered(items, outcomes, 'inconvertible')}: "
                      "known-inconvertible pairs certified")
        report.append(f"soundness {answered(items, outcomes, 'convertible')}: "
                      "convertible controls not separated")
        report += [f"  not certified in round 1: {item.label} ({item.provenance})"
                   for item, o in zip(items[:first], outcomes)
                   if item.expected == "inconvertible" and not o.answered]
    report.append(f"item_tail_s is p{pct:.1f} of {n} items")
    report.append(f"setup_s is the fastest of {len(setup.times)} fresh interpreters: "
                  + " ".join(f"{t:.4f}" for t in setup.times))
    report.append(f"fingerprint of round 1 ({first} items): "
                  f"{fingerprint(outcomes[:first])}")
    metrics = {
        "setup_s": min(setup.times),
        "items_per_s": n / sum(times),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "known_answer_frac": sum(o.answered for o in outcomes) / n,
    }
    return metrics, items, outcomes


def trace_sample(workload: str, items):
    """The part of the first round that is traced, at most some 16 s of
    untraced work: all of ``unfold``, the first ``separate`` pair of each
    kind."""
    if workload == "unfold":
        return items
    seen, out = set(), []
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            out.append(item)
    return out


def per_layer(workloads, tracing, workload: str, seed: int, report: list[str]):
    sample = trace_sample(workload, next(workloads.WORKLOADS[workload](seed)))
    report.append("traced sample: " + "; ".join(item.label for item in sample))

    def one_pass(tracer):
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcomes = [item.timed()[1] for item in sample]
            if workload == "unfold":
                workloads.deep_nest_probe()
            return time.perf_counter() - t0, outcomes
        finally:
            if tracer:
                tracer.uninstall()

    # Untraced, traced, traced, untraced: the overhead estimate then
    # cancels host-speed drift that is linear over the four passes.
    tracers = [tracing.Tracer(), tracing.Tracer()]
    untraced_s, outcomes = one_pass(None)
    traced_s, traced_outcomes = one_pass(tracers[0])
    traced_s += one_pass(tracers[1])[0]
    untraced_s += one_pass(None)[0]
    snapshots = [t.snapshot() for t in tracers]
    problems = []
    if snapshots[0] != snapshots[1]:
        diff = sorted(k for k in snapshots[0] if snapshots[0][k] != snapshots[1].get(k))
        problems.append("determinism: two traced passes counted differently: " + ", ".join(diff))
    if fingerprint(outcomes) != fingerprint(traced_outcomes):
        problems.append("determinism: tracing changed the sample's outputs")

    tracer = tracers[0]
    metrics: dict[str, float] = dict(tracer.counts)
    for name, span in tracer.spans.items():
        metrics[f"{name}.calls"] = span.calls
        metrics[f"{name}.self_s"] = span.self_s
    total_self = sum(s.self_s for s in tracer.spans.values())
    for key, layers in (("trace.search_self_frac", SEARCH_LAYERS),
                        ("trace.unfold_self_frac", UNFOLD_LAYERS)):
        metrics[key] = sum(tracer.spans[n].self_s for n in layers) / total_self
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    report.append(f"two untraced passes {untraced_s:.3f} s, two traced {traced_s:.3f} s")
    return metrics, sample, outcomes, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("separate", "unfold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "lamclock" / "__init__.py").is_file():
        print(f"error: no lamclock sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    calib_before = calibrate()
    digest, problems = determinism_problems(workloads, args.workload, args.seed)
    report.append(f"inputs digest of round 1: {digest}")
    if args.trace:
        metrics, items, outcomes, more = per_layer(
            workloads, tracing, args.workload, args.seed, report
        )
        problems += more
        declared_metrics = declared["per_layer"]
    else:
        metrics, items, outcomes = end_to_end(
            workloads, args.workload, args.seed, args.seconds, report
        )
        declared_metrics = declared["end_to_end"]
    if args.workload == "unfold":
        probe = workloads.deep_nest_probe()
        report.append("K1 deep-nest probe (not counted): "
                      + ", ".join(f"{k} {v}" for k, v in probe.items()))
    calib_after = calibrate()
    metrics["host.calib_s"] = (calib_before + calib_after) / 2
    report.append(f"host.calib_s before {calib_before:.4f} s, after {calib_after:.4f} s")

    failures = failure_lines(items, outcomes) + problems
    report.append("failed checks: " + ("none" if not failures else str(len(failures))))
    report += ["  " + line for line in failures]
    missing = [m["name"] for m in declared_metrics if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    failed = sum(1 for o in outcomes if o.problems)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared_metrics
        },
    }
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
