#!/usr/bin/env python3
"""Benchmark of the hatmem memory, run from the root of a source checkout.

    python3 perfbench/run.py --workload chat_loop --seed 1 --seconds 25 --trace 0

Runs one workload (`chat_loop`, `persona_corpus` or `long_ingest`, see
README.md) as a single-process closed loop: one client, the next op only
after the last one returns. Passes repeat until `--seconds` have gone by,
always finishing the pass in progress. With `--trace 0` it reports the
end-to-end metrics from untraced passes. With `--trace 1` it alternates
untraced and traced passes and reports the per-layer metrics, derived from
spans recorded around the program's public calls and written to
`perfbench/out/spans-<workload>.jsonl`.

Human-readable lines come first; the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
an output check fails and 2 when the program's sources are missing.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
SETUP_SAMPLES = 5  # fewest set-up samples behind setup_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat_loop", "persona_corpus", "long_ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Set up, print the set-up seconds and exit; used for setup_s samples.
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload_name: str, seed: int):
    """Import the program, generate the inputs, build the first pass's objects."""
    sys.path.insert(0, str(SOURCES))
    import workloads  # imports hatmem

    return workloads, *workloads.build(workload_name, seed)


def setup_probe(args) -> float:
    """Set-up seconds of one fresh process running this benchmark's set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_passes(workloads, workload, world, seconds: float, trace: bool, between=None):
    """Untraced (and, when tracing, alternately traced) passes until the deadline.

    `between` runs after every pass, outside the pass's timing.
    """
    deadline = time.perf_counter() + seconds
    untraced, traced = [], []
    while True:
        want_trace = trace and len(traced) < len(untraced)
        if world is None:
            world = workloads.new_world(workload, want_trace)
        result = workload.run(world)
        (traced if want_trace else untraced).append((result, world))
        world = None
        if between is not None:
            between()
        if time.perf_counter() >= deadline and (traced or not trace):
            return untraced, traced


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(untraced, setup_s: float) -> dict:
    """Each timing is the median over untraced passes of that pass's figure."""
    results = [r for r, _ in untraced]
    counters = results[0].counters
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(statistics.median(r.latencies) for r in results) * 1e3,
        "op_p90_ms": statistics.median(percentile(r.latencies, 90) for r in results) * 1e3,
        "ops_per_s": statistics.median(len(r.latencies) / r.wall for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "doc_bytes_per_leaf": counters["doc_bytes"] / counters["leaves"],
    }


def per_layer(untraced, traced) -> dict:
    from endpoint import STAGES
    from tracing import durations, median_ms
    from workloads import ROTATION

    n = len(traced)
    spans: dict = {}
    self_s: Counter = Counter()
    counts: Counter = Counter()
    walks = []
    for _, world in traced:
        by_name, self_total = durations(world.tracer)
        for name, values in by_name.items():
            spans.setdefault(name, []).extend(values)
        self_s.update(self_total)
        counts.update(world.tracer.counts)
        walks.extend(world.tracer.walks)
    first = traced[0][0]
    c = first.counters
    endpoint = c.get("endpoint", {})

    def total_ms(name):
        return sum(spans.get(name, [])) * 1e3 / n

    def self_ms(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix)) * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "pipeline.ingest_turn.ms_p50": median_ms(spans.get("pipeline.ingest_turn", [])),
        "pipeline.end_session.ms_total": total_ms("pipeline.end_session"),
        "pipeline.generate_response.ms_p50": median_ms(spans.get("pipeline.generate_response", [])),
        "pipeline.self_ms_total": self_ms("pipeline."),
        "tree.insert_leaf.self_ms_total": self_ms("tree.insert_leaf"),
        "tree.agg_calls_per_insert": ratio(counts["tree.agg_calls"], counts["tree.inserts"]),
        "tree.depth_final": c["depth_final"],
        "tree.serialize.ms": median_ms(spans.get("tree.serialize", [])),
        "tree.deserialize.ms": median_ms(spans.get("tree.deserialize", [])),
        "tree.doc_bytes": c["doc_bytes"] / c["docs"],
        "tree.self_ms_total": self_ms("tree."),
        "aggregation.calls": counts["aggregation.calls"] / n,
        "aggregation.self_ms_total": self_ms("aggregation."),
        "aggregation.input_tokens_per_call": ratio(counts["aggregation.input_tokens"],
                                                   counts["aggregation.calls"]),
        "llm.attempts_per_call": ratio(counts["llm.attempts"], counts["llm.complete_calls"]),
        "llm.client_self_ms_total": self_ms("llm.complete"),
        "llm.endpoint_ms_total": total_ms("llm.endpoint"),
        "traversal.self_ms_total": self_ms("traversal."),
        "metrics.score_ms": total_ms("metrics.score"),
        "chat_calls_per_op": ratio(sum(endpoint.get("calls", {}).values()), first.attempted),
        "prompt_tokens_per_op": ratio(sum(endpoint.get("prompt_tokens", {}).values()), first.attempted),
        "recall": ratio(c.get("recall_hits", 0), c.get("fact_queries", 0)),
        "reply_f1": ratio(c.get("f1_sum", 0.0), c.get("fact_queries", 0)),
        "failed_op_ratio": ratio(sum(r.failed for r, _ in untraced + traced),
                                 sum(r.attempted for r, _ in untraced + traced)),
        "tracing.overhead_s": (statistics.median(r.wall for r, _ in traced)
                               - statistics.median(r.wall for r, _ in untraced)),
    }
    for strategy in ROTATION:
        mine = [(steps, outcome) for s, steps, outcome in walks if s == strategy]
        m[f"pipeline.build_context.ms_p50.{strategy}"] = median_ms(
            spans.get(f"pipeline.build_context.{strategy}", []))
        m[f"traversal.walks.{strategy}"] = len(mine) / n
        m[f"traversal.steps_per_walk.{strategy}"] = ratio(sum(s for s, _ in mine), len(mine))
        m[f"traversal.sufficient_ratio.{strategy}"] = ratio(
            sum(o == "sufficient" for _, o in mine), len(mine))
        m[f"traversal.budget_exhausted.{strategy}"] = sum(o == "budget_exhausted" for _, o in mine) / n
    m["traversal.wasted_steps_ratio"] = ratio(
        sum(steps for _, steps, o in walks if o != "sufficient"), sum(steps for _, steps, _ in walks))
    for stage in STAGES:
        for key in ("calls", "prompt_tokens", "completion_tokens"):
            m[f"llm.{key}.{stage}"] = endpoint.get(key, {}).get(stage, 0)
    return m


def write_spans(workload_name: str, traced) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, (_, world) in enumerate(traced):
            world.tracer.write(handle, index)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "hatmem" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCES}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, workload, world = setup(args.workload, args.seed)
    first_setup_s = time.perf_counter() - _PROCESS_START
    if args.probe_setup:
        print(first_setup_s)
        return 0

    # Set-up samples are spread over the run, one fresh process after each
    # pass, so that they see the same machine as the passes do.
    setup_samples = [first_setup_s]
    between = None if args.trace else lambda: setup_samples.append(setup_probe(args))
    untraced, traced = run_passes(workloads, workload, world, args.seconds, bool(args.trace), between)
    passes = untraced + traced
    problems = sorted({p for r, _ in passes for p in r.problems})
    if any(r.counters != passes[0][0].counters for r, _ in passes):
        problems.append("counters differ between passes of one seed")
    if any(r.attempted != len(r.latencies) + r.failed for r, _ in passes):
        problems.append("an op was neither counted as succeeded nor as failed")
    errors = sum((r.errors for r, _ in passes), Counter())
    if not all(r.latencies for r, _ in passes):
        print(f"error: a pass had no op that succeeded; failures by class: {dict(errors)}",
              file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(untraced, traced)
        wanted = spec["per_layer"]
        span_path = write_spans(args.workload, traced)
    else:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(args))
        values = end_to_end(untraced, statistics.median(setup_samples))
        wanted = spec["end_to_end"]
        span_path = None

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {passes[0][0].attempted} ops each")
    if not args.trace:
        print(f"setup_s is the median of {len(setup_samples)} set-ups")
    print(f"counters per pass: {json.dumps(passes[0][0].counters, sort_keys=True)}")
    for label, group in (("untraced", untraced), ("traced", traced)):
        for result, _ in group:
            print(f"{label} pass: wall {result.wall:.4f} s, {len(result.latencies)} ops, op p50 "
                  f"{statistics.median(result.latencies) * 1e3:.4f} ms, op p90 "
                  f"{percentile(result.latencies, 90) * 1e3:.4f} ms")
    for name, count in sorted(errors.items()):
        print(f"failed ops raising {name}: {count}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if span_path is not None:
        print(f"spans written to {span_path.relative_to(ROOT)}")
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:<40} {values[entry['name']]:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r, _ in passes),
        "failed": sum(r.failed for r, _ in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
