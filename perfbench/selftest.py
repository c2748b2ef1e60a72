#!/usr/bin/env python3
"""Self-test of the benchmark on short runs; exits 1 on the first failed check.

    python3 perfbench/selftest.py

It checks that two passes with the same seed give identical counters, that
traced and untraced passes give identical counters, that another seed changes
the inputs, that the output checks catch a wrong aggregate, and that every
metric BENCHMARK.json names is produced on every workload.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hatmem import ConcatAggregator, tokenize  # noqa: E402

SMALL = {
    "chat_loop": {"ops": 30},
    "persona_corpus": {"episodes": 2, "sessions": 3, "turns": 6},
    "long_ingest": {"turns": 400},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def small_pass(name: str, seed: int, traced: bool):
    workload = workloads.WORKLOADS[name](seed, **SMALL[name])
    world = workloads.new_world(workload, traced)
    result = workload.run(world)
    check(not result.problems and result.failed == 0,
          f"{name} seed {seed} {'traced' if traced else 'untraced'}: output checks pass, no op fails")
    return result, world


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        first, _ = small_pass(name, 1, False)
        second, _ = small_pass(name, 1, False)
        traced, world = small_pass(name, 1, True)
        check(first.counters == second.counters, f"{name}: same seed, same counters")
        check(first.counters == traced.counters, f"{name}: traced and untraced counters agree")
        untraced_pair, traced_pair = [(first, None)], [(traced, world)]
        produced = set(run.end_to_end(untraced_pair, 1.0)) | set(run.per_layer(untraced_pair, traced_pair))
        wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        check(wanted <= produced, f"{name}: every metric in BENCHMARK.json is produced")

    check(inputs.chat_stream(1, 200) != inputs.chat_stream(2, 200), "another seed changes the chat stream")
    check(inputs.persona_corpus(1, 2, 2, 4) != inputs.persona_corpus(2, 2, 2, 4),
          "another seed changes the persona corpus")
    check(inputs.long_conversation(1, 100, 40) != inputs.long_conversation(2, 100, 40),
          "another seed changes the long conversation")

    filler_tokens = {t for line in inputs.USER_FILLER + inputs.ASSISTANT_FILLER for t in tokenize(line)}
    check(not filler_tokens & (set(inputs.NOUNS) | {"nickname"}),
          "no filler line names a fact noun or says nickname")
    stream = inputs.chat_stream(3, 1000)
    planted = [m for m in stream if m.kind == "plant"]
    check(len({m.noun for m in planted}) == len({m.token for m in planted}) == len(planted),
          "every planted fact has its own noun and token")

    workload = workloads.LongIngest(1, turns=400)
    world = workloads.new_world(workload, False)
    world.aggregator = ConcatAggregator(" ")
    check(bool(workload.run(world).problems), "a wrong aggregate fails the long_ingest checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
