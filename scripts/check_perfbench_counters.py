#!/usr/bin/env python3
"""Checks perfbench's deterministic metrics against their pinned values.

    python3 scripts/check_perfbench_counters.py .github/perfbench_counters.json \
        perfbench_search_fp32.log perfbench_search_fp32_trace.log

The pinned file names a workload and seed and holds, per trace mode, the
metrics that depend only on the seed: DB-LSH's work counters (trace 1) and
the answer quality (trace 0). Each log is the output of one
`perfbench/run.py --workload W --seed S --trace T` run; its last line is the
result JSON. Every pinned metric must equal the logged value exactly. On a
mismatch both values are printed and the exit code is 1. A change that moves
these numbers on purpose re-pins them in the same change and says why.
"""
import json
import sys


def last_json(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit("%s: empty log" % path)
    return json.loads(lines[-1])


def main(argv):
    if len(argv) != 4:
        raise SystemExit("usage: check_perfbench_counters.py PINNED.json "
                         "TRACE0_LOG TRACE1_LOG")
    with open(argv[1]) as f:
        pinned = json.load(f)
    failures = 0
    for mode, log in (("trace0", argv[2]), ("trace1", argv[3])):
        result = last_json(log)
        if result.get("correct") is not True:
            print("%s: run did not answer correctly" % log)
            failures += 1
        for name, want in pinned[mode].items():
            got = result["metrics"].get(name, {}).get("value")
            if got != want:
                print("MISMATCH %s %s (seed %d): pinned %r, got %r"
                      % (pinned["workload"], name, pinned["seed"], want, got))
                failures += 1
            else:
                print("ok %s %s = %r" % (pinned["workload"], name, got))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
