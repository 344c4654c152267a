"""Regenerate reference.json: payload digests of every operation at seed 0.

    python3 perfbench/make_reference.py

Runs one cold pass of each workload, at full and at smoke-test size,
and records the digest of each operation's report (without `kernel` and
`timings`).  Operations whose label carries `--seed` are recorded for
seed 0 only; at other seeds they are checked across passes but not
against a reference.  Refuses to record an operation that did not pass.
Only regenerate when a change of the library's output is intended.
"""

from __future__ import annotations

import json

from run import HARD_LIMIT_S, HERE, run_pass
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for name, make_ops in sorted(WORKLOADS.items()):
        for small in (False, True):
            ops = make_ops(0, small)
            records = run_pass(ops, False, HARD_LIMIT_S)["records"]
            for label, _ in ops:
                rec = records.get(label)
                if rec is None or rec.get("exit") != 0 or not rec.get("ok"):
                    print(f"{name}: {label} did not pass: {rec}")
                    return 1
                reference[label] = rec["digest"]
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
