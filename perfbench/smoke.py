"""Smoke test of the benchmark itself, at each workload's smallest size.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json declares is reported, with its
unit, by an untraced and by a traced run of each workload, that no
operation fails, and that a corrupted reference digest turns into
`failed_frac > 0`, so the correctness gate is not vacuous.  Exits 1 and
lists the problems if any check fails.
"""

from __future__ import annotations

import json
import numbers

import run
from workloads import WORKLOADS


def check_run(name: str, trace: bool, problems: list[str]) -> None:
    result = run.run_workload(name, 0, 0, trace, small=True)
    where = f"{name} trace={int(trace)}"
    if result["failed"]:
        problems.append(f"{where}: {result['failures']}")
    declared = run.declared_metrics(trace)
    line = run.result_line(result, declared)
    for m in declared:
        got = line["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], numbers.Real):
            problems.append(f"{where}: metric {m['name']} missing or malformed: {got}")
    json.dumps(line)  # the result line must serialize


def check_gate(name: str, problems: list[str]) -> None:
    reference = json.loads((run.HERE / "reference.json").read_text())
    label = WORKLOADS[name](0, True)[0][0]
    if label not in reference:
        problems.append(f"{name}: no reference digest for {label!r}")
        return
    corrupted = {**reference, label: "0" * 64}
    result = run.run_workload(name, 0, 0, False, small=True, reference=corrupted)
    if not result["metrics"]["failed_frac"] > 0:
        problems.append(f"{name}: a corrupted reference digest did not fail {label!r}")


def main() -> int:
    problems: list[str] = []
    for name in sorted(WORKLOADS):
        for trace in (False, True):
            check_run(name, trace, problems)
        check_gate(name, problems)
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
