"""dskrv benchmark: cold-process passes of a workload, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload basis-sweep --seed 0 --seconds 20 --trace 0

Each pass is a closed loop in one fresh, single-threaded child
interpreter (child.py) that imports `dskrv` from the checkout's `src`
and runs the workload's CLI operations one after another with cold
module caches, the way a CLI user pays for them.  Only one child runs
at a time.  Passes repeat until `--seconds` have elapsed (at least two
passes); metrics are medians over passes.

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` untraced and traced passes alternate,
the traced ones recording spans around the library's public functions
(tracer.py), and the metrics are the per-layer metrics of
BENCHMARK.json, including `trace.overhead_s` (traced minus untraced
wall time) and the elimination kernels on the weight 8-10 matrices
(elim.py).

Every operation is checked: exit code 0 and `ok` true, a payload digest
equal to `reference.json` (where recorded) and equal across the passes
of this run, no group-likeness report with zero pairs, and a finish
within the per-operation ceiling.  A human-readable summary, with the
environment fingerprint, precedes the final JSON line; the full result
is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CEILING_S = 60.0  # per operation; an operation past it is failed and ends its pass
HARD_LIMIT_S = 150.0  # children still running this long after the start are killed
MIN_PASSES = 2
SETUP_PROBES_PER_PASS = 6
MIN_SETUP_PROBES = 30
ELIM_JOB = {"weights": [8, 9, 10], "repeat": 3}


def median(values):
    """Median; of whole numbers, the lower median, so that counts stay counts."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def child_env() -> dict[str, str]:
    """The parent's environment without DSKRV_* and PYTHON* settings.

    DSKRV_TRUNCATE would silently change the group-cert truncation and
    DSKRV_PURE the kernel; PYTHONPATH could shadow the checkout's `src`.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("DSKRV_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, job: dict, timeout: float) -> tuple[list[dict], str, bool]:
    """Run a child script on a JSON job; return its JSON lines, stderr, timed-out flag."""
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / script)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(json.dumps({"src": str(SRC), **job}), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return lines, err, timed_out


def probe_setup(count: int) -> list[float]:
    """Seconds from spawning an interpreter to its exit after `import dskrv`."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import dskrv"
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-s", "-c", code, str(SRC)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError(f"cannot import dskrv from {SRC}: {done.stderr.decode()[-500:]}")
    return times


def run_pass(ops, trace: bool, timeout: float) -> dict:
    job = {"ops": ops, "trace": trace, "ceiling_s": CEILING_S}
    lines, err, timed_out = run_child("child.py", job, timeout)
    records = {rec["label"]: rec for rec in lines if "label" in rec}
    summary = next((rec for rec in lines if rec.get("summary")), None)
    if summary is None and not records:
        raise BenchError(f"pass produced no output (timed out: {timed_out}): {err[-1000:]}")
    return {"records": records, "summary": summary, "trace": trace}


def op_failures(label: str, rec: dict | None, reference: dict, first: dict) -> list[str]:
    """Reasons the operation failed; empty when it passed every check."""
    if rec is None:
        return ["not run"]
    reasons = []
    if rec.get("exceeded") or rec["seconds"] > CEILING_S:
        reasons.append(f"exceeded the {CEILING_S:g} s ceiling")
    if rec.get("error"):
        reasons.append(rec["error"])
    if rec.get("exit") not in (0, None):
        reasons.append(f"exit code {rec['exit']}")
    if "ok" in rec and not rec["ok"]:
        reasons.append("report ok is not true")
    digest = rec.get("digest")
    if digest is not None:
        if label in reference and digest != reference[label]:
            reasons.append("digest differs from reference")
        if label in first and digest != first[label]:
            reasons.append("digest differs between passes")
        first.setdefault(label, digest)
    if any(p == 0 for p in rec.get("grouplike_pairs", ())):
        reasons.append("vacuous: a group-likeness report checked 0 pairs")
    return reasons


def fingerprint(kernel: str | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "dskrv").rglob("*")):
        if path.suffix in (".py", ".pyx", ".so") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "kernel": kernel,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": h.hexdigest(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, small: bool = False,
    reference: dict | None = None,
) -> dict:
    """Run passes of one workload and return the full result."""
    ops = WORKLOADS[name](seed, small)
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    start = time.perf_counter()
    deadline = start + seconds

    def remaining() -> float:
        return max(1.0, start + HARD_LIMIT_S - time.perf_counter())

    setup: list[float] = []
    passes: list[dict] = []
    while True:
        t0 = time.perf_counter()
        if not trace:
            setup += probe_setup(SETUP_PROBES_PER_PASS)
        passes.append(run_pass(ops, False, remaining()))
        if trace:
            passes.append(run_pass(ops, True, remaining()))
        now = time.perf_counter()
        enough = len(passes) >= MIN_PASSES and now >= deadline
        if enough or now - start + 1.5 * (now - t0) > HARD_LIMIT_S:
            break
    if not trace and len(setup) < MIN_SETUP_PROBES:
        setup += probe_setup(MIN_SETUP_PROBES - len(setup))

    first: dict[str, str] = {}
    failures = []
    attempted = 0
    for i, p in enumerate(passes):
        for label, _ in ops:
            attempted += 1
            reasons = op_failures(label, p["records"].get(label), reference, first)
            if reasons:
                failures.append({"pass": i, "op": label, "reasons": reasons})

    timed = [p for p in passes if p["summary"] is not None]
    untraced = [p for p in timed if not p["trace"]]
    if not untraced:
        raise BenchError("no pass finished; see the failures above")

    metrics = {
        "wall_s": median(p["summary"]["wall_s"] for p in untraced),
        "cpu_s": median(p["summary"]["cpu_s"] for p in untraced),
        "slowest_op_s": median(
            max(r["seconds"] for r in p["records"].values()) for p in untraced
        ),
        "peak_rss_mb": median(p["summary"]["peak_rss_mb"] for p in untraced),
    }
    if setup:
        metrics["setup_s"] = median(setup)
    if trace:
        traced = [p for p in timed if p["trace"]]
        if not traced:
            raise BenchError("no traced pass finished")
        for key in traced[0]["summary"]["layers"]:
            metrics[key] = median(p["summary"]["layers"][key] for p in traced)
        metrics["trace.overhead_s"] = median(p["summary"]["wall_s"] for p in traced) - metrics[
            "wall_s"
        ]
        elim_job = {**ELIM_JOB, "weights": [6, 7]} if small else ELIM_JOB
        elim, err, timed_out = run_child("elim.py", elim_job, remaining())
        if timed_out or not elim:
            raise BenchError(f"elimination benchmark did not finish: {err[-1000:]}")
        elim = elim[-1]
        attempted += elim["elim.checks"]
        if elim["elim.disagreements"]:
            failures.append({"op": "elim", "reasons": ["elimination kernels disagree"]})
        metrics.update({k: v for k, v in elim.items() if k.startswith("elim.")})
    metrics["failed_frac"] = len(failures) / attempted

    op_seconds = {
        label: median(p["records"][label]["seconds"] for p in untraced if label in p["records"])
        for label, _ in ops
        if any(label in p["records"] for p in untraced)
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(untraced[0]["summary"]["kernel"]),
        "passes": len(untraced),
        "setup_probes": len(setup),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "op_seconds": op_seconds,
        "samples": {
            "setup_s": setup,
            "wall_s": [p["summary"]["wall_s"] for p in untraced],
            "cpu_s": [p["summary"]["cpu_s"] for p in untraced],
        },
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(result: dict, declared: list[dict]) -> dict:
    """The final output line: verdict, counts and every declared metric with its unit."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "dskrv" / "__init__.py").is_file():
        print(f"error: no dskrv package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(result, declared_metrics(bool(args.trace)))
    except (BenchError, KeyError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    fp = result["fingerprint"]
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for f in result["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['reasons'])}")
    for name, m in line["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if "failed_frac" not in line["metrics"]:
        print(f"  {'failed_frac':<48} {result['metrics']['failed_frac']:>14.6g} ratio")
    print(f"full result: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
