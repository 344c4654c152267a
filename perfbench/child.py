"""One pass of a workload in a fresh interpreter (started by run.py).

Reads a JSON job from stdin: the `src` directory holding `dskrv`, the
operations as (label, argv) pairs, whether to trace, and the per-operation
ceiling.  Runs the operations one after another through
`dskrv.cli.main(argv)` with cold module caches and writes one JSON line
per operation to stdout as soon as it ends, then one summary line.

An operation that outlives its ceiling is interrupted by SIGALRM and
reported as exceeded; the pass stops there, since an interrupted
computation can leave the library's caches half filled.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


class Exceeded(Exception):
    pass


def _alarm(signum, frame):
    raise Exceeded


def digest(report: dict) -> str:
    """sha256 of the report without the fields that may legitimately change."""
    body = {k: v for k, v in report.items() if k not in ("kernel", "timings")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def grouplike_pairs(obj) -> list[int]:
    """`pairs` of every group-likeness report nested in a CLI report."""
    if isinstance(obj, dict):
        found = [obj["pairs"]] if "pairs" in obj and "verdict" in obj else []
        for v in obj.values():
            found += grouplike_pairs(v)
        return found
    if isinstance(obj, list):
        return [p for v in obj for p in grouplike_pairs(v)]
    return []


def cache_sizes() -> dict[str, int]:
    from dskrv import dshuffle, lie, moulds

    return {
        "cache.sh_entries": len(dshuffle._sh_cache),
        "cache.st_entries": len(dshuffle._st_cache),
        "cache.phi_entries": len(lie._phi_cache),
        "cache.basis_entries": len(dshuffle._basis_cache),
        "cache.ad_entries": len(moulds._ad_cache),
        "cache.lyndon_expansion_entries": lie._lyndon_expansion.cache_info().currsize,
    }


def run_op(main, argv: list[str], ceiling_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, ceiling_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exceeded:
        return {"exit": None, "exceeded": True, "seconds": time.perf_counter() - t0}
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        return {"exit": None, "error": repr(exc), "seconds": time.perf_counter() - t0}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    rec = {"exit": code, "seconds": seconds, "report_bytes": len(text.encode())}
    try:
        report = json.loads(text)
    except ValueError:
        rec["error"] = "report is not JSON: " + (err.getvalue() or text)[-300:]
        return rec
    rec["ok"] = report.get("ok") is True
    rec["digest"] = digest(report)
    rec["grouplike_pairs"] = grouplike_pairs(report)
    return rec


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import dskrv
    import dskrv.cli
    from dskrv import linalg

    if not Path(dskrv.__file__).resolve().is_relative_to(src):
        print(f"imported dskrv from {dskrv.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    emit = sys.stdout
    report_bytes = 0
    c0, t0 = time.process_time(), time.perf_counter()
    for label, argv in job["ops"]:
        rec = run_op(dskrv.cli.main, argv, job["ceiling_s"])
        rec["label"] = label
        report_bytes += rec.get("report_bytes", 0)
        emit.write(json.dumps(rec) + "\n")
        emit.flush()
        if rec.get("exceeded"):
            break
    summary = {
        "summary": True,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": linalg.KERNEL,
        "layers": {**cache_sizes(), "cli.emit.report_bytes": report_bytes},
    }
    if tracer is not None:
        summary["layers"].update(tracer.stats())
    emit.write(json.dumps(summary) + "\n")
    emit.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
