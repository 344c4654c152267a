"""The benchmark's tracer and reference digests agree with the package."""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

from dskrv import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # a renamed target would leave its per-layer metrics at zero instead of failing
    tracer = _load("tracer")
    assert tracer.TARGETS
    missing = []
    for name, modname, path in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_every_name_the_benchmark_reads_resolves():
    # beyond the tracer targets, child.py reads the caches and linalg.KERNEL,
    # and elim.py rebuilds the constraint rows and eliminates them with the pure kernel
    from dskrv import dshuffle, linalg
    from dskrv._kernels import pure

    child, elim = _load("child"), _load("elim")
    sizes = child.cache_sizes()
    assert sizes and all(type(v) is int for v in sizes.values())
    assert isinstance(linalg.KERNEL, str)
    for n in range(3, 8):
        rows = elim.constraint_matrix(n)
        assert rows == dshuffle.constraint_rows(n)
        _, pivots = pure.row_echelon(rows, len(rows[0]))
        assert list(pivots) == elim.pivots_mod_p(rows, len(rows[0]))


def test_every_reference_digest_is_reproduced():
    # the benchmark fails an operation whose report digest leaves reference.json
    workloads, child = _load("workloads"), _load("child")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    argvs = {
        label: argv
        for make_ops in workloads.WORKLOADS.values()
        for small in (False, True)
        for label, argv in make_ops(0, small)
    }
    assert set(argvs) == set(reference)
    mismatches = []
    for label, argv in sorted(argvs.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0 or child.digest(json.loads(out.getvalue())) != reference[label]:
            mismatches.append(label)
    assert mismatches == []


def test_sampled_identity_suites_reproduce_their_digests():
    # thm21, propA3 and thm33 with the arguments of the identity-suites
    # workload: each report's digest is the one in reference.json
    workloads, child = _load("workloads"), _load("child")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    ops = [
        (label, argv)
        for label, argv in workloads.identity_suites(0)
        if argv[:2] in (["verify", "thm21"], ["verify", "propA3"], ["verify", "thm33"])
    ]
    assert len(ops) == 3
    for label, argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, label
        assert child.digest(json.loads(out.getvalue())) == reference[label], label
