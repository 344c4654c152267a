"""Redundant cross-checks raise CrossCheckError, also under python -O."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dskrv import CrossCheckError, derivations, dshuffle, words
from dskrv.poly import Poly, subst_linear


def test_push_orbit_that_does_not_close_raises(monkeypatch):
    monkeypatch.setattr(words, "push_code", lambda c: c + 1)
    with pytest.raises(CrossCheckError):
        words.push_orbit(words.code_from_str("xyy"))


def test_is_ds_strict_disagreement_raises(monkeypatch, f3):
    monkeypatch.setattr(dshuffle, "starred_part", lambda f: Poly.word("yyy"))
    with pytest.raises(CrossCheckError):
        dshuffle.is_ds(f3, strict=True)


def special_example(f3):
    """f with f(-x-y, y) = F, the y-part of the special image of f3, so
    both partner constructions of special_equivalences succeed."""
    X, Y = Poly.word("x"), Poly.word("y")
    return subst_linear(derivations.ds_to_krv(f3).F, -X - Y, Y)


def test_special_equivalences_partner_disagreement_raises(monkeypatch, f3):
    f = special_example(f3)
    assert derivations.special_equivalences(f)["existence"]
    monkeypatch.setattr(
        derivations, "partner_by_elimination", lambda F, rhs=None: Poly.zero()
    )
    with pytest.raises(CrossCheckError):
        derivations.special_equivalences(f)


def test_cross_check_error_is_an_assertion_error():
    assert issubclass(CrossCheckError, AssertionError)


# Each line breaks one side of a cross-check, then runs it; `assert`
# statements would be stripped by -O, explicit raises are not.
OPTIMIZED_SCRIPT = """
import sys
from dskrv import CrossCheckError, derivations, dshuffle, linalg, words
from dskrv.poly import Poly, subst_linear

if not sys.flags.optimize:
    sys.exit("expected python -O")
f3 = dshuffle.ds_basis(3).basis[0]
X, Y = Poly.word("x"), Poly.word("y")
special = subst_linear(derivations.ds_to_krv(f3).F, -X - Y, Y)
dshuffle.starred_part = lambda f: Poly.word("yyy")
linalg._primes = lambda: iter([101])
derivations.partner_by_elimination = lambda F, rhs=None: Poly.zero()


def open_push_orbit():
    words.push_code = lambda c: c + 1  # last: no push orbit closes from here on
    return words.push_orbit(words.code_from_str("xyy"))


checks = [
    lambda: dshuffle.is_ds(f3, strict=True),
    lambda: linalg.nullspace([[100003, 99991]], 2),
    lambda: derivations.special_equivalences(special),
    open_push_orbit,
]
for check in checks:
    try:
        check()
    except CrossCheckError:
        print("raised")
    else:
        print("passed")
"""


def test_cross_checks_survive_optimized_mode():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 4


def _library_nodes(*kinds) -> list[str]:
    """Where the library's syntax trees hold a node of one of these kinds."""
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "dskrv").rglob("*.py"))
    assert files
    return [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, kinds)
    ]


def test_library_has_no_bare_asserts():
    # python -O strips assert statements; a library check must raise
    assert _library_nodes(ast.Assert) == []


def test_library_has_no_global_or_nonlocal():
    # shared values travel as arguments, not through rebound names
    assert _library_nodes(ast.Global, ast.Nonlocal) == []


def _unused_imports(path: Path) -> list[str]:
    """The top-level imported names that the module never reads, except its __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "dskrv").rglob("*.py"))
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_library_imports_only_at_module_top_level():
    # an import inside a function hides a dependency, such as one that
    # runs against the layering of the modules
    files = sorted((Path(__file__).resolve().parents[1] / "src" / "dskrv").rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert found == []
