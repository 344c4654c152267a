"""The benchmark's workloads: ordered lists of `dskrv` CLI invocations.

Each operation is a (label, argv) pair.  The label names the operation
independently of the workload seed, so reference digests in
`reference.json` are keyed by it.  Every flag the subcommand reads is
passed explicitly, so a change of a CLI default cannot silently change
what is measured.  `--seed 0` is pinned on operations whose output does
not depend on the seed; only the identity suites receive the workload
seed.

Why these three workloads:

* basis-sweep -- exact elimination (`linalg`) and the `is_ds`/`is_lie`
  certificates; the groupexp and moulds layers do no work.
* group-cert -- the group-level layer (circled exponential, shuffle and
  stuffle pairing sweeps, logarithm, derivation exponential); `linalg`
  does almost nothing.  thm42 runs at T = 9 because its default T = 12
  does not finish in reasonable time.
* identity-suites -- derivations, moulds and poly, and `linalg` used as
  hundreds of small Fraction-entry solves instead of a few large integer
  eliminations.
"""

from __future__ import annotations

import random

# Suites of identity-suites with the CLI's default weight range of each.
IDENTITY_SUITES = (
    ("thm11", "3..8"),
    ("thm12", "3..7"),
    ("thm21", "3..6"),
    ("thm33", "3..8"),
    ("thm34", "3..8"),
    ("lemma35", "3..8"),
    ("lemmaA2", "3..6"),
    ("ecalleA8", "3..8"),
    ("propA3", "3..6"),
)


def _common(seed: int, count: int = 100, truncate: int = 12) -> list[str]:
    return [
        "--seed", str(seed),
        "--count", str(count),
        "--truncate", str(truncate),
        "--format", "json",
    ]


def _basis(n: int) -> tuple[str, list[str]]:
    return f"basis --weight {n}", ["basis", "--weight", str(n), *_common(0)]


def _verify(suite: str, weights: str, seed: int, truncate: int = 12, count: int = 100):
    label = f"verify {suite} --weights {weights} --truncate {truncate} --count {count}"
    argv = ["verify", suite, "--weights", weights, *_common(seed, count, truncate)]
    return label, argv


def basis_sweep(seed: int, small: bool = False) -> list[tuple[str, list[str]]]:
    weights = list(range(3, 7 if small else 11))
    random.Random(seed).shuffle(weights)
    return [_basis(n) for n in weights]


def group_cert(seed: int, small: bool = False) -> list[tuple[str, list[str]]]:
    # The seed is not used: none of these suites draws random elements.
    if small:
        return [
            _verify("thm42", "3..3", 0, truncate=5),
            _verify("group49", "3..3", 0, truncate=6),
            _verify("group410", "3..3", 0, truncate=6),
        ]
    return [
        _verify("thm42", "3..5", 0, truncate=9),
        _verify("group49", "3..5", 0, truncate=12),
        _verify("group410", "3..5", 0, truncate=12),
    ]


def identity_suites(seed: int, small: bool = False) -> list[tuple[str, list[str]]]:
    hi = "4" if small else "8"
    count = 5 if small else 100
    ops = []
    for suite, weights in IDENTITY_SUITES:
        label, argv = _verify(suite, "3..4" if small else weights, seed, count=count)
        ops.append((f"{label} --seed {seed}", argv))
    ops.append((f"map --weights 3..{hi}", ["map", "--weights", f"3..{hi}", *_common(0)]))
    ops.append(
        (
            f"mould --weights 3..{hi} --check all",
            ["mould", "--weights", f"3..{hi}", "--check", "all", *_common(0)],
        )
    )
    ops.append(
        (
            "bracket 3 5",
            ["bracket", "3", "5", "--index1", "0", "--index2", "0", *_common(0)],
        )
    )
    return ops


WORKLOADS = {
    "basis-sweep": basis_sweep,
    "group-cert": group_cert,
    "identity-suites": identity_suites,
}
