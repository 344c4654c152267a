"""dskrv: exact computer algebra for the double shuffle and
Kashiwara-Vergne Lie algebras on two generators.

All arithmetic is over the rationals (Python ints and Fractions); no
floating point is used anywhere.
"""

__version__ = "0.1.0"


class CrossCheckError(AssertionError):
    """Two independent computations of one result disagree.

    Raised explicitly, so the check also runs under ``python -O``.
    """


# after CrossCheckError, which words (imported by poly) raises
from .poly import Poly


__all__ = ["CrossCheckError", "Poly", "__version__"]
