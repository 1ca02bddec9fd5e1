"""Scalar root finding built around a two-point Newton iteration.

The package bundles an expression parser with forward-mode automatic
differentiation, three iterative methods (Newton, secant, and the
two-point variant with super-quadratic convergence), trace analysis for
per-step convergence rates, a benchmark problem corpus, and a CLI.
The names below are the ones the README documents; everything else lives
in the submodules.
"""

from .analysis import ck_sequence, error_sequence
from .corpus import load_problems
from .expressions import parse
from .solvers import Method, solve

__version__ = "0.1.0"
