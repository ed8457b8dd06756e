"""Clocked semantic trees for the lambda calculus.

Builds the possibly infinite tree a term unfolds into (hereditary head
normal forms, their weak-head variant, or root-stable layers), annotates
every node with the number — or the exact positions — of the head steps
that produced it, detects the regular structure such trees have for
fixed point operators, and compares annotations to tell
beta-inconvertible terms apart.
"""

from .terms import (
    App,
    Free,
    Lam,
    Position,
    Term,
    TermError,
    PositionError,
    Var,
    alpha_eq,
    app,
    free_vars,
    instantiate,
    iterate,
    lam,
    pos_str,
    positions,
    subst_free,
    subterm_at,
)
from .parser import DefinitionTable, ParseError, parse, pretty
from .reduction import (
    HeadOutcome,
    NormalizeOutcome,
    RedexClass,
    classify_redex,
    contract_at,
    develop,
    gross_knuth,
    head_redex_position,
    head_reduce,
    normalize,
    redex_positions,
    reducing_fpc_order,
)

__all__ = [
    "App",
    "DefinitionTable",
    "Free",
    "HeadOutcome",
    "Lam",
    "NormalizeOutcome",
    "ParseError",
    "Position",
    "PositionError",
    "RedexClass",
    "Term",
    "TermError",
    "Var",
    "alpha_eq",
    "app",
    "classify_redex",
    "contract_at",
    "develop",
    "free_vars",
    "gross_knuth",
    "head_redex_position",
    "head_reduce",
    "instantiate",
    "iterate",
    "lam",
    "normalize",
    "parse",
    "pos_str",
    "positions",
    "pretty",
    "redex_positions",
    "reducing_fpc_order",
    "subst_free",
    "subterm_at",
]

__version__ = "0.1.0"
