"""Term machinery that only the tests use: Plotkin's balance law and a
sampler of balanced reducts, complete developments, the coding of
combinatory terms that the enumerators e1-e3 evaluate, and a
best-first search for a simple reduct, the reference for the
simple-redex closure's reach.

The tests import these by module name (``from fixtures import …``);
``tests/`` is no package, so pytest puts it on ``sys.path``."""

from collections import deque
from itertools import islice

from lamclock.combinators import I, K, S
from lamclock.compare import _frontier
from lamclock.parser import pretty
from lamclock.reduction import (
    DEFAULT_FUEL,
    RESOLVED,
    contract_at,
    is_redex,
    normalize,
    one_step_reducts,
    redex_positions,
)
from lamclock.terms import (
    App,
    Free,
    Lam,
    Position,
    Term,
    TermError,
    Var,
    app,
    pos_str,
    replace_at,
    subterm_at,
    subterms,
)
from lamclock.trees import SimplicityReport, check_simple

# -- the balance law ---------------------------------------------------------


def is_balanced(t: Term, label: str) -> bool:
    """Does every subterm of shape (label s) u have s α-equal to u?"""
    for _, sub in subterms(t):
        match sub:
            case App(App(Free(name), s), u) if name == label:
                if s != u:
                    return False
    return True


def balanced_reducts(t: Term, label: str, count: int, expand_cap: int = 400) -> list[Term]:
    """Sample up to ``count`` distinct balanced reducts of ``t``, whose
    free name ``label`` marks the tracked occurrences.

    Worklist closure over balanced reducts only: from each one, take
    its full development (which preserves balance), its one-step
    reducts that happen to stay balanced, and symmetric two-step
    reducts contracting the same redex inside both copies of a
    duplicated argument of the label.  ``expand_cap`` bounds how many
    terms get expanded.
    """
    out: list[Term] = []
    seen: set[Term] = {t}
    frontier: deque[Term] = deque()
    if is_balanced(t, label):
        out.append(t)
        frontier.append(t)

    def add(r: Term) -> bool:
        if r not in seen:
            seen.add(r)
            if is_balanced(r, label):
                out.append(r)
                frontier.append(r)
        return len(out) >= count

    expanded = 0
    while frontier and len(out) < count and expanded < expand_cap:
        cur = frontier.popleft()
        expanded += 1
        if add(gross_knuth(cur)):
            break
        if any(add(r) for r in one_step_reducts(cur)):
            break
        done = False
        for pos, sub in subterms(cur):
            if done:
                break
            match sub:
                case App(App(Free(name), s), u) if name == label and s == u:
                    for mirrored in one_step_reducts(s):
                        paired = App(App(Free(name), mirrored), mirrored)
                        if add(replace_at(cur, pos, paired)):
                            done = True
                            break
    return out[:count]


# -- developments ------------------------------------------------------------


def develop(t: Term, marks: set[Position] | list[Position]) -> Term:
    """Complete development of the marked redexes, contracted inside-out.

    Every mark must address a redex of ``t``; residuals of one mark
    under another are contracted as part of the development, and no
    newly created redex is touched.  Each mark is contracted in turn by
    ``contract_at``, in reverse lexicographic order of the positions:
    as directions run ``0 < 1 < 2`` that is reverse preorder, so a mark
    comes after every mark inside it.  A contraction changes only its
    own subtree, so every mark outside it keeps its position, and one
    around it still addresses a redex.
    """
    markset = {tuple(p) for p in marks}
    for p in markset:
        if not is_redex(subterm_at(t, p)):
            raise TermError(f"development mark {pos_str(p)} is not a redex")
    for p in sorted(markset, reverse=True):
        t = contract_at(t, p)
    return t


def gross_knuth(t: Term) -> Term:
    """Develop every redex of ``t`` at once."""
    return develop(t, set(redex_positions(t)))


# -- coded combinatory logic -------------------------------------------------


_LEAF_CODES = {c: Lam("z", app(Var(0), K, c, I)) for c in (K, S)}


def encode_cl(m: Term) -> Term:
    """The self-describing coding of a combinatory term: leaves carry a
    K tag and themselves, applications a KI tag and the coded parts.

    A leaf counts as K or S when it is α-equal to it, and codes as the
    catalog's own constant; any other leaf is a ``ValueError``.  One loop
    over an explicit stack, so a term of any depth codes."""
    done: list[Term] = []
    # pending work, next item last: a subterm to code, or None to join
    # the last two codes as an application's
    todo: list[Term | None] = [m]
    while todo:
        u = todo.pop()
        if u is None:
            b, a = done.pop(), done.pop()
            done.append(Lam("z", app(Var(0), App(K, I), a, b)))
        elif type(u) is App:
            todo += (None, u.arg, u.fn)
        elif u in _LEAF_CODES:
            done.append(_LEAF_CODES[u])
        else:
            raise ValueError(f"not a combinatory term: leaf {pretty(u)!r} is neither K nor S")
    return done[0]


def evaluator_check(e: Term, m: Term, fuel: int = DEFAULT_FUEL) -> bool:
    """Does the evaluator applied to the coded combinatory term ``m``
    recover ``m`` itself?  Both sides are normalized and compared."""
    ne = normalize(App(e, encode_cl(m)), fuel)
    nm = normalize(m, fuel)
    return ne.status == nm.status == RESOLVED and ne.result == nm.result


# -- the best-first search for a simple reduct -------------------------------


def best_first_simple_reduct(
    t: Term, depth: int, fuel: int, limit: int, checks: int = 200
) -> tuple[Term, SimplicityReport] | None:
    """A simple reduct of ``t`` by best-first search on term size (Hart,
    Nilsson and Raphael 1968), the reference for the closure's reach:
    check the smallest term made so far, ``t`` first, and make the new
    reducts of one that is not simple.  At most ``limit`` terms are made,
    ``t`` included, none over the size rule, and at most ``checks`` are
    checked after ``t``."""
    for cur in islice(_frontier(t, limit, True), checks + 1):
        rep = check_simple(cur, depth, fuel)
        if rep:
            return cur, rep
    return None
