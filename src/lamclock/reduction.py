"""Reduction: head steps toward a chosen target, redex bookkeeping, normalization.

``head_reduce`` drives a term toward head normal form, weak head normal
form, or a root-stable form, logging the position of every contracted
redex.  Divergence is only ever reported when a recurrence proves it;
running out of fuel is a separate outcome and never claims divergence.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial

from .parser import _pick_name
from .terms import (
    App,
    Free,
    HeadPos,
    Lam,
    Position,
    Term,
    TermError,
    Var,
    free_vars,
    instantiate,
    plug,
    pos_str,
    replace_at,
    subterm_at,
    subterms,
)

DEFAULT_FUEL = 10_000
TRACE_CAP = 10_000
# The reduct searches' bound on terms made or contractions
# (``compare``'s ``reduct_limit``), here so that the CLI can show it
# without loading ``compare``.
REDUCT_LIMIT = 2000

RESOLVED = "resolved"
PROVEN_DIVERGENT = "proven_divergent"
FUEL_EXHAUSTED = "fuel_exhausted"


class HeadOutcome(namedtuple("HeadOutcome", "status steps result")):
    """Result of driving a term toward a head target.

    ``steps`` holds the contracted redex positions in order, each a
    ``HeadPos`` that expands to its path only when read.  ``result``
    is only set when ``status == "resolved"``.  The terms in between are
    not kept; ``head_reduce``'s ``on_step`` callback sees each of them.
    """

    __slots__ = ()

    @property
    def step_count(self) -> int:
        return len(self.steps)


def head_redex_position(t: Term) -> Position | None:
    """Position of the head redex as a plain path ``0^n 1^m`` (the
    ``HeadPos(n, m)`` that ``head_reduce`` records for it), or None in
    hnf."""
    hints: list[str] = []
    head, stack = _unwind(t, _EMPTY, hints)
    if type(head) is Lam and stack[2]:
        return HeadPos(len(hints), stack[2] - 1).path
    return None


def is_redex(t: Term) -> bool:
    return type(t) is App and type(t.fn) is Lam


def _redex_at(t: Term, pos: Position) -> App:
    """The redex at ``pos``; ``TermError`` if the subterm there is none."""
    sub = subterm_at(t, pos)
    if not is_redex(sub):
        raise TermError(f"no redex at position {pos_str(pos)}")
    assert isinstance(sub, App) and isinstance(sub.fn, Lam)
    return sub


def contract_at(t: Term, pos: Position) -> Term:
    """Contract the beta redex at ``pos``."""
    sub = _redex_at(t, pos)
    return replace_at(t, pos, instantiate(sub.fn.body, sub.arg))


def _canonical_core_key(t: Term) -> tuple:
    """Recurrence key for hnf search: a state's term, which leaves out the
    λ-prefix, with indices into the prefix and free names both
    canonicalised by first occurrence.  Two terms with equal keys
    head-reduce in lockstep forever, so a key seen twice proves no hnf."""
    ranks: dict[tuple, int] = {}
    out: list = []
    stack: list[tuple[Term, int]] = [(t, 0)]
    while stack:
        u, d = stack.pop()
        match u:
            case Var(i):
                if i < d:
                    out.append(("b", i))
                else:
                    out.append(("o", ranks.setdefault(("i", i - d), len(ranks))))
            case Free(n):
                out.append(("o", ranks.setdefault(("n", n), len(ranks))))
            case Lam(_, b):
                out.append("L")
                stack.append((b, d + 1))
            case App(f, a):
                out.append("A")
                stack.append((a, d))
                stack.append((f, d))
    return tuple(out)


# The head reducer is Krivine's machine (Krivine, "A call-by-name
# lambda-calculus machine", HOSC 20, 2007): a state is the hints of the
# λ-prefix (hnf only), a head that is not an application, and the
# arguments of the head as a persistent linked stack, innermost on top.
# A stack node is ``(arg, below, depth, size)``: ``depth`` counts the
# arguments and ``size`` is their total size plus one application node
# each.  A step pops one argument and pushes the spine of the
# contractum: it substitutes into the arguments and the head of the
# body's spine, and never builds the spine's application nodes.
_EMPTY = (None, None, 0, 0)


def _unwind(t: Term, stack: tuple, hints: list[str] | None) -> tuple[Term, tuple]:
    """Push the spine arguments of ``t`` onto ``stack``, outermost first,
    and return the head with the new stack.  With ``hints`` given (the hnf
    target), an abstraction met with an empty stack joins the λ-prefix:
    its hint is appended and the walk goes on under it."""
    while True:
        while type(t) is App:
            a = t.arg
            stack = (a, stack, stack[2] + 1, stack[3] + a.size + 1)
            t = t.fn
        if hints is None or type(t) is not Lam or stack[2]:
            return t, stack
        hints.append(t.hint)
        t = t.body


def _contract(body: Term, arg: Term, stack: tuple, hints: list[str] | None) -> tuple[Term, tuple]:
    """``_unwind(instantiate(body, arg), stack, hints)`` without building
    the contractum's spine: each spine argument of ``body`` and then its
    head are substituted on their own.  Closed ones stay as they are,
    and a variable needs no walk: index 0 becomes ``arg`` (a shift by 0)
    and any other index drops by one."""
    while True:
        t = body.arg if type(body) is App else body
        if t.open_n:
            if type(t) is not Var:
                t = instantiate(t, arg)
            else:
                t = arg if t.index == 0 else Var(t.index - 1)
        if type(body) is not App:
            return _unwind(t, stack, hints)
        stack = (t, stack, stack[2] + 1, stack[3] + t.size + 1)
        body = body.fn


def _term(hints: list[str], n: int, head: Term, stack: tuple) -> Term:
    """The term of a machine state: ``head`` applied to the stack, under
    the first ``n`` λ-prefix hints (the list only ever grows)."""
    t = head
    while stack[2]:
        t = App(t, stack[0])
        stack = stack[1]
    for i in range(n - 1, -1, -1):
        t = Lam(hints[i], t)
    return t


class _Recurrences:
    """A run's recurrence table, for every target.  Each state is filed
    under its gate, the size and spine length of its term, which equal
    keys share.  The first state of a gate waits unbuilt; once a second
    one arrives, both are built and keyed, by the canonical core key for
    hnf and by the term itself otherwise.  The λ-prefix never enters a
    key, so no state keeps its hints."""

    __slots__ = ("core", "keys", "waiting")

    def __init__(self, core: bool) -> None:
        self.core = core
        self.keys: set = set()
        self.waiting: dict = {}  # gate -> (head, stack), None once keyed

    def _key(self, head: Term, stack: tuple):
        t = _term([], 0, head, stack)
        return _canonical_core_key(t) if self.core else t

    def repeats(self, head: Term, stack: tuple) -> bool:
        """Record a state; True when an earlier recorded one has its key."""
        gate = (head.size + stack[3], stack[2])
        if gate not in self.waiting:
            self.waiting[gate] = (head, stack)
            return False
        first = self.waiting[gate]
        if first is not None:
            self.keys.add(self._key(*first))
            self.waiting[gate] = None
        k = self._key(head, stack)
        if k in self.keys:
            return True
        self.keys.add(k)
        return False


def _drive(
    hints: list[str],
    head: Term,
    stack: tuple,
    target: str,
    fuel: int,
    base: int,
    steps: list[HeadPos] | None,
    on_step,
) -> tuple[str, Term, tuple, int]:
    """Run the machine from a state toward ``target`` and return the
    status with the final head and stack, and the fuel left.  The bottom
    ``base`` arguments are not part of the term driven: ``root_stable``
    probes its function side with ``base`` 1.  Positions are appended to
    ``steps`` unless it is None, as it is for the probe, whose steps
    nobody reads.

    ``root_stable`` probes once per trajectory, not at every step.  A
    probe that reaches an abstraction in k steps has made the k head
    steps that the run makes next, so from each of those states a new
    probe would reach the same abstraction in the steps left
    (``ahead``), spending that much fuel.  It could not stop at a repeat
    instead: its states are a suffix of the first probe's, which has no
    two equal states, or, head reduction being deterministic, it would
    have looped forever.  That holds past ``TRACE_CAP`` too.  So the run
    charges ``ahead`` fuel instead of probing, or, when less is left,
    spends it all and reports ``fuel_exhausted``, as the probe would."""
    hnf = target == "hnf"
    table = _Recurrences(hnf)
    recorded = 0
    ahead = 0
    while True:
        if target == "root_stable":
            # abstractions and variables are stable as given; an
            # application is stable once its function side provably
            # never becomes an abstraction.
            if not stack[2]:
                return RESOLVED, head, stack, fuel
            if ahead:
                if fuel < ahead:
                    return FUEL_EXHAUSTED, head, stack, 0
                fuel -= ahead
            else:
                probe, fn_head, _, left = _drive(hints, head, stack, "whnf", fuel, 1, None, None)
                if probe == FUEL_EXHAUSTED:
                    return FUEL_EXHAUSTED, head, stack, left
                if probe == PROVEN_DIVERGENT or type(fn_head) is not Lam:
                    return RESOLVED, head, stack, left
                ahead = fuel - left
                fuel = left
        if type(head) is not Lam or stack[2] <= base:
            return RESOLVED, head, stack, fuel
        if recorded < TRACE_CAP:
            recorded += 1
            if table.repeats(head, stack):
                return PROVEN_DIVERGENT, head, stack, fuel
        if fuel <= 0:
            return FUEL_EXHAUSTED, head, stack, fuel
        fuel -= 1
        if steps is not None:
            # the redex sits under the λ-prefix and above the other
            # ``stack[2] - 1`` arguments
            pos = HeadPos(len(hints), stack[2] - 1)
            if on_step is not None:
                on_step(len(steps), pos, head, stack[0],
                        partial(_term, hints, len(hints), head, stack))
            steps.append(pos)
        if ahead:
            ahead -= 1
        head, stack = _contract(head.body, stack[0], stack[1], hints if hnf else None)


def head_reduce(
    t: Term, target: str = "hnf", fuel: int = DEFAULT_FUEL, *, on_step=None
) -> HeadOutcome:
    """Reduce toward ``target``, recording one position per step:
    ``"hnf"`` (head normal form), ``"whnf"`` (weak head normal form) or
    ``"root_stable"`` (a root-stable form).

    The fuel budget is shared with any stability probes the
    ``root_stable`` target performs on function sides.  ``on_step``, when
    given, is called before each step as ``on_step(i, pos, lam, arg,
    build)``: the step's index and position, the redex's abstraction and
    argument, and a thunk that builds the whole term.
    """
    if target not in ("hnf", "whnf", "root_stable"):
        raise ValueError(f"unknown target {target!r}")
    hints: list[str] = []
    head, stack = _unwind(t, _EMPTY, hints if target == "hnf" else None)
    steps: list[HeadPos] = []
    status, head, stack, _ = _drive(hints, head, stack, target, fuel, 0, steps, on_step)
    if status != RESOLVED:
        return HeadOutcome(status, steps, None)
    return HeadOutcome(status, steps, _term(hints, len(hints), head, stack) if steps else t)


# ---------------------------------------------------------------------------
# redex bookkeeping


class RedexClass(namedtuple("RedexClass", "linear call_by_value")):
    """How a redex duplicates work.

    ``linear``: the bound variable occurs at most once in the body.
    ``call_by_value``: the argument is a normal form.
    Either property makes the redex ``simple``.
    """

    __slots__ = ()

    @property
    def simple(self) -> bool:
        return self.linear or self.call_by_value


def _count_index(t: Term, k: int) -> int:
    """Occurrences of index ``k`` in ``t``, with an explicit stack;
    subterms that cannot reach binder ``k`` are skipped."""
    n = 0
    stack = [(t, k)]
    while stack:
        u, k = stack.pop()
        if u.open_n <= k:
            continue
        if type(u) is Var:
            n += u.index == k
        elif type(u) is Lam:
            stack.append((u.body, k + 1))
        else:
            stack.append((u.arg, k))
            stack.append((u.fn, k))
    return n


def _is_simple(body: Term, arg: Term) -> bool:
    """Is the redex ``(\\x. body) arg`` simple, as ``classify_redex``
    tells?  ``arg`` is walked only for a redex that is not linear."""
    return _count_index(body, 0) <= 1 or is_normal(arg)


def classify_redex(t: Term, pos: Position = ()) -> RedexClass:
    sub = _redex_at(t, pos)
    return RedexClass(linear=_count_index(sub.fn.body, 0) <= 1, call_by_value=is_normal(sub.arg))


def redex_positions(t: Term) -> list[Position]:
    """Positions of the redexes of ``t``, leftmost-outermost first."""
    return [p for p, u in subterms(t) if is_redex(u)]


def one_step_reducts(t: Term) -> Iterator[Term]:
    """``contract_at(t, p)`` for every ``p`` in ``redex_positions(t)``, in
    that order, from one preorder walk.

    The walk carries a zipper (Huet, "The Zipper", JFP 7(5), 1997): the
    path to the current subterm as linked ``(parent, direction, rest)``
    frames.  At a redex the contractum is built once and only the
    ancestors on the path are rebuilt, so no position is looked up
    from the root."""
    stack: list[tuple[Term, tuple | None]] = [(t, None)]
    while stack:
        u, path = stack.pop()
        if type(u) is App:
            fn = u.fn
            if type(fn) is Lam:
                r = instantiate(fn.body, u.arg)
                frame = path
                while frame is not None:
                    parent, d, frame = frame
                    r = plug(parent, d, r)
                yield r
            stack.append((u.arg, (u, 2, path)))
            stack.append((fn, (u, 1, path)))
        elif type(u) is Lam:
            stack.append((u.body, (u, 0, path)))


def is_normal(t: Term) -> bool:
    # The simplicity hooks call this at head steps, so it dispatches on
    # ``type`` rather than ``match``, as ``terms._inst`` does.
    stack = [t]
    while stack:
        u = stack.pop()
        kind = type(u)
        if kind is App:
            f = u.fn
            if type(f) is Lam:
                return False
            stack.append(f)
            stack.append(u.arg)
        elif kind is Lam:
            stack.append(u.body)
    return True


# ---------------------------------------------------------------------------
# full normalization


NormalizeOutcome = namedtuple("NormalizeOutcome", "status steps result")


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeOutcome:
    """Leftmost-outermost reduction to normal form.

    A repeated term along the (deterministic) strategy proves there is
    no normal form; fuel exhaustion stays agnostic.
    """
    seen: set[Term] = set()
    n = 0
    while True:
        reduct = next(one_step_reducts(t), None)
        if reduct is None:
            return NormalizeOutcome(RESOLVED, n, t)
        if len(seen) < TRACE_CAP:
            if t in seen:
                return NormalizeOutcome(PROVEN_DIVERGENT, n, None)
            seen.add(t)
        if n >= fuel:
            return NormalizeOutcome(FUEL_EXHAUSTED, n, None)
        t = reduct
        n += 1


# ---------------------------------------------------------------------------
# fixed point combinator order


def reducing_fpc_order(y: Term) -> int | None:
    """Least k such that ``y x`` head-reduces in k steps to ``x (y x)``.

    Returns None when the head trace of ``y x`` never passes through
    that term (within the default fuel) — i.e. the operator does not *reduce* to its
    unfolding, even if it is convertible with it.
    """
    x = Free(_pick_name("x", free_vars(y)))
    goal = App(x, App(y, x))
    # ``goal`` is a head normal form, so the head reduction can only
    # meet it as its result.
    out = head_reduce(App(y, x))
    return out.step_count if out.result == goal else None
