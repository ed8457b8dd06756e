"""Reduction: head steps toward a chosen target, developments, normalization.

``head_reduce`` drives a term toward head normal form, weak head normal
form, or a root-stable form, logging the position of every contracted
redex.  Divergence is only ever reported when a recurrence proves it;
running out of fuel is a separate outcome and never claims divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal

from .terms import (
    App,
    Free,
    Lam,
    Position,
    Term,
    TermError,
    Var,
    instantiate,
    replace_at,
    subterm_at,
    subterms,
)

DEFAULT_FUEL = 10_000
TRACE_CAP = 10_000

Target = Literal["hnf", "whnf", "root_stable"]

RESOLVED = "resolved"
PROVEN_DIVERGENT = "proven_divergent"
FUEL_EXHAUSTED = "fuel_exhausted"


@dataclass
class HeadOutcome:
    """Result of driving a term toward a head target.

    ``steps`` holds the contracted redex positions in order; ``trace``
    the visited terms (one longer than ``steps``).  ``result`` is only
    set when ``status == "resolved"``.
    """

    status: str
    steps: list[Position]
    result: Term | None
    trace: list[Term] = field(repr=False, default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)


def head_redex_position(t: Term) -> Position | None:
    """Position of the head redex (``0^n 1^m`` shape), or None in hnf."""
    hints, head, args = _unwind(t, True)
    if type(head) is Lam and args:
        return (0,) * len(hints) + (1,) * (len(args) - 1)
    return None


def is_redex(t: Term) -> bool:
    return type(t) is App and type(t.fn) is Lam


def contract_at(t: Term, pos: Position) -> Term:
    """Contract the beta redex at ``pos``."""
    sub = subterm_at(t, pos)
    if not is_redex(sub):
        raise TermError(f"no redex at position {''.join(map(str, pos)) or 'e'}")
    assert isinstance(sub, App) and isinstance(sub.fn, Lam)
    return replace_at(t, pos, instantiate(sub.fn.body, sub.arg))


def _canonical_core_key(t: Term) -> tuple:
    """Recurrence key for hnf search: the term under its binder prefix,
    with indices into the prefix and free names both canonicalised by
    first occurrence.  Two terms with equal keys head-reduce in lockstep
    forever, so seeing a key twice proves there is no hnf."""
    depth0 = 0
    while type(t) is Lam:
        t = t.body
        depth0 += 1
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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, fuel: int):
        self.left = fuel

    def spend(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


class _CoreKeys:
    """The hnf search's recurrence table.  Equal canonical core keys imply
    equal core sizes, so the first term of each core size waits unkeyed,
    and ``_canonical_core_key`` runs only once a second term of that size
    arrives, keying both."""

    __slots__ = ("keys", "waiting")

    def __init__(self) -> None:
        self.keys: set[tuple] = set()
        self.waiting: dict[int, Term | None] = {}  # None once keyed

    def repeats(self, t: Term, core_size: int) -> bool:
        """Record ``t``; True when an earlier recorded term has its key."""
        if core_size not in self.waiting:
            self.waiting[core_size] = t
            return False
        first = self.waiting[core_size]
        if first is not None:
            self.keys.add(_canonical_core_key(first))
            self.waiting[core_size] = None
        k = _canonical_core_key(t)
        if k in self.keys:
            return True
        self.keys.add(k)
        return False


def _unwind(t: Term, under_lams: bool) -> tuple[list[str], Term, list[Term]]:
    """Split ``t`` into the hints of its λ-prefix (walked only when
    ``under_lams``), its head, and its arguments, outermost first.  The
    head redex, if any, is ``head args[-1]`` at position
    ``0^len(hints) 1^(len(args)-1)``."""
    hints: list[str] = []
    if under_lams:
        while type(t) is Lam:
            hints.append(t.hint)
            t = t.body
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    return hints, t, args


def _contract_head(hints: list[str], head: Lam, args: list[Term]) -> Term:
    """Contract the head redex of an unwound term and rebuild only its
    spine and λ-prefix, as Krivine's machine does ("A call-by-name
    lambda-calculus machine", HOSC 20, 2007)."""
    r = instantiate(head.body, args[-1])
    for i in range(len(args) - 2, -1, -1):
        r = App(r, args[i])
    for h in reversed(hints):
        r = Lam(h, r)
    return r


def _run(t: Term, target: Target, budget: _Budget) -> HeadOutcome:
    steps: list[Position] = []
    trace: list[Term] = [t]
    hnf = target == "hnf"
    cores = _CoreKeys()  # hnf recurrences
    seen: set[Term] = set()  # whnf and root_stable recurrences
    recorded = 0

    while True:
        if target == "root_stable":
            # abstractions and variables are stable as given; an
            # application is stable once its function side provably
            # never becomes an abstraction.
            if type(t) is not App:
                return HeadOutcome(RESOLVED, steps, t, trace)
            probe = _run(t.fn, "whnf", budget)
            if probe.status == FUEL_EXHAUSTED:
                return HeadOutcome(FUEL_EXHAUSTED, steps, None, trace)
            if probe.status == PROVEN_DIVERGENT or type(probe.result) is not Lam:
                return HeadOutcome(RESOLVED, steps, t, trace)
        hints, head, args = _unwind(t, hnf)
        if type(head) is not Lam or not args:
            return HeadOutcome(RESOLVED, steps, t, trace)
        if recorded < TRACE_CAP:
            recorded += 1
            if hnf:
                again = cores.repeats(t, t.size - len(hints))
            else:
                again = t in seen
                seen.add(t)
            if again:
                return HeadOutcome(PROVEN_DIVERGENT, steps, None, trace)
        if not budget.spend():
            return HeadOutcome(FUEL_EXHAUSTED, steps, None, trace)
        t = _contract_head(hints, head, args)
        steps.append((0,) * len(hints) + (1,) * (len(args) - 1))
        if len(trace) < TRACE_CAP:
            trace.append(t)


def head_reduce(t: Term, target: Target = "hnf", fuel: int = DEFAULT_FUEL) -> HeadOutcome:
    """Reduce toward ``target``, recording one position per step.

    The fuel budget is shared with any stability probes the
    ``root_stable`` target performs on function sides.
    """
    if target not in ("hnf", "whnf", "root_stable"):
        raise ValueError(f"unknown target {target!r}")
    return _run(t, target, _Budget(fuel))


# ---------------------------------------------------------------------------
# redex bookkeeping


@dataclass(frozen=True)
class RedexClass:
    """How a redex duplicates work.

    ``linear``: the bound variable occurs at most once in the body.
    ``call_by_value``: the argument is a normal form.
    Either property makes the redex ``simple``.
    """

    linear: bool
    call_by_value: bool

    @property
    def simple(self) -> bool:
        return self.linear or self.call_by_value


def _count_index(t: Term, k: int) -> int:
    if t.open_n <= k:
        return 0
    match t:
        case Var(i):
            return 1 if i == k else 0
        case Lam(_, b):
            return _count_index(b, k + 1)
        case App(f, a):
            return _count_index(f, k) + _count_index(a, k)
    return 0


def classify_redex(t: Term, pos: Position = ()) -> RedexClass:
    sub = subterm_at(t, pos)
    if not is_redex(sub):
        raise TermError(f"no redex at position {''.join(map(str, pos)) or 'e'}")
    assert isinstance(sub, App) and isinstance(sub.fn, Lam)
    return RedexClass(
        linear=_count_index(sub.fn.body, 0) <= 1,
        call_by_value=is_normal(sub.arg),
    )


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
                    if d == 0:
                        r = Lam(parent.hint, r)
                    elif d == 1:
                        r = App(r, parent.arg)
                    else:
                        r = App(parent.fn, r)
                yield r
            stack.append((u.arg, (u, 2, path)))
            stack.append((fn, (u, 1, path)))
        elif type(u) is Lam:
            stack.append((u.body, (u, 0, path)))


def is_normal(t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case App(f, a):
                if type(f) is Lam:
                    return False
                stack.append(f)
                stack.append(a)
            case Lam(_, b):
                stack.append(b)
    return True


# ---------------------------------------------------------------------------
# developments


def develop(t: Term, marks: set[Position] | list[Position]) -> Term:
    """Complete development of the marked redexes, contracted inside-out.

    Every mark must address a redex of ``t``; residuals of one mark
    under another are contracted as part of the development, and no
    newly created redex is touched.
    """
    markset = {tuple(p) for p in marks}
    for p in markset:
        if not is_redex(subterm_at(t, p)):
            raise TermError(
                f"development mark {''.join(map(str, p)) or 'e'} is not a redex"
            )

    def go(u: Term, ms: set[Position]) -> Term:
        if not ms:
            return u
        match u:
            case Lam(h, b):
                return Lam(h, go(b, {p[1:] for p in ms if p and p[0] == 0}))
            case App(f, a):
                nf = go(f, {p[1:] for p in ms if p and p[0] == 1})
                na = go(a, {p[1:] for p in ms if p and p[0] == 2})
                if () in ms:
                    assert isinstance(nf, Lam)
                    return instantiate(nf.body, na)
                return App(nf, na)
        return u

    return go(t, markset)


def gross_knuth(t: Term) -> Term:
    """Develop every redex of ``t`` at once."""
    return develop(t, set(redex_positions(t)))


# ---------------------------------------------------------------------------
# full normalization


@dataclass
class NormalizeOutcome:
    status: str
    steps: int
    result: Term | None


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> NormalizeOutcome:
    """Leftmost-outermost reduction to normal form.

    A repeated term along the (deterministic) strategy proves there is
    no normal form; fuel exhaustion stays agnostic.
    """
    seen: set[Term] = set()
    n = 0
    while True:
        redexes = redex_positions(t)
        if not redexes:
            return NormalizeOutcome(RESOLVED, n, t)
        if len(seen) < TRACE_CAP:
            if t in seen:
                return NormalizeOutcome(PROVEN_DIVERGENT, n, None)
            seen.add(t)
        if n >= fuel:
            return NormalizeOutcome(FUEL_EXHAUSTED, n, None)
        t = contract_at(t, redexes[0])
        n += 1


# ---------------------------------------------------------------------------
# fixed point combinator order


def reducing_fpc_order(y: Term, fuel: int = DEFAULT_FUEL) -> int | None:
    """Least k such that ``y x`` head-reduces in k steps to ``x (y x)``.

    Returns None when the head trace of ``y x`` never passes through
    that term (within fuel) — i.e. the operator does not *reduce* to its
    unfolding, even if it is convertible with it.
    """
    base = "x"
    k = 1
    while base in y.names:
        base = f"x{k}"
        k += 1
    x = Free(base)
    goal = App(x, App(y, x))
    out = head_reduce(App(y, x), "hnf", fuel)
    for i, u in enumerate(out.trace):
        if u == goal:
            return i
    return None
