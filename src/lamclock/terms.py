"""Immutable lambda terms with nameless binding.

Bound variables are de Bruijn indices; free variables carry names.  Each
binder keeps a *display hint* (the surface name it was written with),
which printing uses but equality ignores — so ``==`` on terms is exactly
alpha-equivalence.

Terms cache their hash, size and "openness" (how many enclosing binders
the term needs) at construction, which keeps substitution and the
reduction loops cheap on shared structure.  They keep no set of free
names: as in the locally nameless style (Charguéraud, "The Locally
Nameless Representation", JAR 49, 2012), the free names are a function,
``free_vars``, computed by one walk where they are read.
"""

from __future__ import annotations

from collections.abc import Iterator

Position = tuple[int, ...]


class TermError(ValueError):
    """Malformed term operation (bad position, open term where closed needed...)."""


class PositionError(TermError):
    """A position does not address a subterm of the given term."""


class Term:
    """Base class; concrete terms are Var, Free, Lam and App."""

    __slots__ = ("size", "open_n", "_h")

    size: int    # number of nodes, counted as a tree
    open_n: int  # least n such that the term is valid under n binders
    _h: int      # structural hash, binder hints ignored

    def __hash__(self) -> int:
        return self._h

    def __eq__(self, other: object, hints: bool = False) -> bool:
        """Equal nameless structure, which is alpha-equivalence; with
        ``hints``, every binder hint equal too, so the two terms print
        alike.  Unequal cached hashes settle it at once.  Otherwise one
        loop, for any depth, compares the structure: it follows function
        sides and bodies in place, stacks only argument pairs, and
        passes over a shared subterm at once.  It reads no hash below
        the roots, since terms with equal hashes are almost always equal
        and are walked to the end anyway."""
        if not isinstance(other, Term) or self._h != other._h:
            return False
        u, v = self, other
        stack = []
        while True:
            if u is not v:
                kind = type(u)
                if kind is not type(v):
                    return False
                if kind is App:
                    stack.append((u.arg, v.arg))
                    u, v = u.fn, v.fn
                    continue
                if kind is Lam:
                    if hints and u.hint != v.hint:
                        return False
                    u, v = u.body, v.body
                    continue
                if kind is Free:
                    if u.name != v.name:
                        return False
                elif u.index != v.index:
                    return False
            if not stack:
                return True
            u, v = stack.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .parser import pretty

        try:
            return f"<{type(self).__name__} {pretty(self)}>"
        except Exception:
            return f"<{type(self).__name__}>"


class Var(Term):
    """Bound variable (de Bruijn index, innermost binder = 0)."""

    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise TermError(f"negative de Bruijn index: {index}")
        self.index = index
        self.size = 1
        self.open_n = index + 1
        self._h = hash((0, index))


class Free(Term):
    """Free variable, identified by name."""

    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self.open_n = 0
        self._h = hash((1, name))


class Lam(Term):
    """Abstraction.  ``hint`` is the display name; equality ignores it."""

    __slots__ = ("hint", "body")
    __match_args__ = ("hint", "body")

    def __init__(self, hint: str, body: Term):
        self.hint = hint
        self.body = body
        self.size = body.size + 1
        self.open_n = max(0, body.open_n - 1)
        self._h = hash((2, body._h))


class App(Term):
    """Application, left-associated in surface syntax."""

    __slots__ = ("fn", "arg")
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.size = fn.size + arg.size + 1
        n, m = fn.open_n, arg.open_n
        self.open_n = n if n >= m else m  # faster than max() on this hot path
        self._h = hash((3, fn._h, arg._h))


def app(fn: Term, *args: Term) -> Term:
    """Left-nested application ``fn a1 ... an``."""
    t = fn
    for a in args:
        t = App(t, a)
    return t


def lam(hints: str | list[str], body: Term) -> Term:
    """Nested abstraction; ``hints`` may be a space-separated string."""
    if isinstance(hints, str):
        hints = hints.split()
    for h in reversed(hints):
        body = Lam(h, body)
    return body


def free_vars(t: Term) -> frozenset[str]:
    """The names of ``t``'s free variables.  One loop over an explicit
    stack, so a term of any depth is walked; like ``==``, it follows
    function sides and bodies in place and stacks only arguments.  It
    enters each distinct inner node once (a leaf is read once per
    parent), so a term built by sharing, like ``a60`` from ``a0 = \\x.x``
    and ``a{i} = a{i-1} a{i-1}``, is walked in its 62 objects, not its
    2^61 positions."""
    names: set[str] = set()
    seen: set[int] = set()  # ids of the inner nodes entered
    stack = [t]
    while stack:
        u = stack.pop()
        while True:
            kind = type(u)
            if kind is Free:
                names.add(u.name)
                break
            if kind is Var or id(u) in seen:
                break
            seen.add(id(u))
            if kind is App:
                stack.append(u.arg)
                u = u.fn
            else:
                u = u.body
    return frozenset(names)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add ``by`` to every index pointing above ``cutoff`` binders."""
    if by == 0 or t.open_n <= cutoff:
        return t
    match t:
        case Var(i):
            return Var(i + by) if i >= cutoff else t
        case Lam(h, b):
            return Lam(h, shift(b, by, cutoff + 1))
        case App(f, a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))
    raise TermError(f"cannot shift {t!r}")


def _inst(t: Term, arg: Term, depth: int) -> Term:
    # Every head step runs this, so it dispatches on ``type`` rather than
    # ``match``, whose class patterns cost about three times as much here.
    if t.open_n <= depth:
        return t
    kind = type(t)
    if kind is App:
        return App(_inst(t.fn, arg, depth), _inst(t.arg, arg, depth))
    if kind is Var:
        i = t.index
        if i == depth:
            return shift(arg, depth)
        return Var(i - 1) if i > depth else t
    if kind is Lam:
        return Lam(t.hint, _inst(t.body, arg, depth + 1))
    raise TermError(f"cannot instantiate {t!r}")


def instantiate(body: Term, arg: Term) -> Term:
    """Substitute ``arg`` for index 0 of ``body`` (the beta step payload)."""
    return _inst(body, arg, 0)


def subterm_at(t: Term, pos: Position) -> Term:
    """Subterm addressed by ``pos`` (0 = under binder, 1 = function, 2 = argument)."""
    cur = t
    for k, d in enumerate(pos):
        match cur, d:
            case (Lam(_, b), 0):
                cur = b
            case (App(f, _), 1):
                cur = f
            case (App(_, a), 2):
                cur = a
            case _:
                raise PositionError(
                    f"position {''.join(map(str, pos))!r} invalid at step {k}: "
                    f"{type(cur).__name__} has no direction {d}"
                )
    return cur


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    """Rebuild ``t`` with the subterm at ``pos`` replaced by ``new``: walk
    down collecting the nodes on the path, then rebuild them upward."""
    path: list[Term] = []
    for k, d in enumerate(pos):
        path.append(t)
        if d == 0 and type(t) is Lam:
            t = t.body
        elif d == 1 and type(t) is App:
            t = t.fn
        elif d == 2 and type(t) is App:
            t = t.arg
        else:
            raise PositionError(
                f"position {''.join(map(str, pos[k:]))!r} invalid: "
                f"{type(t).__name__} has no direction {d}"
            )
    for u, d in zip(reversed(path), reversed(pos)):
        new = plug(u, d, new)
    return new


def plug(parent: Term, side: int, u: Term) -> Term:
    """``parent`` with ``u`` for its child on ``side`` (0 body, 1
    function, 2 argument); ``parent`` itself when that child is ``u``."""
    if side == 0:
        return parent if u is parent.body else Lam(parent.hint, u)
    if side == 1:
        return parent if u is parent.fn else App(u, parent.arg)
    return parent if u is parent.arg else App(parent.fn, u)


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """Every subterm with its position, in preorder: a node, then its
    ``0``/``1`` subtree, then its ``2`` subtree.  As directions run
    ``0 < 1 < 2``, this is the lexicographic order of the positions."""
    stack: list[tuple[Term, Position]] = [(t, ())]
    while stack:
        u, p = stack.pop()
        yield p, u
        if type(u) is App:
            stack.append((u.arg, p + (2,)))
            stack.append((u.fn, p + (1,)))
        elif type(u) is Lam:
            stack.append((u.body, p + (0,)))


def positions(t: Term) -> list[Position]:
    """All positions of ``t``, in the (lexicographic) order of ``subterms``."""
    return [p for p, _ in subterms(t)]


def iterate(a: Term, b: Term, n: int) -> Term:
    """Iterated application ``a b b ... b``, with ``n`` copies of ``b``."""
    if n < 0:
        raise TermError("iteration count must be >= 0")
    t = a
    for _ in range(n):
        t = App(t, b)
    return t


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose ``t`` as head applied to arguments."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


class HeadPos:
    """The head-redex position ``0^lams 1^ones``: ``lams`` λ-prefix
    binders, then ``ones`` spine steps.  Head reduction records one per
    step in constant space; ``path`` expands it to the ``Position`` tuple,
    which it equals, hashes, iterates, measures and prints as."""

    __slots__ = ("lams", "ones")

    def __init__(self, lams: int, ones: int):
        self.lams = lams
        self.ones = ones

    @property
    def path(self) -> Position:
        return (0,) * self.lams + (1,) * self.ones

    def __eq__(self, other: object) -> bool:
        if type(other) is HeadPos:
            return self.lams == other.lams and self.ones == other.ones
        return self.path == other

    def __hash__(self) -> int:
        return hash(self.path)

    def __iter__(self) -> Iterator[int]:
        return iter(self.path)

    def __len__(self) -> int:
        return self.lams + self.ones

    def __repr__(self) -> str:
        return repr(self.path)


def pos_str(p: Position | HeadPos) -> str:
    """Render a position; the empty position prints as ``e``.  A
    ``HeadPos`` is its two runs of digits."""
    if type(p) is HeadPos:
        return "0" * p.lams + "1" * p.ones or "e"
    return "".join(map(str, p)) or "e"
