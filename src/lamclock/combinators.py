"""A catalog of combinators and fixed-point constructions.

Most names here are plain constructors: named standard combinators, the
two classic fixed-point combinators and the sequences generated from
them (postfixed owls, composition vectors, iterated argument schemes),
and the self-application terms used to probe duplication behaviour.
Beside them sit the scan for a nonzero clock on a duplicator's right
forks, the pulse count of an atomic spine clock, and the lookup of a
construction by name.

A combinatory term is an ordinary term built by application from K and
S, such as ``parse("S K (K S)", standard_definitions())``.
"""

from __future__ import annotations

from .parser import DefinitionTable
from .terms import App, Free, Lam, Position, Term, Var, app, iterate, lam
from .trees import DEFAULT_DEPTH, compact_cyclic, node_at

_DEFS_TEXT = r"""
I = \x.x;
K = \x y.x;
S = \x y z.x z(y z);
B = \f g x.f(g x);
delta = \a b.b(a b);
Y0 = \f.(\x.f(x x))(\x.f(x x));
eta = \a b.b(a a b);
Y1 = eta eta;
theta = \a b c.b c(a a b c);
Sdup = \a b c.b c(a b c);
E1 = (\x.x x)(\w.\z.z(\a b c.a b((w w b)(w w c))));
E2 = (\x.x x)(\w.\z.z(\a b c.a b(S(\z.z b)(\z.z c)(w w))));
E3 = \z.z((\x.x x)(\w a b c.a b(S b c(w w))));
"""

_BASE = DefinitionTable.from_text(_DEFS_TEXT)


def standard_definitions() -> DefinitionTable:
    """A fresh definition table with the named standard combinators."""
    return _BASE.copy()


def _d(name: str) -> Term:
    return _BASE[name]


# handy constants (closed, safe to share: terms are immutable)
I = _d("I")
K = _d("K")
S = _d("S")
B = _d("B")
DELTA = _d("delta")
Y0 = _d("Y0")
ETA = _d("eta")
Y1 = _d("Y1")
THETA = _d("theta")
SDUP = _d("Sdup")  # the normal form of S S
E1 = _d("E1")
E2 = _d("E2")
E3 = _d("E3")


def omega_of() -> Term:
    """λx.f(xx) with f free."""
    return Lam("x", App(Free("f"), App(Var(0), Var(0))))


def bohm_seq(n: int) -> Term:
    """The n-th member of the owl-postfixing sequence: ηη δ…δ with
    n−1 owls (n ≥ 1); each postfix yields a new fixed-point combinator."""
    if n < 1:
        raise ValueError("bohm_seq needs n >= 1")
    return iterate(Y1, DELTA, n - 1)


def scott_seq(n: int) -> Term:
    """(B Y0) S…S I with n composition combinators (n ≥ 0)."""
    if n < 0:
        raise ValueError("scott_seq needs n >= 0")
    return App(iterate(App(B, Y0), S, n), I)


def gvector(y: Term | None = None, n: int = 0) -> Term:
    """y(SS) S…S I — the vector that turns any fixed-point combinator
    into another one; defaults to the two-step combinator ηη."""
    if y is None:
        y = Y1
    if n < 0:
        raise ValueError("gvector needs n >= 0")
    return App(iterate(App(y, App(S, S)), S, n), I)


def bbb_scheme(y: Term | None = None, n: int = 0) -> Term:
    """B B B y A…A I I with A = BS (n ≥ 0 copies)."""
    if y is None:
        y = Y0
    if n < 0:
        raise ValueError("bbb_scheme needs n >= 0")
    a = App(B, S)
    return app(iterate(app(B, B, B, y), a, n), I, I)


def dummy_scheme(y: Term | None = None, params: tuple[Term, ...] = ()) -> Term:
    """y Q P₁…Pₙ where Q = λy p₁…pₙ x. x(y p₁…pₙ x) threads the given
    parameter terms through every unfolding without using them."""
    if y is None:
        y = Y0
    n = len(params)
    # body under binders y, p1..pn, x  (de Bruijn: x=0, pn=1, ..., y=n+1)
    inner = app(Var(n + 1), *[Var(n + 1 - i) for i in range(1, n + 1)], Var(0))
    q = lam(["y"] + [f"p{i}" for i in range(1, n + 1)] + ["x"], App(Var(0), inner))
    return app(y, q, *params)


def scott_composite(ns: list[int] | tuple[int, ...]) -> Term:
    """Y0 with the fpc-generating vector ·(SS) S…S I applied once per
    entry: entry nᵢ contributes (SS) followed by nᵢ S's and an I."""
    if any(n < 0 for n in ns):
        raise ValueError("scott_composite entries must be >= 0")
    t = Y0
    for n in ns:
        t = gvector(t, n)
    return t


def scott_composite_simplified(ns: list[int] | tuple[int, ...]) -> Term:
    """The simple reduct of ``scott_composite(ns)`` used for atomic
    clock analysis: θθ S…S I, then per further entry the normal form
    of SS followed by S's and an I."""
    if not ns:
        raise ValueError("need at least one entry")
    if any(n < 0 for n in ns):
        raise ValueError("entries must be >= 0")
    t = App(iterate(App(THETA, THETA), S, ns[0]), I)
    for n in ns[1:]:
        t = App(iterate(App(t, SDUP), S, n), I)
    return t


def wfpc_flipflop(which: int = 0) -> Term:
    """A pair of mutually recursive weak fixed-point combinators:
    Z x → x(Z' x) and Z' x → x(Z x), so each yields the output spine
    while the generator alternates.  ``which`` selects Z (0) or Z' (1).
    Built by solving the two equations with one fixed-point combinator
    over a two-component selector."""
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    tru = lam(["x", "y"], Var(1))
    fls = lam(["x", "y"], Var(0))
    # p = Y0 (λp s. s (λx.x(p false x)) (λx.x(p true x)))
    gen = lam(
        ["p", "s"],
        app(
            Var(0),
            lam("x", App(Var(0), app(Var(2), fls, Var(0)))),
            lam("x", App(Var(0), app(Var(2), tru, Var(0)))),
        ),
    )
    pair = App(Y0, gen)
    return App(pair, tru if which == 0 else fls)


# ---------------------------------------------------------------------------
# duplication probes


def plotkin_A(y: Term | None = None) -> Term:
    """y(λz.fzz) with f free."""
    if y is None:
        y = Y1
    return App(y, lam("z", app(Free("f"), Var(0), Var(0))))


def plotkin_B(y: Term | None = None) -> Term:
    """y(λx.y(λy'.fxy')) with f free."""
    if y is None:
        y = Y1
    inner = lam("y'", app(Free("f"), Var(1), Var(0)))
    return App(y, lam("x", App(y, inner)))


def plotkin_Bprime(y: Term | None = None) -> Term:
    """y(λx.fx(fx(y(λy'.fxy')))) with f free."""
    if y is None:
        y = Y1
    inner = lam("y'", app(Free("f"), Var(1), Var(0)))
    body = app(
        Free("f"),
        Var(0),
        app(Free("f"), Var(0), App(y, inner)),
    )
    return App(y, Lam("x", body))


def plotkin_nonzero_witness(t: Term, depth: int = DEFAULT_DEPTH) -> Position | None:
    """First position of shape (12)*2 whose clock annotation is
    nonzero, scanning the cyclic clocked tree; None if all such
    positions resolved within ``depth`` are zero."""
    tree = compact_cyclic(t, depth)
    for m in range(depth):
        pos = (1, 2) * m + (2,)
        node = node_at(tree, pos)
        if node is None:
            break
        if node.count:
            return pos
    return None


# ---------------------------------------------------------------------------
# atomic clock pattern analysis


def ones_exponents(steps) -> list[int]:
    """Turn an atomic annotation whose positions are all spine
    positions 1…1 into the list of their lengths."""
    out = []
    for p in steps:
        if any(d != 1 for d in p):
            raise ValueError(f"non-spine position {p!r}")
        out.append(len(p))
    return out


def pulse_pattern_count(exponents) -> int:
    """Occurrences of the window l, l+1, l, l−1, l−2 — the signature an
    inner vector leaves in an atomic spine clock.  Counting them (and
    measuring the blocks in between) recovers how a composite
    fixed-point combinator was assembled."""
    e = list(exponents)
    count = 0
    for i in range(len(e) - 4):
        l = e[i]
        if e[i + 1] == l + 1 and e[i + 2] == l and e[i + 3] == l - 1 and e[i + 4] == l - 2:
            count += 1
    return count


# ---------------------------------------------------------------------------
# the catalog


# how many counts or terms an entry takes
_NONE, _OPT, _ONE, _ANY = range(1), range(2), range(1, 2), range(1 << 30)
_HOW = {_NONE: "no {}s", _OPT: "at most one {}", _ONE: "one {}", _ANY: "any number of {}s"}

# name -> (constructor, the counts it takes, the terms it takes).  An
# entry that takes terms gets them first, None standing for an omitted
# combinator, then its counts.  An entry that takes neither is plain.
_ENTRIES = {
    "i": (lambda: I, _NONE, _NONE),
    "k": (lambda: K, _NONE, _NONE),
    "s": (lambda: S, _NONE, _NONE),
    "b": (lambda: B, _NONE, _NONE),
    "delta": (lambda: DELTA, _NONE, _NONE),
    "y0": (lambda: Y0, _NONE, _NONE),
    "eta": (lambda: ETA, _NONE, _NONE),
    "y1": (lambda: Y1, _NONE, _NONE),
    "theta": (lambda: THETA, _NONE, _NONE),
    "omega-f": (omega_of, _NONE, _NONE),
    "e1": (lambda: E1, _NONE, _NONE),
    "e2": (lambda: E2, _NONE, _NONE),
    "e3": (lambda: E3, _NONE, _NONE),
    "bbb-scheme": (bbb_scheme, _OPT, _OPT),
    "bohm-seq": (bohm_seq, _ONE, _NONE),
    "dummy-scheme": (lambda y, *ps: dummy_scheme(y, ps), _NONE, _ANY),
    "gvector": (gvector, _OPT, _OPT),
    "plotkin-a": (plotkin_A, _NONE, _OPT),
    "plotkin-b": (plotkin_B, _NONE, _OPT),
    "plotkin-bprime": (plotkin_Bprime, _NONE, _OPT),
    "scott-composite": (lambda *ns: scott_composite(ns), _ANY, _NONE),
    "scott-seq": (scott_seq, _ONE, _NONE),
    "wfpc-flipflop": (wfpc_flipflop, _OPT, _NONE),
}


def catalog_names() -> list[str]:
    """The plain names, then the families, each sorted."""
    return sorted(_ENTRIES, key=lambda k: (_ENTRIES[k][1:] != (_NONE, _NONE), k))


def catalog(name: str, *params) -> Term:
    """Look up a named construction.

    Counts (ints) and terms may come in any order, each kind keeping its
    own.  An entry taking a combinator argument defaults to the standard
    choice when it is omitted.  A parameter the entry does not take is a
    ``ValueError``.
    """
    key = name.strip().lower().replace("_", "-")
    if key not in _ENTRIES:
        raise ValueError(f"unknown catalog name {name!r}")
    make, counts, terms = _ENTRIES[key]
    ints = [p for p in params if isinstance(p, int)]
    ts = [p for p in params if isinstance(p, Term)]
    if len(ints) + len(ts) < len(params) or len(ints) not in counts or len(ts) not in terms:
        raise ValueError(f"{name} takes {_HOW[counts].format('count')} and "
                         f"{_HOW[terms].format('term')}; got {len(params)} parameter(s): "
                         f"{len(ints)} count(s), {len(ts)} term(s)")
    return make(*(ts or [None]), *ints) if terms != _NONE else make(*ints)
