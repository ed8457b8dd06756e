"""Comparing clocked trees, and discriminating terms with them.

Annotation relations (≤, =, ≥ on step counts; subsequence, equality on
step-position lists) are lifted to whole trees either *globally* (at
every mutually resolved position) or *eventually* (from some depth
level on).  On closed cyclic trees the eventual form is decided
exactly: annotations repeat along cycles, so a violation matters iff it
is reachable from a cycle, and otherwise the minimal level is one more
than the deepest violation along the acyclic part.

Both forms unfold the two built graphs in lockstep.  Binders are told
apart by the build's internal names, which each layer keeps in
``block`` and a bound head names in ``head_ref``: two heads match when
they name the same free variable or binders opened at paired layers.

Each tree keeps what exploration reads of it in ``ClockTree.explored``
(a ``_Tables``): for every node an exploration has entered, on either
side, its children with references resolved and the length of each
child step, filled as nodes are entered; and the binders each node's
subtree can still name, found over the whole tree the first time it is
the first side.  Every later exploration that enters the tree reads
them, so a profiled term's tree is prepared once for all its pairs.
They live and die with the tree.

``discriminate`` turns these checks into verdicts.  It never claims
convertibility; an ``inconvertible`` verdict always rests on one of
three bases:

* the trees themselves differ at a mutually resolved position;
* two simple terms (or simple reducts) whose closed trees provably do
  not match eventually;
* a simple term whose closed tree provably does not improve eventually
  on the other side's tree.

Anything weaker yields ``inconclusive``, with evidence saying which
sides had a simple term or simple reduct within the search bounds.

``discriminate`` profiles each term once for every caller in the
process, in the spirit of hash-consing (Filliâtre and Conchon, ML
Workshop 2006): two ``functools.lru_cache``s keep a term's
``check_simple`` report and, once searched for, its simple reduct.
The simple-reduct search reads the first cache too, for the term and
for its closure's end, so ``check_simple`` is the one simplicity check
and a term is checked once whichever role it meets first.
Both are keyed on ``trees._Exact(term)``, so a hit must be the same
term with the same binder hints, and on the bounds each reads: the
report on ``depth`` and ``fuel``, the reduct on those and
``reduct_limit`` (neither on ``atomic``, since a tree records every
step's position either way; the size rule follows from the term).
Each holds at most ``PROFILE_LIMIT`` entries, evicts the least recently
used first, and stores nothing for a call that raises.  A family's fpcs
are shown new pair by pair, so a matrix over up to ``PROFILE_LIMIT``
terms profiles each term once, and explores each term's tree with
tables that its first pair filled.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice, zip_longest

from .reduction import (
    DEFAULT_FUEL,
    REDUCT_LIMIT,
    _count_index,
    _is_simple,
    contract_at,
    is_redex,
    one_step_reducts,
)
from .terms import App, Lam, Term, instantiate, plug, subterms
from .trees import (
    DEFAULT_DEPTH,
    ClockTree,
    Node,
    SimplicityReport,
    _Exact,
    check_simple,
    child_step,
)


class Relation(Enum):
    """A relation on node annotations, liftable to whole trees."""

    LE = "le"
    EQ = "eq"
    GE = "ge"
    SUBSEQ_LE = "subseq_le"
    LIST_EQ = "list_eq"
    SUBSEQ_GE = "subseq_ge"

    def holds_for(self, a: Node, b: Node) -> bool:
        """Apply to annotated nodes ``a``, ``b``."""
        assert a.count is not None and b.count is not None
        return _NODE_TEST[self](a, b)


def subseq_le(q, p) -> bool:
    """Is ``q`` an order-preserving (not necessarily contiguous)
    subsequence of ``p``?  The natural order on atomic clock lists."""
    it = iter(p)
    for x in q:
        for y in it:
            if x == y:
                break
        else:
            return False
    return True


# Each relation's test on two annotated nodes: the one table that
# ``Relation.holds_for`` reads and ``_explore`` binds once per exploration.
_NODE_TEST = {
    Relation.LE: lambda a, b: a.count <= b.count,
    Relation.EQ: lambda a, b: a.count == b.count,
    Relation.GE: lambda a, b: a.count >= b.count,
    Relation.SUBSEQ_LE: lambda a, b: subseq_le(a.steps, b.steps),
    Relation.LIST_EQ: lambda a, b: a.steps == b.steps,
    Relation.SUBSEQ_GE: lambda a, b: subseq_le(b.steps, a.steps),
}


# ---------------------------------------------------------------------------
# product-graph machinery


def _relevant(tree: ClockTree) -> dict[Node, frozenset[str]]:
    """For each node of ``tree``, the binders opened above it that its
    cyclic subtree can still name: its bound head and its children's (a
    reference's being its target's), less its own block.  A least
    fixpoint over the distinct node objects, so a node shared by many
    positions is visited once per pass."""
    relevant: dict[Node, frozenset[str]] = {}
    stack = [tree.root]
    while stack:  # each node once, in preorder, however many positions it fills
        n = stack.pop()
        if n.target is None and n not in relevant:
            relevant[n] = frozenset()
            stack.extend(reversed(n.children))
    nodes = list(relevant)
    changed = True
    while changed:
        changed = False
        for n in reversed(nodes):
            r = n.head_ref
            s = {r[1]} if r is not None and r[0] == "b" else set()
            for c in n.children:
                s.update(relevant[c.target or c])
            s.difference_update(n.block)
            fs = frozenset(s)
            if fs != relevant[n]:
                relevant[n] = fs
                changed = True
    return relevant


class _Tables:
    """What ``_explore`` keeps of one tree (``ClockTree.explored``).

    ``slots`` maps each node an exploration has entered, on either
    side, to its child slots as ``(child, digits)`` pairs: the child
    with a reference resolved to its target, and the length of the
    child step.  ``relevant`` is ``_relevant`` of the tree, made the
    first time the tree is the first side.
    """

    __slots__ = ("slots", "relevant")

    def __init__(self):
        self.slots: dict[Node, tuple[tuple[Node, int], ...]] = {}
        self.relevant: dict[Node, frozenset[str]] | None = None


def _tables(tree: ClockTree) -> _Tables:
    """``tree``'s tables, made empty the first time they are asked for."""
    tables = tree.explored
    if tables is None:
        tables = tree.explored = _Tables()
    return tables


def _slots(n: Node) -> tuple[tuple[Node, int], ...]:
    """``_Tables.slots`` of ``n``."""
    return tuple([(c.target or c, len(child_step(n, i))) for i, c in enumerate(n.children)])


class _Product(namedtuple("_Product", "states edges depth shape_bad ann_bad unknown")):
    """Exploration of the paired unfolding of two trees.

    ``states`` lists the state tuples, and ``edges`` maps a state to its
    ``(child state, digits)`` pairs.  ``depth`` is each state's
    digit-depth from the root pair: the shortest when both trees may
    have references, else that of the state's first position found.
    ``shape_bad`` is the first state whose layers differ, or None;
    ``ann_bad`` the states where the relation fails; ``unknown`` says
    some reachable state is unresolved.
    """

    __slots__ = ()

    def peel(self) -> dict[int, int]:
        """The states not reachable from a cycle, each mapped to its
        longest digit-distance from the root.

        Kahn's peel: repeatedly remove a state with no incoming edge
        left, counting every edge (duplicates and self-loops too).  The
        states left over are exactly those reachable from a cycle (each
        keeps a predecessor that is left over too); the rest form a DAG,
        which the peel empties in topological order, so a running
        maximum over incoming edges gives the longest distances (every
        state is reachable from the root, the only possible source).
        """
        indeg = [0] * len(self.states)
        for kids in self.edges.values():
            for t, _ in kids:
                indeg[t] += 1
        best = [0] * len(self.states)
        longest: dict[int, int] = {}
        todo = [s for s, d in enumerate(indeg) if not d]
        while todo:
            s = todo.pop()
            longest[s] = best[s]
            for t, w in self.edges.get(s, ()):
                best[t] = max(best[t], best[s] + w)
                indeg[t] -= 1
                if not indeg[t]:
                    todo.append(t)
        return longest


def _explore(t1: ClockTree, t2: ClockTree, rel: Relation) -> _Product:
    """Pair the unfoldings of ``t1`` and ``t2``, breadth-first.

    A state is the two nodes plus the binder pairing in force there:
    pairs ``(x, y)`` of internal names from the layers' ``block``,
    restricted to the binders side 1 can still mention below its node.
    References are followed to their targets, so a finite graph gives
    finitely many states.  Each node's children and step lengths come
    from its tree's ``_Tables``, filled as nodes are entered.

    A state met again keeps its first depth unless both trees may hold
    references (``ClockTree.refs``).  If either tree has none, each of
    its positions lies in one state, and breadth-first order meets a
    state first at its earliest position: a state met twice then only
    stands for several positions of a shared node, and its depth stays
    the one its first position has in the tree of one node per position.
    """
    if t1.semantics != t2.semantics:
        raise ValueError(
            f"cannot compare {t1.semantics!r} tree with {t2.semantics!r} tree"
        )
    tables = _tables(t1)
    if tables.relevant is None:
        tables.relevant = _relevant(t1)
    relevant = tables.relevant
    slots_a, slots_b = tables.slots, _tables(t2).slots
    test = _NODE_TEST[rel]
    lower = t1.refs and t2.refs

    a0, b0 = t1.root, t2.root
    empty: frozenset = frozenset()
    states: list[tuple[Node, Node, frozenset]] = [(a0, b0, empty)]
    key = {(a0, b0, empty): 0}
    edges: dict[int, list[tuple[int, int]]] = {}
    depth = {0: 0}
    shape_bad: int | None = None
    ann_bad: set[int] = set()
    unknown = False
    i = 0
    while i < len(states):
        a, b, rho = states[i]
        if a.kind == "unknown" or b.kind == "unknown":
            unknown = True
            i += 1
            continue
        ba, bb = a.block, b.block
        ok = (a.kind == b.kind and len(ba) == len(bb)
              and len(a.children) == len(b.children))
        pairing = rho
        if ok and ba:
            # opening a block shadows, on either side, whatever its
            # binders were previously paired with
            pairing = frozenset(zip(ba, bb))
            if rho:
                pairing |= {(x, y) for x, y in rho if y not in bb}
        if ok:
            ra, rb = a.head_ref, b.head_ref
            if ra is None or rb is None or "f" in (ra[0], rb[0]):
                ok = ra == rb
            else:  # two bound heads; the trees number their binders apart
                ok = (ra[1], rb[1]) in pairing
        if not ok:
            if shape_bad is None:
                shape_bad = i
            i += 1
            continue
        if a.count is not None and b.count is not None and not test(a, b):
            ann_bad.add(i)
        sa = slots_a.get(a)
        if sa is None:
            sa = slots_a[a] = _slots(a)
        sb = slots_b.get(b)
        if sb is None:
            sb = slots_b[b] = _slots(b)
        d = depth[i]
        kid_edges = []
        for (na, w), (nb, _) in zip(sa, sb):
            if pairing:
                keep = relevant[na]
                rho_c = frozenset([p for p in pairing if p[0] in keep])
            else:
                rho_c = empty
            k = (na, nb, rho_c)
            j = key.get(k)
            if j is None:
                j = len(states)
                key[k] = j
                states.append(k)
                depth[j] = d + w
            elif lower and d + w < depth[j]:
                depth[j] = d + w
            kid_edges.append((j, w))
        edges[i] = kid_edges
        i += 1
    return _Product(states, edges, depth, shape_bad, ann_bad, unknown)


# ---------------------------------------------------------------------------
# the lifted relations


def holds_globally(t1: ClockTree, t2: ClockTree, rel: Relation) -> bool | None:
    """Equal layer structure and ``rel`` at every mutually resolved
    position; None when unresolved subtrees leave this undetermined."""
    prod = _explore(t1, t2, rel)
    if prod.shape_bad is not None or prod.ann_bad:
        return False
    return None if prod.unknown else True


class EventualResult(namedtuple("EventualResult", "holds level certified")):
    """Outcome of an eventual (from some depth on) tree comparison.

    ``certified`` distinguishes an exact answer over the finite cycle
    graph from bounded-depth evidence on trees with unresolved parts.
    Only a holding result can be uncertified: a failing one rests on a
    layer difference or a violation that recurs along a cycle, both
    definite.  For a holding result ``level`` is the least depth that
    works; for a failing one it is the depth of a witnessing violation.
    """

    __slots__ = ()


def holds_eventually(t1: ClockTree, t2: ClockTree, rel: Relation) -> EventualResult:
    """Decide whether ``rel`` holds from some position length on.

    The answer is certified when the violation recurs along a cycle (a
    definite no) or when every reachable pair is resolved (then the
    finite graph covers the whole unfolding).  A layer-structure
    difference is a certified no outright.
    """
    return _eventually(_explore(t1, t2, rel))


def _eventually(prod: _Product) -> EventualResult:
    """``holds_eventually`` of the two trees that ``prod`` pairs."""
    if prod.shape_bad is not None:
        return EventualResult(False, prod.depth[prod.shape_bad], True)
    level = 0
    if prod.ann_bad:
        longest = prod.peel()
        bad_forever = [s for s in prod.ann_bad if s not in longest]
        if bad_forever:
            lvl = min(prod.depth[s] for s in bad_forever)
            return EventualResult(False, lvl, True)
        level = max(longest[s] for s in prod.ann_bad) + 1
    return EventualResult(True, level, not prod.unknown)


# ---------------------------------------------------------------------------
# reduct search

# The search bounds: terms made or contractions (``reduct_limit``, by
# default ``REDUCT_LIMIT``), and the floor of the size rule
# (``_size_limit``).
SIZE_LIMIT = 500


def _size_limit(t: Term) -> int:
    """The one size rule of every search from ``t``: no term larger than
    ``max(SIZE_LIMIT, 2 * t.size)``, so that a larger input keeps room
    to reduce."""
    return max(SIZE_LIMIT, 2 * t.size)


def _frontier(t: Term, limit: int, smallest_first: bool) -> Iterator[Term]:
    """Yield ``t``, then the one-step reducts of each term yielded, in
    redex order: each once up to renaming, at most ``limit`` made, ``t``
    included, and none over ``_size_limit(t)``.  They come in the order
    made, or smallest first (ties in the order made).  A term's reducts
    are made only when the next term is asked for, and not walked at all
    once ``limit`` terms are made."""
    size_limit = _size_limit(t)
    seen = {t}
    heap = [(0, 0, t)]
    while heap:
        cur = heappop(heap)[2]
        yield cur
        # lazy, so each reduct is tested against the ones added before it
        new = (r for r in one_step_reducts(cur)
               if r.size <= size_limit and r not in seen)
        for r in islice(new, max(limit - len(seen), 0)):
            seen.add(r)
            heappush(heap, (r.size if smallest_first else 0, len(seen), r))


def enumerate_reducts(t: Term, limit: int = REDUCT_LIMIT) -> list[Term]:
    """Breadth-first closure of ``t`` under single reduction steps (the
    term itself first), deduplicated up to renaming; terms over
    ``_size_limit(t)`` are pruned, at most ``limit`` terms are
    produced."""
    return list(_frontier(t, limit, False))


def bounded_joinable(a: Term, b: Term, limit: int = REDUCT_LIMIT) -> Term | None:
    """A common reduct of ``a`` and ``b``, up to renaming, or None.

    Best-first on term size: the two sides take turns, each taking the
    smallest term left on its frontier (at most ``limit`` made, each
    side's size rule its own), and they meet when one side takes a term
    the other has taken.  The first side's term is returned, so
    ``bounded_joinable(a, a)`` is ``a``.  None when both frontiers run
    dry without a meeting."""
    left: dict[Term, Term] = {}
    right: set[Term] = set()
    for x, y in zip_longest(_frontier(a, limit, True), _frontier(b, limit, True)):
        if x is not None:
            if x in right:
                return x
            left[x] = x
        if y is not None:
            if y in left:
                return left[y]
            right.add(y)
    return None


def _passed_over(u: App, room: int) -> bool:
    """Does the closure pass over the redex ``u``?  It does when ``u`` is
    a non-linear self-application ``W W``, whose contractum gives ``u``
    back, and when its contractum would add more than ``room`` nodes to
    the term.  A linear redex does neither."""
    k = _count_index(u.fn.body, 0)
    return k > 1 and (u.fn == u.arg or (k - 1) * (u.arg.size - 1) - 3 > room)


def _closure(t: Term, limit: int) -> Term:
    """The simple-redex closure of ``t``, stopped after ``limit``
    contractions.

    A walk in postorder (function side, argument side, then the node)
    contracts each simple redex it meets, as ``_is_simple`` tells, and
    walks the contractum next.  The walk leaves all that it has passed
    unchanged, and whether a redex is simple depends on the redex alone,
    so each time it contracts the leftmost innermost simple redex.  When
    a walk ends at the root without one, the outermost redex is
    contracted and a new walk starts.  Both steps pass over the redexes
    that ``_passed_over`` names, against the room left under
    ``_size_limit(t)``.

    The walk is a zipper (Huet, "The Zipper", JFP 7(5), 1997): ``path``
    holds the ancestors of the focus ``u``, each with the side the walk
    went down, and a subterm is rebuilt only when the walk leaves it
    changed."""
    room = _size_limit(t) - t.size
    u = t
    path: list[tuple[Term, int]] = []
    down = True
    made = 0
    while made < limit:
        while down and type(u) in (App, Lam):
            if type(u) is App:
                path.append((u, 1))
                u = u.fn
            else:
                path.append((u, 0))
                u = u.body
        down = False
        if is_redex(u) and _is_simple(u.fn.body, u.arg) and not _passed_over(u, room):
            r = instantiate(u.fn.body, u.arg)
        elif path:
            parent, side = path.pop()
            u = plug(parent, side, u)
            if side == 1:
                path.append((u, 2))
                u, down = u.arg, True
            continue
        else:  # a walk without a simple redex: the outermost redex
            p = next((p for p, v in subterms(u)
                      if is_redex(v) and not _passed_over(v, room)), None)
            if p is None:
                break
            r = contract_at(u, p)
        room -= r.size - u.size
        u, down = r, True
        made += 1
    while path:
        parent, side = path.pop()
        u = plug(parent, side, u)
    return u


def find_simple_reduct(
    t: Term,
    depth: int = DEFAULT_DEPTH,
    fuel: int = DEFAULT_FUEL,
    limit: int = REDUCT_LIMIT,
) -> tuple[Term, SimplicityReport] | None:
    """A reduct of ``t`` whose every tree-computing head step is simple.

    ``t`` itself when it is simple, else the end of ``_closure(t,
    limit)`` when that is, and None otherwise: a strategy, not a search,
    so at most two terms are checked, ``t`` and the closure's end.  Both
    reports come from the profile cache ``_report``, so a term that
    ``discriminate`` has checked, or an end that is an already-checked
    term with the same binder hints, is not checked again.
    """
    report = _report(_Exact(t), depth, fuel)
    if report:
        return t, report
    end = _closure(t, limit)
    if end == t:
        return None
    report = _report(_Exact(end), depth, fuel)
    return (end, report) if report else None


# ---------------------------------------------------------------------------
# verdicts


INCONVERTIBLE = "inconvertible"
INCONCLUSIVE = "inconclusive"


class Verdict(namedtuple("Verdict", "conclusion justification evidence")):
    """What the comparison established about β-convertibility: the
    ``conclusion`` (``INCONVERTIBLE`` or ``INCONCLUSIVE``), its
    ``justification`` (see ``discriminate``) and the ``evidence`` dict."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.conclusion == INCONVERTIBLE

    def to_dict(self) -> dict:
        return self._asdict()


DiscriminationConfig = namedtuple(
    "DiscriminationConfig", "depth fuel atomic reduct_limit",
    defaults=(DEFAULT_DEPTH, DEFAULT_FUEL, False, REDUCT_LIMIT),
)


PROFILE_LIMIT = 256  # entries of each profile cache (module docstring)


@lru_cache(maxsize=PROFILE_LIMIT)
def _report(key: _Exact, depth: int, fuel: int) -> SimplicityReport:
    """``check_simple`` of the key's term, keyed on the only bounds it
    reads: a change of a search bound checks no term again."""
    return check_simple(key.term, depth, fuel)


@lru_cache(maxsize=PROFILE_LIMIT)
def _simple_reduct(
    key: _Exact, depth: int, fuel: int, reduct_limit: int
) -> tuple[Term, SimplicityReport] | None:
    """The key's term's simple reduct, a simple term being its own."""
    return find_simple_reduct(key.term, depth, fuel, reduct_limit)


def discriminate(
    m: Term, n: Term, config: DiscriminationConfig | None = None
) -> Verdict:
    """Try to establish that ``m`` and ``n`` are not β-convertible.

    Pipeline: (1) a structural difference between the trees at a
    mutually resolved position is definitive on its own; (2) when both
    sides have simple reducts (a simple term is its own), a certified
    failure of eventual matching of their closed trees is definitive;
    (3) when one side has a simple reduct, a certified failure of that
    side improving eventually on the other is definitive.  Otherwise the
    verdict is inconclusive, and its evidence's ``simple_reduct`` says
    for each side whether it is simple or its simple-redex closure
    (``_closure``, at most ``reduct_limit`` contractions under the size
    rule) ends at a simple term: a ``False`` names a side whose closure
    did not, and two ``True`` mean both closed trees agree eventually.

    Each side's simplicity report and simple reduct come from the
    module's profile caches (``_report`` and ``_simple_reduct``), so a
    term met in an earlier call with the same bounds is neither checked
    nor searched again; the search runs only when step (1) leaves the
    pair open.
    """
    cfg = config or DiscriminationConfig()
    eq_rel = Relation.LIST_EQ if cfg.atomic else Relation.EQ
    le_rel = Relation.SUBSEQ_LE if cfg.atomic else Relation.LE

    # comparison reads the recorded steps, never ``ClockTree.atomic``
    km, kn = _Exact(m), _Exact(n)
    tm, tn = _report(km, cfg.depth, cfg.fuel).tree, _report(kn, cfg.depth, cfg.fuel).tree
    base = {
        "depth": cfg.depth,
        "fuel": cfg.fuel,
        "atomic": cfg.atomic,
        "closed": [tm.closed, tn.closed],
    }

    # (1) the trees themselves differ
    prod = _explore(tm, tn, eq_rel)
    if prod.shape_bad is not None:
        a, b, _ = prod.states[prod.shape_bad]
        return Verdict(
            INCONVERTIBLE,
            "different-bt",
            base
            | {
                "position_depth": prod.depth[prod.shape_bad],
                "kinds": [a.kind, b.kind],
            },
        )

    # (2)/(3) need simple reducts, a simple side being its own; a simple
    # report's tree is closed, and it is the tree to compare
    sm = _simple_reduct(km, cfg.depth, cfg.fuel, cfg.reduct_limit)
    sn = _simple_reduct(kn, cfg.depth, cfg.fuel, cfg.reduct_limit)
    tsm = sm[1].tree if sm else None
    tsn = sn[1].tree if sn else None

    if tsm is not None and tsn is not None:
        # two simple sides are compared as in (1), so its product serves
        same = tsm is tm and tsn is tn
        ev = _eventually(prod if same else _explore(tsm, tsn, eq_rel))
        if not ev.holds:
            return Verdict(
                INCONVERTIBLE,
                "simple-eventual-mismatch",
                base | {"level": ev.level, "relation": eq_rel.value},
            )

    for tree_simple, tree_other, side in (
        (tsm, tn, "first"),
        (tsn, tm, "second"),
    ):
        if tree_simple is None:
            continue
        ev = holds_eventually(tree_simple, tree_other, le_rel)
        if not ev.holds:
            return Verdict(
                INCONVERTIBLE,
                "simple-no-improvement",
                base
                | {
                    "level": ev.level,
                    "relation": le_rel.value,
                    "simple_side": side,
                },
            )

    return Verdict(
        INCONCLUSIVE,
        "none",
        base | {"simple_reduct": [sm is not None, sn is not None]},
    )
