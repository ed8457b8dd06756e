"""Clocked semantic trees.

A tree node records the head reduction that produced it: the number of
steps and the position of every contracted redex.  Three semantics are
supported:

* ``bt``  — nodes are head normal forms ``\\x1..xn. y M1 .. Mm``;
* ``llt`` — nodes are weak head normal forms (single-binder lambda
  layers, or variable-headed spines);
* ``bet`` — nodes are root-stable forms (a variable, a lambda layer, or
  an application whose function side provably never becomes an
  abstraction).

Every node is one ``Node`` class, told apart by its ``kind``.  A
``bottom`` node marks *proven* divergence, an ``unknown`` one an
exhausted depth or fuel budget.  With ``cyclic`` construction, a node
whose generating term literally repeats an ancestor's (equal up to
binder renaming, free variables naming the same binders) becomes a
``backedge``, and one that repeats an already finished self-contained
cyclic subtree elsewhere in the tree becomes a ``shared`` reference to
it; a tree whose every unfinished frontier is a back edge, shared
reference or ``bottom`` is *closed* and fully describes the infinite
unfolding.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from functools import partial

from .parser import _pick_name
from .reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    PROVEN_DIVERGENT,
    RESOLVED,
    _is_simple,
    head_reduce,
)
from .terms import (
    App,
    Free,
    HeadPos,
    Lam,
    Position,
    Term,
    TermError,
    free_vars,
    instantiate,
    pos_str,
    spine,
)

DEFAULT_DEPTH = 12

_SEMANTICS = ("bt", "llt", "bet")
_TARGET = {"bt": "hnf", "llt": "whnf", "bet": "root_stable"}


class Node:
    """A tree node: its ``kind``, the head steps that produced it, and
    the fields its kind uses.

    ``kind`` is one of

    * ``hnf``  (``bt``): the binder block, the head variable, one subtree
      per argument;
    * ``lam``  (``llt``, ``bet``): one binder, the body as the only child;
    * ``head`` (``llt``): a variable-headed spine, no binders entered;
    * ``var``  (``bet``): a bare variable, no children;
    * ``app``  (``bet``): a root-stable application, children ``(fn, arg)``;
    * ``bottom``: proven divergence, the target form is never reached;
    * ``unknown``: a budget ran out, ``reason`` says which (``"depth"``
      or ``"fuel"``); nothing is claimed about this subtree;
    * ``backedge``: a pointer to ``target``, the ancestor with the same
      unfolding ``delta`` node levels up;
    * ``shared``: a cross link to ``target``, an already built subtree
      with the same unfolding.  Only *self-contained* subtrees (no
      internal back edge pointing above their root) are ever shared, so
      the target reads the same from any position that references it.

    The first five kinds are the layers.  A layer's ``steps`` are its
    clock and ``count`` is ``len(steps)``; both are None on the other
    four kinds and on a stripped layer.  ``block`` holds the build's
    internal names of the binders a layer opens, one per entry of
    ``binders`` (which are display names, and may repeat across layers);
    the internal names are unique per node object.  A node that an
    acyclic build shares reuses its names at each position it fills,
    which no path passes twice.  ``head_ref`` says
    what the head names: ``("f", name)`` for a free variable,
    ``("b", internal)`` for the binder opened under that internal name
    by this layer or one above it.  ``target`` is set only on the two
    references.
    """

    __slots__ = ("kind", "steps", "count", "binders", "head", "head_ref", "children",
                 "block", "target", "delta", "reason")

    def __init__(self, kind: str, steps: tuple[HeadPos, ...] | None = None,
                 binders: tuple[str, ...] = (), head: str | None = None,
                 head_ref: tuple | None = None, children: tuple["Node", ...] = (),
                 block: tuple[str, ...] = (), target: "Node | None" = None,
                 delta: int | None = None, reason: str | None = None):
        self.kind = kind
        self.steps = steps
        self.count = None if steps is None else len(steps)
        self.binders = binders
        self.head = head
        self.head_ref = head_ref
        self.children = children
        self.block = block
        self.target = target
        self.delta = delta
        self.reason = reason

    def clock(self, atomic: bool = False):
        if atomic:
            return None if self.steps is None else [pos_str(p) for p in self.steps]
        return self.count


class ClockTree:
    """A built tree plus the parameters it was built with.

    ``root`` may be a DAG: an acyclic build shares the subtrees it
    repeats, so one node object can fill several positions.  Every
    reader works per position, as ``walk`` yields them.

    ``closed``, recorded by the build, says the tree has no ``unknown``
    frontier: the finite structure describes the whole unfolding.
    ``explored`` holds what product exploration keeps of the tree
    (``compare._Tables``), made by the first comparison that enters it;
    it lives and dies with the tree.  ``refs`` says the tree may hold a
    back edge or shared reference: a build records whether it does, any
    other tree is taken to."""

    __slots__ = ("root", "semantics", "atomic", "depth", "fuel", "closed", "explored", "refs")
    root: Node
    semantics: str
    atomic: bool
    depth: int
    fuel: int
    closed: bool
    explored: object
    refs: bool

    def __init__(self, root: Node, semantics: str, atomic: bool, depth: int, fuel: int,
                 closed: bool) -> None:
        self.root = root
        self.semantics = semantics
        self.atomic = atomic
        self.depth = depth
        self.fuel = fuel
        self.closed = closed
        self.explored = None
        self.refs = True

    def node_count(self) -> int:
        return sum(1 for _ in walk(self))


def walk(
    tree: ClockTree,
) -> Iterator[tuple[Node, Position | None, int, Node | None, Position | None]]:
    """Preorder over the built graph, with an explicit stack.

    Yields ``(node, pos, depth, target, target_pos)`` for every node,
    back edge and shared reference, once for each position it fills: a
    node an acyclic build shares comes once per position, with its
    whole subtree.  ``depth`` is the number of tree edges from the
    root.  Only back edges and shared references carry
    positions: ``pos`` is the reference's applicative position,
    ``target`` the node it stands for and ``target_pos`` where that node
    sits.  Every other node yields None in those three entries.
    References are not entered, and both kinds resolve the same way: a
    back edge's target is an ancestor and a shared ref's was finished
    before the ref was built, so either is yielded before the reference.

    A stack frame is ``(node, parent frame, slot, depth)``, a zipper
    (Huet, "The Zipper", JFP 7(5), 1997): a position is made from the
    parent links, and only when a reference is yielded.
    """
    defined: dict[int, tuple] = {}  # id(node) -> the frame it was yielded from
    stack: list[tuple] = [(tree.root, None, 0, 0)]
    while stack:
        frame = stack.pop()
        n, _, _, depth = frame
        target = n.target
        if target is not None:
            yield n, _frame_pos(frame), depth, target, _frame_pos(defined[id(target)])
        else:
            defined[id(n)] = frame
            yield n, None, depth, None, None
            kids = n.children
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], frame, i, depth + 1))


def _frame_pos(frame: tuple) -> Position:
    """The applicative position of a ``walk`` frame's node."""
    steps = []
    _, parent, slot, _ = frame
    while parent is not None:
        steps.append(child_step(parent[0], slot))
        _, parent, slot, _ = parent
    return tuple(itertools.chain.from_iterable(reversed(steps)))


# ---------------------------------------------------------------------------
# construction


def _build(
    t0: Term,
    semantics: str,
    depth: int,
    fuel: int,
    cyclic: bool,
    atomic: bool,
    hook=None,
) -> ClockTree:
    """The tree of ``t0``; ``hook`` is ``compact_cyclic``'s.

    Each node is made right after its head reduction, and one loop then
    builds its children whatever the semantics, so a back edge can hold
    the ancestor node it returns to, as a shared ref holds its target.
    The root's ``complete`` flag is the tree's ``closed``.

    Each distinct generating term is head-reduced once per build, a
    per-build form of hash-consing (Filliâtre and Conchon, "Type-safe
    modular hash-consing", ML Workshop 2006).  Self-similar trees meet
    the same term again and again: a fixed point combinator unfolds as
    ``Y x ->> x (Y x)``, so every level of ``bohm_seq(40) x`` is the same
    term, rebuilt, and ``plotkin_B(Y1)``'s 4095 layers at depth 12 hold
    two distinct terms.  Reusing the outcome is exact, since target and
    fuel are fixed for the build and head reduction is deterministic.
    The outcomes are keyed on ``_Exact(term)``, so a hit must be the
    same term with the same binder hints: ``==`` ignores them, and the
    displayed binder names come from the result's hints.  Only what
    a node reads is kept: the status, and for a resolved term its steps
    and result, so the step positions of a term that ran out of fuel are
    freed as soon as it is reduced, however many there are.

    An acyclic build also makes each repeated layer's subtree once: the
    finished subtree is keyed on ``(_Exact(term), level, taken)`` and
    returned again wherever that key comes up, so the tree is a DAG
    whose unfolding is the tree of one node per position, and depth-12
    ``plotkin_B(Y1)`` holds 27 node objects for its 8191 positions.  The
    level is in the key because the depth bound cuts the subtree, and
    ``taken`` because the display names are picked from it; the term
    fixes every other input, its free internal names included.  A cyclic
    build shares only through ``shared`` references: ``walk`` gives a
    reference the position of its target, which a node silently filling
    two positions would leave ambiguous.  ``ClockTree.refs`` records
    whether the build made a reference."""
    if semantics not in _SEMANTICS:
        raise ValueError(f"unknown tree semantics {semantics!r}")
    if t0.open_n:
        raise TermError("tree construction needs a term with no unbound indices")
    target = _TARGET[semantics]
    counter = itertools.count()
    # internal binder name -> display name; internal names are unique
    # within the build, so they are the binder identities a head names
    opened: dict[str, str] = {}
    INF = float("inf")
    # generating term -> (level, node) while the node's subtree is built,
    # then (None, node) if the subtree can be shared; any other finished
    # entry is deleted
    seen: dict[Term, tuple[int | None, Node]] = {}
    # one (key, status, steps, result) per distinct generating term
    reduced: dict[_Exact, tuple] = {}
    # acyclic builds: (_Exact(term), level, taken) -> the finished
    # (node, escape, complete) of a layer's subtree
    built: dict[tuple, tuple] = {}
    refs = False  # a back edge or shared ref was made
    # A node's ``taken``, the display names in use above it, is None
    # until a binder on its path is opened: None stands for ``t0``'s free
    # names, which are walked for once, when the first binder is opened,
    # so a build that stops in the root's head reduction walks nothing.
    # A grown set is never equal to None, so ``built`` keys stay exact.
    root_names: frozenset[str] | None = None  # ``t0``'s, once walked

    def open_binders(t: Term, k: int, taken):
        """Open the first ``k`` binders of ``t`` with fresh internal names:
        the body, the display and internal names, and ``taken`` grown."""
        nonlocal root_names
        if not k:
            return t, (), (), taken
        if taken is None:
            if root_names is None:
                root_names = free_vars(t0)
            taken = root_names
        shown: list[str] = []
        block: list[str] = []
        taken = set(taken)
        for _ in range(k):
            assert type(t) is Lam
            internal = f"%{next(counter)}"
            disp = opened[internal] = _pick_name(t.hint, taken)
            taken.add(disp)
            shown.append(disp)
            block.append(internal)
            t = instantiate(t.body, Free(internal))
        return t, tuple(shown), tuple(block), frozenset(taken)

    def head_info(h: Term):
        if type(h) is not Free:
            raise TermError(f"unexpected head {h!r}")
        if h.name in opened:
            return opened[h.name], ("b", h.name)
        return h.name, ("f", h.name)

    def build(term: Term, level: int, taken, path):
        """Build one node, then its children.

        Returns ``(node, escape, complete)``: ``escape`` is the lowest
        ancestor level targeted by any back edge inside the subtree
        (INF when the subtree is acyclic), ``complete`` says the
        subtree contains no ``unknown`` node.  A cyclic build remembers
        a subtree for cross-branch reuse only when it is complete and
        its cycles are self-contained (``level <= escape < INF``); finite
        acyclic pieces are cheap to rebuild and stay separate nodes.  An
        acyclic build remembers every layer's subtree in ``built``.

        Recurrence is *literal*: the generating term equals an earlier
        one up to renaming of binders, with every free variable naming
        the same binder on the path (opened binders carry unique
        internal names, so plain term equality checks exactly that).
        The node exists before its children are built, so a back edge
        holds the ancestor node it repeats.  One ``seen`` entry per term
        serves both references: a term is never on the path and shared
        at once, since an equal term below it becomes a back edge and
        one after a shareable subtree a shared ref, and neither is built
        again.  ``path``, the child slots from the root, is made only
        for a ``hook``.
        """
        nonlocal refs
        if cyclic:
            hit = seen.get(term)
            if hit is not None:
                refs = True
                alvl, anode = hit
                if alvl is None:
                    return Node("shared", target=anode), INF, True
                return Node("backedge", target=anode, delta=level - alvl), alvl, True
        if level >= depth:
            return Node("unknown", reason="depth"), INF, False
        key = _Exact(term)
        if not cyclic:
            share = (key, level, taken)
            hit = built.get(share)
            if hit is not None:
                return hit
        known = reduced.get(key)
        if known is not None:
            # a reused result's subterms are the objects met next
            known[0].term = term
        else:
            out = head_reduce(
                term, target, fuel, on_step=None if hook is None else partial(hook, path)
            )
            kept = tuple(out.steps) if out.status == RESOLVED else ()
            known = reduced[key] = (key, out.status, kept, out.result)
        _, status, steps, r = known
        if status == PROVEN_DIVERGENT:
            return Node("bottom"), INF, True
        if status == FUEL_EXHAUSTED:
            return Node("unknown", reason="fuel"), INF, False
        assert r is not None

        kids: list[Term]  # the children's generating terms, in slot order
        if type(r) is Lam and semantics != "bt":  # llt and bet: one lambda layer
            body, shown, block, taken = open_binders(r, 1, taken)
            node = Node("lam", steps, shown, block=block)
            kids = [body]
        elif semantics != "bet":  # a head normal form, or (llt) a variable-headed spine
            nb = 0
            u = r
            while type(u) is Lam:
                u = u.body
                nb += 1
            u, shown, block, taken = open_binders(r, nb, taken)
            head, kids = spine(u)
            name, ref = head_info(head)
            node = Node("hnf" if semantics == "bt" else "head", steps, shown, name, ref,
                        block=block)
        elif type(r) is App:  # bet
            node = Node("app", steps)
            kids = [r.fn, r.arg]
        else:  # bet: a variable
            name, ref = head_info(r)
            node = Node("var", steps, (), name, ref)
            kids = []

        if cyclic:
            seen[term] = (level, node)
        escape = INF
        complete = True
        children = []
        for i, a in enumerate(kids):
            c, esc, cm = build(a, level + 1, taken, None if hook is None else path + (i,))
            children.append(c)
            if esc < escape:
                escape = esc
            if not cm:
                complete = False
        node.children = tuple(children)
        if cyclic:
            if complete and level <= escape < INF:
                seen[term] = (None, node)
            else:
                del seen[term]
        else:
            built[share] = node, escape, complete
        return node, escape, complete

    root, _, closed = build(t0, 0, None, ())
    tree = ClockTree(root, semantics, atomic, depth, fuel, closed)
    tree.refs = refs
    return tree


def _identical(a: Term, b: Term) -> bool:
    """``a == b`` with every binder hint equal too, so the two terms
    print alike."""
    return Term.__eq__(a, b, True)


class _Exact:
    """A term as a table key that only the same term with the same
    binder hints hits (``_identical``): ``==`` ignores the hints, and
    the binder names a tree or report shows come from them."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def __hash__(self) -> int:
        return self.term._h

    def __eq__(self, other) -> bool:
        return _identical(self.term, other.term)


def clocked_bt(
    t: Term, depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_FUEL, atomic: bool = False
) -> ClockTree:
    """Depth-limited clocked tree of head normal forms (no back edges)."""
    return _build(t, "bt", depth, fuel, cyclic=False, atomic=atomic)


def clocked_llt(
    t: Term, depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_FUEL, atomic: bool = False
) -> ClockTree:
    """Depth-limited clocked tree of weak head normal forms."""
    return _build(t, "llt", depth, fuel, cyclic=False, atomic=atomic)


def clocked_bet(
    t: Term, depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_FUEL, atomic: bool = False
) -> ClockTree:
    """Depth-limited clocked tree of root-stable layers."""
    return _build(t, "bet", depth, fuel, cyclic=False, atomic=atomic)


def compact_cyclic(
    t: Term,
    depth: int = DEFAULT_DEPTH,
    fuel: int = DEFAULT_FUEL,
    semantics: str = "bt",
    atomic: bool = False,
    hook=None,
) -> ClockTree:
    """Tree with back edges wherever a node repeats an ancestor's unfolding.

    Completed self-contained cyclic subtrees are additionally reused
    across branches: a later node with the same generating term (equal
    up to binder renaming, free variables naming the same binders)
    becomes a ``shared`` reference to the first occurrence instead of a
    copy, so the tree stays a finite closed graph even when the
    repetition is between siblings rather than between ancestor and
    descendant.

    ``hook``, when given, sees every head step of every reduction as
    ``hook(path, ...)`` with ``head_reduce``'s ``on_step`` arguments.
    Each distinct term is reduced once per build, so a node whose term
    is identical to an earlier node's, binder hints included, shows no
    steps to the hook: they are the steps it already saw.
    """
    return _build(t, semantics, depth, fuel, cyclic=True, atomic=atomic, hook=hook)


# ---------------------------------------------------------------------------
# positions


def child_step(node: Node, i: int) -> Position:
    """Applicative position step from ``node`` down to child slot ``i``."""
    match node.kind:
        case "hnf" | "head":
            m = len(node.children)
            return (0,) * len(node.binders) + (1,) * (m - 1 - i) + (2,)
        case "lam":
            return (0,)
        case "app":
            return (1,) if i == 0 else (2,)
    raise TermError(f"{node.kind} node has no children")


def node_at(tree: ClockTree, pos: Position) -> Node | None:
    """Node of the *unfolded* tree at applicative position ``pos``.

    Back edges and shared refs are followed to their targets, so
    positions arbitrarily deep resolve on a closed tree.  Returns None
    when the position does not exist (or runs into a ``bottom`` or
    ``unknown`` node before being consumed).
    """
    n = tree.root
    pos = tuple(pos)
    while True:
        if n.target is not None:  # a back edge or a shared ref
            n = n.target
        if not pos:
            return n
        hit = None
        for i in range(len(n.children)):
            step = child_step(n, i)
            if pos[: len(step)] == step:
                hit = (i, len(step))
                break
        if hit is None:
            return None
        i, k = hit
        pos = pos[k:]
        n = n.children[i]


# ---------------------------------------------------------------------------
# serialization


def tree_to_dict(tree: ClockTree, atomic: bool | None = None) -> dict:
    """JSON-ready form; applicative positions are rendered as strings."""
    if atomic is None:
        atomic = tree.atomic
    ids: dict[int, str] = {}
    path: list[dict] = []
    root: dict = {}
    for k, (n, pos, depth, target, tpos) in enumerate(walk(tree)):
        nid = f"n{k}"
        ids[id(n)] = nid
        d: dict = {"id": nid, "kind": n.kind}
        del path[depth:]
        if path:
            path[-1]["children"].append(d)
        else:
            root = d
        if n.kind == "backedge":
            d["backedge"] = {
                "target": ids[id(target)],
                "phase": pos_str(tpos),
                "period": pos_str(pos[len(tpos) :]),
            }
            continue
        if n.kind == "shared":
            d["shared"] = {
                "target": ids[id(target)],
                "defined_at": pos_str(tpos),
            }
            continue
        if n.count is not None:
            d["clock"] = n.clock(atomic)
        if n.kind in ("hnf", "lam"):
            d["binders"] = list(n.binders)
        if n.head is not None:
            d["head"] = n.head
        if n.reason is not None:
            d["reason"] = n.reason
        if n.children:
            d["children"] = []
        path.append(d)

    return {
        "semantics": tree.semantics,
        "atomic": atomic,
        "depth": tree.depth,
        "fuel": tree.fuel,
        "closed": tree.closed,
        "root": root,
    }


def periodicity_report(tree: ClockTree) -> dict:
    """Where the tree loops: for each back edge its position, the
    position of its target (phase) and the relative path (period)."""
    loops = [
        {
            "at": pos_str(pos),
            "phase": pos_str(tpos),
            "period": pos_str(pos[len(tpos) :]),
            "delta": n.delta,
        }
        for n, pos, _, _, tpos in walk(tree)
        if n.kind == "backedge"
    ]
    return {"fully_periodic": tree.closed, "closed": tree.closed, "loops": loops}


# ---------------------------------------------------------------------------
# simplicity


SimplicityWitness = namedtuple("SimplicityWitness", "path step position term")


class SimplicityReport(namedtuple("SimplicityReport", "status witness tree")):
    """A ``check_simple`` verdict: ``status`` is ``"simple"``,
    ``"not_simple"`` or ``"unknown"``, ``witness`` the first non-simple
    step (a ``SimplicityWitness``) or None, and ``tree`` the cyclic
    ``bt`` tree whose steps were classified."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.status == "simple"


def check_simple(t: Term, depth: int = DEFAULT_DEPTH, fuel: int = DEFAULT_FUEL) -> SimplicityReport:
    """Is every head step performed while unfolding the tree a simple one?

    ``simple`` is only claimed when the cyclic tree is closed, so the
    finitely many classified steps really cover the infinite unfolding.
    A non-simple step is a definite refutation either way.
    """
    found: list[SimplicityWitness] = []

    def hook(path, i, pos, lam, arg, build):
        if not found and not _is_simple(lam.body, arg):
            found.append(SimplicityWitness(path, i, pos.path, build()))

    tree = compact_cyclic(t, depth, fuel, "bt", hook=hook)
    if found:
        return SimplicityReport("not_simple", found[0], tree)
    return SimplicityReport("simple" if tree.closed else "unknown", None, tree)
