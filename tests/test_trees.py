"""Clocked trees: construction, annotations, cycles, sharing, simplicity."""

import gc
import hashlib
import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import lamclock.combinators as C
from lamclock import compare, reduction, trees
from lamclock.compare import Relation, holds_eventually
from lamclock.parser import parse, pretty
from lamclock.reduction import classify_redex, head_redex_position
from lamclock.render import render_dot, render_text
from lamclock.terms import App, Free, HeadPos, pos_str
from lamclock.trees import (
    ClockTree,
    Node,
    check_simple,
    child_step,
    clocked_bet,
    clocked_bt,
    clocked_llt,
    compact_cyclic,
    node_at,
    periodicity_report,
    tree_to_dict,
    walk,
)

OMEGA = r"(\x.x x) (\x.x x)"


def spine_counts(tree, n):
    """Annotations down the leftmost/only-child chain."""
    out = []
    node = tree.root
    for _ in range(n):
        if getattr(node, "count", None) is None:
            break
        out.append(node.count)
        if not node.children:
            break
        node = node.children[0]
    return out


# ---------------------------------------------------------------------------
# plain (unfolded) trees


def test_curry_tree_annotations(defs):
    tree = clocked_bt(parse("Y0 f", defs), 3)
    assert spine_counts(tree, 3) == [2, 1, 1]
    assert tree.root.head == "f"


def test_turing_tree_annotations(defs):
    tree = clocked_bt(parse("Y1 f", defs), 3)
    assert spine_counts(tree, 3) == [2, 2, 2]


def test_atomic_annotations_double_fpc(defs):
    tree = clocked_bt(parse("eta eta delta x", defs), 2, atomic=True)
    root = tree.root
    assert [pos_str(p) for p in root.steps] == ["11", "1", "1", "e"]
    assert [pos_str(p) for p in root.children[0].steps] == ["11", "1", "1", "e"]


def test_atomic_length_equals_count(defs):
    for text in ("Y0 f", "Y1 f", "E1", "E3", "eta eta delta x"):
        t = parse(text, defs)
        tree = clocked_bt(t, 5)
        for node, *_ in walk(tree):
            if node.count is not None:
                assert len(node.steps) == node.count


def test_bottom_on_proven_divergence():
    tree = clocked_bt(parse(OMEGA), 3)
    assert tree.root.kind == "bottom"


def test_unknown_on_depth():
    tree = clocked_bt(parse("Y0 f", defs=None) if False else parse(r"(\x.f (x x)) (\x.f (x x))"), 1)
    assert tree.root.kind == "hnf"
    assert tree.root.children[0].kind == "unknown"


def test_strip_equalizes_the_two_fpc_trees(defs):
    # Y0 f and Y1 f have one Boehm tree: their clocked trees differ only
    # in the clocks, which the product's shape check does not read
    a = clocked_bt(parse("Y0 f", defs), 6)
    b = clocked_bt(parse("Y1 f", defs), 6)
    prod = compare._explore(a, b, Relation.EQ)
    assert prod.shape_bad is None and prod.ann_bad
    assert clocked_bt(parse(OMEGA), 2).root.kind == "bottom"


# ---------------------------------------------------------------------------
# weak-head and root-stable semantics


def test_llt_one_binder_per_step():
    pp = parse(r"(\x y.x x) (\x y.x x)")
    tree = clocked_llt(pp, 3)
    node = tree.root
    seen = []
    for _ in range(3):
        seen.append((node.kind, node.count))
        node = node.children[0]
    assert seen == [("lam", 1), ("lam", 1), ("lam", 1)]


def test_llt_alternating_zero_cost():
    qq = parse(r"(\x y z.x x) (\x y z.x x)")
    tree = clocked_llt(qq, 4)
    node = tree.root
    seen = []
    for _ in range(4):
        seen.append(node.count)
        node = node.children[0]
    assert seen == [1, 0, 1, 0]


def test_bt_collapses_both_erasers_to_bottom():
    for text in (r"(\x y.x x) (\x y.x x)", r"(\x y z.x x) (\x y z.x x)"):
        assert clocked_bt(parse(text), 3).root.kind == "bottom"


def test_bet_on_stable_application():
    tree = clocked_bet(parse(f"x ({OMEGA})"), 2)
    assert tree.root.kind == "app"
    assert tree.root.count == 0
    fn, arg = tree.root.children
    assert fn.kind == "var"
    assert arg.kind == "bottom"


def test_bet_bottom_on_root_active():
    assert clocked_bet(parse(OMEGA), 2).root.kind == "bottom"


def test_bet_growing_term_not_bottom(defs):
    tree = clocked_bet(parse("delta delta (delta delta)", defs), 2, fuel=200)
    assert tree.root.kind != "bottom"


# ---------------------------------------------------------------------------
# cyclic compaction


def test_cyclic_turing(defs):
    tree = compact_cyclic(parse("Y1 f", defs))
    assert tree.closed
    assert tree.root.count == 2
    (edge,) = tree.root.children
    assert edge.kind == "backedge" and edge.delta == 1


def test_cyclic_curry(defs):
    tree = compact_cyclic(parse("Y0 f", defs))
    assert tree.closed
    assert spine_counts(tree, 2) == [2, 1]
    inner = tree.root.children[0]
    (edge,) = inner.children
    assert edge.kind == "backedge" and edge.delta == 1


def _closed_inputs():
    for name in C.catalog_names():
        t = C.catalog(name, 3) if name.endswith("-seq") else C.catalog(name)
        yield t
        yield App(t, Free("f"))
    yield from (parse(r"(\x.x x x)(\x.x x x)"), parse(OMEGA), C.E1, C.E2, C.E3)


_ACYCLIC = {"bt": clocked_bt, "llt": clocked_llt, "bet": clocked_bet}


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("semantics", ["bt", "llt", "bet"])
def test_the_build_records_closed(semantics, cyclic):
    # the build's flag against a walk for an unknown frontier
    for t, depth in itertools.product(_closed_inputs(), (2, 4, 8, 12)):
        if cyclic:
            tree = compact_cyclic(t, depth, 2000, semantics)
        else:
            tree = _ACYCLIC[semantics](t, depth, 2000)
        want = not any(n.kind == "unknown" for n, *_ in walk(tree))
        assert tree.closed == want, (pretty(t), depth)


_LAYER_KINDS = {"bt": {"hnf"}, "llt": {"lam", "head"}, "bet": {"lam", "var", "app"}}


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("semantics", ["bt", "llt", "bet"])
def test_every_node_has_the_fields_of_its_kind(semantics, cyclic):
    # one node class for every kind: the fields each kind leaves unset
    # are checked here
    seen = set()
    for t, depth in itertools.product(_closed_inputs(), (2, 4, 8, 12)):
        if cyclic:
            tree = compact_cyclic(t, depth, 2000, semantics)
        else:
            tree = _ACYCLIC[semantics](t, depth, 2000)
        shown = pretty(t)
        for n, *_ in walk(tree):
            where = (shown, depth, n.kind)
            seen.add(n.kind)
            if n.kind in _LAYER_KINDS[semantics]:
                assert (n.target, n.delta, n.reason) == (None, None, None), where
                assert n.count == len(n.steps), where
                continue
            assert (n.steps, n.count, n.children) == (None, None, ()), where
            assert (n.binders, n.block, n.head, n.head_ref) == ((), (), None, None), where
            if n.kind == "bottom":
                assert (n.target, n.delta, n.reason) == (None, None, None), where
            elif n.kind == "unknown":
                assert (n.target, n.delta) == (None, None), where
                assert n.reason in ("depth", "fuel"), where
            elif n.kind == "backedge":
                assert n.target is not None and n.delta > 0, where
                assert n.reason is None, where
            else:
                assert n.kind == "shared", where
                assert n.target is not None, where
                assert (n.delta, n.reason) == (None, None), where
    want = _LAYER_KINDS[semantics] | {"bottom", "unknown"}
    if cyclic:
        want |= {"backedge"} if semantics == "bet" else {"backedge", "shared"}
    assert seen == want


def _reference_walk(tree):
    """A preorder walk that carries every entry's position: the
    reference for the positions ``walk`` makes for references only."""
    defined = {}
    stack = [(tree.root, (), 0)]
    while stack:
        n, pos, depth = stack.pop()
        target = n.target
        if target is not None:
            yield n, pos, depth, target, defined[id(target)]
        else:
            defined[id(n)] = pos
            yield n, pos, depth, None, None
            kids = n.children
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], pos + child_step(n, i), depth + 1))


def _node_summary(tree):
    """Preorder (applicative position, kind, count, extra) rows."""
    out = []
    for node, pos, *_ in _reference_walk(tree):
        entry = (pos_str(pos), node.kind, node.count)
        if node.kind == "hnf":
            entry += (node.head,)
        if node.kind == "backedge":
            entry += (node.delta,)
        out.append(entry)
    return out


def test_cyclic_first_enumerator(defs):
    tree = compact_cyclic(parse("E1", defs))
    assert tree.closed
    assert _node_summary(tree) == [
        ("e", "hnf", 2, "z"),
        ("02", "hnf", 0, "a"),
        ("0200012", "hnf", 0, "b"),
        ("020002", "hnf", 2, "b"),
        ("02000212", "backedge", None, 2),
        ("0200022", "hnf", 2, "c"),
        ("02000222", "backedge", None, 3),
    ]


def test_cyclic_second_enumerator_strict_annotations(defs):
    # same shape as the first enumerator; inner forks cost 6 and 3 steps
    tree = compact_cyclic(parse("E2", defs))
    assert tree.closed
    assert [e[2] for e in _node_summary(tree)] == [2, 0, 0, 6, None, 3, None]


def test_cyclic_third_enumerator_with_sharing(defs):
    tree = compact_cyclic(parse("E3", defs))
    assert tree.closed
    summary = _node_summary(tree)
    kinds = [e[1] for e in summary]
    counts = [e[2] for e in summary]
    assert kinds == [
        "hnf", "hnf", "hnf", "hnf", "hnf", "hnf", "hnf",
        "backedge", "hnf", "backedge", "hnf", "shared",
    ]
    assert counts == [0, 2, 0, 3, 1, 0, 3, None, 0, None, 0, None]
    # the sibling fork reuses the inner cycle rather than copying it
    shared = [n for n, *_ in walk(tree) if n.kind == "shared"]
    assert len(shared) == 1
    assert shared[0].target.count == 1


def test_cyclic_two_loop_self_application():
    # M = \z.z M M, realized as a self-application
    m = parse(r"(\w z.z (w w) (w w)) (\w z.z (w w) (w w))")
    tree = compact_cyclic(m)
    assert tree.closed
    report = periodicity_report(tree)
    assert sorted(loop["at"] for loop in report["loops"]) == ["012", "02"]
    assert report["fully_periodic"]


def test_periodicity_of_turing(defs):
    report = periodicity_report(compact_cyclic(parse("Y1 x", defs)))
    assert report["loops"] == [
        {"at": "2", "phase": "e", "period": "2", "delta": 1}
    ]


def test_acyclic_tree_has_no_loops(defs):
    report = periodicity_report(compact_cyclic(parse("S", defs)))
    assert report["loops"] == []


def test_cyclic_matches_unfolded_approximations(defs):
    terms = [parse(text, defs) for text in ("Y0 f", "Y1 f", "E1", "E3")]
    terms += [
        C.plotkin_B(C.Y1),
        App(C.bohm_seq(3), Free("x")),
        parse(r"(\x y. x x) (\x y. x x)"),
    ]
    builders = {"bt": clocked_bt, "llt": clocked_llt, "bet": clocked_bet}
    for (semantics, build), t in itertools.product(builders.items(), terms):
        plain = build(t, 5)
        cyclic = compact_cyclic(t, 12, semantics=semantics)

        def shape(n, depth):
            if depth == 0 or n.kind == "unknown":
                return "?"
            return (n.kind, n.count, tuple(shape(c, depth - 1) for c in n.children))

        def unfold(tree, depth):
            def go(pos, depth):
                n = node_at(tree, pos)
                if n is None or depth == 0:
                    return "?"
                kids = tuple(
                    go(pos + child_step(n, i), depth - 1)
                    for i in range(len(n.children))
                )
                return (n.kind, n.count, kids)

            return go((), depth)

        assert shape(plain.root, 4) == unfold(cyclic, 4), (semantics, pretty(t))


def test_tree_to_dict_schema(defs):
    d = tree_to_dict(compact_cyclic(parse("Y1 f", defs)))
    assert d["closed"] is True
    root = d["root"]
    assert root["kind"] == "hnf" and root["clock"] == 2 and root["head"] == "f"
    edge = root["children"][0]
    assert edge["backedge"] == {"target": root["id"], "phase": "e", "period": "2"}


def test_tree_to_dict_atomic_clock_strings(defs):
    d = tree_to_dict(compact_cyclic(parse("Y1 f", defs), atomic=True))
    assert d["root"]["clock"] == ["1", "e"]


# catalog terms whose cyclic trees have back edges; E3's bt tree also
# has a shared ref, and its llt and bet trees do not close (the bet
# tree ends in an unknown node before any loop)
_LOOPING = ["Y0 f", "Y1 f", "E1", "E2", "E3", "eta eta delta x",
            r"Y0 (\f x y. x (f y x))", r"(\w z.z (w w) (w w)) (\w z.z (w w) (w w))"]


@pytest.mark.parametrize("semantics", ["bt", "llt", "bet"])
@pytest.mark.parametrize("text", _LOOPING)
def test_walk_positions_match_the_reference_walk(defs, text, semantics):
    tree = compact_cyclic(parse(text, defs), semantics=semantics)
    got = list(walk(tree))
    want = list(_reference_walk(tree))
    assert [(n, depth, target) for n, _, depth, target, _ in got] == [
        (n, depth, target) for n, _, depth, target, _ in want
    ]
    refs = 0
    for (n, pos, _, target, tpos), (_, rpos, _, _, rtpos) in zip(got, want):
        if target is None:
            assert pos is None and tpos is None
        else:
            refs += 1
            assert (pos, tpos) == (rpos, rtpos)
    assert refs > 0 or (text, semantics) == ("E3", "bet")
    assert tree_to_dict(tree)["closed"] == tree.closed


def test_walks_over_a_deep_tree_do_not_recurse():
    # 3000 hnf layers closed by a loop to the last one: far deeper than
    # the interpreter's recursion limit, and built without any reduction
    node = Node("hnf", ((2,),), (), "f", ("f", "f"))
    node.children = (Node("backedge", target=node, delta=1),)
    for _ in range(2999):
        node = Node("hnf", ((2,),), (), "f", ("f", "f"), (node,))
    tree = ClockTree(node, "bt", False, 3001, 10, True, True, [])
    assert render_text(tree).count("\n") == 3001
    assert render_dot(tree).count(" -> ") == 3000
    assert tree_to_dict(tree)["closed"] is True
    (loop,) = periodicity_report(tree)["loops"]
    assert (loop["delta"], loop["period"]) == (1, "2")
    # the second exploration reads the tables the first one kept
    first = holds_eventually(tree, tree, Relation.EQ)
    assert first.holds and len(tree.explored) == 2
    assert holds_eventually(tree, tree, Relation.EQ) == first


# ---------------------------------------------------------------------------
# one head reduction per distinct generating term


def _reduce_every_node(monkeypatch):
    # no term is identical to an earlier one, so every node is reduced
    monkeypatch.setattr(trees, "_identical", lambda a, b: False)


@pytest.fixture
def head_calls(monkeypatch):
    """The terms ``_build`` head-reduces, one entry per call."""
    calls = []

    def counting(*args, **kw):
        calls.append(args[0])
        return reduction.head_reduce(*args, **kw)

    monkeypatch.setattr(trees, "head_reduce", counting)
    return calls


_BUILDS = [clocked_bt, clocked_llt, clocked_bet,
           *(partial(compact_cyclic, semantics=s) for s in ("bt", "llt", "bet"))]


# The root's free names are walked once per build, when the first binder
# is opened: never when the build stops in the root's head reduction (Ω
# diverges, ``(\x. x x x)(\x. x x x)`` runs out of fuel at 50 steps, a
# bare name has no binder), once however many binders are opened.
@pytest.mark.parametrize(("text", "walks"), [
    (OMEGA, 0), (r"(\x. x x x)(\x. x x x)", 0), ("x", 0),
    (r"\x. x (\y. y x)", 1), (r"(\w z.z (w w) (w w)) (\w z.z (w w) (w w))", 1),
])
@pytest.mark.parametrize("build", _BUILDS)
def test_the_root_names_are_walked_once_when_a_binder_opens(monkeypatch, build, text, walks):
    calls = []
    walk_names = trees.free_vars

    def counting(t):
        calls.append(t)
        return walk_names(t)

    term = parse(text)
    monkeypatch.setattr(trees, "free_vars", counting)
    build(term, 6, fuel=50)
    assert calls == [term] * walks


@pytest.mark.parametrize(
    "term",
    [C.plotkin_B(C.Y1), App(C.bohm_seq(5), Free("x")), C.E1],
    ids=["plotkin_B(Y1)", "bohm_seq(5) x", "E1"],
)
def test_reusing_head_reductions_changes_no_tree(term, monkeypatch):
    built = [build(term, 8) for build in _BUILDS]
    _reduce_every_node(monkeypatch)
    for build, tree in zip(_BUILDS, built):
        want = build(term, 8)
        atomic = [tree_to_dict(t._replace(atomic=True)) for t in (tree, want)]
        assert atomic[0] == atomic[1]
        assert render_text(tree) == render_text(want)


def test_each_shared_subterm_is_reduced_once(head_calls):
    # plotkin_B(Y1) unfolds to f M M at every level, with two distinct
    # terms in the whole tree: reducing each copy made 2^12 - 1 = 4095
    # head_reduce calls, and each term object once made 78
    clocked_bt(C.plotkin_B(C.Y1), 12)
    assert len(head_calls) == 2


@pytest.mark.parametrize("build,positions,objects",
                         [(clocked_bt, 8191, 27), (clocked_llt, 8191, 27), (clocked_bet, 1217, 49)])
def test_an_acyclic_build_makes_each_repeated_subtree_once(build, positions, objects):
    # f M M at every level: each (term, level) pair is one layer object,
    # and each distinct bottom layer makes its depth-cut leaves once; a
    # node per position made 8191 objects (1217 for bet)
    tree = build(C.plotkin_B(C.Y1), 12)
    assert tree.node_count() == positions
    assert len({id(n) for n, *_ in walk(tree)}) == objects
    assert tree.refs is False
    # product exploration prepares each object once, and makes the
    # binder table only for a first side
    slots = compare._tables(tree, False)[0]
    assert len(slots) == objects and len(tree.explored) == 1
    assert compare._tables(tree, True)[0] is slots and len(tree.explored) == 2


def test_render_dot_numbers_every_position():
    # the shared tree draws as the tree of nodes it unfolds to; numbering
    # by the nodes seen so far gave two positions of one node one id
    text = render_dot(clocked_bt(C.plotkin_B(C.Y1), 3))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "f713e7bff3f6894492648226325004ad44a1bdf6c125d057bdfc655e53343611"


@pytest.mark.parametrize("build,calls", [(clocked_bt, 1), (clocked_llt, 1), (clocked_bet, 2)])
def test_each_unfolding_of_a_fixed_point_is_reduced_once(build, calls, head_calls):
    # bohm_seq(40) x reduces to x (bohm_seq(40) x), so its twelve levels
    # are equal terms, binder names included, but each one a new object:
    # reducing each object made 12 calls (13 for bet)
    build(App(C.bohm_seq(40), Free("x")), 12)
    assert len(head_calls) == calls


def test_identical_terms_keep_their_binder_names():
    # \a.a and \b.b are equal terms; reusing one's reduction for the
    # other would print its binder under the wrong name
    text = render_text(clocked_bt(parse(r"f (\a. a) (\b. b)"), 4))
    assert "λa" in text and "λb" in text


def test_deep_identical_terms_are_compared_without_recursion():
    # f N N with the two N distinct 5,000-deep nests: comparing them by
    # recursive ``==`` overflowed the default recursion limit, which a
    # fresh interpreter keeps and this suite raises
    code = (
        "from lamclock.terms import App, Free, app\n"
        "from lamclock.trees import clocked_bt\n"
        "def nest():\n"
        "    t = Free('x')\n"
        "    for _ in range(5000):\n"
        "        t = App(Free('g'), t)\n"
        "    return t\n"
        "print(clocked_bt(app(Free('f'), nest(), nest())).node_count())\n"
    )
    src = str(Path(trees.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=os.environ | {"PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == "25\n"


def _report(t, depth):
    r = check_simple(t, depth, 300)
    w = r.witness
    if w is not None:
        w = w.path, w.step, w.position, classify_redex(w.term, w.position), pretty(w.term)
    return r.status, r.tree.closed, w, tree_to_dict(r.tree._replace(atomic=True)), render_text(r.tree)


def _check_simple_inputs():
    dup = parse(r"\z. f z z")
    for name in C.catalog_names():
        t = C.catalog(name, 3) if name.endswith("-seq") else C.catalog(name)
        yield name, App(t, Free("f"))
        yield f"dup {name}", App(dup, App(t, Free("g")))


@pytest.mark.parametrize("name,term", list(_check_simple_inputs()))
@pytest.mark.parametrize("depth", [3, 8])
def test_reusing_head_reductions_changes_no_simplicity_report(name, term, depth, monkeypatch):
    # the hook sees a term object's steps once; a later node with the
    # same object has the same steps, so the first non-simple step and
    # everything else in the report stay as when every node is reduced
    got = _report(term, depth)
    _reduce_every_node(monkeypatch)
    assert got == _report(term, depth)


def test_check_simple_reduces_each_shared_subterm_once(head_calls):
    check_simple(App(parse(r"\z. f z z"), App(C.catalog("theta"), Free("g"))), 8, 300)
    assert len(head_calls) == len({id(t) for t in head_calls}) == 9  # 13 with a copy per node


def _live_head_positions():
    gc.collect()
    return sum(type(o) is HeadPos for o in gc.get_objects())


def test_unresolved_leaves_free_their_steps(monkeypatch):
    # A leaf that runs out of fuel makes one step position per unit of
    # fuel.  The tree keeps none of them, so none is alive when the next
    # leaf is reduced.  The binder names differ, so each leaf is reduced
    # apart.
    live = []

    def counting(*args, **kw):
        live.append(_live_head_positions())
        return reduction.head_reduce(*args, **kw)

    monkeypatch.setattr(trees, "head_reduce", counting)
    leaves = [rf"((\{v}.{v} {v} {v})(\{v}.{v} {v} {v}))" for v in "xyzw"]
    before = _live_head_positions()
    clocked_bt(parse("f " + " ".join(leaves)), 3, 1000)
    assert live == [before] * 5


# ---------------------------------------------------------------------------
# simplicity


def test_simple_fpc_sequence(defs):
    assert check_simple(parse("eta eta delta x", defs)).status == "simple"
    assert check_simple(Free("x")).status == "simple"


def test_duplicator_not_simple(defs):
    report = check_simple(parse(r"Y1 (\z.f z z)", defs))
    assert report.status == "not_simple"
    assert report.witness is not None
    assert not classify_redex(report.witness.term, report.witness.position).simple


def test_simplicity_witness_is_the_term_at_its_step(defs):
    w = check_simple(parse(r"Y1 (\z.f z z)", defs)).witness
    assert head_redex_position(w.term) == w.position
    assert not classify_redex(w.term, w.position).simple


def test_check_simple_classifies_steps_past_the_recurrence_cap(defs, monkeypatch):
    # Every head step is classified as it is made.  When only the first
    # TRACE_CAP terms of a reduction were kept, a node with more steps
    # than that left the report "unknown".
    monkeypatch.setattr(reduction, "TRACE_CAP", 3)
    assert check_simple(parse("eta eta delta x", defs)).status == "simple"


def test_duplicating_growth_refuted_despite_open_tree(defs):
    # the second head step substitutes a redex for a twice-used binder,
    # so the refutation is definite even though the tree never closes
    report = check_simple(parse("delta delta (delta delta)", defs), depth=4, fuel=200)
    assert report.status == "not_simple"
    assert not report.tree.closed


def test_growing_term_simplicity_unknown(defs):
    # every head step here is linear or call-by-value, but the argument
    # keeps doubling so the tree never closes: no verdict either way
    report = check_simple(parse(r"Y1 (\g x. f (g (x x)))", defs), depth=4, fuel=300)
    assert report.status == "unknown"
