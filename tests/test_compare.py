"""Tree comparison relations and the discrimination pipeline."""

import functools
import itertools
import random

import pytest

import lamclock.compare as compare
from fixtures import gross_knuth
from lamclock.combinators import (
    E1,
    E2,
    E3,
    Y0,
    Y1,
    bbb_scheme,
    bohm_seq,
    gvector,
    scott_composite,
    scott_composite_simplified,
    scott_seq,
)
from lamclock.compare import (
    INCONCLUSIVE,
    INCONVERTIBLE,
    DiscriminationConfig,
    Relation,
    bounded_joinable,
    discriminate,
    enumerate_reducts,
    find_simple_reduct,
    holds_eventually,
    holds_globally,
    subseq_le,
)
from lamclock.parser import parse, pretty
from lamclock.reduction import one_step_reducts
from lamclock.terms import App, Free, HeadPos, app, iterate
from lamclock.trees import (
    ClockTree,
    Node,
    _Exact,
    clocked_bet,
    clocked_bt,
    clocked_llt,
    compact_cyclic,
    node_at,
)


@pytest.fixture(scope="module")
def pair(defs):
    """Closed cyclic trees of the two classic fixed-point combinators at f."""
    return (
        compact_cyclic(parse("Y0 f", defs)),
        compact_cyclic(parse("Y1 f", defs)),
    )


@pytest.fixture(scope="module")
def atomic_pair(defs):
    """The two simple reducts whose plain clocks agree but whose atomic ones don't."""
    return (
        compact_cyclic(parse("eta eta delta x", defs)),
        compact_cyclic(parse("theta theta I x", defs)),
    )


# -- subsequence order on position lists ------------------------------------


def test_subseq_empty_below_everything():
    assert subseq_le((), ("11", "1"))
    assert subseq_le((), ())


def test_subseq_incomparable_pair():
    # same multiset of positions, different order: neither embeds in the other
    a = ("11", "1", "1", "e")
    b = ("11", "1", "e", "1")
    assert not subseq_le(a, b)
    assert not subseq_le(b, a)


def test_subseq_proper_embedding():
    assert subseq_le(("1", "e"), ("11", "1", "e", "1"))
    assert not subseq_le(("11", "1", "e", "1"), ("1", "e"))


def test_subseq_reflexive():
    a = ("2", "e", "11")
    assert subseq_le(a, a)


# -- pointwise comparison at a node -----------------------------------------


def test_compare_at_root(pair):
    t0, t1 = pair
    # both roots take 2 head steps, so every pointwise relation holds there
    a, b = node_at(t0, ()), node_at(t1, ())
    assert a.count == b.count == 2
    assert Relation.LE.holds_for(a, b)
    assert Relation.GE.holds_for(a, b)
    assert Relation.EQ.holds_for(a, b)


def test_compare_at_spine(pair):
    t0, t1 = pair
    # one level down the counts split into 1 versus 2
    a, b = node_at(t0, (2,)), node_at(t1, (2,))
    assert (a.count, b.count) == (1, 2)
    assert not Relation.EQ.holds_for(a, b)
    assert Relation.LE.holds_for(a, b)
    # the roots bind nothing, so there is no position under a binder
    assert node_at(t0, (0,)) is None and node_at(t1, (0,)) is None


def test_compare_at_atomic_root(atomic_pair):
    a, b = (node_at(t, ()) for t in atomic_pair)
    assert Relation.LIST_EQ.holds_for(a, a)
    assert not Relation.LIST_EQ.holds_for(a, b)
    assert not Relation.SUBSEQ_LE.holds_for(a, b)
    assert not Relation.SUBSEQ_GE.holds_for(a, b)


# -- global and eventual comparison -----------------------------------------


def test_globally_le_on_closed_trees(pair):
    t0, t1 = pair
    assert holds_globally(t0, t1, Relation.LE) is True
    assert holds_globally(t1, t0, Relation.LE) is False
    assert holds_globally(t0, t0, Relation.EQ) is True


def test_globally_none_when_tree_open(defs):
    grower = compact_cyclic(parse(r"Y1 (\g. \x. f (g (x x)))", defs))
    assert not grower.closed
    assert holds_globally(grower, grower, Relation.LE) is None


def test_eventually_self(pair):
    t0, _ = pair
    res = holds_eventually(t0, t0, Relation.EQ)
    assert (res.holds, res.level, res.certified) == (True, 0, True)


def test_eventually_refuted_with_certificate(pair):
    t0, t1 = pair
    res = holds_eventually(t0, t1, Relation.EQ)
    assert (res.holds, res.level, res.certified) == (False, 1, True)
    res = holds_eventually(t1, t0, Relation.LE)
    assert (res.holds, res.level, res.certified) == (False, 1, True)


def test_eventually_holds_for_convertible_pair(defs):
    # unrolling twice delays the clock by two levels but the tails agree
    y0 = parse("Y0", defs)
    unrolled = gross_knuth(gross_knuth(y0))
    assert pretty(unrolled) == r"\f.f (f ((\x.f (x x)) (\x.f (x x))))"
    res = holds_eventually(compact_cyclic(y0), compact_cyclic(unrolled), Relation.EQ)
    assert (res.holds, res.level, res.certified) == (True, 3, True)


def test_eventually_uncertified_on_open_tree(defs):
    grower = compact_cyclic(parse(r"Y1 (\g. \x. f (g (x x)))", defs))
    res = holds_eventually(grower, grower, Relation.EQ)
    assert res.holds is True
    assert res.certified is False
    # only a holding result goes uncertified: a failing one is definite,
    # on open trees too
    other = compact_cyclic(parse(r"Y1 (\g. \x. h (g (x x)))", defs))
    assert not other.closed
    res = holds_eventually(grower, other, Relation.EQ)
    assert (res.holds, res.certified) == (False, True)


def test_eventually_atomic_refutations(atomic_pair):
    a, b = atomic_pair
    for rel in (Relation.LIST_EQ, Relation.SUBSEQ_LE, Relation.SUBSEQ_GE):
        res = holds_eventually(a, b, rel)
        assert (res.holds, res.certified) == (False, True), rel
    # the plain counts agree everywhere, so the non-atomic view cannot separate them
    res = holds_eventually(a, b, Relation.EQ)
    assert (res.holds, res.level, res.certified) == (True, 0, True)


# -- the product graph -------------------------------------------------------


def _summary(prod):
    bad = prod.shape_bad
    depth = None if bad is None else prod.depth[bad]
    return len(prod.states), bad, depth, len(prod.ann_bad), prod.unknown


# (states, shape_bad, its depth, len(ann_bad), unknown) of the cyclic trees
# under Relation.EQ; each state count is that of the pairing restricted
# to the binders the first side can still mention
_PRODUCTS = {
    ("bt", "E1", "E2"): (5, None, None, 2, False),
    ("bt", "E1", "E3"): (9, None, None, 7, False),
    ("bt", "E2", "E3"): (9, None, None, 7, False),
    ("llt", "E1", "E2"): (9, None, None, 2, False),
    ("llt", "E1", "E3"): (22, None, None, 7, True),
    ("llt", "E2", "E3"): (22, None, None, 7, True),
    ("bet", "E1", "E2"): (15, None, None, 3, False),
    ("bet", "E1", "E3"): (27, None, None, 7, True),
    ("bet", "E2", "E3"): (27, None, None, 6, True),
}


@pytest.mark.parametrize("key", list(_PRODUCTS), ids="-".join)
def test_product_graph_of_the_enumerators(key):
    sem, a, b = key
    terms = {"E1": E1, "E2": E2, "E3": E3}
    ta = compact_cyclic(terms[a], semantics=sem)
    tb = compact_cyclic(terms[b], semantics=sem)
    expected = _PRODUCTS[key]
    assert _summary(compare._explore(ta, tb, Relation.EQ)) == expected


# The two sides' step lists in each case: a proper subsequence (so
# fewer steps), equal lists, a proper supersequence (more steps), and
# fewer steps that are no subsequence
_S = (HeadPos(0, 1), HeadPos(1, 0), HeadPos(0, 2))
_ANNOTATIONS = {
    "less": ((_S[0], _S[2]), _S),
    "equal": (_S, _S),
    "greater": (_S, (_S[1], _S[2])),
    "not-subsequence": ((_S[2], _S[0]), (_S[0], _S[1], _S[2])),
}
_HOLDS = {  # relation -> the cases where it holds
    Relation.LE: {"less", "equal", "not-subsequence"},
    Relation.EQ: {"equal"},
    Relation.GE: {"equal", "greater"},
    Relation.SUBSEQ_LE: {"less", "equal"},
    Relation.LIST_EQ: {"equal"},
    Relation.SUBSEQ_GE: {"equal", "greater"},
}


@pytest.mark.parametrize("rel", list(Relation), ids=lambda r: r.value)
@pytest.mark.parametrize("case", list(_ANNOTATIONS))
def test_one_node_test_per_relation(rel, case):
    # holds_for and the product's annotation check read the same test
    p, q = _ANNOTATIONS[case]
    a, b = (Node("hnf", steps, (), "f", ("f", "f")) for steps in (p, q))
    assert rel.holds_for(a, b) is (case in _HOLDS[rel])
    ta, tb = (ClockTree(n, "bt", False, 1, 10, closed=True) for n in (a, b))
    assert compare._explore(ta, tb, rel).ann_bad == (set() if case in _HOLDS[rel] else {0})


def _product_view(prod):
    # every depth and edge weight too, which read the child step lengths
    return _summary(prod), prod.depth, prod.edges


@pytest.mark.parametrize("sem", ["bt", "llt"])
@pytest.mark.parametrize("m,n", [(Y0, Y1), (E1, E3), (scott_seq(1), gvector(Y1, 1)),
                                 (bohm_seq(2), bbb_scheme(Y0, 1)), (Y0, scott_composite([1, 0]))],
                         ids=["Y0/Y1", "E1/E3", "scott_seq(1)/gvector(Y1,1)",
                              "bohm_seq(2)/bbb_scheme(Y0,1)", "Y0/[1,0]"])
def test_kept_tables_read_as_fresh_trees(sem, m, n):
    # a tree's tables are filled on either side and read on both, so each
    # exploration must pair the trees as freshly built copies do
    def fresh(t):
        return compact_cyclic(t, semantics=sem)

    a, b = fresh(m), fresh(n)
    for x, y, rel in [(a, b, Relation.EQ), (b, a, Relation.EQ), (a, b, Relation.EQ),
                      (a, b, Relation.LIST_EQ), (b, a, Relation.LIST_EQ),
                      (a, b, Relation.LIST_EQ), (b, b, Relation.EQ)]:
        got = _product_view(compare._explore(x, y, rel))
        tx, ty = (m if t is a else n for t in (x, y))
        assert got == _product_view(compare._explore(fresh(tx), fresh(ty), rel))


_ACYCLIC = {"bt": clocked_bt, "llt": clocked_llt, "bet": clocked_bet}


@pytest.mark.parametrize("sem,level", [("bt", 2), ("llt", 2), ("bet", 1)])
def test_shared_subtrees_keep_the_depth_of_the_first_difference(defs, sem, level):
    # In bt and llt both arguments of f (g a) (g a) are one node, so the
    # first difference is met twice: at the first argument, two digits
    # down, and at the second, one digit down.  A node per position makes
    # the first argument the first difference, and its depth the one
    # reported.  bet has the two arguments at different levels, and finds
    # the second one first.
    build = _ACYCLIC[sem]
    m, n = build(parse("f (g a) (g a)"), 5), build(parse("f g g"), 5)
    assert (node_at(m, (1, 2)) is node_at(m, (2,))) == (sem != "bet")
    assert holds_eventually(m, n, Relation.EQ).level == level
    # The same against a cyclic tree whose two arguments are one shared
    # subtree: with a node per position on the other side, no state is
    # met twice, so no depth is lowered there either.
    cyclic = compact_cyclic(parse("f (Y1 g) (Y1 g)", defs), semantics=sem)
    assert cyclic.refs is True
    shared = build(parse("f (h a) (h a)"), 5)
    assert holds_eventually(cyclic, shared, Relation.EQ).level == 2
    assert holds_eventually(shared, cyclic, Relation.EQ).level == 2


# -- binder pairing ----------------------------------------------------------

_CYCLIC_BINDER_PAIR = (r"Y0 (\f x y. x (f y x))", r"Y0 (\f x y. x (f x y))")


@pytest.mark.parametrize(
    "m, n, depth",
    [
        (r"\x y. x", r"\x y. y", 0),
        (r"\x. x (\y. y)", r"\x. x (\y. x)", 2),
        (*_CYCLIC_BINDER_PAIR, 3),
    ],
)
def test_discriminate_tells_binders_apart(defs, m, n, depth):
    # the layers agree in shape and clock; only the binder each head
    # names differs
    v = discriminate(parse(m, defs), parse(n, defs), DiscriminationConfig())
    assert (v.conclusion, v.justification) == (INCONVERTIBLE, "different-bt")
    assert v.evidence["position_depth"] == depth


@pytest.mark.parametrize("semantics", ["llt", "bet"])
def test_globally_tells_binders_apart_on_cyclic_trees(defs, semantics):
    m, n = (compact_cyclic(parse(t, defs), semantics=semantics)
            for t in _CYCLIC_BINDER_PAIR)
    assert m.closed and n.closed
    assert holds_globally(m, n, Relation.EQ) is False


# -- reduct enumeration and joinability -------------------------------------


def test_enumerate_reducts_small(defs):
    rs = enumerate_reducts(parse("I I", defs), limit=10)
    assert sorted(pretty(r) for r in rs) == [r"(\x.x) (\x.x)", r"\x.x"]


def test_bounded_joinable_finds_common_reduct():
    j = bounded_joinable(E1, E2, limit=2000)
    assert j is not None
    assert j == E1


def test_bounded_joinable_negative(defs):
    assert bounded_joinable(parse("I", defs), parse(r"\x. x x"), limit=200) is None


@pytest.mark.parametrize(
    "a, b, meeting",
    [
        (Y1, bbb_scheme(Y0, 1), r"(\x z. z (x x z)) (\x z. z (x x z))"),
        (scott_seq(2), bbb_scheme(Y0, 2), r"Y0 (\y z z1. z z1 (y z z1)) I"),
        (bbb_scheme(Y0, 2), gvector(Y0, 0), r"Y0 (\y z z1. z z1 (y z z1)) I"),
    ],
    ids=["Y1/bbb1", "scott2/bbb2", "bbb2/gvector0"],
)
def test_bounded_joinable_meets_small_deep_reducts(defs, a, b, meeting):
    # each pair's common reduct is small but many steps deep
    assert bounded_joinable(a, b, limit=200) == parse(meeting, defs)


def test_bounded_joinable_returns_the_first_sides_term():
    assert bounded_joinable(E1, E1) is E1
    x, y = parse(r"\x.x"), parse(r"\y.y")
    j = bounded_joinable(x, y)
    assert j is x and pretty(j) == r"\x.x"
    assert pretty(bounded_joinable(y, x)) == r"\y.y"


def test_size_pruned_pool_is_not_exhaustive(search_bounds):
    # The one reduct of this 21-node term, M M M, has 44 nodes: more than
    # twice the term, so under a 30-node floor its pool holds the term
    # alone, short of the limit but not closed under reduction.  With no
    # contraction past the terms themselves, neither side finds a simple
    # term.
    t = parse(r"(\x. x x x) (\y. f y y y y y y)")
    assert t.size == 21 and [r.size for r in one_step_reducts(t)] == [44]
    with search_bounds(SIZE_LIMIT=30):
        assert enumerate_reducts(t) == [t]
    v = discriminate(scott_seq(1), scott_seq(0), DiscriminationConfig(reduct_limit=0))
    assert v.conclusion == INCONCLUSIVE
    assert v.evidence["simple_reduct"] == [False, False]


def test_the_closure_keeps_to_the_size_rule(search_bounds):
    # Each redex copies its normal argument four times, so each is simple
    # and none copies a redex: the closure contracts one that keeps the
    # term within the rule, and passes over one that would take it past,
    # however many contractions are left.
    arg = app(Free("f"), *[Free("a")] * 10)
    r = App(parse(r"\x. g x x x x"), arg)
    c = app(Free("g"), arg, arg, arg, arg)
    t = app(Free("h"), r, r)
    one, two = app(Free("h"), c, r), app(Free("h"), c, c)
    assert t.size < one.size <= 2 * t.size < two.size
    for floor, end in ((0, one), (two.size - 1, one), (two.size, two)):
        with search_bounds(SIZE_LIMIT=floor):
            assert compare._closure(t, compare.REDUCT_LIMIT) == end


def test_size_pruned_pool_never_certifies_a_convertible_pair(defs, search_bounds):
    # Y0 f has infinitely many reducts, 47 of them of size at most 60;
    # f^30 ((\x.f (x x)) (\x.f (x x))) is one of the others.
    m = parse("Y0 f", defs)
    n = iterate("right", Free("f"), parse(r"(\x. f (x x)) (\x. f (x x))"), 30)
    with search_bounds(SIZE_LIMIT=60):
        assert len(enumerate_reducts(m)) == 47
        v = discriminate(m, n)
    assert v.conclusion == INCONCLUSIVE
    # Y0 f is simple; the search from n runs out without a simple reduct
    assert v.evidence["simple_reduct"] == [True, False]


# Family neighbours past SIZE_LIMIT (500 nodes), each family with the
# first count whose member is past it: each side's closure keeps terms of
# up to twice its size, so it still reaches a simple reduct.
_FAMILIES = {
    "scott_seq": (scott_seq, 48),
    "gvector(Y0)": (functools.partial(gvector, Y0), 48),
    "gvector(Y1)": (functools.partial(gvector, Y1), 48),
    "bbb_scheme(Y0)": (functools.partial(bbb_scheme, Y0), 24),
}


@pytest.mark.parametrize("n", [24, 40, 48, 64, 128])
@pytest.mark.parametrize("family", _FAMILIES.values(), ids=_FAMILIES.keys())
def test_family_neighbours_are_told_apart_past_the_size_floor(family, n):
    make, past = family
    m = make(n)
    assert (m.size > compare.SIZE_LIMIT) == (n >= past)
    v = discriminate(m, make(n + 1))
    assert (v.conclusion, v.justification) == (INCONVERTIBLE, "simple-eventual-mismatch")


def test_no_caller_certificate_for_unimproved_pools():
    # No pool certifies, so there is no hook to make it.
    with pytest.raises(TypeError):
        DiscriminationConfig(certify_all_reducts=lambda pool, exh: True)  # type: ignore[call-arg]


def test_discriminate_enumerates_no_reducts(defs, monkeypatch):
    # Each pair has a simple closed tree on both sides whose clocks agree
    # eventually: the verdict is left open without enumerating a pool.
    enumerated = []
    original = compare.enumerate_reducts

    def counting(t, *args, **kwargs):
        enumerated.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(compare, "enumerate_reducts", counting)
    for m, n in (
        (parse("Y0", defs), parse("Y0", defs)),
        (E1, E2),
        (parse("Y0 delta delta", defs), parse("Y0 (S S) I", defs)),
    ):
        v = discriminate(m, n, DiscriminationConfig())
        assert v.to_dict() == {
            "conclusion": INCONCLUSIVE,
            "justification": "none",
            "evidence": {
                "depth": 12,
                "fuel": 10000,
                "atomic": False,
                "closed": [True, True],
                "simple_reduct": [True, True],
            },
        }
    assert enumerated == []


def test_find_simple_reduct():
    # E2 closes to W W, where E1 = (\x. x x) W: E1's one-step reduct
    got = find_simple_reduct(E2)
    assert got is not None
    reduct, report = got
    assert report.status == "simple"
    assert reduct == App(E1.arg, E1.arg) == next(one_step_reducts(E1))


@pytest.mark.parametrize("ns", [[0], [1], [2], [3], [4], [2, 0, 1]], ids=str)
def test_find_simple_reduct_is_the_papers_simplified_form(ns):
    # Example 4.20: the simple reduct of a Scott composite is θθ S…S I,
    # then per further entry the normal form of SS with its S's and I
    got = find_simple_reduct(scott_composite(ns))
    assert got is not None
    assert got[0] == scott_composite_simplified(ns)


def test_find_simple_reduct_identity(defs):
    y2 = parse("eta eta delta", defs)
    got = find_simple_reduct(y2)
    assert got is not None and got[0] == y2


@pytest.mark.parametrize(
    "term", [bbb_scheme(Y0, 1), scott_composite([0, 0])], ids=["bbb1", "sc00"]
)
def test_find_simple_reduct_beyond_breadth_first(term):
    # Neither term has a simple reduct among the first 2000 in
    # breadth-first order; the closure reaches a smaller one.
    got = find_simple_reduct(term)
    assert got is not None
    reduct, report = got
    assert report.status == "simple"
    assert reduct.size < term.size


def _clear_profiles():
    compare._report.cache_clear()
    compare._simple_reduct.cache_clear()


def _count_checks(monkeypatch):
    # the whole-tree checks and the reduct search's, which stop at the
    # first non-simple step; the profile caches start empty, so every
    # check discriminate needs is made and counted
    checked = []
    _clear_profiles()

    def counting(original):
        def go(t, *args, **kwargs):
            checked.append(t)
            return original(t, *args, **kwargs)

        return go

    for name in ("check_simple", "_simple_report"):
        monkeypatch.setattr(compare, name, counting(getattr(compare, name)))
    return checked


@pytest.mark.parametrize("k", [0, 3])
def test_find_simple_reduct_limit(k, monkeypatch):
    # limit caps the contractions: bbb_scheme(Y0, 1) is more than 3 from
    # its simple reduct.  The term is checked, then the closure's end
    # once, unless no contraction was made.
    checked = _count_checks(monkeypatch)
    term = bbb_scheme(Y0, 1)
    assert find_simple_reduct(term, limit=k) is None
    ends = [compare._closure(term, k)] if k else []
    assert checked == [term, *ends]
    checked.clear()
    assert find_simple_reduct(term) is not None
    assert len(checked) == 2


@pytest.mark.parametrize("k", [0, 3])
def test_find_simple_reduct_starts_from_a_given_report(k, monkeypatch):
    # the given report stands for the check of the term itself, so only
    # the closure's end is checked, and only when it is another term
    term = bbb_scheme(Y0, 1)
    report = compare.check_simple(term)
    checked = _count_checks(monkeypatch)
    assert find_simple_reduct(term, limit=k, report=report) is None
    assert term not in checked
    assert len(checked) == (k > 0)


def test_discriminate_checks_each_side_once(monkeypatch):
    checked = _count_checks(monkeypatch)
    m, n = scott_seq(1), scott_seq(2)
    v = discriminate(m, n)
    assert v.justification == "simple-eventual-mismatch"
    # each side, then each side's closure end
    assert len(checked) == 4
    assert checked.count(m) == checked.count(n) == 1
    # the profile table serves the same call again without a check
    checked.clear()
    assert discriminate(m, n).to_dict() == v.to_dict()
    assert checked == []


# Catalog terms for the profile table's tests: simple and not, with and
# without a simple reduct, Y1 and bohm_seq(1) being one term.
_PROFILED = (Y0, Y1, bohm_seq(1), bohm_seq(2), scott_seq(0), scott_seq(1),
             scott_seq(2), gvector(Y0, 0), bbb_scheme(Y0, 1),
             scott_composite([0, 1]), E1, E2, E3)


def _cold(m, n, cfg):
    _clear_profiles()
    return discriminate(m, n, cfg).to_dict()


@pytest.mark.parametrize("limit", [compare.PROFILE_LIMIT, 3], ids=["limit", "evicting"])
def test_profile_table_gives_the_cold_verdicts(limit, monkeypatch):
    # every pair, plain and atomic, in a shuffled order, so that hits
    # come from other pairs and the other clock mode; with 3-entry
    # caches most entries are evicted before they are met again
    for name in ("_report", "_simple_reduct"):
        f = getattr(compare, name).__wrapped__
        monkeypatch.setattr(compare, name, functools.lru_cache(limit)(f))
    runs = [(m, n, DiscriminationConfig(atomic=atomic))
            for m, n in itertools.combinations_with_replacement(_PROFILED, 2)
            for atomic in (False, True)]
    cold = [_cold(*run) for run in runs]
    order = list(range(len(runs)))
    random.Random(28).shuffle(order)
    _clear_profiles()
    for i in order:
        assert discriminate(*runs[i]).to_dict() == cold[i]
        assert compare._report.cache_info().currsize <= limit
        assert compare._simple_reduct.cache_info().currsize <= limit


def test_profile_table_stays_within_its_limit(monkeypatch):
    checked = _count_checks(monkeypatch)
    y = Free("y")
    newest = Free(f"x{compare.PROFILE_LIMIT + 43}")
    for i in range(compare.PROFILE_LIMIT + 44):
        assert discriminate(Free(f"x{i}"), y).justification == "different-bt"
        assert compare._report.cache_info().currsize <= compare.PROFILE_LIMIT
    assert compare._report.cache_info().currsize == compare.PROFILE_LIMIT
    # the oldest went first: x0 is checked again, the newest is not
    checked.clear()
    discriminate(newest, y)
    discriminate(Free("x0"), y)
    assert checked == [Free("x0")]


def test_profile_table_keeps_binder_hints_apart(monkeypatch):
    # alpha-variants share a hash but not a tree: the displayed binders
    # come from the hints, so a hint-variant is checked again
    checked = _count_checks(monkeypatch)
    m, m2, n = parse(r"\x. x x"), parse(r"\y. y y"), parse(r"\x. x")
    cfg = DiscriminationConfig()
    v = discriminate(m, n, cfg)
    checked.clear()
    assert discriminate(m2, n, cfg).to_dict() == v.to_dict()
    assert checked == [m2]
    # both variants are kept, each with its own binder names
    assert compare._report(_Exact(m2), cfg.depth, cfg.fuel).tree.root.binders == ("y",)
    assert compare._report(_Exact(m), cfg.depth, cfg.fuel).tree.root.binders == ("x",)
    assert checked == [m2]


def _calls(monkeypatch, name):
    """The first argument of each later call of ``compare``'s ``name``."""
    calls = []
    original = getattr(compare, name)

    def go(t, *args, **kwargs):
        calls.append(t)
        return original(t, *args, **kwargs)

    monkeypatch.setattr(compare, name, go)
    return calls


@pytest.mark.parametrize("bound", ["depth", "fuel", "reduct_limit"])
def test_profile_table_keys_on_every_bound(bound, monkeypatch):
    checked = _count_checks(monkeypatch)
    m, n = scott_seq(1), bbb_scheme(Y0, 1)
    cfg = DiscriminationConfig()
    discriminate(m, n, cfg)
    # the clock mode is not part of the key
    checked.clear()
    discriminate(m, n, DiscriminationConfig(atomic=True))
    assert checked == []
    whole = _calls(monkeypatch, "check_simple")  # not the search's checks
    searched = _calls(monkeypatch, "find_simple_reduct")
    other = DiscriminationConfig(**{bound: getattr(cfg, bound) - 1})
    v = discriminate(m, n, other)
    if bound in ("depth", "fuel"):
        # check_simple reads these, so both sides are checked again
        assert m in whole and n in whole
    else:
        # a search bound: no side is checked again, but neither side is
        # simple, so each is searched again
        assert whole == []
        assert searched == [m, n]
    assert v.to_dict() == _cold(m, n, other)


def test_profile_table_stores_no_raising_check(monkeypatch):
    _clear_profiles()
    m, n = scott_seq(1), bbb_scheme(Y0, 1)
    calls = []

    def failing(name):
        original = getattr(compare, name)

        def go(t, *args, **kwargs):
            calls.append(t)
            if t is n:
                raise MemoryError
            return original(t, *args, **kwargs)

        monkeypatch.setattr(compare, name, go)
        return original

    original = failing("check_simple")
    with pytest.raises(MemoryError):
        discriminate(m, n)
    assert calls == [m, n]
    # m's check is stored, n's is run again on the next call
    calls.clear()
    with pytest.raises(MemoryError):
        discriminate(m, n)
    assert calls == [n]
    # nor a raising search: the term's reduct is searched for again
    monkeypatch.setattr(compare, "check_simple", original)
    original = failing("find_simple_reduct")
    calls.clear()
    with pytest.raises(MemoryError):
        discriminate(m, n)
    assert calls == [m, n]
    calls.clear()
    with pytest.raises(MemoryError):
        discriminate(m, n)
    assert calls == [n]
    monkeypatch.setattr(compare, "find_simple_reduct", original)
    assert discriminate(m, n).to_dict() == _cold(m, n, DiscriminationConfig())


@pytest.mark.parametrize("m,n", [(bohm_seq(1), bohm_seq(2)), (Y0, Y1)],
                         ids=["bohm_seq(1)/bohm_seq(2)", "Y0/Y1"])
def test_discriminate_explores_two_simple_sides_once(m, n, monkeypatch):
    # both sides are simple as given, so step (2) compares the trees that
    # step (1) paired, and reads its product
    explored = []

    def counting(*args):
        explored.append(args)
        return original(*args)

    original = compare._explore
    monkeypatch.setattr(compare, "_explore", counting)
    assert discriminate(m, n).justification == "simple-eventual-mismatch"
    assert len(explored) == 1


# -- end-to-end discrimination ----------------------------------------------


def test_discriminate_classic_fpcs(defs):
    v = discriminate(parse("Y0", defs), parse("Y1", defs), DiscriminationConfig())
    assert bool(v)
    assert v.conclusion == INCONVERTIBLE
    assert v.justification == "simple-eventual-mismatch"
    assert v.evidence["level"] == 2
    assert v.evidence["relation"] == "eq"
    assert v.evidence["closed"] == [True, True]


def test_discriminate_structurally_different(defs):
    v = discriminate(parse("I", defs), parse(r"\x. x x"), DiscriminationConfig())
    assert v.conclusion == INCONVERTIBLE
    assert v.justification == "different-bt"
    assert v.evidence["position_depth"] == 0


def test_discriminate_needs_atomic_view(defs):
    y2 = parse("Y0 delta delta", defs)
    u2 = parse("Y0 (S S) I", defs)
    atomic = discriminate(y2, u2, DiscriminationConfig(atomic=True))
    assert atomic.conclusion == INCONVERTIBLE
    assert atomic.justification == "simple-eventual-mismatch"
    plain = discriminate(y2, u2, DiscriminationConfig())
    assert plain.conclusion == INCONCLUSIVE


def test_discriminate_enumerators():
    v = discriminate(E1, E3, DiscriminationConfig())
    assert v.conclusion == INCONVERTIBLE
    assert v.justification == "simple-eventual-mismatch"


@pytest.mark.parametrize("atomic,relation", [(False, "le"), (True, "subseq_le")])
def test_discriminate_simple_side_does_not_improve(atomic, relation):
    # bbb_scheme(Y0, 0) is convertible with Y0, not with bohm_seq(2).
    # bohm_seq(2) is simple; with one reduct made, the search finds no
    # simple reduct of bbb_scheme(Y0, 0), so step (2) cannot run and
    # step (3) separates the pair
    m, n = bohm_seq(2), bbb_scheme(Y0, 0)
    cfg = DiscriminationConfig(atomic=atomic, reduct_limit=1)
    for a, b, side in ((m, n, "first"), (n, m, "second")):
        v = discriminate(a, b, cfg)
        assert v.conclusion == INCONVERTIBLE
        assert v.justification == "simple-no-improvement"
        assert (v.evidence["simple_side"], v.evidence["relation"]) == (side, relation)
        assert v.evidence["level"] == 2
    # at the default limit both sides have simple reducts, and step (2)
    # separates the pair first
    v = discriminate(m, n, DiscriminationConfig(atomic=atomic))
    assert v.justification == "simple-eventual-mismatch"


def test_discriminate_convertible_pair_stays_inconclusive():
    v = discriminate(E1, E2, DiscriminationConfig())
    assert not bool(v)
    assert v.conclusion == INCONCLUSIVE
    assert v.justification == "none"


def test_discriminate_same_term(defs):
    v = discriminate(parse("Y0", defs), parse("Y0", defs), DiscriminationConfig())
    assert v.conclusion == INCONCLUSIVE
    assert v.justification == "none"


def test_no_unverified_reduct_hints():
    # A hint taken as a simple reduct without proof once separated
    # scott_seq(0) from itself via Y1's tree.
    with pytest.raises(TypeError):
        DiscriminationConfig(reducts_m=(Y1,))  # type: ignore[call-arg]
    v = discriminate(scott_seq(0), scott_seq(0))
    assert v.conclusion == INCONCLUSIVE


def test_verdict_serialization(defs):
    v = discriminate(parse("Y0", defs), parse("Y1", defs), DiscriminationConfig())
    d = v.to_dict()
    assert sorted(d) == ["conclusion", "evidence", "justification"]
    assert d["conclusion"] == INCONVERTIBLE


_COMPOSITES = ([0], [1], [0, 0], [1, 0], [0, 1])


@pytest.mark.parametrize("atomic", [False, True], ids=["plain", "atomic"])
def test_discriminate_separates_generated_fpcs(atomic):
    # Every fpc these schemes generate is new (the paper's abstract), so
    # every pair is inconvertible; only [1,0]/[0,1] needs atomic clocks.
    cfg = DiscriminationConfig(atomic=atomic)
    pairs = [
        (f"bbb_scheme {a}/{b}", bbb_scheme(Y0, a), bbb_scheme(Y0, b))
        for a, b in itertools.combinations(range(3), 2)
    ] + [
        (f"{a}/{b}", scott_composite(a), scott_composite(b))
        for a, b in itertools.combinations(_COMPOSITES, 2)
    ]
    missed = [
        label for label, m, n in pairs
        if discriminate(m, n, cfg).conclusion != INCONVERTIBLE
    ]
    assert missed == ([] if atomic else ["[1, 0]/[0, 1]"])
