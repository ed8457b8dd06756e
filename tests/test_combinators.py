"""The term catalog, the duplicators' clock witnesses, and the balance law
and coded evaluators from the test fixtures."""

import importlib.resources as resources

import pytest

import lamclock.combinators as C
from fixtures import balanced_reducts, encode_cl, evaluator_check, gross_knuth, is_balanced
from lamclock.parser import parse, pretty
from lamclock.terms import App, Free
from lamclock.trees import compact_cyclic, node_at


# -- generator schemes -------------------------------------------------------


def test_bohm_seq_base_cases():
    assert C.bohm_seq(1) == C.Y1
    assert C.bohm_seq(2) == App(C.Y1, C.DELTA)
    with pytest.raises(ValueError):
        C.bohm_seq(0)


def test_scott_seq_base_case(defs):
    assert C.scott_seq(0) == parse("B Y0 I", defs)
    with pytest.raises(ValueError):
        C.scott_seq(-1)


def test_flipflop_variants():
    z, z_prime = C.wfpc_flipflop(0), C.wfpc_flipflop(1)
    assert z != z_prime
    with pytest.raises(ValueError):
        C.wfpc_flipflop(2)


def test_composite_rejects_bad_exponents():
    with pytest.raises(ValueError):
        C.scott_composite([-1])
    with pytest.raises(ValueError):
        C.scott_composite_simplified([])


FPC_CANDIDATES = [
    ("curry", lambda: C.Y0),
    ("turing", lambda: C.Y1),
    ("owl-postfix-2", lambda: C.bohm_seq(2)),
    ("owl-postfix-3", lambda: C.bohm_seq(3)),
    ("owl-postfix-6", lambda: C.bohm_seq(6)),
    ("comp-0", lambda: C.scott_seq(0)),
    ("comp-3", lambda: C.scott_seq(3)),
    ("vector-0", lambda: C.gvector(C.Y1, 0)),
    ("vector-4", lambda: C.gvector(C.Y1, 4)),
    ("triple-comp-3", lambda: C.bbb_scheme(None, 3)),
    ("dummy-params-4", lambda: C.dummy_scheme(C.Y0, (C.I,) * 4)),
    ("composite-2-0-1", lambda: C.scott_composite([2, 0, 1])),
    ("composite-simplified", lambda: C.scott_composite_simplified([2, 0, 1])),
    ("flipflop-0", lambda: C.wfpc_flipflop(0)),
    ("flipflop-1", lambda: C.wfpc_flipflop(1)),
]


@pytest.mark.parametrize("name,mk", FPC_CANDIDATES, ids=[n for n, _ in FPC_CANDIDATES])
def test_fixed_point_spine(name, mk):
    # applied to a free variable, each candidate's tree is x(x(x(...))):
    # the cyclic tree closes, and reads as that spine at every level
    tree = compact_cyclic(App(mk(), Free("x")))
    assert tree.closed
    for k in range(12):
        node = node_at(tree, (2,) * k)
        assert node.kind == "hnf" and not node.binders
        assert node.head_ref == ("f", "x") and len(node.children) == 1


# -- balance -----------------------------------------------------------------


# The duplicator's free name f is its label: the tracked occurrences.


def test_is_balanced():
    assert is_balanced(C.plotkin_A(C.Y0), "f")
    lopsided = App(App(Free("f"), C.I), C.K)
    assert not is_balanced(lopsided, "f")
    # unmarked terms are vacuously balanced
    assert is_balanced(C.Y1, "f")


@pytest.mark.parametrize("y", [lambda: C.Y0, lambda: C.Y1], ids=["curry", "turing"])
def test_full_development_preserves_balance(y):
    t = C.plotkin_A(y())
    for _ in range(5):
        assert is_balanced(t, "f")
        t = gross_knuth(t)


@pytest.mark.parametrize("y", [lambda: C.Y0, lambda: C.Y1], ids=["curry", "turing"])
def test_balanced_reduct_sampler(y):
    rs = balanced_reducts(C.plotkin_A(y()), "f", 50)
    assert len(rs) == 50
    assert len(set(rs)) == 50
    assert all(is_balanced(r, "f") for r in rs)


def test_duplicator_tree_has_nonzero_annotation():
    assert C.plotkin_nonzero_witness(C.plotkin_A(C.Y1)) == (2,)
    assert C.plotkin_nonzero_witness(C.plotkin_A(C.Y0)) == (2,)


@pytest.mark.parametrize("y", [lambda: C.Y0, lambda: C.Y1], ids=["curry", "turing"])
def test_guarded_variant_annotations_all_zero(y):
    assert C.plotkin_nonzero_witness(C.plotkin_Bprime(y()), depth=8) is None


# -- coded combinatory logic -------------------------------------------------


@pytest.mark.parametrize("text", ["", "(", ")", "K)", "(K", "()", "KX", "K X", r"\x.x"])
def test_cl_parse_rejects_malformed_input(text, defs):
    # a text that does not parse, or whose term has a leaf other than K
    # and S, is no combinatory term
    with pytest.raises(ValueError):
        encode_cl(parse(text, defs))


def test_cl_parse_any_depth(defs, default_recursion_limit):
    # S (S (... K)), far deeper than the recursion limit, parses and codes
    n = 5000
    code = encode_cl(parse("S (" * n + "K" + ")" * n, defs))
    k, s = encode_cl(C.K), encode_cl(C.S)
    depth = 0
    while code is not k:
        tag, fn, code = code.body.fn.fn.arg, code.body.fn.arg, code.body.arg
        assert (tag, fn) == (App(C.K, C.I), s)
        depth += 1
    assert depth == n


def test_encode_cl_codes_an_alpha_variant_leaf_as_the_constant(defs):
    k = parse(r"\a b.a")
    assert k is not C.K and encode_cl(k) is encode_cl(C.K)
    assert pretty(encode_cl(parse(r"S (\a b.a)", defs))) == pretty(encode_cl(parse("S K", defs)))


def test_enumerator_spellings_frozen():
    gold = (resources.files("lamclock") / "goldens" / "enumerators.txt").read_text()
    assert gold == pretty(C.E1) + "\n" + pretty(C.E2) + "\n" + pretty(C.E3) + "\n"


def test_evaluator_check(defs):
    assert evaluator_check(C.E1, C.K)
    assert evaluator_check(C.E2, C.K)
    assert evaluator_check(C.E3, C.S)
    assert evaluator_check(C.E3, parse("S K (K S)", defs))


def test_identity_is_not_an_evaluator(defs):
    assert not evaluator_check(parse("I", defs), C.K)


# -- atomic spine patterns ---------------------------------------------------


def test_ones_exponents():
    assert C.ones_exponents([(1, 1), (1,), ()]) == [2, 1, 0]
    with pytest.raises(ValueError):
        C.ones_exponents([(1, 2)])


def test_pulse_pattern():
    assert C.pulse_pattern_count([3, 4, 3, 2, 1]) == 1
    assert C.pulse_pattern_count([3, 4, 3, 2]) == 0
    assert C.pulse_pattern_count([]) == 0


def test_composite_atomic_signature():
    # the three exponents [2, 0, 1] are recoverable from the atomic clock:
    # 21 spine positions whose lengths carry exactly k-1 = 2 pulse windows
    t = App(C.scott_composite_simplified([2, 0, 1]), Free("x"))
    tree = compact_cyclic(t, atomic=True)
    exps = C.ones_exponents(tree.root.steps)
    assert exps == [9, 8, 7, 8, 7, 6, 7, 6, 5, 6, 5, 4, 3, 4, 3, 2, 1, 2, 1, 0, 1]
    assert C.pulse_pattern_count(exps) == 2


# -- the catalog -------------------------------------------------------------


def test_catalog_lists_every_name():
    names = C.catalog_names()
    assert "y0" in names and "bohm-seq" in names and "wfpc-flipflop" in names
    assert len(names) == len(set(names))


def test_catalog_lookup(defs):
    assert C.catalog("i") == C.I
    assert C.catalog("bohm-seq", 2) == C.bohm_seq(2)
    assert C.catalog("gvector", parse("Y1", defs), 3) == C.gvector(C.Y1, 3)


def test_catalog_rejects_bad_requests():
    with pytest.raises(ValueError):
        C.catalog("nope")
    with pytest.raises(ValueError):
        C.catalog("i", 1)


@pytest.mark.parametrize("params", [
    ("plotkin-a", 5),
    ("dummy-scheme", 3),
    ("wfpc-flipflop", C.Y0),
    ("gvector", C.Y0, 1, 2),
    ("gvector", C.Y0, C.Y1),
    ("bohm-seq",),
    ("bohm-seq", 2, C.Y0),
    ("scott-composite", [1, 2]),
])
def test_catalog_rejects_a_parameter_not_taken(params):
    with pytest.raises(ValueError, match=f"^{params[0]} takes "):
        C.catalog(*params)


def test_catalog_takes_each_parameter_in_its_place():
    assert C.catalog("gvector", 3, C.Y0) == C.gvector(C.Y0, 3)
    assert C.catalog("gvector", 3) == C.gvector(None, 3)
    assert C.catalog("bbb-scheme", C.Y1) == C.bbb_scheme(C.Y1)
    assert C.catalog("dummy-scheme", C.Y1, C.I, C.K) == C.dummy_scheme(C.Y1, (C.I, C.K))
    assert C.catalog("dummy-scheme") == C.dummy_scheme()
    assert C.catalog("scott-composite", 1, 0) == C.scott_composite([1, 0])
    assert C.catalog("plotkin-bprime", C.Y0) == C.plotkin_Bprime(C.Y0)
    assert C.catalog("wfpc-flipflop", 1) == C.wfpc_flipflop(1)


def test_catalog_names_are_the_plain_entries_then_the_families():
    assert C.catalog_names() == [
        "b", "delta", "e1", "e2", "e3", "eta", "i", "k", "omega-f", "s", "theta", "y0", "y1",
        "bbb-scheme", "bohm-seq", "dummy-scheme", "gvector", "plotkin-a", "plotkin-b",
        "plotkin-bprime", "scott-composite", "scott-seq", "wfpc-flipflop",
    ]
