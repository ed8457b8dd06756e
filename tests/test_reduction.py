"""Reduction machinery: head steps, classification, normalization, and the
fixtures' developments."""

import sys
import tracemalloc

import pytest

from fixtures import develop, gross_knuth
from lamclock.parser import parse
from lamclock.reduction import (
    DEFAULT_FUEL,
    FUEL_EXHAUSTED,
    PROVEN_DIVERGENT,
    RESOLVED,
    classify_redex,
    contract_at,
    head_redex_position,
    head_reduce,
    normalize,
    redex_positions,
    reducing_fpc_order,
)
from lamclock.terms import App, Free, Lam, TermError, Var, app, iterate

OMEGA = r"(\x.x x) (\x.x x)"


def omf(f="f"):
    return parse(rf"\x.{f} (x x)")


def test_head_redex_position(defs):
    assert head_redex_position(parse(r"\x.x")) is None
    assert head_redex_position(parse(r"(\x.x) y")) == ()
    assert head_redex_position(parse("eta eta delta x", defs)) == (1, 1)


def test_head_redex_under_binders():
    # the head redex sits under the leading binder block
    assert head_redex_position(parse(r"\a.(\x.x) a")) == (0,)


def test_contract_at_basics(defs):
    assert contract_at(parse(r"(\x.x) y"), ()) == Free("y")
    t = App(omf(), omf())
    assert contract_at(t, ()) == App(Free("f"), t)
    assert contract_at(parse(r"x ((\y.y) z)"), (2,)) == parse("x z")


def test_contract_at_rejects_non_redex():
    with pytest.raises(TermError):
        contract_at(parse("x y"), ())


def test_head_reduce_resolves_with_steps(defs):
    out = head_reduce(App(parse("Y1", defs), Free("f")))
    assert out.status == RESOLVED
    assert len(out.steps) == 2
    assert out.result == parse("f (Y1 f)", defs)


def test_head_reduce_proves_divergence():
    out = head_reduce(parse(OMEGA))
    assert out.status == PROVEN_DIVERGENT


def test_head_reduce_whnf_target():
    pp = parse(r"(\x y.x x) (\x y.x x)")
    out = head_reduce(pp, "whnf", 10)
    assert out.status == RESOLVED
    assert len(out.steps) == 1
    assert out.result == parse(r"\y.(\x y.x x) (\x y.x x)")


def test_head_reduce_growing_term_exhausts_fuel(defs):
    # delta delta (delta delta) grows forever without repeating
    t = parse("delta delta (delta delta)", defs)
    out = head_reduce(t, "hnf", 300)
    assert out.status == FUEL_EXHAUSTED


@pytest.mark.parametrize("target, steps", [("hnf", 1000), ("whnf", 1000), ("root_stable", 1)])
def test_growing_spine_at_the_default_recursion_limit(target, steps):
    # Each step adds a spine node; a step that recursed once per spine
    # node raised RecursionError before step 1000 (K1).  root_stable takes
    # one step at the root, then its whnf probe of the function side
    # spends the rest of the fuel.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = head_reduce(parse(r"(\x.x x x)(\x.x x x)"), target, 1000)
    finally:
        sys.setrecursionlimit(limit)
    assert (out.status, out.step_count) == (FUEL_EXHAUSTED, steps)


@pytest.mark.parametrize("target", ["hnf", "whnf", "root_stable"])
def test_wide_spine_at_the_default_recursion_limit(target):
    # (\x. f x x ... x) y with 5,000 spine arguments: a step that built
    # the contractum's spine recursed once per argument and raised
    # RecursionError (K1).  Deep arguments still recurse.
    width = 5000
    t = App(Lam("x", app(Free("f"), *[Var(0)] * width)), Free("y"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = head_reduce(t, target, 10)
    finally:
        sys.setrecursionlimit(limit)
    assert (out.status, out.step_count) == (RESOLVED, 1)
    assert out.result.size == 2 * width + 1
    assert hash(out.result) == hash(app(Free("f"), *[Free("y")] * width))


def test_growing_term_memory_stays_small():
    # K1: a reducer that kept every reduct, each with its spine rebuilt,
    # peaked at 73 MB here; with its step positions kept as two exponents
    # each, the run now peaks at about 0.6 MB.
    t = parse(r"(\x.x x x)(\x.x x x)")
    tracemalloc.start()
    try:
        out = head_reduce(t, "hnf", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.step_count) == (FUEL_EXHAUSTED, 1000)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("target", ["hnf", "whnf"])
def test_growing_term_memory_at_the_default_fuel(target):
    # Each step's position is the pair of exponents of 0^a 1^b.  Kept as
    # a path as long as the spine, the positions peaked at about 400 MB.
    t = parse(r"(\x.x x x)(\x.x x x)")
    tracemalloc.start()
    try:
        out = head_reduce(t, target, DEFAULT_FUEL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.step_count) == (FUEL_EXHAUSTED, DEFAULT_FUEL)
    assert peak < 16 * 2**20


def _textbook_replay(t, steps):
    """Contract at ``head_redex_position`` once per recorded step,
    checking that each step is the position used; return the term
    reached."""
    for i, pos in enumerate(steps):
        p = head_redex_position(t)
        assert p is not None and pos == p and p == pos, (i, pos, p)
        t = contract_at(t, p)
    return t


@pytest.mark.parametrize("text", ["Y0 x", "Y1 x", "theta theta I x", "E2"])
def test_head_steps_follow_the_textbook_path(defs, text):
    t = parse(text, defs)
    out = head_reduce(t, "hnf")
    assert out.status == RESOLVED and out.steps
    u = _textbook_replay(t, out.steps)
    assert head_redex_position(u) is None
    assert u == out.result


def test_growing_term_steps_follow_the_textbook_path():
    t = parse(r"(\x.x x x)(\x.x x x)")
    out = head_reduce(t, "hnf", 40)
    assert (out.status, out.step_count) == (FUEL_EXHAUSTED, 40)
    _textbook_replay(t, out.steps)


def test_root_stable_target(defs):
    out = head_reduce(parse(f"x ({OMEGA})"), "root_stable", 100)
    assert out.status == RESOLVED
    assert out.steps == []


def test_develop_single_and_empty():
    assert develop(parse(r"(\x.x) a"), [()]) == Free("a")
    t = parse("x y")
    assert develop(t, []) == t


def test_develop_two_marks_inside_out(defs):
    t = parse(r"(\z.f z z) ((\x.x) a)")
    assert develop(t, [(), (2,)]) == parse("f a a")


def test_develop_single_matches_contract(defs):
    t = parse(r"(\z.f z z) ((\x.x) a)")
    for p in redex_positions(t):
        assert develop(t, [p]) == contract_at(t, p)


def test_gross_knuth(defs):
    nf = parse(r"\x y.x")
    assert gross_knuth(nf) == nf
    om = parse(OMEGA)
    assert gross_knuth(om) == om
    assert gross_knuth(parse(r"(\z.f z z) ((\x.x) a)")) == parse("f a a")


def test_gross_knuth_under_deep_binders_at_the_default_recursion_limit():
    # (\z.z) y under 1,500 binders: a development that rebuilt the term
    # by recursion raised RecursionError (K1)
    depth = 1500
    t = App(Lam("z", Var(0)), Free("y"))
    for _ in range(depth):
        t = Lam("b", t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        r = gross_knuth(t)
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(depth):
        assert type(r) is Lam and r.hint == "b"
        r = r.body
    assert type(r) is Free and r.name == "y"


def test_classify_redex():
    rc = classify_redex(parse(rf"(\x.y) ({OMEGA})"), ())
    assert rc.linear and not rc.call_by_value and rc.simple
    rc = classify_redex(parse(r"(\x.x x) (\x.x)"), ())
    assert not rc.linear and rc.call_by_value and rc.simple
    # duplicating a redex-containing argument: not simple either way
    rc = classify_redex(parse(rf"(\z.f z z) ((\x.x) a)"), ())
    assert not rc.simple


@pytest.mark.parametrize("bottom, linear", [("x", True), ("x x", False)])
def test_classify_redex_of_a_deep_body_at_the_default_recursion_limit(bottom, linear):
    # (\x. f (f (... bottom))) y, 5000 deep: counting the bound variable
    # recursed once per level and raised RecursionError (K1)
    body = parse(rf"\x. {bottom}").body
    for _ in range(5000):
        body = App(Free("f"), body)
    t = App(Lam("x", body), Free("y"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        rc = classify_redex(t)
    finally:
        sys.setrecursionlimit(limit)
    assert (rc.linear, rc.call_by_value) == (linear, True)


def test_classify_redex_rejects_non_redex():
    with pytest.raises(TermError):
        classify_redex(parse("x"), ())


def test_normalize(defs):
    out = normalize(parse("S S", defs))
    assert out.status == RESOLVED
    assert out.result == parse(r"\a b c.b c (a b c)")
    out = normalize(parse(OMEGA))
    assert out.status == PROVEN_DIVERGENT
    assert out.result is None


def test_normalize_omega_ss_gives_owl_shape(defs):
    # the normal form of \x.S S (x x) applied pattern: theta
    t = parse(r"(\x.S S (x x)) (\x.S S (x x))", defs)
    # one leftmost step exposes the fixed-point shape; its normal form
    # does not exist (the term unfolds forever), but the *function*
    # \a b c.b c (a a b c) is the normal form of \x y z. S S ... shape:
    theta = parse("theta", defs)
    assert theta == parse(r"\a b c.b c (a a b c)")


def test_reducing_fpc_order(defs):
    assert reducing_fpc_order(parse("Y1", defs)) == 2
    assert reducing_fpc_order(parse("Y0", defs)) is None
    g1 = App(iterate(parse("Y1 (S S)", defs), parse("S", defs), 1),
             parse("I", defs))
    assert reducing_fpc_order(g1) == 12


def test_head_step_agrees_with_trace(defs):
    t = parse("eta eta delta x", defs)
    calls = []
    out = head_reduce(t, "hnf", 100, on_step=lambda *a: calls.append(a))
    p = head_redex_position(t)
    assert out.steps[0] == p
    i, pos, lam, arg, build = calls[1]
    assert (i, pos) == (1, out.steps[1])
    assert build() == contract_at(t, p)
