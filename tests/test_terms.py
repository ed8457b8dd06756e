"""Term construction, navigation, shifting, and the concrete syntax."""

import time

import pytest

from lamclock import terms
from lamclock.parser import DefinitionTable, ParseError, parse, pretty
from lamclock.terms import (
    App,
    Free,
    Lam,
    PositionError,
    Term,
    Var,
    free_vars,
    iterate,
    lam,
    positions,
    shift,
    subterm_at,
)
from lamclock.trees import _identical, compact_cyclic


def test_parse_identity():
    t = parse(r"\x.x")
    assert t == Lam("x", Var(0))


def test_parse_application_is_left_associative():
    t = parse("a b c")
    assert t == App(App(Free("a"), Free("b")), Free("c"))


def test_parse_multi_binder_sugar():
    assert parse(r"\a b.b (a b)") == lam(["a", "b"], App(Var(0), App(Var(1), Var(0))))


def test_parse_expands_definitions(defs):
    t = parse("S I", defs)
    s = parse(r"\x y z.x z (y z)")
    i = parse(r"\x.x")
    assert t == App(s, i)


def test_parse_lambda_glyph():
    assert parse("λx.x") == parse(r"\x.x")


def test_parse_reads_undefined_names_as_free_variables(defs):
    assert parse("NoSuchThing") == Free("NoSuchThing")
    # also with a definition table present: inputs like "Y0 f" need free f
    assert parse("Y0 f", defs) == App(parse("Y0", defs), Free("f"))


def test_parse_reports_byte_offset():
    for text, msg in [
        (r"\x.x )", "trailing input ')' (byte 5)"),
        ("", "expected a term, got 'end of input' (byte 0)"),
        ("(", "expected a term, got 'end of input' (byte 1)"),
        (")", "expected a term, got ')' (byte 0)"),
        ("K)", "trailing input ')' (byte 1)"),
        ("(K", "expected ')' (byte 2)"),
        ("()", "expected a term, got ')' (byte 1)"),
        ("λx.(λ.x)", "expected binder name (byte 7)"),  # λ is two bytes
        (r"\x y x", "expected '.' after binders (byte 6)"),
    ]:
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == msg


def test_parse_reads_a_deep_nest_at_the_default_recursion_limit(default_recursion_limit):
    # f (\x. f (\x. ... x)), 5,000 binders deep, the x bound by the
    # nearest one: a parser that recursed once per level raised
    # RecursionError (K1)
    n = 5000
    t = parse(r"f (\x. " * n + "x" + ")" * n)
    depth = 0
    while type(t) is App:
        assert t.fn == Free("f") and type(t.arg) is Lam and t.arg.hint == "x"
        t = t.arg.body
        depth += 1
    assert (depth, t) == (n, Var(0))


def test_pretty_round_trips_basics(defs):
    for text in (r"\x.x", r"\a b.b (a b)", "a b c", r"(\x.x x) (\x.x x)"):
        t = parse(text, defs)
        assert parse(pretty(t), defs) == t


def test_pretty_left_assoc_minimal():
    assert pretty(App(App(Free("a"), Free("b")), Free("c"))) == "a b c"


def test_pretty_prints_a_deep_nest_at_the_default_recursion_limit(default_recursion_limit):
    # f (f (... x)), 1,500 deep, built with App: a printer that recursed
    # once per level raised RecursionError (K1)
    t = Free("x")
    for _ in range(1500):
        t = App(Free("f"), t)
    assert pretty(t) == "f (" * 1499 + "f x" + ")" * 1499


def test_alpha_eq_ignores_binder_names():
    assert parse(r"\x.x") == parse(r"\y.y")
    assert parse(r"\x y.x") != parse(r"\x y.y")


def _nest(n):
    """``f (f (... x))``, ``n`` applications deep."""
    t = Free("x")
    for _ in range(n):
        t = App(Free("f"), t)
    return t


def test_alpha_eq_is_plain_equality_of_nameless_form(defs):
    # the two spellings of the same combinator
    assert parse("eta eta", defs) == parse(r"(\a b.b (a a b)) (\a b.b (a a b))")


def test_deep_nests_compare_at_the_default_recursion_limit(default_recursion_limit):
    # two separately built f (f (... x)) nests, 5,000 deep: comparing
    # them by recursive ``==`` raised RecursionError (K1)
    a, b = _nest(5000), _nest(5000)
    assert a is not b and a.arg is not b.arg
    assert a == b and not a != b and hash(a) == hash(b) and _identical(a, b)


def test_deep_binders_compare_at_the_default_recursion_limit(default_recursion_limit):
    # 5,000 binders over one variable, the two terms apart in one binder
    # hint only: equal terms, but not identical ones
    hints = ["x"] * 5000
    a = lam(hints, Var(0))
    hints[2500] = "y"
    b = lam(hints, Var(0))
    assert a == b and not a != b and hash(a) == hash(b)
    assert not _identical(a, b) and not _identical(b, a)
    assert _identical(a, lam(["x"] * 5000, Var(0)))


def test_subterm_at_clauses(defs):
    assert subterm_at(parse(r"\x.x"), (0,)) == Var(0)
    delta = parse("delta", defs)
    assert subterm_at(delta, (0, 0)) == parse(r"\a b.b (a b)").body.body
    t = parse("eta eta delta x", defs)
    assert subterm_at(t, (1, 1)) == parse("eta eta", defs)


def test_subterm_at_rejects_bad_position():
    with pytest.raises(PositionError):
        subterm_at(Free("x"), (1,))


def test_positions_small_terms():
    assert set(positions(Free("x"))) == {()}
    assert set(positions(parse(r"\x.x"))) == {(), (0,)}
    assert set(positions(parse("x y"))) == {(), (1,), (2,)}


def test_positions_agree_with_subterm_at(defs):
    t = parse("eta eta delta", defs)
    for p in positions(t):
        subterm_at(t, p)  # must not raise
    with pytest.raises(PositionError):
        subterm_at(t, (1, 1, 1, 1, 1, 1, 1, 1, 1))


def test_shift_by_zero_keeps_the_term():
    # an open term shifted by 0 is the same object, not a copy
    t = App(Var(0), Lam("y", App(Var(1), Var(0))))
    assert t.open_n
    assert shift(t, 0) is t
    assert shift(t, 1) == App(Var(1), Lam("y", App(Var(2), Var(0))))


def test_free_vars():
    assert free_vars(parse(r"\x.x")) == set()
    assert free_vars(parse(r"\z.f z z")) == {"f"}
    assert free_vars(parse("x y")) == {"x", "y"}


def test_terms_cache_size_openness_and_hash_only():
    # free names are walked for by ``free_vars`` where they are read;
    # no term keeps a set of them
    assert Term.__slots__ == ("size", "open_n", "_h")
    assert not hasattr(terms, "EMPTY_FVS")
    for t, own in [
        (Var(0), ["index"]), (Free("f"), ["name"]),
        (Lam("x", Var(0)), ["hint", "body"]), (App(Free("f"), Free("x")), ["fn", "arg"]),
    ]:
        slots = [a for cls in type(t).__mro__ for a in getattr(cls, "__slots__", ())]
        assert sorted(slots) == sorted(["size", "open_n", "_h", *own])
        assert not hasattr(t, "__dict__")


def test_free_vars_of_deep_nests_at_the_default_recursion_limit(default_recursion_limit):
    # 5,000 levels deep through binders and function sides, and 5,000
    # through arguments: one loop walks both
    n = 5000
    t = Free("z")
    for i in range(n):
        t = Lam("x", App(App(t, Var(0)), Free(f"f{i % 3}")))
    assert free_vars(t) == {"z", "f0", "f1", "f2"}
    assert free_vars(_nest(n)) == {"f", "x"}


# a60 is a0 doubled 60 times: 62 objects, more than 2^61 positions
_DOUBLINGS = "a0 = \\x.x;\n" + "".join(f"a{i} = a{i - 1} a{i - 1};\n" for i in range(1, 61))


def _timed(f, *args):
    t0 = time.perf_counter()
    out = f(*args)
    return out, time.perf_counter() - t0


def test_a_term_of_60_doublings_is_read_walked_and_built_at_once():
    # a walk that entered a shared subterm once per position never ends
    table, took = _timed(DefinitionTable.from_text, _DOUBLINGS)
    assert took < 1
    t = parse("a60 y", table)
    assert t.size > 2**61
    names, took = _timed(free_vars, t)
    assert names == {"y"} and took < 1
    tree, took = _timed(compact_cyclic, t, 4, 2000)
    assert (tree.root.kind, tree.root.reason) == ("unknown", "fuel") and took < 1


def test_iterate(defs):
    a, b = Free("A"), Free("B")
    assert iterate(a, b, 0) == a
    y1 = parse("eta eta", defs)
    d = parse("delta", defs)
    assert iterate(y1, d, 2) == App(App(y1, d), d)


@pytest.mark.parametrize("n", range(8))
def test_iterate_left_unrolls_structurally(n):
    a, b = Free("A"), Free("B")
    assert iterate(a, b, n + 1) == App(iterate(a, b, n), b)


def test_definition_table_requires_closed_terms(defs):
    with pytest.raises(Exception):
        defs.copy().define("Bad", parse("x y"))


def test_definition_file_syntax(defs):
    from lamclock.parser import DefinitionTable

    table = DefinitionTable.from_text(
        "# a comment\nTwice = \\f x.f (f x);\n", defs
    )
    assert parse("Twice", table) == parse(r"\f x.f (f x)")
