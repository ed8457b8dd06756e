"""Randomized law checks: clock acceleration, annotation drift bounds,
subsequence-order laws, printer/parser round trips, the printer, the
parser, the head step, ``normalize``, ``replace_at``, the fixtures'
``develop`` and term equality (``==`` and the hint-exact ``_identical``)
against their lookup and recursive references, the product graph's peel
against brute force, acyclic trees with shared subtrees against their
copies with a node per position, balance preservation on the fixtures'
balanced reducts of the duplicator, soundness of the
discrimination verdict and of the join on convertible pairs, the
simple-redex closure's reach against the fixtures' best-first search,
and the CLI's JSON writer against the standard encoder."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import lamclock.combinators as C
from fixtures import (
    balanced_reducts,
    best_first_simple_reduct,
    develop,
    gross_knuth,
    is_balanced,
)
from lamclock.compare import (
    INCONVERTIBLE,
    DiscriminationConfig,
    Relation,
    _Product,
    bounded_joinable,
    discriminate,
    enumerate_reducts,
    find_simple_reduct,
    holds_eventually,
    holds_globally,
    subseq_le,
)
from lamclock import compare, reduction, trees
from lamclock.cli import _dumps
from lamclock.parser import ParseError, _parse_tokens, _pick_name, _tokenize, parse, pretty
from lamclock.reduction import (
    FUEL_EXHAUSTED,
    PROVEN_DIVERGENT,
    RESOLVED,
    NormalizeOutcome,
    _canonical_core_key,
    contract_at,
    head_reduce,
    is_redex,
    normalize,
    one_step_reducts,
    redex_positions,
)
from lamclock.terms import (
    App,
    Free,
    HeadPos,
    Lam,
    PositionError,
    TermError,
    Var,
    app,
    free_vars,
    instantiate,
    pos_str,
    positions,
    replace_at,
    subterm_at,
    subterms,
)
from lamclock.render import render_dot, render_text
from lamclock.trees import (
    ClockTree,
    Node,
    _identical,
    clocked_bet,
    clocked_bt,
    clocked_llt,
    periodicity_report,
    tree_to_dict,
    walk,
)

SETTINGS = dict(max_examples=500, deadline=None, derandomize=True)

DEFS = C.standard_definitions()


# -- term generation ---------------------------------------------------------

_NAMES = ("x", "y", "f", "g")

_ast_leaf = st.one_of(
    st.tuples(st.just("free"), st.sampled_from(_NAMES)),
    st.tuples(st.just("var"), st.integers(0, 3)),
)
_ast = st.recursive(
    _ast_leaf,
    lambda ch: st.one_of(
        st.tuples(st.just("lam"), st.sampled_from(_NAMES), ch),
        st.tuples(st.just("app"), ch, ch),
    ),
    max_leaves=14,
)


def _materialize(node, nbound=0):
    match node:
        case ("free", n):
            return Free(n)
        case ("var", i):
            return Var(i % nbound) if nbound else Free("u")
        case ("lam", n, b):
            return Lam(n, _materialize(b, nbound + 1))
        case ("app", a, b):
            return App(_materialize(a, nbound), _materialize(b, nbound))
    raise AssertionError(node)


random_terms = _ast.map(_materialize)


def _bounded_reduct(t, picks, size_cap=400):
    """Contract one chosen redex per entry of ``picks``, stopping early
    at normal forms or when the term grows past the cap."""
    for k in picks:
        ps = redex_positions(t)
        if not ps:
            break
        u = contract_at(t, ps[k % len(ps)])
        if u.size > size_cap:
            break
        t = u
    return t


def _resolved_pairs(a, b, out, pos=()):
    """Collect (position, node, node) over the region where both trees
    carry a resolved head normal form."""
    if a.kind != "hnf" or b.kind != "hnf":
        return
    out.append((pos, a, b))
    for i, (ca, cb) in enumerate(zip(a.children, b.children)):
        _resolved_pairs(ca, cb, out, pos + (i,))


# -- clock acceleration ------------------------------------------------------

REDUCIBLE = [
    lambda: parse("Y0 f", DEFS),
    lambda: parse("Y1 f", DEFS),
    lambda: parse("eta eta delta x", DEFS),
    lambda: parse("theta theta I x", DEFS),
    lambda: App(C.E1, Free("x")),
    lambda: App(C.E3, Free("x")),
    lambda: parse("S S I x", DEFS),
    lambda: parse("B Y0 I x", DEFS),
]


@settings(**SETTINGS)
@given(
    base=st.integers(0, len(REDUCIBLE) - 1),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_reduction_never_slows_the_clock(base, picks):
    m = REDUCIBLE[base]()
    n = _bounded_reduct(m, picks)
    pairs = []
    _resolved_pairs(clocked_bt(m, 4, 600).root, clocked_bt(n, 4, 600).root, pairs)
    for _, nm, nn in pairs:
        assert nn.count <= nm.count


@settings(**SETTINGS)
@given(
    base=st.integers(0, len(REDUCIBLE) - 1),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_reduction_thins_the_step_positions(base, picks):
    m = REDUCIBLE[base]()
    n = _bounded_reduct(m, picks)
    pairs = []
    _resolved_pairs(
        clocked_bt(m, 4, 600, atomic=True).root, clocked_bt(n, 4, 600, atomic=True).root, pairs
    )
    for _, nm, nn in pairs:
        assert subseq_le(nn.steps, nm.steps)


# -- bounded annotation drift for simple terms -------------------------------

SIMPLE = [
    lambda: parse("Y0 f", DEFS),
    lambda: parse("Y1 f", DEFS),
    lambda: parse("eta eta delta x", DEFS),
    lambda: parse("theta theta I x", DEFS),
    lambda: App(C.E1, Free("x")),
    lambda: App(C.E3, Free("x")),
]


@settings(**SETTINGS)
@given(
    base=st.integers(0, len(SIMPLE) - 1),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=3),
)
def test_simple_terms_drift_at_most_one_annotation_per_step(base, picks):
    m = SIMPLE[base]()
    n = _bounded_reduct(m, picks)
    pairs = []
    _resolved_pairs(clocked_bt(m, 4, 600).root, clocked_bt(n, 4, 600).root, pairs)
    changed = sum(1 for _, nm, nn in pairs if nm.count != nn.count)
    assert changed <= len(picks)


# -- subsequence embedding is a partial order --------------------------------

_positions = st.lists(
    st.sampled_from([(), (1,), (2,), (1, 1), (1, 2), (2, 1)]), max_size=6
).map(tuple)


@settings(**SETTINGS)
@given(a=_positions)
def test_subseq_reflexive(a):
    assert subseq_le(a, a)


@settings(**SETTINGS)
@given(a=_positions, b=_positions)
def test_subseq_antisymmetric(a, b):
    if subseq_le(a, b) and subseq_le(b, a):
        assert a == b


@settings(**SETTINGS)
@given(a=_positions, b=_positions, c=_positions)
def test_subseq_transitive(a, b, c):
    if subseq_le(a, b) and subseq_le(b, c):
        assert subseq_le(a, c)


# -- the position printer ----------------------------------------------------

# head steps (0-2), child slots (10 and more) and entries past a byte
_entries = st.lists(
    st.one_of(st.integers(0, 2), st.integers(0, 300), st.integers(256, 10**9)),
    max_size=12,
)


@settings(**SETTINGS)
@given(p=_entries, as_tuple=st.booleans())
@example(p=[], as_tuple=True)
@example(p=[0, 1, 2], as_tuple=False)
@example(p=[12, 0], as_tuple=True)
@example(p=[2, 256], as_tuple=True)
def test_pos_str_matches_the_joined_digits(p, as_tuple):
    p = tuple(p) if as_tuple else p
    assert pos_str(p) == ("".join(map(str, p)) or "e")


@settings(**SETTINGS)
@given(lams=st.integers(0, 4), ones=st.integers(0, 300))
@example(lams=0, ones=0)
@example(lams=3, ones=0)
def test_head_pos_acts_as_its_path(lams, ones):
    h, p = HeadPos(lams, ones), (0,) * lams + (1,) * ones
    assert h.path == p
    assert h == p and p == h and not (h != p or p != h)
    assert h == HeadPos(lams, ones) and h != HeadPos(lams, ones + 1) and h != p + (2,)
    assert hash(h) == hash(p)
    assert (len(h), list(h), repr(h)) == (len(p), list(p), repr(p))
    assert pos_str(h) == pos_str(p) == ("0" * lams + "1" * ones or "e")


# -- free names --------------------------------------------------------------


def _free_vars_reference(t):
    """The free names by the rule terms once kept per node: ``Free``
    gives ``{name}``, ``Lam`` its body's set, ``App`` the union."""
    match t:
        case Free(n):
            return frozenset((n,))
        case Lam(_, b):
            return _free_vars_reference(b)
        case App(f, a):
            return _free_vars_reference(f) | _free_vars_reference(a)
    return frozenset()


@settings(**SETTINGS)
@given(t=random_terms, shared=random_terms, k=st.integers(0, 3))
def test_free_vars_matches_the_per_node_rule(t, shared, k):
    # one subterm object in several places, under different binders
    t = App(App(t, Lam("x", shared)), shared)
    for _ in range(k):
        t = App(t, t)
    assert free_vars(t) == _free_vars_reference(t)


@pytest.mark.parametrize("name", C.catalog_names())
def test_free_vars_matches_the_per_node_rule_on_the_catalog(name):
    try:
        t = C.catalog(name)
    except ValueError:  # a family that needs a count
        t = C.catalog(name, 3)
    tx = App(t, Free("x"))
    # a head normal form shares the arguments its steps substituted
    hnf = head_reduce(tx, "hnf", 60).result
    for u in (t, tx, hnf):
        assert u is None or free_vars(u) == _free_vars_reference(u)


# -- printer / parser round trip ---------------------------------------------


@settings(**SETTINGS)
@given(t=random_terms)
def test_parse_pretty_round_trip(t):
    assert parse(pretty(t)) == t


@settings(**SETTINGS)
@given(t=random_terms)
def test_compact_lambda_round_trip(t):
    # the parser reads a λ binder as it reads a backslash
    assert parse(pretty(t).replace("\\", "λ")) == t


def _pretty_reference(t):
    """``pretty`` by recursion, one call per subterm."""

    def go(u, scope, taken, ctx):
        match u:
            case Var(i):
                return scope[-1 - i] if i < len(scope) else f"?{i - len(scope)}"
            case Free(n):
                return n
            case Lam(_, _):
                names = []
                inner_taken = set(taken)
                body = u
                while type(body) is Lam:
                    n = _pick_name(body.hint, inner_taken)
                    names.append(n)
                    inner_taken.add(n)
                    body = body.body
                s = f"\\{' '.join(names)}.{go(body, scope + names, inner_taken, 'top')}"
                return f"({s})" if ctx in ("fn", "arg") else s
            case App(f, a):
                s = f"{go(f, scope, taken, 'fn')} {go(a, scope, taken, 'arg')}"
                return f"({s})" if ctx == "arg" else s

    return go(t, [], free_vars(t), "top")


# few hints, two with the renamer's own suffixes, and free names among
# them, so binders collide with each other and with free names; indices
# may point past every binder, which prints as "?k"
_HINTS = ("x", "x1", "x2", "y")
_colliding_terms = st.recursive(
    st.one_of(st.builds(Free, st.sampled_from(_HINTS)), st.builds(Var, st.integers(0, 4))),
    lambda ch: st.one_of(st.builds(Lam, st.sampled_from(_HINTS), ch), st.builds(App, ch, ch)),
    max_leaves=16,
)


@settings(**SETTINGS)
@given(t=_colliding_terms)
def test_pretty_matches_the_recursive_reference(t):
    assert pretty(t) == _pretty_reference(t)


# -- the parser against the recursive reference -------------------------------


def _parse_tokens_reference(text, toks, defs):
    """``_parse_tokens`` by recursive descent, one call per nesting level."""

    def parse_term(i, scope):
        if toks[i][0] == "lam":
            i += 1
            names = []
            while toks[i][0] == "ident":
                names.append(toks[i][1])
                i += 1
            if not names:
                raise ParseError("expected binder name", text, toks[i][2])
            if toks[i][0] != "dot":
                raise ParseError("expected '.' after binders", text, toks[i][2])
            body, i = parse_term(i + 1, scope + names)
            for n in reversed(names):
                body = Lam(n, body)
            return body, i
        return parse_app(i, scope)

    def parse_app(i, scope):
        t, i = parse_atom(i, scope)
        if t is None:
            raise ParseError(f"expected a term, got {toks[i][1] or 'end of input'!r}", text, toks[i][2])
        while True:
            nxt, j = parse_atom(i, scope)
            if nxt is None:
                return t, i
            t = App(t, nxt)
            i = j

    def parse_atom(i, scope):
        kind, val, pos = toks[i]
        if kind == "ident":
            for depth, n in enumerate(reversed(scope)):
                if n == val:
                    return Var(depth), i + 1
            if defs is not None and val in defs:
                return defs[val], i + 1
            return Free(val), i + 1
        if kind == "lp":
            t, i = parse_term(i + 1, scope)
            if toks[i][0] != "rp":
                raise ParseError("expected ')'", text, toks[i][2])
            return t, i + 1
        return None, i

    t, i = parse_term(0, [])
    if toks[i][0] != "eof":
        raise ParseError(f"trailing input {toks[i][1]!r}", text, toks[i][2])
    return t, i


_TEXT_NAMES = ("x", "y", "f", "x'", "K", "S", "I", "Y0")
# one-character edits, and the pieces of token soup: every token kind,
# a comment, and a character no token starts with
_EDIT_CHARS = "\\λ.() ;=#\nxKS@"
_SOUP = ("\\", "λ", "x", "y", "K", "S", "Y0", ".", "(", ")", " ", ";", "=", "# c\n", "@")


def _valid_text(rng, depth=0):
    """A random well-formed term text: binder blocks, applications,
    parentheses (some redundant), defined and free names, comments."""
    if depth < 4 and rng.random() < 0.3:
        names = " ".join(rng.choice(_TEXT_NAMES[:4]) for _ in range(rng.randint(1, 3)))
        return rng.choice("\\λ") + f"{names}.{_valid_text(rng, depth + 1)}"
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if depth < 4 and rng.random() < 0.3:
            atoms.append(f"({_valid_text(rng, depth + 1)})")
        else:
            atoms.append(rng.choice(_TEXT_NAMES))
    return rng.choice((" ", "  ", " # c\n")).join(atoms)


def _random_text(rng, kind):
    if kind == "soup":
        return "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 12)))
    text = _valid_text(rng)
    if kind == "mutated":
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            text = rng.choice((text[:k] + text[k + 1:], text[:k] + rng.choice(_EDIT_CHARS) + text[k:]))
    return text


def _parsed_shape(t, shared):
    """``t`` in preorder, binder hints included, with each node that is
    one of the ``shared`` objects given by its name instead of walked."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if id(u) in shared:
            out.append(shared[id(u)])
        elif type(u) is App:
            out.append("@")
            todo += (u.arg, u.fn)
        elif type(u) is Lam:
            out.append(("\\", u.hint))
            todo.append(u.body)
        else:
            out.append(u)
    return out


def _parse_outcome(parse_tokens, text, toks, defs, shared):
    try:
        t, i = parse_tokens(text, toks, defs)
    except ParseError as e:
        return "error", str(e), e.offset
    return "term", _parsed_shape(t, shared), i


@pytest.mark.parametrize("kind", ["valid", "mutated", "soup"])
def test_parse_matches_the_recursive_reference(kind):
    # The same term, binder hints and the definition table's own objects
    # included, or the same error at the same byte offset.
    rng = random.Random(f"parse:{kind}")
    shared = {id(DEFS[n]): n for n in _TEXT_NAMES if n in DEFS}
    outcomes = set()
    for _ in range(3000):
        text = _random_text(rng, kind)
        try:
            toks = _tokenize(text)
        except ParseError:
            continue  # the tokenizer is shared; no parser sees this text
        for defs in (None, DEFS):
            want = _parse_outcome(_parse_tokens_reference, text, toks, defs, shared)
            assert _parse_outcome(_parse_tokens, text, toks, defs, shared) == want, text
            outcomes.add(want[0])
    assert outcomes == ({"term"} if kind == "valid" else {"term", "error"})


# -- term equality against the per-class recursive reference -----------------


def _eq_reference(a, b):
    """``a == b`` as each term class once defined it, by recursion: a
    class's ``__eq__`` compared its children by ``==``, other side first."""
    if a is b:
        return True
    match a:
        case Var(i):
            return type(b) is Var and b.index == i
        case Free(n):
            return type(b) is Free and b.name == n
        case Lam(_, body):
            return type(b) is Lam and b._h == a._h and _eq_reference(b.body, body)
        case App(f, x):
            return (
                type(b) is App
                and b._h == a._h
                and _eq_reference(b.fn, f)
                and _eq_reference(b.arg, x)
            )
    raise AssertionError(a)


def _alpha_variant(t, renames):
    """``t`` with every node built anew, and the ``k``-th binder in
    preorder renamed where bit ``k`` of ``renames`` is set."""
    seen = itertools.count()

    def go(u):
        match u:
            case Var(i):
                return Var(i)
            case Free(n):
                return Free(n)
            case Lam(h, b):
                return Lam(h + "'" if renames >> next(seen) & 1 else h, go(b))
            case App(f, a):
                return App(go(f), go(a))

    return go(t)


def _forged(u, like):
    """A copy of ``u`` in which each node takes the hash of the node of
    ``like`` at its position where the two are of one class: an unequal
    pair whose hashes agree down to where they differ, so that only the
    walk can tell them apart."""
    match u, like:
        case App(f, a), App(g, b):
            v = App(_forged(f, g), _forged(a, b))
        case Lam(h, b), Lam(_, c):
            v = Lam(h, _forged(b, c))
        case _:
            v = _alpha_variant(u, 0)
    if type(v) is type(like):
        v._h = like._h
    return v


def _same_equality(a, b):
    eq = _eq_reference(a, b)
    assert (a == b) is eq and (a != b) is not eq
    assert _identical(a, b) is (eq and _hints(a) == _hints(b))
    assert not eq or hash(a) == hash(b)


@settings(**SETTINGS)
@given(
    t=random_terms,
    renames=st.integers(0, 2**16 - 1),
    pick=st.integers(0, 10**6),
    leaf=st.sampled_from([Free("x"), Free("z"), Var(0), Var(1), Var(7)]),
    other=random_terms,
)
@example(t=Free("x"), renames=0, pick=0, leaf=Var(0), other=Free("y"))
def test_equality_matches_the_recursive_reference(t, renames, pick, leaf, other):
    # unshared copies, alpha-variants, one-leaf mutations of a variant
    # and an unrelated term, the last two also with hashes forged to
    # agree with ``t``'s; ``_identical`` is ``==`` with equal hints.
    # The example compares Free("x") with "x" and with Var(0).
    copy, variant = _alpha_variant(t, 0), _alpha_variant(t, renames)
    assert _eq_reference(t, copy) and _eq_reference(t, variant) and _identical(t, copy)
    leaves = [p for p, u in subterms(variant) if u.size == 1]
    mutant = replace_at(variant, leaves[pick % len(leaves)], leaf)
    for a, b in [(t, t), (t, copy), (t, variant), (copy, variant), (t, mutant),
                 (variant, mutant), (t, other), (t, _forged(mutant, t)),
                 (t, _forged(other, t))]:
        _same_equality(a, b)
        _same_equality(b, a)
    for x in (pretty(t), None, 0):
        assert (t == x) is False and (t != x) is True and (x == t) is False


# -- one-pass redex search against the position-by-position lookup ------------


def _redex_positions_reference(t):
    """Every position in sorted order, each looked up from the root."""
    return [p for p in sorted(positions(t)) if is_redex(subterm_at(t, p))]


def _enumerate_reducts_reference(t, limit):
    """Breadth-first reduct search with the redexes found by the reference
    lookup above, under the search's size rule."""
    size_limit = max(compare.SIZE_LIMIT, 2 * t.size)
    seen = {t}
    out = [t]
    i = 0
    while i < len(out) and len(out) < limit:
        cur = out[i]
        i += 1
        for p in _redex_positions_reference(cur):
            r = contract_at(cur, p)
            if r.size <= size_limit and r not in seen:
                seen.add(r)
                out.append(r)
                if len(out) >= limit:
                    break
    return out


@settings(**SETTINGS)
@given(t=random_terms)
def test_redex_positions_match_the_reference_lookup(t):
    ps = positions(t)
    assert len(ps) == t.size
    assert ps == sorted(ps)
    assert redex_positions(t) == _redex_positions_reference(t)


def test_enumerate_reducts_matches_the_reference_search():
    t = C.scott_seq(1)
    got = enumerate_reducts(t, limit=300)
    want = _enumerate_reducts_reference(t, limit=300)
    assert len(got) == len(want) == 300
    for a, b in zip(got, want):
        assert a == b and pretty(a) == pretty(b)


@settings(**SETTINGS)
@given(t=random_terms)
def test_one_step_reducts_match_contraction_at_each_redex(t):
    got = list(one_step_reducts(t))
    want = [contract_at(t, p) for p in redex_positions(t)]
    # ``==`` ignores binder hints; printing shows them
    assert got == want
    assert [pretty(r) for r in got] == [pretty(r) for r in want]


def _normalize_reference(t, fuel):
    """``normalize`` as it was written first: look up every redex
    position, then contract the leftmost-outermost one from the root."""
    seen = set()
    n = 0
    while True:
        redexes = redex_positions(t)
        if not redexes:
            return NormalizeOutcome(RESOLVED, n, t)
        if len(seen) < reduction.TRACE_CAP:
            if t in seen:
                return NormalizeOutcome(PROVEN_DIVERGENT, n, None)
            seen.add(t)
        if n >= fuel:
            return NormalizeOutcome(FUEL_EXHAUSTED, n, None)
        t = contract_at(t, redexes[0])
        n += 1


@settings(**SETTINGS)
@given(t=random_terms, fuel=st.integers(0, 50))
def test_normalize_matches_the_reference_loop(t, fuel):
    got = normalize(t, fuel)
    want = _normalize_reference(t, fuel)
    assert (got.status, got.steps, got.result) == (want.status, want.steps, want.result)
    if got.result is not None:
        assert pretty(got.result) == pretty(want.result)


# -- the machine's head steps against contraction at a looked-up position --


def _core(t):
    """``t`` under its λ-prefix."""
    while type(t) is Lam:
        t = t.body
    return t


def _head_reduce_reference(t, target, fuel):
    """``head_reduce`` as a position lookup: each step is ``contract_at``
    at the head redex's position, and the hnf search keys every visited
    term.  Returns the status, the steps, the result and every visited
    term.  Reads ``reduction.TRACE_CAP`` when called."""
    cap = reduction.TRACE_CAP
    left = [fuel]

    def position(u, under_lams):
        zeros = ones = 0
        while under_lams and type(u) is Lam:
            u = u.body
            zeros += 1
        while type(u) is App:
            u = u.fn
            ones += 1
        return (0,) * zeros + (1,) * (ones - 1) if type(u) is Lam and ones else None

    def run(t, target):
        steps, trace, seen = [], [t], {}
        while True:
            if target == "whnf" and type(t) is Lam:
                return RESOLVED, steps, t, trace
            pos = position(t, target == "hnf")
            if target in ("hnf", "whnf"):
                if pos is None:
                    return RESOLVED, steps, t, trace
            else:
                if type(t) is not App:
                    return RESOLVED, steps, t, trace
                probe, _, probed, _ = run(t.fn, "whnf")
                if probe == FUEL_EXHAUSTED:
                    return FUEL_EXHAUSTED, steps, None, trace
                if probe == PROVEN_DIVERGENT or type(probed) is not Lam:
                    return RESOLVED, steps, t, trace
                pos = position(t, False)
            if len(seen) < cap:
                k = _canonical_core_key(_core(t)) if target == "hnf" else t
                if k in seen:
                    return PROVEN_DIVERGENT, steps, None, trace
                seen[k] = len(steps)
            if left[0] <= 0:
                return FUEL_EXHAUSTED, steps, None, trace
            left[0] -= 1
            t = contract_at(t, pos)
            steps.append(pos)
            trace.append(t)

    return run(t, target)


def _hints(t):
    """Binder hints in preorder, without recursion (``==`` ignores them)."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if type(u) is Lam:
            out.append(u.hint)
            stack.append(u.body)
        elif type(u) is App:
            stack += (u.arg, u.fn)
    return out


def _with_hints(t):
    return None if t is None else (t, _hints(t))


def _observed(t, target, fuel):
    """``head_reduce`` with an ``on_step`` callback: the status, steps and
    result, and the term each step's thunk builds.  The thunks are called
    only after the run, so a state that a later step changed in place
    would show; each callback's index and redex are checked against
    the term its thunk builds."""
    calls = []
    out = head_reduce(t, target, fuel, on_step=lambda *a: calls.append(a))
    built = []
    for n, (i, pos, lam, arg, build) in enumerate(calls):
        u = build()
        redex = subterm_at(u, pos)
        assert (i, pos) == (n, out.steps[n])
        assert _with_hints(redex) == _with_hints(App(lam, arg))
        built.append(_with_hints(u))
    assert len(built) == out.step_count
    return out.status, out.steps, _with_hints(out.result), built


def _same_head_runs(t, fuel, targets=("hnf", "whnf", "root_stable")):
    for target in targets:
        status, steps, result, trace = _head_reduce_reference(t, target, fuel)
        want = status, steps, _with_hints(result), [_with_hints(u) for u in trace[:-1]]
        assert _observed(t, target, fuel) == want, target


@settings(**SETTINGS)
@given(t=random_terms)
def test_head_reduce_matches_the_reference_run(t):
    _same_head_runs(t, 40)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "TRACE_CAP", 5)
        _same_head_runs(t, 40)


# returns to itself after six head steps, so a cap of 5 hides the loop
_LOOP6 = r"\x.(\a.(\b.(\c.(\d.(\e. x x) I) I) I) I) I"


@pytest.mark.parametrize("cap", [reduction.TRACE_CAP, 5])
@pytest.mark.parametrize(
    "source",
    ["Y0 x", "Y1 x", "E1", "E3", "omega", "omega omega", r"(\x y. x x)(\x y. x x)",
     "eta eta delta x", r"(\x.x x x)(\x.x x x)", f"({_LOOP6}) ({_LOOP6})"],
)
def test_head_reduce_matches_the_reference_run_on_the_catalog(source, cap, monkeypatch):
    monkeypatch.setattr(reduction, "TRACE_CAP", cap)
    _same_head_runs(parse(source, DEFS), 300)


# The function side of this term reaches an abstraction in two head
# steps, and the root_stable run repeats a state inside such a probe's
# trajectory: W W -> I (I W) W -> I W W, first met from (\z. I W) c W.
_W = r"(\x. I (I x) x)"
_REPEAT_IN_PROBE = rf"(\z. I {_W}) c {_W}"


@pytest.mark.parametrize("cap", [reduction.TRACE_CAP, 5])
@pytest.mark.parametrize(
    "term",
    [App(C.bohm_seq(40), Free("x")), App(C.bohm_seq(5), Free("x")), parse("Y0 x", DEFS),
     parse(_REPEAT_IN_PROBE, DEFS)],
    ids=["bohm_seq(40) x", "bohm_seq(5) x", "Y0 x", "repeat in probe"],
)
def test_root_stable_probe_reuse_matches_the_reference_run(term, cap, monkeypatch):
    # The machine reuses a probe's trajectory; the reference probes at
    # every step.  The fuels run out at every point of a reused
    # trajectory: bohm_seq(5) x probes 9 steps, bohm_seq(40) x 79, both
    # more than the cap of 5.
    monkeypatch.setattr(reduction, "TRACE_CAP", cap)
    for fuel in [*range(61), *range(61, 330, 7)]:
        _same_head_runs(term, fuel, ("root_stable",))


class _EagerRecurrences:
    """``reduction._Recurrences`` without its gate: every recorded state
    is built and keyed at once, with the same key functions."""

    def __init__(self, core):
        self.core = core
        self.keys = set()

    def repeats(self, head, stack):
        t = reduction._term([], 0, head, stack)
        k = _canonical_core_key(t) if self.core else t
        if k in self.keys:
            return True
        self.keys.add(k)
        return False


def _head_runs(t, fuels):
    return [
        (out.status, out.steps, _with_hints(out.result))
        for target in ("hnf", "whnf", "root_stable")
        for fuel in fuels
        for out in [head_reduce(t, target, fuel)]
    ]


def _same_runs_without_the_gate(t, fuels=range(201)):
    gated = _head_runs(t, fuels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_Recurrences", _EagerRecurrences)
        assert _head_runs(t, fuels) == gated


@settings(**SETTINGS)
@given(t=random_terms)
@example(t=parse(f"({_LOOP6}) ({_LOOP6})", DEFS))
@example(t=parse(_REPEAT_IN_PROBE, DEFS))
def test_gating_the_recurrence_table_is_exact(t):
    # A gate that is not a function of the key would let an equal state
    # go unmatched, and the run would end later or differently.
    _same_runs_without_the_gate(t)


@pytest.mark.parametrize("name", C.catalog_names())
def test_gating_the_recurrence_table_is_exact_on_the_catalog(name):
    try:
        t = C.catalog(name)
    except ValueError:  # a family that needs a count
        t = C.catalog(name, 3)
    _same_runs_without_the_gate(t)
    _same_runs_without_the_gate(App(t, Free("x")))


# -- one head step against unwinding the instantiated body ------------------

# open terms: indices 0 .. nbound - 1 occur free at the top
def _open_terms(nbound):
    return _ast.map(lambda node: _materialize(node, nbound))


_step_bodies = st.one_of(
    st.integers(1, 3).flatmap(_open_terms),
    st.builds(Lam, st.sampled_from(_NAMES), st.integers(2, 4).flatmap(_open_terms)),
)
_step_args = st.integers(0, 2).flatmap(_open_terms)  # nbound 0: closed


def _stack_nodes(stack):
    """A machine stack's nodes, top first, as ``(arg, depth, size)``."""
    out = []
    while stack[2]:
        arg, stack, depth, size = stack
        out.append((arg, depth, size))
    return out


def test_a_stack_node_has_four_fields():
    assert reduction._EMPTY == (None, None, 0, 0)
    stack = reduction._unwind(parse("s a (b c)"), reduction._EMPTY, None)[1]
    assert _stack_nodes(stack) == [(parse("a"), 2, 6), (parse("b c"), 1, 4)]


@settings(**SETTINGS)
@given(
    body=_step_bodies,
    arg=_step_args,
    below=st.lists(_step_args, max_size=3),
    prefix=st.one_of(st.none(), st.lists(st.sampled_from(_NAMES), max_size=2)),
)
@example(body=app(Var(0), Var(1), Var(0)), arg=parse("y z"), below=[], prefix=None)
@example(body=app(Lam("z", Var(1)), Var(2)), arg=Var(0), below=[Free("x")], prefix=[])
@example(body=Lam("z", app(Var(1), Var(0))), arg=Free("y"), below=[], prefix=["p"])
@example(body=Lam("z", Var(0)), arg=Free("y"), below=[Free("x")], prefix=[])
def test_contract_matches_unwinding_the_instantiated_body(body, arg, below, prefix):
    stack = reduction._unwind(app(Free("s"), *below), reduction._EMPTY, None)[1]
    got_hints = None if prefix is None else list(prefix)
    want_hints = None if prefix is None else list(prefix)
    head, top = reduction._contract(body, arg, stack, got_hints)
    want_head, want_top = reduction._unwind(instantiate(body, arg), stack, want_hints)
    assert head == want_head and _identical(head, want_head)
    got, want = _stack_nodes(top), _stack_nodes(want_top)
    assert got == want
    assert all(_identical(a[0], b[0]) for a, b in zip(got, want))
    assert got_hints == want_hints


def _replace_at_reference(t, pos, new):
    """``replace_at`` by recursion, one level per direction."""
    if not pos:
        return new
    d, rest = pos[0], pos[1:]
    match t, d:
        case (Lam(h, b), 0):
            return Lam(h, _replace_at_reference(b, rest, new))
        case (App(f, a), 1):
            return App(_replace_at_reference(f, rest, new), a)
        case (App(f, a), 2):
            return App(f, _replace_at_reference(a, rest, new))
    raise PositionError(
        f"position {''.join(map(str, pos))!r} invalid: "
        f"{type(t).__name__} has no direction {d}"
    )


@settings(**SETTINGS)
@given(
    t=random_terms,
    pick=st.integers(0, 10**6),
    tail=st.lists(st.integers(0, 3), max_size=2),
)
def test_replace_at_matches_the_recursive_reference(t, pick, tail):
    ps = positions(t)
    pos = ps[pick % len(ps)] + tuple(tail)
    new = parse(r"\n. n m")

    def attempt(fn):
        try:
            r = fn(t, pos, new)
        except PositionError as e:
            return str(e)
        return r, _hints(r)

    assert attempt(replace_at) == attempt(_replace_at_reference)


def _develop_reference(t, marks):
    """``develop`` by recursion: each level rebuilds its children with
    the marks below them, then contracts its own mark."""
    markset = {tuple(p) for p in marks}
    for p in markset:
        if not is_redex(subterm_at(t, p)):
            raise TermError(f"development mark {pos_str(p)} is not a redex")

    def go(u, ms):
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


def _same_result(fn, ref, *args):
    """Both calls raise the same error type and message, or return terms
    that agree on their binder hints too."""

    def attempt(f):
        try:
            return f(*args)
        except TermError as e:
            return type(e), str(e)

    got, want = attempt(fn), attempt(ref)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _identical(got, want)


@settings(**SETTINGS)
@given(
    t=random_terms,
    keep=st.integers(0, 2**16 - 1),
    extra=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 10**6), st.lists(st.integers(0, 3), max_size=2)),
    ),
)
@example(t=parse(r"(\z.f z z) ((\x.x) a)"), keep=3, extra=None)
@example(t=parse(r"(\z.(\y.z y) z) ((\x.x) a)"), keep=7, extra=None)
@example(t=parse(r"(\z.z) a"), keep=0, extra=(1, []))
@example(t=parse(r"(\z.z) a"), keep=1, extra=(2, [0]))
def test_develop_matches_the_recursive_reference(t, keep, extra):
    # a subset of the redexes, and perhaps one more mark: a redex, a
    # position that is no redex, or a path that leaves the term
    marks = [p for i, p in enumerate(redex_positions(t)) if keep >> i & 1]
    if extra is not None:
        ps = positions(t)
        marks.append(ps[extra[0] % len(ps)] + tuple(extra[1]))
    _same_result(develop, _develop_reference, t, marks)


@pytest.mark.parametrize(
    "pool, bounds, size",
    [
        (lambda: enumerate_reducts(C.scott_seq(1), limit=300), {}, 300),
        (lambda: enumerate_reducts(parse("Y0 f", DEFS)), {"SIZE_LIMIT": 60}, 47),
        # omega reduces to itself, and the whole term to \y.y
        (lambda: enumerate_reducts(parse(r"(\x y. y) ((\x. x x) (\x. x x))")), {}, 2),
    ],
    ids=["scott_seq(1)", "Y0 f, size_limit=60", "K* omega"],
)
def test_enumerate_reducts_pool_size(pool, bounds, size, search_bounds):
    with search_bounds(**bounds):
        assert len(pool()) == size


# -- the product graph's peel -------------------------------------------------


@st.composite
def _product_graphs(draw):
    """Edge lists on states 0..n-1, all reachable from the root 0 (as in
    an explored product), with duplicate edges, self-loops and, often,
    an edge back into the root."""
    n = draw(st.integers(1, 7))
    weights = st.integers(0, 3)
    edges: dict[int, list[tuple[int, int]]] = {}
    for s in range(1, n):
        parent = draw(st.integers(0, s - 1))
        edges.setdefault(parent, []).append((s, draw(weights)))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights)
    for s, t, w in draw(st.lists(extra, max_size=2 * n)):
        edges.setdefault(s, []).append((t, w))
    if draw(st.booleans()):
        edges.setdefault(n - 1, []).append((0, draw(weights)))
    return n, edges


def _peel_reference(n, edges):
    """Brute force: a state recurs iff some state with a path back to
    itself reaches it; every other state's longest distance is the
    heaviest root path to it found by enumerating simple paths."""
    succ = {s: [t for t, _ in edges.get(s, ())] for s in range(n)}

    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    cycles = [c for c in range(n) if any(c in reach(t) for t in succ[c])]
    recurring = set().union(*(reach(c) for c in cycles))
    longest: dict[int, int] = {}
    paths = [(0, 0, {0})]
    while paths:
        s, dist, on_path = paths.pop()
        longest[s] = max(longest.get(s, dist), dist)
        for t, w in edges.get(s, ()):
            if t not in on_path:
                paths.append((t, dist + w, on_path | {t}))
    return {s: d for s, d in longest.items() if s not in recurring}


@settings(**SETTINGS)
@given(graph=_product_graphs())
def test_peel_matches_the_brute_force_definitions(graph):
    n, edges = graph
    prod = _Product([None] * n, edges, {s: 0 for s in range(n)}, None, set(), False)
    assert prod.peel() == _peel_reference(n, edges)


# -- balance preservation ----------------------------------------------------

# the duplicator's free name f is its label
_SAMPLES = {
    name: balanced_reducts(C.plotkin_A(y), "f", 40)
    for name, y in [("curry", C.Y0), ("turing", C.Y1)]
}


@settings(**SETTINGS)
@given(
    which=st.sampled_from(sorted(_SAMPLES)),
    idx=st.integers(0, 39),
    rounds=st.integers(1, 3),
)
def test_full_development_keeps_balance(which, idx, rounds):
    t = _SAMPLES[which][idx]
    for _ in range(rounds):
        t = gross_knuth(t)
        assert is_balanced(t, "f")


# -- shared subtrees of acyclic builds ---------------------------------------


def _per_position(tree):
    """A copy of an acyclic ``tree`` with one node object per position,
    clocks kept: the tree as it reads when no subtree is shared."""
    made = []
    path = []  # the copies of the current node's ancestors
    for n, _, depth, target, _ in walk(tree):
        assert target is None
        c = Node(n.kind, n.steps, n.binders, n.head, n.head_ref, [], n.block, reason=n.reason)
        made.append(c)
        del path[depth:]
        if path:
            path[-1].children.append(c)
        path.append(c)
    for c in made:
        c.children = tuple(c.children)
    return ClockTree(made[0], tree.semantics, tree.atomic, tree.depth, tree.fuel, tree.closed)


def _tree_views(tree):
    return (tree_to_dict(tree), tree_to_dict(tree, True), render_text(tree), render_dot(tree),
            periodicity_report(tree), tree.node_count())


def _lifted(a, b, rel):
    ev = holds_eventually(a, b, rel)
    assert ev.holds or ev.certified  # a failing result is always certified
    return ev.holds, ev.level, ev.certified, holds_globally(a, b, rel)


_ACYCLIC_BUILDS = {"bt": clocked_bt, "llt": clocked_llt, "bet": clocked_bet}


@pytest.mark.parametrize("depth", [1, 3, 5])
@pytest.mark.parametrize("semantics", list(_ACYCLIC_BUILDS))
def test_shared_subtrees_read_as_a_node_per_position(semantics, depth, monkeypatch):
    # Random terms under redexes that copy their argument, so that equal
    # subtrees come up at equal levels (level 1 of bt and llt, level 2 of
    # bet): every output and every lifted relation must read the built
    # tree as its copy with a node per position, on either side of a
    # comparison.  The last term has one subterm at one level under two
    # binder blocks, where the names in scope pick its binder's name.
    rng = random.Random(f"shared:{semantics}:{depth}")
    dups = [parse(r"\z. f z (g z) z"), parse(r"\z. f z (g z)")]
    terms = [App(dup, _redex_ancestor(rng)) for dup in dups for _ in range(2)]
    terms += [_redex_ancestor(rng) for _ in range(4)]
    terms.append(parse(r"f (\a. g (\a. a)) (\b. g (\a. a))"))
    build = _ACYCLIC_BUILDS[semantics]
    built = [build(t, depth, 300) for t in terms]
    copies = [_per_position(tree) for tree in built]
    # no term is identical to an earlier one, so nothing is reused
    monkeypatch.setattr(trees, "_identical", lambda a, b: False)
    shared = 0
    for t, tree, copy in zip(terms, built, copies):
        assert _tree_views(tree) == _tree_views(copy) == _tree_views(build(t, depth, 300))
        shared += len({id(n) for n, *_ in walk(tree)}) < tree.node_count()
    monkeypatch.undo()
    assert shared >= (2 if depth > 1 else 0)
    for (a, ca), (b, cb) in itertools.product(zip(built, copies), repeat=2):
        for rel in Relation:
            want = _lifted(ca, cb, rel)
            assert _lifted(a, b, rel) == want
            assert _lifted(a, cb, rel) == want
            assert _lifted(ca, b, rel) == want


# -- verdict soundness on convertible pairs ----------------------------------


def _random_closedish(rng, depth, nbound=0):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if nbound and rng.random() < 0.7:
            return Var(rng.randrange(nbound))
        return Free(rng.choice(_NAMES))
    if roll < 0.65:
        return Lam(rng.choice(("a", "b", "w")), _random_closedish(rng, depth - 1, nbound + 1))
    return App(
        _random_closedish(rng, depth - 1, nbound),
        _random_closedish(rng, depth - 1, nbound),
    )


def _random_walk(rng, t, size_cap=250):
    for _ in range(rng.randrange(4)):
        ps = redex_positions(t)
        if not ps:
            break
        u = contract_at(t, rng.choice(ps))
        if u.size > size_cap:
            break
        t = u
    return t


def _redex_ancestor(rng):
    """A random term under three top-level redexes, so that two random
    walks from it seldom end at the same term."""
    ancestor = _random_closedish(rng, 3)
    for _ in range(3):
        ancestor = App(Lam("w", _random_closedish(rng, 3, 1)), ancestor)
    return ancestor


def test_no_false_separation_on_convertible_corpus(defs, search_bounds):
    rng = random.Random(20260822)
    cfg = DiscriminationConfig(depth=6, fuel=1000, reduct_limit=100)
    handpicked = [
        (parse("Y0", defs), gross_knuth(gross_knuth(parse("Y0", defs)))),
        (C.E1, C.E2),
        (parse("eta eta delta x", defs), gross_knuth(parse("eta eta delta x", defs))),
        (parse("B Y0 I", defs), parse("B Y0 I", defs)),
    ]
    pairs = list(handpicked)
    while len(pairs) < 200:
        ancestor = _redex_ancestor(rng)
        a = _random_walk(rng, ancestor)
        b = _random_walk(rng, ancestor)
        pairs.append((a, b))
    assert len(pairs) == 200
    # pairs of one term twice test nothing
    assert sum(a != b for a, b in pairs) >= 150
    false_separations = []
    with search_bounds(SIZE_LIMIT=200):
        for i, (a, b) in enumerate(pairs):
            v = discriminate(a, b, cfg)
            if v.conclusion == INCONVERTIBLE:
                false_separations.append((i, pretty(a), pretty(b), v.justification))
    assert false_separations == []


# The catalog's fixed-point combinators, each family's first few members.
_FPCS = (
    [C.Y0, C.Y1, C.E1, C.E2, C.E3, C.wfpc_flipflop(0), C.wfpc_flipflop(1)]
    + [C.bohm_seq(n) for n in range(1, 6)]
    + [C.scott_seq(n) for n in range(5)]
    + [C.gvector(y, n) for y in (C.Y0, C.Y1) for n in range(4)]
    + [C.bbb_scheme(C.Y0, n) for n in range(4)]
    + [C.scott_composite(ns) for ns in ([0], [1], [0, 0], [1, 0], [0, 1], [2, 0, 1])]
)


def test_the_closure_reaches_a_simple_reduct_wherever_the_search_does():
    # A best-first search over the reduct frontier is the reference:
    # on walks from random redex ancestors (at the corpus's bounds) and
    # on walks from the catalog's fpcs (at the default bounds), the
    # closure finds a simple reduct for every term the search does.
    rng = random.Random(20261021)
    walks = [_random_walk(rng, a) for a in (_redex_ancestor(rng) for _ in range(300))
             for _ in range(2)]
    fpc_walks = [_random_walk(rng, y, 2 * y.size) for y in _FPCS for _ in range(6)]
    for terms, bounds in ((walks, (6, 1000, 100)),
                          (_FPCS + fpc_walks, (12, 10_000, compare.REDUCT_LIMIT))):
        reached = searched = 0
        for t in terms:
            found = best_first_simple_reduct(t, *bounds) is not None
            closed = find_simple_reduct(t, *bounds) is not None
            assert closed or not found, pretty(t)
            reached += closed
            searched += found
        # most terms have a simple reduct, so the check has teeth
        assert searched >= 0.95 * len(terms) and reached >= searched


@pytest.mark.parametrize(
    "ancestor",
    [C.scott_seq(48), C.gvector(C.Y0, 48), C.gvector(C.Y1, 64)],
    ids=["scott_seq(48)", "gvector(Y0, 48)", "gvector(Y1, 64)"],
)
def test_walks_past_the_size_floor_are_never_separated(ancestor):
    # Walks from a term over SIZE_LIMIT: each side's search still finds
    # a simple reduct, and the two closed trees must agree eventually.
    rng = random.Random(20261020)
    cap = 2 * ancestor.size
    pairs = [(_random_walk(rng, ancestor, cap), _random_walk(rng, ancestor, cap))
             for _ in range(4)]
    assert sum(a != b for a, b in pairs) >= 3
    for a, b in pairs:
        v = discriminate(a, b)
        assert v.conclusion == compare.INCONCLUSIVE
        assert v.evidence["simple_reduct"] == [True, True]


def test_every_meeting_term_is_a_reduct_of_both_sides(search_bounds):
    # The join's frontier is checked against the reference search: with
    # the same size rule and no limit hit, that is the whole closure.
    rng = random.Random(20261019)
    limit, closure_limit = 200, 400
    checked = 0
    with search_bounds(SIZE_LIMIT=60):
        for _ in range(100):
            ancestor = _redex_ancestor(rng)
            a = _random_walk(rng, ancestor)
            b = _random_walk(rng, ancestor)
            j = bounded_joinable(a, b, limit=limit)
            if j is None:
                continue
            closures = [_enumerate_reducts_reference(t, closure_limit) for t in (a, b)]
            if any(len(c) >= closure_limit for c in closures):
                continue
            assert all(j in c for c in closures), (pretty(a), pretty(b), pretty(j))
            checked += 1
    assert checked >= 80


# JSON payloads: strings over all of Unicode but surrogates, control
# characters included, and any nesting of (possibly empty) lists and
# string-keyed dicts.
_json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=20,
)


@settings(**SETTINGS)
@given(payload=_json_payloads)
@example(payload={"\x00\n\u2028": ["λ", "\x1f\"\\", {}, [], True, False, None, -7]})
def test_json_writer_matches_the_standard_encoder_on_any_payload(payload):
    expected = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    assert _dumps(payload) == expected
