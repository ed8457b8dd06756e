"""Acceptance gate: one check per shipped guarantee, one line per verdict.

Run with ``pytest -v`` for the per-criterion pass/fail lines; each test
also prints ``criterion N: PASS|FAIL`` (visible with ``-s`` or on failure).
"""

import pathlib

from fixtures import balanced_reducts
from lamclock.combinators import (
    E1,
    E2,
    E3,
    I,
    S,
    THETA,
    Y0,
    Y1,
    bohm_seq,
    gvector,
    ones_exponents,
    plotkin_A,
    plotkin_B,
    plotkin_Bprime,
    plotkin_nonzero_witness,
    pulse_pattern_count,
    scott_composite_simplified,
    standard_definitions,
)
from lamclock.compare import (
    INCONCLUSIVE,
    INCONVERTIBLE,
    DiscriminationConfig,
    bounded_joinable,
    discriminate,
    subseq_le,
)
from lamclock.parser import parse
from lamclock.reduction import contract_at, head_redex_position, reducing_fpc_order
from lamclock.terms import App, Free, app, iterate, pos_str, spine
from lamclock.trees import check_simple, clocked_bt, compact_cyclic


def _report(num, desc, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num}: {status} — {desc}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def _spine_counts(tree, k):
    out, node = [], tree.root
    while node.kind == "hnf" and len(out) < k:
        out.append(node.count)
        if not node.children:
            break
        node = node.children[0]
    return out


def _resolved_counts(tree):
    out = []

    def walk(n):
        if n.kind != "hnf":
            return
        out.append(n.count)
        for c in n.children:
            walk(c)

    walk(tree.root)
    return out


def test_criterion_01_fpc_spine_annotations(defs):
    problems = []
    got0 = _spine_counts(clocked_bt(parse("Y0 f", defs), 7), 6)
    if got0 != [2, 1, 1, 1, 1, 1]:
        problems.append(f"first combinator spine {got0}")
    got1 = _spine_counts(clocked_bt(parse("Y1 f", defs), 7), 6)
    if got1 != [2, 2, 2, 2, 2, 2]:
        problems.append(f"second combinator spine {got1}")
    _report(1, "clock spines 2,1,1,... and 2,2,2,... for the two classic fpcs", problems)


def test_criterion_02_owl_postfix_cycles():
    problems = []
    for n in range(2, 7):
        t = App(bohm_seq(n), Free("x"))
        tree = compact_cyclic(t)
        if not tree.closed or tree.root.count != 2 * n:
            problems.append(f"n={n}: cycle {tree.root.count} (closed={tree.closed})")
        if check_simple(t).status != "simple":
            problems.append(f"n={n}: not simple")
    _report(2, "owl-postfix family: cycle annotation 2n and simple, n=2..6", problems)


def test_criterion_03_composition_chain_cycles():
    problems = []
    for n in range(2, 7):
        t = App(app(iterate(App(THETA, THETA), S, n - 2), I), Free("x"))
        tree = compact_cyclic(t)
        if not tree.closed or tree.root.count != 3 * n - 2:
            problems.append(f"n={n}: cycle {tree.root.count} (closed={tree.closed})")
    _report(3, "composition-chain reducts: cycle annotation 3n-2, n=2..6", problems)


def test_criterion_04_atomic_separation(defs):
    problems = []
    a = compact_cyclic(parse("eta eta delta x", defs), atomic=True)
    b = compact_cyclic(parse("theta theta I x", defs), atomic=True)
    sa = [pos_str(p) for p in a.root.steps]
    sb = [pos_str(p) for p in b.root.steps]
    if sa != ["11", "1", "1", "e"]:
        problems.append(f"first atomic root {sa}")
    if sb != ["11", "1", "e", "1"]:
        problems.append(f"second atomic root {sb}")
    if subseq_le(a.root.steps, b.root.steps) or subseq_le(b.root.steps, a.root.steps):
        problems.append("step lists unexpectedly embeddable")
    v = discriminate(
        parse("Y0 delta delta", defs),
        parse("Y0 (S S) I", defs),
        DiscriminationConfig(atomic=True),
    )
    if v.conclusion != INCONVERTIBLE:
        problems.append(f"verdict {v.conclusion}")
    _report(4, "atomic clocks separate the pair whose plain clocks agree", problems)


def test_criterion_05_composite_atomic_sequence():
    problems = []
    t = App(scott_composite_simplified([2, 0, 1]), Free("x"))
    tree = compact_cyclic(t, atomic=True)
    exps = ones_exponents(tree.root.steps)
    expected = [9, 8, 7, 8, 7, 6, 7, 6, 5, 6, 5, 4, 3, 4, 3, 2, 1, 2, 1, 0, 1]
    if exps != expected:
        problems.append(f"run lengths {exps}")
    if len(tree.root.steps) != 21:
        problems.append(f"{len(tree.root.steps)} entries")
    pulses = pulse_pattern_count(exps)
    if pulses != 2:
        problems.append(f"{pulses} pulse windows")
    _report(5, "composite fpc: exact 21-entry atomic clock with 2 pulse windows", problems)


def test_criterion_06_reduction_orders():
    problems = []
    for n in range(5):
        got = reducing_fpc_order(gvector(Y1, n))
        if got != 3 * n + 9:
            problems.append(f"n={n}: order {got}")
    _report(6, "vector-extended fpcs have reduction order 3n+9, n=0..4", problems)


def test_criterion_07_balance_and_witnesses():
    problems = []
    # (a) the duplicator's tree beats at a constant 3
    a_counts = _resolved_counts(clocked_bt(plotkin_A(Y1), 5))
    if not a_counts or set(a_counts) != {3}:
        problems.append(f"duplicator counts {sorted(set(a_counts))}")
    # (b) the nested variant alternates 6 on the left fork, 3 on the right
    b = clocked_bt(plotkin_B(Y1), 5)
    if b.root.count != 6:
        problems.append(f"nested root {b.root.count}")

    def walk_pairs(n, bad):
        if n.kind != "hnf":
            return
        cs = list(n.children)
        if len(cs) == 2 and all(c.kind == "hnf" for c in cs):
            if (cs[0].count, cs[1].count) != (6, 3):
                bad.append((cs[0].count, cs[1].count))
        for c in cs:
            walk_pairs(c, bad)

    bad_pairs = []
    walk_pairs(b.root, bad_pairs)
    if bad_pairs:
        problems.append(f"nested fork counts {bad_pairs}")
    # (c) the guarded variant is silent on every right fork
    for name, y in (("curry", Y0), ("turing", Y1)):
        w = plotkin_nonzero_witness(plotkin_Bprime(y), depth=8)
        if w is not None:
            problems.append(f"guarded/{name}: nonzero at {pos_str(w)}")
    # (d) but every balanced reduct of the duplicator, whose free name f
    # marks the tracked occurrences, still ticks somewhere
    sample = balanced_reducts(plotkin_A(Y1), "f", 50)
    if len(sample) != 50:
        problems.append(f"only {len(sample)} balanced reducts")
    missing = sum(
        1 for r in sample if plotkin_nonzero_witness(r, depth=6) is None
    )
    if missing:
        problems.append(f"{missing} reducts without a nonzero annotation")
    _report(7, "duplicator beats, guarded variant is silent, balance keeps the beat", problems)


def test_criterion_08_enumerator_figures():
    problems = []
    reference = {
        "e1": [2, 0, 0, 2, 2],
        # The c entry was stored as 2: that counts the second copy of `w w`,
        # which S duplicates, as if it shared the head normal form its
        # sibling b node already reached.  Copies share nothing, so the c
        # node takes 3 steps; see test_criterion_08_e2_head_derivations.
        "e2": [2, 0, 0, 6, 3],
        "e3": [0, 2, 0, 3, 1, 0, 3, 0, 0],
    }
    for name, term in (("e1", E1), ("e2", E2), ("e3", E3)):
        got = _resolved_counts(compact_cyclic(term))
        if got != reference[name]:
            problems.append(f"{name} annotations {got} != {reference[name]}")
    v13 = discriminate(E1, E3, DiscriminationConfig())
    if v13.conclusion != INCONVERTIBLE:
        problems.append(f"e1/e3 verdict {v13.conclusion}")
    v12 = discriminate(E1, E2, DiscriminationConfig())
    if v12.conclusion != INCONCLUSIVE:
        problems.append(f"e1/e2 verdict {v12.conclusion}")
    if bounded_joinable(E1, E2, limit=2000) is None:
        problems.append("e1/e2 common reduct not found")
    _report(8, "enumerator trees match the stored annotation lists; verdicts agree", problems)


def test_criterion_08_e2_head_derivations():
    r"""The e2 clocks of the b node (6) and the c node (3), step by step.

    E2 = (\x.x x) W head-reduces in two steps to \z.z A; each period of its
    tree is the block A = \a b c. a b (S (\z.z b) (\z.z c) (W W)).
    """
    d = standard_definitions()
    d.define("W", r"\w.\z.z(\a b c.a b(S(\z.z b)(\z.z c)(w w)))")
    d.define("A", r"\a b c.a b(S(\z.z b)(\z.z c)(W W))")
    assert parse(r"(\x.x x) W", d) == E2
    b_node = [
        r"S (\z.z b) (\z.z c) (W W)",
        r"(\y z.(\z.z b) z (y z)) (\z.z c) (W W)",
        r"(\z.(\z.z b) z ((\z.z c) z)) (W W)",
        r"(\z.z b) (W W) ((\z.z c) (W W))",
        r"W W b ((\z.z c) (W W))",
        r"(\z.z A) b ((\z.z c) (W W))",
        r"b A ((\z.z c) (W W))",
    ]
    # the second copy of `w w` is reduced afresh: nothing is shared
    c_node = [r"(\z.z c) (W W)", r"W W c", r"(\z.z A) c", r"c A"]
    # the stored 2 is the count of a copy whose W W is already in hnf
    pre_evaluated = [r"(\z.z c) (\z.z A)", r"(\z.z A) c", r"c A"]
    for texts, head, steps in (
        (b_node, "b", 6),
        (c_node, "c", 3),
        (pre_evaluated, "c", 2),
    ):
        terms = [parse(x, d) for x in texts]
        assert len(terms) == steps + 1
        for prev, nxt in zip(terms, terms[1:]):
            assert contract_at(prev, head_redex_position(prev)) == nxt
        assert head_redex_position(terms[-1]) is None
        assert spine(terms[-1])[0] == Free(head)
    # two periods of the acyclic tree: [6] b, then [3] c beside it
    block = clocked_bt(E2, 6).root.children[0]
    for _ in range(2):
        b = block.children[1]
        c = b.children[1]
        assert (b.head, b.count) == (block.binders[1], 6)
        assert (c.kind, c.head, c.count) == ("hnf", block.binders[2], 3)
        block = b.children[0]


def test_criterion_09_erasers(defs):
    problems = []
    pp = parse(r"(\x y. x x)(\x y. x x)")
    qq = parse(r"(\x y z. x x)(\x y z. x x)")
    lp = compact_cyclic(pp, semantics="llt")
    if not (
        lp.closed
        and lp.root.kind == "lam"
        and lp.root.count == 1
        and lp.root.binders == ("y",)
        and lp.root.children[0].kind == "backedge"
        and lp.root.children[0].delta == 1
    ):
        problems.append("two-binder eraser whnf cycle wrong")
    lq = compact_cyclic(qq, semantics="llt")
    chain = []
    node = lq.root
    while node.kind == "lam":
        chain.append(node.count)
        node = node.children[0]
    if not (lq.closed and chain == [1, 0] and node.kind == "backedge" and node.delta == 2):
        problems.append(f"three-binder eraser whnf cycle {chain}")
    for name, t in (("two-binder", pp), ("three-binder", qq)):
        bt = compact_cyclic(t)
        if not (bt.closed and bt.root.kind == "bottom"):
            problems.append(f"{name} hnf tree is {bt.root.kind}, not bottom")
    _report(9, "head-recurrence proves both erasers meaningless under hnf semantics", problems)


def test_criterion_10_property_suites():
    problems = []
    src = (pathlib.Path(__file__).parent / "test_properties.py").read_text()
    if "max_examples=500" not in src:
        problems.append("case budget below 500")
    if "derandomize=True" not in src:
        problems.append("seed not fixed")
    for marker in (
        "test_reduction_never_slows_the_clock",
        "test_reduction_thins_the_step_positions",
        "test_simple_terms_drift_at_most_one_annotation_per_step",
        "test_subseq_transitive",
        "test_parse_pretty_round_trip",
        "test_full_development_keeps_balance",
        "test_no_false_separation_on_convertible_corpus",
    ):
        if f"def {marker}" not in src:
            problems.append(f"missing suite {marker}")
    if "Random(20260822)" not in src or "200" not in src:
        problems.append("convertible corpus not pinned to 200 seeded pairs")
    _report(10, "randomized law suites present, seeded, and sized (run in this session)", problems)
