"""Seeded workloads over the paper's term families.

A workload draws *rounds* of items from a ``random.Random`` seeded with
the workload name and the run's seed.  Every round holds the same mix of
item kinds; the seed only picks within each kind (plain or atomic
clocks, the control's FPC and reduction walks) and the order.  A run
processes a fixed number of whole rounds, so runs with different seeds
measure the same kind of work.

Each item carries its expected answer, which comes from the theory
rather than from this package: a known-inconvertible pair with the
paper result that separates it, a pair convertible by construction, a
tree shape that follows from the term's fixed-point equation, or a
stored golden.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

from lamclock import compare, parser, reduction, render, repro, trees
from lamclock.combinators import (
    E1,
    E3,
    Y0,
    Y1,
    bohm_seq,
    gvector,
    plotkin_B,
    scott_seq,
    standard_definitions,
)
from lamclock.parser import parse, pretty
from lamclock.terms import App, Free, Term, pos_str


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@dataclass
class Outcome:
    """What one item did.

    ``record`` is the item's behaviour (verdict, tree or text) as JSON;
    ``Item.timed`` replaces it by ``digest``, the sha256 of its canonical
    JSON, so that a run does not keep large trees alive.  ``problems``
    names every failed check; ``answered`` says the result equals the
    input's known answer (a known-inconvertible pair was certified, a
    convertible one was not separated) and no check failed.
    """

    record: object
    problems: list[str] = field(default_factory=list)
    answered: bool = True
    digest: str = ""


@dataclass(frozen=True)
class Item:
    label: str
    kind: str
    inputs: tuple[Term, ...]
    run: Callable[[], Outcome]
    expected: str | None = None  # a pair's known answer ...
    provenance: str = ""  # ... and why it is known

    def timed(self) -> tuple[float, Outcome]:
        """Run the item and time it; an exception becomes a failed check
        named by its type, so one failure never stops the run."""
        t0 = time.perf_counter()
        try:
            outcome = self.run()
        except Exception as e:  # recorded and reported, not raised
            outcome = Outcome(None, [f"raised {type(e).__name__}"], False)
        elapsed = time.perf_counter() - t0
        outcome.answered = outcome.answered and not outcome.problems
        outcome.digest = hashlib.sha256(canonical_json(outcome.record).encode()).hexdigest()
        outcome.record = None
        return elapsed, outcome


# ---------------------------------------------------------------------------
# separate: known-inconvertible pairs


BOHM = (
    "Boehm sequence: eta eta delta^(n-1) has a simple closed tree with clock "
    "2n per level (paper Example 4.19), so members with different n differ "
    "eventually"
)
SCOTT = (
    "Scott's sequence (B Y0) S^n I: its simple reducts theta theta S^n I have "
    "clock 3n+4 per level (paper Example 4.20), so members with different n "
    "differ eventually"
)
GVECTOR = (
    "vector-extended FPCs y(SS)S^n I: reduction order 3n+9 (paper Theorem 3.8) "
    "and distinct eventual clocks for distinct n"
)
CURRY_TURING = (
    "Curry's Y0 and Turing's eta eta: clock spines 2,1,1,... and 2,2,2,... "
    "(paper Section 4, first example of clocked Boehm trees)"
)
VECTOR_STEP = (
    "eta eta and eta eta (SS) I: applying the vector (SS)I gives a new, "
    "inconvertible FPC (paper Theorem 3.8 family, n = 0)"
)
ENUMERATORS = (
    "enumerators e1 and e3 have different Boehm-tree layers with different "
    "clocks (paper Figures 7 and 8)"
)
ATOMIC = (
    "Y0 delta delta and Y0 (SS) I: equal plain clocks, but atomic clocks "
    "(step positions) differ (paper Section 7); plain clocks cannot separate them"
)


@dataclass(frozen=True)
class Pair:
    label: str
    kind: str
    left: Term
    right: Term
    provenance: str
    expected: str  # "inconvertible" | "convertible"
    plain_separates: bool = True


def separate_pairs() -> list[Pair]:
    """Every pair the ``separate`` workload draws from; all are
    inconvertible, by the cited results of the paper."""
    defs = standard_definitions()
    pairs = []
    for kind, family, ns, why in (
        ("bohm", bohm_seq, range(1, 6), BOHM),
        ("scott", scott_seq, range(0, 4), SCOTT),
        ("gvector", lambda n: gvector(Y1, n), range(0, 4), GVECTOR),
    ):
        name = {"bohm": "bohm_seq", "scott": "scott_seq", "gvector": "gvector_Y1"}[kind]
        for a, b in itertools.combinations(ns, 2):
            pairs.append(Pair(
                f"{name}({a})/{name}({b})", kind, family(a), family(b),
                why, "inconvertible",
            ))
    pairs += [
        Pair("Y0/Y1", "special", Y0, Y1, CURRY_TURING, "inconvertible"),
        Pair("bohm_seq(1)/gvector_Y1(0)", "special", bohm_seq(1), gvector(Y1, 0),
             VECTOR_STEP, "inconvertible"),
        Pair("E1/E3", "special", E1, E3, ENUMERATORS, "inconvertible"),
        Pair("Y0 delta delta/Y0 (S S) I", "special", parse("Y0 delta delta", defs),
             parse("Y0 (S S) I", defs), ATOMIC, "inconvertible", plain_separates=False),
    ]
    return pairs


def _discriminate_item(pair: Pair, atomic: bool) -> Item:
    mode = "atomic" if atomic else "plain"

    def run() -> Outcome:
        verdict = compare.discriminate(
            pair.left, pair.right, compare.DiscriminationConfig(atomic=atomic)
        )
        out = Outcome(verdict.to_dict())
        separated = verdict.conclusion == compare.INCONVERTIBLE
        if verdict.conclusion not in (compare.INCONVERTIBLE, compare.INCONCLUSIVE):
            out.problems.append(f"unknown conclusion {verdict.conclusion!r}")
        if pair.expected == "convertible":
            out.answered = not separated
            if separated:
                out.problems.append(
                    f"false separation ({verdict.justification}) of a convertible pair"
                )
        else:
            out.answered = separated
            # Only plain clocks on a pair they cannot separate may miss.
            if not separated and (atomic or pair.plain_separates):
                out.problems.append(
                    f"known-inconvertible pair not certified ({verdict.justification})"
                )
        return out

    return Item(f"{pair.label} [{mode}]", pair.kind, (pair.left, pair.right), run,
                pair.expected, pair.provenance)


WALK = "two reduction walks from one term are convertible (both reduce from it)"
# Each round's convertible control is a pair of walks from one of these:
# the cheapest catalog FPCs whose pairs still run the whole pipeline,
# with reduct search up to its limit.
CONTROL_FPCS = (("Y1", Y1), ("bohm_seq(3)", bohm_seq(3)), ("scott_seq(1)", scott_seq(1)))


def random_walk(t: Term, steps: int, rng: random.Random) -> Term:
    """Contract ``steps`` uniformly chosen redexes, one after another."""
    for _ in range(steps):
        redexes = reduction.redex_positions(t)
        if not redexes:
            break
        t = reduction.contract_at(t, rng.choice(redexes))
    return t


def separate_rounds(seed: int):
    """Each round: every pair once, with seeded plain or atomic clocks,
    and one convertible control.  The pair plain clocks cannot separate
    runs in both modes, so every round holds exactly one expected recall
    miss.  The control is two random walks (0-4 and 1-4 steps) from a
    seeded FPC; separating them would be a soundness failure."""
    rng = random.Random(f"separate:{seed}")
    pairs = separate_pairs()
    while True:
        items = []
        for pair in pairs:
            modes = (False, True) if not pair.plain_separates else (rng.random() < 0.5,)
            items += [_discriminate_item(pair, atomic) for atomic in modes]
        name, y = rng.choice(CONTROL_FPCS)
        a = random_walk(y, rng.randint(0, 4), rng)
        b = random_walk(y, rng.randint(1, 4), rng)
        control = Pair(f"{name} walks", "control", a, b, WALK, "convertible")
        items.append(_discriminate_item(control, False))
        rng.shuffle(items)
        yield items


# ---------------------------------------------------------------------------
# unfold: head reduction, trees, product exploration, serialisation


GROWING = r"(\x.x x x)(\x.x x x)"
FUEL_SWEEP = (250, 500, 750)
BUILDERS = {"bt": "clocked_bt", "llt": "clocked_llt", "bet": "clocked_bet"}


def _head_item(term: Term, target: str, fuel: int) -> Item:
    def run() -> Outcome:
        out = reduction.head_reduce(term, target, fuel)
        record = {"status": out.status, "steps": [pos_str(p) for p in out.steps]}
        res = Outcome(record)
        # The term only grows under head reduction and has no head normal
        # form, so every target runs out of fuel.
        if out.status != reduction.FUEL_EXHAUSTED:
            res.problems.append(f"status {out.status}, expected fuel exhaustion")
        if target != "root_stable" and out.step_count != fuel:
            res.problems.append(f"{out.step_count} steps for fuel {fuel}")
        return res

    return Item(f"head_reduce {target} fuel {fuel}", "head", (term,), run)


def _shape_problems(node: dict, head: str, arity: int) -> list[str]:
    """Check a serialised tree of ``head`` applied to ``arity`` arguments
    at every level: no binders, no bottom, every head ``head``."""
    problems = []
    stack = [node]
    while stack:
        n = stack.pop()
        kind = n["kind"]
        kids = n.get("children", [])
        if kind in ("bottom", "lam") or n.get("binders"):
            problems.append(f"unexpected {kind} node {n['id']}")
        elif kind in ("hnf", "head", "var") and n["head"] != head:
            problems.append(f"head {n['head']} at {n['id']}")
        elif kind in ("hnf", "head") and len(kids) != arity:
            problems.append(f"{len(kids)} children at {n['id']}")
        elif kind == "app" and len(kids) != 2:
            problems.append(f"application with {len(kids)} children at {n['id']}")
        elif kind == "unknown" and n["reason"] != "depth":
            problems.append(f"unknown ({n['reason']}) at {n['id']}")
        stack.extend(kids)
    return problems[:3]


def _serialised(tree: trees.ClockTree, head: str, arity: int) -> tuple[dict, list[str]]:
    """Serialise a tree as ``lamclock bt --json`` and the text output do,
    and check the result: a JSON round trip and the expected shape."""
    payload = trees.tree_to_dict(tree)
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    record = {"tree": payload, "text": render.render_text(tree)}
    problems = _shape_problems(payload["root"], head, arity)
    if json.loads(text) != payload:
        problems.append("JSON round trip changed the tree")
    return record, problems


def _build(semantics: str, term: Term, depth: int) -> trees.ClockTree:
    """The acyclic tree builder for ``semantics``, looked up at call time
    so that a traced run sees the traced function."""
    return getattr(trees, BUILDERS[semantics])(term, depth)


def _acyclic_item(term: Term, name: str, semantics: str, depth: int,
                  head: str, arity: int) -> Item:
    def run() -> Outcome:
        record, problems = _serialised(_build(semantics, term, depth), head, arity)
        return Outcome(record, problems)

    return Item(f"{BUILDERS[semantics]} {name} depth {depth}", "tree", (term,), run)


def _cyclic_item(term: Term, name: str) -> Item:
    """Cyclic trees of one term under every semantics, plain and atomic:
    what ``lamclock bt|llt|bet [--atomic]`` compute for it."""

    def run() -> Outcome:
        out = Outcome([])
        for semantics in BUILDERS:
            for atomic in (False, True):
                tree = trees.compact_cyclic(term, semantics=semantics, atomic=atomic)
                record, problems = _serialised(tree, "x", 1)
                out.record.append(record)
                mode = "atomic" if atomic else "plain"
                out.problems += [f"{semantics} [{mode}]: {p}" for p in problems]
        return out

    return Item(f"compact_cyclic {name}", "cyclic", (term,), run)


def _eventually_item(term: Term, name: str, semantics: str, d1: int, d2: int) -> Item:
    def run() -> Outcome:
        small, large = _build(semantics, term, d1), _build(semantics, term, d2)
        ev = compare.holds_eventually(small, large, compare.Relation.EQ)
        res = Outcome({"holds": ev.holds, "level": ev.level, "certified": ev.certified})
        # The shallower tree is a prefix of the deeper one.
        if not ev.holds:
            res.problems.append("clocks of one term differ between depths")
        return res

    return Item(
        f"holds_eventually {semantics} {name} depth {d1} vs {d2}", "eventually", (term,), run
    )


def golden(rid: str) -> str:
    return (resources.files("lamclock") / "goldens" / f"{rid}.txt").read_text(encoding="utf-8")


def _repro_item() -> Item:
    """Every repro spec against its golden, as ``lamclock repro`` does."""

    def run() -> Outcome:
        out = Outcome({})
        for rid, spec in repro.SPECS.items():
            text = spec()
            out.record[rid] = text
            if text != golden(rid):
                out.problems.append(f"{rid}: output differs from its golden")
        return out

    return Item("repro (all specs)", "repro", (), run)


def cyclic_members() -> list[tuple[str, Term]]:
    """FPC family members applied to a free ``x``; by the fixed-point
    equation each unfolds to x (x (x ...))."""
    x = Free("x")
    return [
        ("bohm_seq(5) x", App(bohm_seq(5), x)),
        ("scott_seq(2) x", App(scott_seq(2), x)),
        ("gvector_Y1(2) x", App(gvector(Y1, 2), x)),
        ("Y0 x", App(Y0, x)),
    ]


def unfold_rounds(seed: int):
    """Each round: the head-reduction fuel sweep, the large acyclic trees,
    product exploration between them, cyclic trees of FPC family
    members, and every repro spec.  The items are fixed; the seed only
    orders them, so every round costs the same."""
    rng = random.Random(f"unfold:{seed}")
    growing = parse(GROWING)
    fork = plotkin_B(Y1)  # M = f M M: every level is f applied to two copies
    spine = App(bohm_seq(40), Free("x"))
    while True:
        items = [_head_item(growing, t, f)
                 for t in ("hnf", "whnf", "root_stable") for f in FUEL_SWEEP]
        for sem in BUILDERS:
            items += [_acyclic_item(fork, "plotkin_B(Y1)", sem, d, "f", 2) for d in (10, 11, 12)]
            items.append(_acyclic_item(spine, "bohm_seq(40) x", sem, 12, "x", 1))
        items += [
            _eventually_item(fork, "plotkin_B(Y1)", "bt", 10, 11),
            _eventually_item(fork, "plotkin_B(Y1)", "llt", 11, 12),
            _eventually_item(fork, "plotkin_B(Y1)", "bet", 11, 12),
        ]
        items += [_cyclic_item(term, name) for name, term in cyclic_members()]
        items.append(_repro_item())
        rng.shuffle(items)
        yield items


def deep_nest_probe(depth: int = 1500) -> dict[str, str]:
    """Parse and print an ``f (f (... x))`` nest; known defect K1 makes
    both raise ``RecursionError`` at the default recursion limit.  Kept
    out of the counted items: it reports the defect, it does not time it."""
    text = "x"
    for _ in range(depth):
        text = f"f ({text})"
    term = Free("x")
    for _ in range(depth):
        term = App(Free("f"), term)
    result = {}
    for name, call in (("parse", lambda: parser.parse(text)), ("pretty", lambda: pretty(term))):
        try:
            call()
            result[name] = "ok"
        except Exception as e:  # the probe reports whatever the defect raises
            result[name] = type(e).__name__
    return result


WORKLOADS = {"separate": separate_rounds, "unfold": unfold_rounds}

# Item time of one round at the seed commit, in seconds, on a 2-vCPU
# x86-64 VM (Intel Xeon) with Python 3.11.  A run of ``--seconds`` takes
# ceil(seconds / ROUND_SECONDS) rounds: a count fixed in advance, so that
# speed drift of the host cannot change which items a run measures.
ROUND_SECONDS = {"separate": 27, "unfold": 16}


def inputs_digest(items: list[Item]) -> str:
    """sha256 over every item's label and printed inputs, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        for t in item.inputs:
            h.update(b"\0" + pretty(t).encode())
        h.update(b"\n")
    return h.hexdigest()
