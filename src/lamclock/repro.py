"""Reference computations behind ``lamclock repro``.

Each entry recomputes one stored reference output — a tree rendering or
a table of clock values — as deterministic text.  The CLI diffs the
recomputed text against the checked-in copy under ``goldens/``; the
test suite drives the same table.  Ids are stable, CLI-visible tokens.
"""

from __future__ import annotations

from .combinators import (
    E1,
    E2,
    E3,
    I,
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
)
from .compare import subseq_le
from .parser import parse
from .reduction import reducing_fpc_order
from .render import render_text
from .terms import App, Free, Term, app, pos_str
from .trees import check_simple, compact_cyclic, node_at


def _cyclic_block(title: str, t: Term, *, semantics: str = "bt", atomic: bool = False) -> str:
    tree = compact_cyclic(t, semantics=semantics, atomic=atomic)
    status = "closed" if tree.closed else "open"
    return f"-- {title} ({status}) --\n{render_text(tree)}"


def _fx(t: Term, var: str = "f") -> Term:
    return App(t, Free(var))


def fig3() -> str:
    return _cyclic_block("y0 f", _fx(Y0)) + _cyclic_block("y1 f", _fx(Y1))


def _steps_per_level(terms) -> str:
    """One line per ``(n, term)``: the root's head steps and the simplicity
    status, both read off the one cyclic ``bt`` tree ``check_simple`` builds."""
    lines = []
    for n, t in terms:
        report = check_simple(t)
        lines.append(
            f"n={n}: head-steps-per-level {report.tree.root.count}, {report.status}"
        )
    return "\n".join(lines) + "\n"


def ex4_19() -> str:
    return _steps_per_level((n, _fx(bohm_seq(n), "x")) for n in range(2, 7))


def ex4_20() -> str:
    return _steps_per_level(
        (n, _fx(scott_composite_simplified([n - 2]), "x")) for n in range(2, 7)
    )


def fig4() -> str:
    return _cyclic_block("duplicator A over y1", plotkin_A(Y1)) + _cyclic_block(
        "duplicator B over y1", plotkin_B(Y1)
    )


def lemma5_3() -> str:
    lines = []
    for name, y in (("y0", Y0), ("y1", Y1)):
        t = plotkin_Bprime(y)
        tree = compact_cyclic(t, 8)
        vals = []
        for m in range(8):
            node = node_at(tree, (1, 2) * m + (2,))
            if node is None:
                break
            vals.append(str(node.count))
        witness = plotkin_nonzero_witness(t, depth=8)
        w = pos_str(witness) if witness is not None else "none"
        lines.append(f"{name}: right-fork annotations {' '.join(vals)}; witness {w}")
    return "\n".join(lines) + "\n"


def fig7() -> str:
    return _cyclic_block("enumerator e1", E1) + _cyclic_block("enumerator e2", E2)


def fig8() -> str:
    return _cyclic_block("enumerator e3", E3)


def sec7_atomic() -> str:
    defs_y2 = _fx(bohm_seq(2), "x")
    u2 = App(App(app(THETA, THETA), I), Free("x"))
    out = _cyclic_block("y2 x, step positions", defs_y2, atomic=True)
    out += _cyclic_block("theta theta i x, step positions", u2, atomic=True)
    a = compact_cyclic(defs_y2, atomic=True).root.steps
    b = compact_cyclic(u2, atomic=True).root.steps
    out += f"root lists subsequence-compatible: {subseq_le(a, b)} / {subseq_le(b, a)}\n"
    return out


def ex7_4() -> str:
    t = App(scott_composite_simplified([2, 0, 1]), Free("x"))
    tree = compact_cyclic(t, atomic=True)
    steps = tree.root.steps
    exps = ones_exponents(steps)
    lines = [
        "composite over exponents [2, 0, 1], simplified form, applied to x",
        "root step positions: ⟨" + ",".join(pos_str(p) for p in steps) + "⟩",
        f"entries: {len(steps)}",
        "leading-1 run lengths: " + " ".join(map(str, exps)),
        f"pulse windows (up one, down four): {pulse_pattern_count(exps)}",
    ]
    return "\n".join(lines) + "\n"


def ex8_3() -> str:
    pp = parse(r"(\x y. x x)(\x y. x x)")
    qq = parse(r"(\x y z. x x)(\x y z. x x)")
    out = _cyclic_block("self-applied two-binder eraser, whnf layers", pp,
                       semantics="llt")
    out += _cyclic_block("self-applied three-binder eraser, whnf layers", qq,
                        semantics="llt")
    out += _cyclic_block("two-binder eraser, hnf semantics", pp)
    out += _cyclic_block("three-binder eraser, hnf semantics", qq)
    return out


def thm3_8() -> str:
    lines = []
    for n in range(5):
        order = reducing_fpc_order(gvector(Y1, n))
        lines.append(f"n={n}: reduction order {order}")
    return "\n".join(lines) + "\n"


SPECS = {
    "fig3": fig3,
    "ex4-19": ex4_19,
    "ex4-20": ex4_20,
    "fig4": fig4,
    "lemma5-3": lemma5_3,
    "fig7": fig7,
    "fig8": fig8,
    "sec7-atomic": sec7_atomic,
    "ex7-4": ex7_4,
    "ex8-3": ex8_3,
    "thm3-8": thm3_8,
}
