"""Text and DOT renderings of clocked trees.

The text form is an indented outline, one node per line: annotation
first (``[count]`` or the step-position list ``⟨…⟩``), then the node in
head-normal-form notation.  Loop pointers print where they sit, with
the phase/period decomposition of the repeating position.  The DOT form
draws the same graph for external layout tools; loop pointers become
dashed arrows back to their targets, cross links to shared subtrees
dotted ones.
"""

from __future__ import annotations

from .terms import pos_str
from .trees import ClockTree, Node, walk


def clock_str(node: Node, atomic: bool) -> str:
    c = node.clock(atomic)
    if c is None:
        return ""
    if atomic:
        return "⟨" + ",".join(c) + "⟩"
    return f"[{c}]"


def _label(n: Node, atomic: bool) -> str:
    ann = clock_str(n, atomic)
    pre = ann + " " if ann else ""
    match n.kind:
        case "hnf" | "head" | "var":
            binders = "λ" + " ".join(n.binders) + ". " if n.binders else ""
            return f"{pre}{binders}{n.head}"
        case "lam":
            return f"{pre}λ{n.binders[0]}"
        case "app":
            return f"{pre}@"
        case "bottom":
            return "⊥"
        case "unknown":
            return f"? ({n.reason})"
    return f"{pre}{n.kind}"


def render_text(tree: ClockTree) -> str:
    """Indented outline of the tree, deterministic for equal inputs."""
    lines: list[str] = []
    for n, pos, depth, _, tpos in walk(tree):
        pad = "  " * depth
        if n.kind == "backedge":
            lines.append(
                f"{pad}↺ up {n.delta} "
                f"(phase {pos_str(tpos)}, period {pos_str(pos[len(tpos):])})"
            )
        elif n.kind == "shared":
            lines.append(f"{pad}→ shared subtree at {pos_str(tpos)}")
        else:
            lines.append(pad + _label(n, tree.atomic))
    return "\n".join(lines) + "\n"


def render_dot(tree: ClockTree) -> str:
    """DOT digraph; dashed arrows are loop pointers labeled with their
    (phase, period) decomposition, dotted arrows reuse shared subtrees."""
    ids: dict[int, str] = {}
    nodes: list[str] = []
    edges: list[str] = []
    path: list[str] = []  # ids of the current node's ancestors
    # A tree edge is listed only once its child's subtree is done:
    # (child depth, edge line), deepest last.
    pending: list[tuple[int, str]] = []

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    for n, pos, depth, target, tpos in walk(tree):
        while pending and pending[-1][0] >= depth:
            edges.append(pending.pop()[1])
        del path[depth:]
        if n.kind == "backedge":
            lbl = f"({pos_str(tpos)}, {pos_str(pos[len(tpos):])})"
            edges.append(
                f"  {path[-1]} -> {ids[id(target)]} "
                f"[style=dashed, label={quote(lbl)}];"
            )
        elif n.kind == "shared":
            edges.append(f"  {path[-1]} -> {ids[id(target)]} [style=dotted];")
        else:
            nid = f"n{len(nodes)}"
            ids[id(n)] = nid
            nodes.append(f"  {nid} [label={quote(_label(n, tree.atomic))}];")
            if path:
                pending.append((depth, f"  {path[-1]} -> {nid};"))
            path.append(nid)
    edges.extend(line for _, line in reversed(pending))
    out = ["digraph clocktree {", '  node [shape=box, fontname="monospace"];']
    out.extend(nodes)
    out.extend(edges)
    out.append("}")
    return "\n".join(out) + "\n"
