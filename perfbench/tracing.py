"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in the
namespaces of the ``lamclock`` modules that call it, and ``uninstall()``
puts the originals back, so the package source stays untouched and an
untraced run pays nothing.  A wrapper records one span per call and
keeps, per layer, the number of calls and the *self time*: the span's
duration minus the time covered by the spans it caused.  Spans are
aggregated as they close instead of being kept one by one, because the
kernel layers see millions of calls in a run.

Layer counts (reducts enumerated, product states, head steps, ...) are
read from each call's arguments and result.  That bookkeeping, and the
wrapper of a child span, are charged to neither the child's nor the
parent's self time; what remains of the wrapper cost shows as
``trace.overhead_frac``.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

from lamclock import compare, parser, reduction, render, terms, trees

_PACKAGE = "lamclock"

CountFn = Callable[[object, tuple, dict], dict[str, int]]


def _head_counts(out, args, kwargs) -> dict[str, int]:
    return {
        "reduction.head_reduce.steps": out.step_count,
        "reduction.head_reduce.fuel_exhausted": out.status == reduction.FUEL_EXHAUSTED,
        "reduction.head_reduce.proven_divergent": out.status == reduction.PROVEN_DIVERGENT,
    }


def _cyclic_counts(tree, args, kwargs) -> dict[str, int]:
    return {
        "trees.compact_cyclic.nodes": tree.node_count(),
        "trees.compact_cyclic.closed": tree.closed,
    }


def _clocked_counts(tree, args, kwargs) -> dict[str, int]:
    return {"trees.clocked.nodes": tree.node_count()}


_REDUCT_LIMIT = inspect.signature(compare.enumerate_reducts).parameters["limit"]


def _reduct_counts(out, args, kwargs) -> dict[str, int]:
    limit = args[1] if len(args) > 1 else kwargs.get("limit", _REDUCT_LIMIT.default)
    return {
        "compare.enumerate_reducts.reducts": len(out),
        "compare.enumerate_reducts.hit_limit": len(out) >= limit,
    }


def _verdict_counts(verdict, args, kwargs) -> dict[str, int]:
    return {f"compare.verdict.{verdict.justification}": 1}


@dataclass(frozen=True)
class Layer:
    """One traced function: the span name, where it is defined, what to
    count per call, and the only modules to patch (None: every package
    module that imports it)."""

    name: str
    module: object
    attr: str
    count: CountFn | None = None
    counts: tuple[str, ...] = ()  # the names ``count`` adds to
    only_in: tuple[str, ...] | None = None


# Every justification ``discriminate`` can give, so each traced run
# reports the same metric names.
JUSTIFICATIONS = (
    "different-bt",
    "simple-eventual-mismatch",
    "simple-no-improvement",
    "general-no-reduct-improves",
    "none",
)

# The kernel functions are wrapped only where ``reduction`` calls them:
# ``replace_at`` recurses through its own module global, and other
# callers (tree construction, printing) are not the kernel path that
# reduct search and head reduction drive.
_KERNEL = ("lamclock.reduction",)

LAYERS: tuple[Layer, ...] = (
    Layer("terms.subterm_at", terms, "subterm_at", only_in=_KERNEL),
    Layer("terms.replace_at", terms, "replace_at", only_in=_KERNEL),
    Layer("terms.instantiate", terms, "instantiate", only_in=_KERNEL),
    Layer("terms.positions", terms, "positions", only_in=_KERNEL),
    Layer(
        "reduction.head_reduce", reduction, "head_reduce", _head_counts,
        ("reduction.head_reduce.steps", "reduction.head_reduce.fuel_exhausted",
         "reduction.head_reduce.proven_divergent"),
    ),
    Layer(
        "reduction.redex_positions", reduction, "redex_positions",
        lambda out, a, k: {"reduction.redex_positions.redexes": len(out)},
        ("reduction.redex_positions.redexes",),
    ),
    Layer("reduction.contract_at", reduction, "contract_at"),
    Layer(
        "trees.compact_cyclic", trees, "compact_cyclic", _cyclic_counts,
        ("trees.compact_cyclic.nodes", "trees.compact_cyclic.closed"),
    ),
    *(
        Layer("trees.clocked", trees, attr, _clocked_counts, ("trees.clocked.nodes",))
        for attr in ("clocked_bt", "clocked_llt", "clocked_bet")
    ),
    Layer(
        "trees.check_simple", trees, "check_simple",
        lambda rep, a, k: {"trees.check_simple.simple": rep.status == "simple"},
        ("trees.check_simple.simple",),
    ),
    Layer("trees.tree_to_dict", trees, "tree_to_dict"),
    Layer("render.render_text", render, "render_text"),
    # Step (1) of ``discriminate`` calls ``_explore`` directly rather than
    # through ``holds_*``, so the product exploration is wrapped itself.
    Layer(
        "compare._explore", compare, "_explore",
        lambda prod, a, k: {"compare._explore.states": len(prod.states)},
        ("compare._explore.states",),
    ),
    Layer(
        "compare.enumerate_reducts", compare, "enumerate_reducts", _reduct_counts,
        ("compare.enumerate_reducts.reducts", "compare.enumerate_reducts.hit_limit"),
    ),
    Layer(
        "compare.find_simple_reduct", compare, "find_simple_reduct",
        lambda found, a, k: {"compare.find_simple_reduct.found": found is not None},
        ("compare.find_simple_reduct.found",),
    ),
    Layer(
        "compare.discriminate", compare, "discriminate", _verdict_counts,
        tuple(f"compare.verdict.{j}" for j in JUSTIFICATIONS),
    ),
    Layer("parser.parse", parser, "parse"),
)


class _Span:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Aggregated spans and counts for the layers in ``LAYERS``."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, int] = {}
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            self.spans.setdefault(layer.name, _Span())
            self.counts.update(dict.fromkeys(layer.counts, 0))

    def snapshot(self) -> dict[str, int]:
        """Every count, calls included: equal inputs must give equal
        snapshots."""
        out = {f"{n}.calls": s.calls for n, s in self.spans.items()}
        out.update(self.counts)
        return out

    def _wrap(self, layer: Layer, fn):
        span = self.spans[layer.name]
        counts = self.counts
        count = layer.count
        children = self._children
        clock = time.perf_counter
        missing = object()

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            result = missing
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                span.calls += 1
                span.self_s += dt - children.pop()
                if count is not None and result is not missing:
                    for key, n in count(result, args, kwargs).items():
                        counts[key] += int(n)
                if children:
                    children[-1] += clock() - t0

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
        ]
        for layer in LAYERS:
            original = getattr(layer.module, layer.attr)
            traced = self._wrap(layer, original)
            for m in modules:
                if layer.only_in is not None and m.__name__ not in layer.only_in:
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)
