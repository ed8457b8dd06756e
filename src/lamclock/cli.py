"""Command-line surface.

Commands: ``bt`` / ``llt`` / ``bet`` build a clocked tree for a term
under the chosen semantics; ``compare`` runs the discrimination
pipeline on two terms; ``catalog`` lists or instantiates named
constructions; ``check-simple`` classifies a term's head steps;
``repro`` recomputes the stored reference outputs and diffs them.

Exit codes: 0 on success (including an Inconvertible verdict), 1 when
``compare`` ends Inconclusive, 2 on usage errors, 3 when fuel or depth
ran out before the requested output could be produced, when a term is
nested too deeply for the interpreter's recursion limit (parsing is a
loop, but substitution and tree building still recurse once per nesting
level), when the process runs out of memory, or when a ``repro`` diff is
nonzero.
"""

from __future__ import annotations

import difflib
import json
import sys
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path

import click

from .combinators import catalog, catalog_names, standard_definitions
from .compare import REDUCT_LIMIT, DiscriminationConfig, discriminate
from .parser import DefinitionTable, ParseError, parse, pretty
from .render import render_dot, render_text
from .terms import TermError
from .trees import (
    DEFAULT_DEPTH,
    check_simple,
    compact_cyclic,
    periodicity_report,
    tree_to_dict,
)
from .reduction import DEFAULT_FUEL

_EXIT_INCONCLUSIVE = 1
_EXIT_USAGE = 2
_EXIT_EXHAUSTED = 3
# depth, fuel and the reduct limit are counts: a negative one is a usage error
_BUDGET = click.IntRange(min=0)


def _fail(msg: str, code: int) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _defs_from(defs_file: str | None) -> DefinitionTable:
    table = standard_definitions()
    if defs_file:
        try:
            text = Path(defs_file).read_text(encoding="utf-8")
            table = DefinitionTable.from_text(text, table)
        except OSError as e:
            _fail(f"cannot read definitions file: {e}", _EXIT_USAGE)
        except (ParseError, TermError) as e:
            _fail(f"bad definitions file: {e}", _EXIT_USAGE)
    return table


def _parse_term(text: str, defs: DefinitionTable):
    try:
        return parse(text, defs)
    except (ParseError, TermError) as e:
        _fail(f"cannot parse term {text!r}: {e}", _EXIT_USAGE)


# Each JSON scalar the CLI prints, by exact type: the encoder's own C
# string quoter, ``int.__repr__``, and tables for the literals.
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(obj) -> str:
    """``json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)``,
    byte for byte for string-keyed payloads, with an explicit stack: the
    standard encoder recurses per nesting level, and a deep tree would
    exhaust the interpreter stack.  Scalars are written by ``_SCALARS``;
    any other (a float) goes through ``json.dumps`` itself."""
    out: list[str] = []
    todo: list[tuple[object, int | None]] = [(obj, 0)]  # level None: text
    while todo:
        x, level = todo.pop()
        if level is None:
            out.append(x)  # type: ignore[arg-type]
            continue
        scalar = _SCALARS.get(type(x))
        if scalar is not None:
            out.append(scalar(x))
            continue
        is_dict = isinstance(x, dict)
        if not is_dict and not isinstance(x, (list, tuple)):
            out.append(json.dumps(x, ensure_ascii=False))
            continue
        items = sorted(x.items()) if is_dict else [(None, v) for v in x]
        out.append("{" if is_dict else "[")
        pad = "\n" + "  " * (level + 1)
        parts: list[tuple[object, int | None]] = []
        for i, (k, v) in enumerate(items):
            sep = ("," if i else "") + pad
            if is_dict:
                sep += encode_basestring(k) + ": "
            parts += [(sep, None), (v, level + 1)]
        if parts:
            parts.append(("\n" + "  " * level, None))
        parts.append(("}" if is_dict else "]", None))
        todo.extend(reversed(parts))
    return "".join(out)


def _emit_json(obj) -> None:
    click.echo(_dumps(obj))


def _tree_options(f):
    for opt in reversed(
        [
            click.option("--depth", type=_BUDGET, default=DEFAULT_DEPTH, show_default=True),
            click.option("--fuel", type=_BUDGET, default=DEFAULT_FUEL, show_default=True),
            click.option("--atomic", is_flag=True, help="Annotate with step positions."),
            click.option("--defs", "defs_file", type=str, default=None,
                         help="Extra definitions file (name = term; ...)."),
            click.option("--json", "as_json", is_flag=True, help="Machine output."),
            click.option("--dot", "as_dot", is_flag=True, help="DOT graph output."),
            click.option("--closed-only", is_flag=True,
                         help="Fail (exit 3) unless the tree closed."),
        ]
    ):
        f = opt(f)
    return f


class _Group(click.Group):
    """Ends any command on a too deeply nested term, or one that runs out
    of memory, with exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RecursionError:
            _fail("term nested too deeply for the interpreter's recursion limit",
                  _EXIT_EXHAUSTED)
        except MemoryError:
            _fail("out of memory", _EXIT_EXHAUSTED)


@click.group(cls=_Group)
def main() -> None:
    """Clocked-tree calculator for lambda terms."""


def _tree_command(term_text, semantics, depth, fuel, atomic, defs_file,
                  as_json, as_dot, closed_only) -> None:
    defs = _defs_from(defs_file)
    t = _parse_term(term_text, defs)
    tree = compact_cyclic(t, depth, fuel, semantics, atomic)
    if closed_only and not tree.closed:
        _fail("tree did not close within depth/fuel", _EXIT_EXHAUSTED)
    if as_json:
        payload = tree_to_dict(tree)
        payload["periodicity"] = periodicity_report(tree)
        _emit_json(payload)
    elif as_dot:
        click.echo(render_dot(tree), nl=False)
    else:
        click.echo(render_text(tree), nl=False)


for _sem, _help in (
    ("bt", "Clocked tree of head normal forms."),
    ("llt", "Clocked tree of weak head normal forms."),
    ("bet", "Clocked tree of root-stable layers."),
):

    def _make(sem: str, help_text: str):
        @main.command(sem, help=help_text)
        @click.argument("term")
        @_tree_options
        def _cmd(term, depth, fuel, atomic, defs_file, as_json, as_dot,
                 closed_only, _sem=sem):
            _tree_command(term, _sem, depth, fuel, atomic, defs_file,
                          as_json, as_dot, closed_only)

        return _cmd

    _make(_sem, _help)


@main.command("compare")
@click.argument("left")
@click.argument("right")
@click.option("--depth", type=_BUDGET, default=DEFAULT_DEPTH, show_default=True)
@click.option("--fuel", type=_BUDGET, default=DEFAULT_FUEL, show_default=True)
@click.option("--atomic", is_flag=True, help="Compare step-position lists.")
@click.option("--defs", "defs_file", type=str, default=None)
@click.option("--json", "as_json", is_flag=True)
@click.option("--reduct-limit", type=_BUDGET, default=REDUCT_LIMIT, show_default=True,
              help="Bound for the reduct search phase.")
def compare_cmd(left, right, depth, fuel, atomic, defs_file, as_json, reduct_limit):
    """Try to certify that LEFT and RIGHT are not interconvertible."""
    defs = _defs_from(defs_file)
    lt = _parse_term(left, defs)
    rt = _parse_term(right, defs)
    config = DiscriminationConfig(
        depth=depth, fuel=fuel, atomic=atomic, reduct_limit=reduct_limit
    )
    verdict = discriminate(lt, rt, config)
    if as_json:
        _emit_json(verdict.to_dict())
    else:
        click.echo(f"{verdict.conclusion} ({verdict.justification})")
        for key in sorted(verdict.evidence):
            click.echo(f"  {key}: {verdict.evidence[key]}")
    sys.exit(0 if verdict else _EXIT_INCONCLUSIVE)


@main.command("catalog")
@click.argument("name", required=False)
@click.argument("params", nargs=-1)
@click.option("--defs", "defs_file", type=str, default=None)
@click.option("--json", "as_json", is_flag=True)
def catalog_cmd(name, params, defs_file, as_json):
    """List catalog names, or print the named construction.

    Numeric PARAMS are taken as counts, anything else is parsed as a
    term (useful for entries taking a combinator argument).
    """
    if name is None:
        names = catalog_names()
        if as_json:
            _emit_json(names)
        else:
            for n in names:
                click.echo(n)
        return
    defs = _defs_from(defs_file)
    args = []
    for p in params:
        try:
            args.append(int(p))
        except ValueError:
            args.append(_parse_term(p, defs))
    try:
        term = catalog(name, *args)
    except ValueError as e:
        _fail(str(e), _EXIT_USAGE)
    if as_json:
        _emit_json({"name": name, "term": pretty(term)})
    else:
        click.echo(pretty(term))


@main.command("check-simple")
@click.argument("term")
@click.option("--depth", type=_BUDGET, default=DEFAULT_DEPTH, show_default=True)
@click.option("--fuel", type=_BUDGET, default=DEFAULT_FUEL, show_default=True)
@click.option("--defs", "defs_file", type=str, default=None)
@click.option("--json", "as_json", is_flag=True)
def check_simple_cmd(term, depth, fuel, defs_file, as_json):
    """Classify every head step in the term's tree unfolding."""
    defs = _defs_from(defs_file)
    t = _parse_term(term, defs)
    report = check_simple(t, depth, fuel)
    payload = {"status": report.status, "closed": report.tree.closed,
               "depth": report.tree.depth}
    if report.witness is not None:
        payload["witness"] = {
            "path": "/".join(str(i) for i in report.witness.path) or "root",
            "step": report.witness.step,
            "kind": "duplicating (argument not a normal form, variable used more than once)",
        }
    if as_json:
        _emit_json(payload)
    else:
        click.echo(report.status)
        if report.witness is not None:
            w = payload["witness"]
            click.echo(f"  first offending step: #{w['step']} at node {w['path']} ({w['kind']})")
    if report.status == "unknown":
        sys.exit(_EXIT_EXHAUSTED)


# --------------------------------------------------------------------------
# stored-output reproduction


def _repro_specs() -> dict:
    """id -> callable producing the reference text, in fixed order."""
    from . import repro as _repro

    return _repro.SPECS


@main.command("repro")
@click.argument("ids", nargs=-1)
@click.option("--list", "list_only", is_flag=True, help="List known ids.")
def repro_cmd(ids, list_only):
    """Recompute stored reference outputs and diff against goldens."""
    specs = _repro_specs()
    if list_only:
        for rid in specs:
            click.echo(rid)
        return
    chosen = list(ids) if ids else list(specs)
    unknown = [rid for rid in chosen if rid not in specs]
    if unknown:
        _fail(f"unknown repro id(s): {', '.join(unknown)}", _EXIT_USAGE)
    failed = False
    for rid in chosen:
        actual = specs[rid]()
        try:
            expected = (
                resources.files("lamclock") / "goldens" / f"{rid}.txt"
            ).read_text(encoding="utf-8")
        except FileNotFoundError:
            _fail(f"missing golden for {rid}", _EXIT_USAGE)
        if actual == expected:
            click.echo(f"{rid}: PASS")
        else:
            failed = True
            click.echo(f"{rid}: DIFF")
            diff = difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"goldens/{rid}.txt",
                tofile="recomputed",
            )
            click.echo("".join(diff), nl=False)
    if failed:
        sys.exit(_EXIT_EXHAUSTED)


if __name__ == "__main__":
    main()
