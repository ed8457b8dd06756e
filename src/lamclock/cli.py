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
nonzero.  Ctrl-C, or a reader that closes the output before it is all
written, ends the process with exit code 1 and no traceback.

The front end is the standard library's ``argparse``, and the package
imports nothing outside the standard library.  Its parsers are built
once, at import.  A command's options may come before, between or after
its arguments, as ``--opt value`` or ``--opt=value``; an option name is
never abbreviated, and the first ``--`` ends the options: every
argument after it is a value, a further ``--`` too.  Output is UTF-8
whatever encoding the standard streams were opened with.

Every command loads the term, parser, reduction, tree, rendering and
catalog modules.  ``compare`` alone loads the ``compare`` module, and
``repro`` alone loads ``repro`` (which loads ``compare`` too), each
when the command runs: the other commands start without compiling
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring

from .combinators import catalog, catalog_names, standard_definitions
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
from .reduction import DEFAULT_FUEL, REDUCT_LIMIT

_EXIT_INCONCLUSIVE = 1
_EXIT_USAGE = 2
_EXIT_EXHAUSTED = 3


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """Write ``text`` and flush, so that stdout and stderr lines keep
    their order and a closed reader is seen at the write."""
    print(text, end="\n" if nl else "", file=sys.stderr if err else sys.stdout, flush=True)


def _fail(msg: str, code: int) -> None:
    _echo(f"error: {msg}", err=True)
    sys.exit(code)


def _defs_from(defs_file: str | None) -> DefinitionTable:
    table = standard_definitions()
    if defs_file:
        try:
            with open(defs_file, encoding="utf-8") as f:
                table = DefinitionTable.from_text(f.read(), table)
        except (OSError, UnicodeDecodeError) as e:
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
    _echo(_dumps(obj))


def _tree_command(term, semantics, depth, fuel, atomic, defs_file,
                  as_json, as_dot, closed_only) -> None:
    defs = _defs_from(defs_file)
    t = _parse_term(term, defs)
    tree = compact_cyclic(t, depth, fuel, semantics, atomic)
    if closed_only and not tree.closed:
        _fail("tree did not close within depth/fuel", _EXIT_EXHAUSTED)
    if as_json:
        payload = tree_to_dict(tree)
        payload["periodicity"] = periodicity_report(tree)
        _emit_json(payload)
    elif as_dot:
        _echo(render_dot(tree), nl=False)
    else:
        _echo(render_text(tree), nl=False)


def compare_cmd(left, right, depth, fuel, atomic, defs_file, as_json, reduct_limit):
    from .compare import DiscriminationConfig, discriminate  # only this command compares

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
        _echo(f"{verdict.conclusion} ({verdict.justification})")
        for key in sorted(verdict.evidence):
            _echo(f"  {key}: {verdict.evidence[key]}")
    sys.exit(0 if verdict else _EXIT_INCONCLUSIVE)


def catalog_cmd(name, params, defs_file, as_json):
    if name is None:
        names = catalog_names()
        if as_json:
            _emit_json(names)
        else:
            for n in names:
                _echo(n)
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
        _echo(pretty(term))


def check_simple_cmd(term, depth, fuel, defs_file, as_json):
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
        _echo(report.status)
        if report.witness is not None:
            w = payload["witness"]
            _echo(f"  first offending step: #{w['step']} at node {w['path']} ({w['kind']})")
    if report.status == "unknown":
        sys.exit(_EXIT_EXHAUSTED)


# --------------------------------------------------------------------------
# stored-output reproduction


def _repro_specs() -> dict:
    """id -> callable producing the reference text, in fixed order."""
    from . import repro as _repro

    return _repro.SPECS


def repro_cmd(ids, list_only):
    from importlib import resources  # only ``repro`` reads package data

    specs = _repro_specs()
    if list_only:
        for rid in specs:
            _echo(rid)
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
            _echo(f"{rid}: PASS")
        else:
            import difflib  # only a diff needs it

            failed = True
            _echo(f"{rid}: DIFF")
            diff = difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"goldens/{rid}.txt",
                tofile="recomputed",
            )
            _echo("".join(diff), nl=False)
    if failed:
        sys.exit(_EXIT_EXHAUSTED)


# --------------------------------------------------------------------------
# the parsers


def _budget(text: str) -> int:
    """``--depth``, ``--fuel`` and ``--reduct-limit`` are counts: a
    negative one is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"Invalid value {text!r}: not an integer >= 0")
    return n


_HELP = "Show this message and exit."
_MAIN = argparse.ArgumentParser(
    prog="lamclock", description="Clocked-tree calculator for lambda terms.",
    add_help=False, allow_abbrev=False,
)
_MAIN.add_argument("--help", action="help", help=_HELP)
_COMMANDS = _MAIN.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _command(name: str, run, summary: str, details: str = "") -> argparse.ArgumentParser:
    """The parser of the command ``name``, which ``run`` carries out with
    the parsed values as keyword arguments; ``details`` follows the
    summary in the command's help, line breaks kept."""
    parser = _COMMANDS.add_parser(
        name, help=summary, description=summary + details,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=False, allow_abbrev=False,
    )
    parser.set_defaults(run=run)
    return parser


def _options(parser: argparse.ArgumentParser, *specs: tuple) -> None:
    """Add each ``(flag, dest, default, help)``: a count when the default
    is an int, an on/off switch when it is False, a string otherwise;
    then ``--help``."""
    for flag, dest, default, help_text in specs:
        if default is False:
            parser.add_argument(flag, dest=dest, action="store_true", help=help_text)
        elif isinstance(default, int):
            shown = f"[default: {default}; x>=0]"
            parser.add_argument(flag, dest=dest, type=_budget, default=default, metavar="N",
                                help=f"{help_text}  {shown}" if help_text else shown)
        else:
            parser.add_argument(flag, dest=dest, metavar="FILE", help=help_text)
    parser.add_argument("--help", action="help", help=_HELP)


_DEPTH = ("--depth", "depth", DEFAULT_DEPTH, None)
_FUEL = ("--fuel", "fuel", DEFAULT_FUEL, None)
_DEFS = ("--defs", "defs_file", None, None)
_JSON = ("--json", "as_json", False, None)

for _sem, _summary in (
    ("bt", "Clocked tree of head normal forms."),
    ("llt", "Clocked tree of weak head normal forms."),
    ("bet", "Clocked tree of root-stable layers."),
):
    _p = _command(_sem, _tree_command, _summary)
    _p.set_defaults(semantics=_sem)
    _p.add_argument("term", metavar="TERM")
    _options(
        _p, _DEPTH, _FUEL,
        ("--atomic", "atomic", False, "Annotate with step positions."),
        ("--defs", "defs_file", None, "Extra definitions file (name = term; ...)."),
        ("--json", "as_json", False, "Machine output."),
        ("--dot", "as_dot", False, "DOT graph output."),
        ("--closed-only", "closed_only", False, "Fail (exit 3) unless the tree closed."),
    )

_p = _command("compare", compare_cmd,
              "Try to certify that LEFT and RIGHT are not interconvertible.")
_p.add_argument("left", metavar="LEFT")
_p.add_argument("right", metavar="RIGHT")
_options(
    _p, _DEPTH, _FUEL,
    ("--atomic", "atomic", False, "Compare step-position lists."),
    _DEFS, _JSON,
    ("--reduct-limit", "reduct_limit", REDUCT_LIMIT, "Bound for the reduct search phase."),
)

_p = _command(
    "catalog", catalog_cmd, "List catalog names, or print the named construction.",
    "\n\nNumeric PARAMS are taken as counts, anything else is parsed as a term\n"
    "(useful for entries taking a combinator argument).",
)
_p.add_argument("name", nargs="?", metavar="NAME")
_p.add_argument("params", nargs="*", metavar="PARAMS")
_options(_p, _DEFS, _JSON)

_p = _command("check-simple", check_simple_cmd,
              "Classify every head step in the term's tree unfolding.")
_p.add_argument("term", metavar="TERM")
_options(_p, _DEPTH, _FUEL, _DEFS, _JSON)

_p = _command("repro", repro_cmd,
              "Recompute stored reference outputs and diff against goldens.")
_p.add_argument("ids", nargs="*", metavar="IDS")
_options(_p, ("--list", "list_only", False, "List known ids."))


# Marks an argument after the end of options: no argument holds a NUL.
_AFTER_END = "\0"


def _parse(command: argparse.ArgumentParser, args: list[str]) -> dict:
    """The values that ``command`` parses from ``args``, intermixed, so
    that an option may come between the values of a variadic argument
    (``catalog gvector --json Y0 1``).  Every argument after the first
    ``--`` is a value, a further ``--`` too.  argparse before Python 3.12
    drops every ``--`` it meets, and its intermixed parse reads a value
    after one as an option when it starts with ``-``: so those arguments
    go in marked, and their values come back unmarked."""
    if "--" in args:
        i = args.index("--") + 1
        args = args[:i] + [_AFTER_END + a for a in args[i:]]

    def unmark(v):
        return v[1:] if isinstance(v, str) and v.startswith(_AFTER_END) else v

    options = vars(command.parse_intermixed_args(args))
    return {k: [unmark(x) for x in v] if isinstance(v, list) else unmark(v)
            for k, v in options.items()}


def main(argv: list[str] | None = None) -> None:
    """Run the command that ``argv`` (by default the process's
    arguments) names; the ``lamclock`` entry point."""
    args = sys.argv[1:] if argv is None else list(argv)
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(encoding="utf-8")
    try:
        if not args:
            _MAIN.print_help(sys.stderr)
            sys.exit(_EXIT_USAGE)
        command = _COMMANDS.choices.get(args[0])
        if command is None:
            # ``--help``, or a usage error: either exits
            _MAIN.parse_args(args[:1])
        options = _parse(command, args[1:])
        options.pop("run")(**options)
    except RecursionError:
        _fail("term nested too deeply for the interpreter's recursion limit",
              _EXIT_EXHAUSTED)
    except MemoryError:
        _fail("out of memory", _EXIT_EXHAUSTED)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so that
        # the interpreter's last flush of what is still buffered succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
