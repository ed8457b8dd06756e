"""Surface syntax: parsing, definition tables and printing.

Grammar::

    term  ::= lam | app
    lam   ::= ("\\" | unicode lambda) ident+ "." term
    app   ::= atom+                     (left associative)
    atom  ::= ident | "(" term ")"

Identifiers match ``[A-Za-z][A-Za-z0-9_']*``.  ``#`` starts a comment
running to end of line.  An identifier is resolved, in order, as: bound
variable in scope, defined constant (expanded at parse time), free
variable.
"""

from __future__ import annotations

import re

from .terms import App, Free, Lam, Term, Var, free_vars

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<lam>\\|λ)
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
  | (?P<dot>\.)
  | (?P<lp>\()
  | (?P<rp>\))
  | (?P<semi>;)
  | (?P<eq>=)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax error; ``offset`` is a byte offset into the input."""

    def __init__(self, msg: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{msg} (byte {self.offset})")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            toks.append((kind, m.group(), i))
        i = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class DefinitionTable:
    """Named closed terms, expanded during parsing.

    Definition files are ``name = term;`` statements (``#`` comments
    allowed); each right-hand side may use previously defined names.
    """

    def __init__(self) -> None:
        self._defs: dict[str, Term] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __getitem__(self, name: str) -> Term:
        return self._defs[name]

    def define(self, name: str, term: Term | str) -> None:
        if not IDENT_RE.fullmatch(name):
            raise ParseError(f"bad definition name {name!r}", name, 0)
        if isinstance(term, str):
            term = parse(term, self)
        if term.open_n or free_vars(term):
            missing = ", ".join(sorted(free_vars(term))) or "<index>"
            raise ValueError(
                f"definition {name!r} is not closed: unknown constant name {missing}"
            )
        self._defs[name] = term

    def copy(self) -> "DefinitionTable":
        d = DefinitionTable()
        d._defs.update(self._defs)
        return d

    @classmethod
    def from_text(cls, text: str, base: "DefinitionTable | None" = None) -> "DefinitionTable":
        table = base.copy() if base is not None else cls()
        toks = _tokenize(text)
        i = 0
        while toks[i][0] != "eof":
            kind, val, pos = toks[i]
            if kind == "semi":  # stray/trailing separators are harmless
                i += 1
                continue
            if kind != "ident":
                raise ParseError(f"expected definition name, got {val!r}", text, pos)
            name = val
            if toks[i + 1][0] != "eq":
                raise ParseError(f"expected '=' after {name!r}", text, toks[i + 1][2])
            j = i + 2
            while toks[j][0] not in ("semi", "eof"):
                j += 1
            if toks[j][0] != "semi":
                raise ParseError(f"missing ';' after definition of {name!r}", text, toks[j][2])
            body, _ = _parse_tokens(text, toks[i + 2 : j] + [("eof", "", toks[j][2])], table)
            try:
                table.define(name, body)
            except ValueError as e:
                raise ParseError(str(e), text, pos) from None
            i = j + 1
        return table


def _parse_tokens(
    text: str, toks: list, defs: DefinitionTable | None
) -> tuple[Term, int]:
    """Parse a complete term from ``toks``; returns (term, index of eof).

    One loop over the tokens, so any nesting depth is fine.  ``t`` is
    the application read so far in the innermost open term (None before
    its first atom), and ``frames`` holds the terms still open around
    it: a binder block, as its list of names, whose body is being read,
    or, as a one-element tuple, the application read so far waiting
    for a parenthesised atom."""
    scope: list[str] = []
    frames: list = []
    t: Term | None = None
    i = 0
    while True:
        kind, val, pos = toks[i]
        if kind == "lam" and t is None:
            i += 1
            names = []
            while toks[i][0] == "ident":
                names.append(toks[i][1])
                i += 1
            if not names:
                raise ParseError("expected binder name", text, toks[i][2])
            if toks[i][0] != "dot":
                raise ParseError("expected '.' after binders", text, toks[i][2])
            frames.append(names)
            scope += names
        elif kind == "ident":
            for depth, n in enumerate(reversed(scope)):
                if n == val:
                    atom: Term = Var(depth)
                    break
            else:
                atom = defs[val] if defs is not None and val in defs else Free(val)
            t = atom if t is None else App(t, atom)
        elif kind == "lp":
            frames.append((t,))
            t = None
        else:
            # the innermost open term ends here: close its binder
            # blocks, then the parenthesis around them, if any
            if t is None:
                raise ParseError(f"expected a term, got {val or 'end of input'!r}", text, pos)
            while frames and type(frames[-1]) is list:
                names = frames.pop()
                del scope[len(scope) - len(names):]
                for n in reversed(names):
                    t = Lam(n, t)
            if not frames:
                break
            if kind != "rp":
                raise ParseError("expected ')'", text, pos)
            (fn,) = frames.pop()
            t = t if fn is None else App(fn, t)
        i += 1
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", text, pos)
    return t, i


def parse(text: str, defs: DefinitionTable | None = None) -> Term:
    """Parse a term; names in ``defs`` are replaced by their definitions."""
    t, _ = _parse_tokens(text, _tokenize(text), defs)
    return t


# ---------------------------------------------------------------------------
# printing


def _pick_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    stem = base.rstrip("0123456789") or base
    k = 1
    while f"{stem}{k}" in taken:
        k += 1
    return f"{stem}{k}"


def pretty(t: Term) -> str:
    """Print with minimal parentheses; ``parse(pretty(t))`` is alpha-equal to ``t``.

    Binder hints are kept where possible and renamed with a numeric
    suffix where they would collide with a name already in scope.  One
    loop over an explicit stack, so a term of any depth prints.
    """
    out: list[str] = []
    # pending work, next item last: text to write, or a subterm with the
    # names in scope, the names taken and its context ("top", "fn", "arg")
    todo: list = [(t, [], free_vars(t), "top")]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        u, scope, taken, ctx = item
        match u:
            case Var(i):
                out.append(scope[-1 - i] if i < len(scope) else f"?{i - len(scope)}")
            case Free(n):
                out.append(n)
            case Lam():
                names: list[str] = []
                inner_taken = set(taken)
                body = u
                while type(body) is Lam:
                    n = _pick_name(body.hint, inner_taken)
                    names.append(n)
                    inner_taken.add(n)
                    body = body.body
                parts = [f"\\{' '.join(names)}.", (body, scope + names, inner_taken, "top")]
                todo.extend(reversed(["(", *parts, ")"] if ctx in ("fn", "arg") else parts))
            case App(f, a):
                parts = [(f, scope, taken, "fn"), " ", (a, scope, taken, "arg")]
                todo.extend(reversed(["(", *parts, ")"] if ctx == "arg" else parts))
            case _:
                raise TypeError(f"not a term: {u!r}")
    return "".join(out)
