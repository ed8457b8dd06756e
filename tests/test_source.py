"""Source hygiene: every package module imports only the standard library
and the package itself, uses each name it imports, and imports inside a
function only from modules it does not import from at top level; every
module-level private helper and every ``__slots__``
name outside a record is read somewhere in the package, every public one
and every record field somewhere in the package, the tests or the
benchmark, and the public ones that only tests read are a pinned list;
every record but ``ClockTree`` is a ``namedtuple`` with ``__slots__ =
()``, an immutable value, and ``ClockTree`` keeps exactly its fields in
``__slots__``; only ``Term``, ``HeadPos`` and ``_Exact`` define
``__eq__`` or ``__hash__``; ``cli`` imports
``compare`` in ``compare_cmd`` alone, and the start of a command loads
neither it nor ``dataclasses`` or ``typing``;
no module but ``trees`` reads the acyclic builders;
``DiscriminationConfig`` holds exactly the bounds ``lamclock compare``
sets, ``compare.py`` reads every one of them, expands reducts in
``_frontier`` alone, finds a simple reduct without it and reads each
fixed search bound in one function, only ``trees._Exact``
compares terms with their binder hints, ``Term.__eq__`` is the one
walk that compares two terms, no module reads a free-name set off a
term, and no function calls itself by name beyond a pinned list."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lamclock
from lamclock import cli
from lamclock.compare import DiscriminationConfig

MODULES = sorted(Path(lamclock.__file__).parent.glob("*.py"))


def _outside_imports(source: str) -> list[str]:
    """The top-level names of the modules an import reads, anywhere in
    ``source``, that are neither in the standard library nor ``lamclock``
    (a relative import reads the package)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names - {"lamclock"})


def test_the_check_finds_imports_outside_the_standard_library():
    source = (
        "from __future__ import annotations\nimport os.path, click\n"
        "from json.encoder import encode_basestring\nfrom . import terms\n"
        "from .trees import walk\nfrom lamclock.parser import parse\n"
        "def f():\n    import numpy as np\n    from yaml.loader import Loader\n"
    )
    assert _outside_imports(source) == ["click", "numpy", "yaml"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    # ``lamclock`` has no runtime dependency; a new one shows here
    assert _outside_imports(path.read_text(encoding="utf-8")) == []


# Every command runs this before its own work; the benchmark times it as
# its set-up code.
START = (
    "import lamclock.cli\n"
    "from lamclock.combinators import standard_definitions\n"
    "standard_definitions()\n"
)


def test_the_start_of_a_command_loads_only_what_it_uses():
    # ``-S``: no ``site``, whose ``.pth`` files may import modules of
    # their own.  ``compare`` and ``repro`` load in their commands.
    res = subprocess.run(
        [sys.executable, "-S", "-c", START + "import sys\nprint(*sorted(sys.modules))\n"],
        capture_output=True, text=True, check=True,
        env=os.environ | {"PYTHONPATH": str(Path(lamclock.__file__).parents[1])},
    )
    loaded = set(res.stdout.split())
    assert {"lamclock.cli", "lamclock.trees", "lamclock.reduction"} <= loaded
    unused = {"dataclasses", "inspect", "typing", "lamclock.compare", "lamclock.repro",
              "difflib", "importlib.resources"}
    assert loaded & unused == set()


def _importers_of(source: str, module: str) -> list[str]:
    """The top-level functions and classes of ``source`` that import
    from the package module ``module``; an import at top level shows as
    ``<module>``."""
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in ast.parse(source).body
        for n in ast.walk(stmt)
        if (1, module) in _import_sources(n)
    })


def test_the_check_finds_importers():
    source = (
        "from .terms import App\n"
        "def f():\n    from .compare import discriminate\n"
        "def g():\n    from . import compare, repro\n"
        "def h():\n    import compare\n"
    )
    assert _importers_of(source, "compare") == ["f", "g"]
    assert _importers_of(source, "terms") == ["<module>"]


def test_only_the_compare_command_imports_compare():
    source = (Path(lamclock.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert _importers_of(source, "compare") == ["compare_cmd"]
    assert _importers_of(source, "repro") == ["_repro_specs"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_typing(path):
    # the records are namedtuples, and ``Iterator`` comes from
    # ``collections.abc``: both modules cost a command's start
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {name for n in ast.walk(tree) for _, name in _import_sources(n)}
    assert imported & {"dataclasses", "typing"} == set()


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read as a name (``__future__``
    imports aside); ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = "import os.path\nimport re\nfrom x import y as z, w\nz(re)\n"
    assert _unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _import_sources(node: ast.stmt) -> set[tuple[int, str]]:
    """The modules an import statement reads, as ``(level, name)``;
    ``from . import m`` reads ``.m``."""
    if isinstance(node, ast.Import):
        return {(0, a.name) for a in node.names}
    if isinstance(node, ast.ImportFrom):
        if node.module is None:
            return {(node.level, a.name) for a in node.names}
        return {(node.level, node.module)}
    return set()


def _late_imports(source: str) -> list[str]:
    """Names imported inside a function from a module that the same file
    already imports from at top level: such an import cannot be breaking
    an import cycle."""
    tree = ast.parse(source)
    top = set().union(*map(_import_sources, tree.body))
    inner = {
        id(n): n
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for n in ast.walk(fn)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    }
    return sorted(a.name for n in inner.values() if _import_sources(n) & top for a in n.names)


def test_the_check_finds_late_imports():
    source = (
        "import os\nfrom .terms import App\nfrom . import parser\n"
        "def f():\n"
        "    import os.path\n    from collections import deque\n"
        "    from .terms import Lam as L\n    from .trees import walk\n"
        "    from . import repro\n"
        "    def g():\n        from . import parser\n"
        "class C:\n    def m(self):\n        import os\n"
    )
    assert _late_imports(source) == ["Lam", "os", "parser"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_late_imports(path):
    assert _late_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_defs(sources: list[str]) -> list[str]:
    """Module-level ``_private`` functions and classes that no other
    top-level statement of the given modules reads, as a name or an
    attribute; a helper that only calls itself is not read."""
    defs: list[tuple[str, ast.stmt]] = []
    reads: list[tuple[ast.stmt, set[str]]] = []
    for source in sources:
        for stmt in ast.parse(source).body:
            names = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
            reads.append((stmt, names))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defs.append((stmt.name, stmt))
    return sorted(
        name
        for name, stmt in defs
        if not any(name in names for other, names in reads if other is not stmt)
    )


def test_the_check_finds_unread_private_defs():
    a = (
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _used():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _used()\n"
    )
    b = "import a\na._via_attribute()\n"
    c = "def _via_attribute():\n    pass\n"
    assert _unread_private_defs([a, b, c]) == ["_Gone", "_dead"]


def test_no_unread_private_defs():
    package = Path(lamclock.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))]
    assert _unread_private_defs(sources) == []


def _unread_public_defs(sources: list[str], readers: list[str]) -> list[str]:
    """Undecorated public top-level functions and classes of the package
    ``sources`` that no other of their top-level statements reads, as a
    name or an attribute, and that no ``readers`` file reads, as a name,
    an attribute or a string equal to it (the benchmark's tracer looks
    functions up by name).  The package root is among ``sources``, so a
    re-export there shows as an unused import."""
    defs: list[ast.stmt] = []
    reads: list[tuple[ast.stmt, set[str]]] = []
    for source in sources:
        for stmt in ast.parse(source).body:
            names = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
            reads.append((stmt, names))
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and not stmt.decorator_list
            ):
                defs.append(stmt)
    outside: set[str] = set()
    for source in readers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                outside.add(n.id)
            elif isinstance(n, ast.Attribute):
                outside.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                outside.add(n.value)
    return sorted(
        stmt.name
        for stmt in defs
        if stmt.name not in outside
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    )


def test_the_check_finds_unread_public_defs():
    a = (
        "def dead(n):\n    return dead(n - 1)\n"
        "def used():\n    pass\n"
        "class Gone:\n    pass\n"
        "@command\ndef cli():\n    pass\n"
        "def tested():\n    pass\n"
        "def traced():\n    pass\n"
        "def _private():\n    return used()\n"
    )
    tests = "from pkg.a import tested\n\ndef test_it():\n    tested()\n"
    bench = "LAYERS = [('a', 'traced')]\n"
    assert _unread_public_defs([a], [tests, bench]) == ["Gone", "dead"]


def test_no_unread_public_defs():
    tests = Path(__file__).parent
    readers = sorted(tests.glob("*.py")) + sorted((tests.parent / "perfbench").glob("*.py"))
    assert _unread_public_defs(
        [p.read_text(encoding="utf-8") for p in MODULES],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == []


# The public functions that only tests call, each with what keeps it.
# The check is not transitive: a function that only one of these calls
# counts as read, so it would not show here.  A new helper that only
# tests call does.
TESTED_ONLY = [
    "bounded_joinable",  # criterion 8's e1/e2 join; direction 2 calls it
    "classify_redex",  # direction 9's certificate checker
    "head_redex_position",  # criterion 8's e2 derivations; direction 9
    "holds_globally",  # direction 10's atlas
    "normalize",  # direction 15's oracle on normalising terms
]


def test_only_the_pinned_public_defs_are_read_by_tests_alone():
    bench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert _unread_public_defs(
        [p.read_text(encoding="utf-8") for p in MODULES],
        [p.read_text(encoding="utf-8") for p in bench],
    ) == TESTED_ONLY


def test_every_traced_layer_resolves(monkeypatch):
    # The benchmark's tracer reads ``enumerate_reducts``'s ``limit`` on
    # import, but looks its layers up only when installed, which an
    # untraced run never does: a traced function deleted or renamed
    # shows here.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        assert callable(getattr(layer.module, layer.attr)), layer.name


def _annotated(node: ast.ClassDef) -> list[str]:
    """The names a class body annotates."""
    return [
        s.target.id for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


def _slots(node: ast.ClassDef) -> list[str] | None:
    """The names of a class body's ``__slots__``, or None without one."""
    for s in node.body:
        if isinstance(s, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in s.targets
        ):
            return list(ast.literal_eval(s.value))
    return None


def _namedtuple_fields(node: ast.AST) -> list[str] | None:
    """The field names of a ``namedtuple(name, fields, ...)`` call, given
    as a string or a list of strings; None for any other node."""
    if not (isinstance(node, ast.Call) and "namedtuple" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )):
        return None
    names = ast.literal_eval(node.args[1])
    return names.replace(",", " ").split() if isinstance(names, str) else list(names)


def _namedtuple_base(node: ast.ClassDef) -> list[str] | None:
    """The fields of the ``namedtuple`` call among a class's bases, or None."""
    return next(
        (f for f in map(_namedtuple_fields, node.bases) if f is not None), None
    )


def _fields(node: ast.AST) -> list[str] | None:
    """The fields of the record ``node`` declares, or None if it declares
    none.  A record is ``X = namedtuple(...)``, a class with a
    ``namedtuple(...)`` base, or a class with ``__slots__`` and an
    ``__init__`` whose body annotates its fields."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return _namedtuple_fields(node.value)
    if not isinstance(node, ast.ClassDef):
        return None
    fields = _namedtuple_base(node)
    if fields is not None:
        return fields
    if _annotated(node) and _slots(node) is not None and any(
        isinstance(s, ast.FunctionDef) and s.name == "__init__" for s in node.body
    ):
        return _annotated(node)
    return None


def _is_record(node: ast.AST) -> bool:
    return _fields(node) is not None


def _record_name(node: ast.ClassDef | ast.Assign) -> str:
    return node.name if isinstance(node, ast.ClassDef) else node.targets[0].id


def _unread_fields(sources: list[str], readers: list[str]) -> list[str]:
    """``Record.field`` for every field of a record in ``sources`` that
    neither they nor the ``readers`` read as an attribute (``x.field``
    in a load context)."""
    fields: list[str] = []
    reads: set[str] = set()
    for i, source in enumerate([*sources, *readers]):
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
            elif i < len(sources) and _is_record(n):
                fields += [f"{_record_name(n)}.{f}" for f in _fields(n)]
    return sorted(f for f in fields if f.split(".", 1)[1] not in reads)


def test_the_check_finds_unread_fields():
    source = (
        "class Config:\n    __slots__ = ('a', 'b', 'c')\n    a: int\n    b: int\n    c: int\n"
        "    def __init__(self, a=1, b=2, c=3):\n        self.a, self.b, self.c = a, b, c\n"
        "class Pair:\n    __slots__ = ('left', 'right')\n    left: int\n    right: int\n"
        "    def __init__(self, left, right):\n        self.left, self.right = left, right\n"
        "class Plain:\n    unread: int\n"
        "class Node:\n    __slots__ = ('kids',)\n    kids: list\n"
        "Point = namedtuple('Point', 'x y')\n"
        "class Span(collections.namedtuple('Span', ['lo', 'hi'])):\n    __slots__ = ()\n"
        "Other = tuple('xy')\n"
        "def f(cfg, p, s):\n    cfg.b = 5\n    return cfg.a, p.x, s.lo\n"
    )
    reader = "def g(pair):\n    return pair.left\n"
    assert _unread_fields([source], [reader]) == [
        "Config.b", "Config.c", "Pair.right", "Point.y", "Span.hi",
    ]


def test_every_discrimination_setting_is_read():
    source = (Path(lamclock.__file__).parent / "compare.py").read_text(encoding="utf-8")
    unread = _unread_fields([source], [])
    assert [f for f in unread if f.startswith("DiscriminationConfig.")] == []


def test_the_config_holds_the_compare_options():
    # every discrimination bound is one that ``lamclock compare`` sets:
    # the command's options less those naming its input and output
    parsed = vars(cli._COMMANDS.choices["compare"].parse_args(["LEFT", "RIGHT"]))
    options = set(parsed) - {"left", "right", "run"}
    assert options - {"defs_file", "as_json"} == set(DiscriminationConfig._fields)


def _readers_of(source: str, name: str) -> list[str]:
    """The top-level functions and classes of ``source`` that read
    ``name``, as a name or an attribute; any other top-level statement
    that reads it shows as ``<module>``."""
    readers = set()
    for stmt in ast.parse(source).body:
        if any(
            isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == name
            or isinstance(n, ast.Attribute) and n.attr == name
            for n in ast.walk(stmt)
        ):
            readers.add(getattr(stmt, "name", "<module>"))
    return sorted(readers)


def test_the_check_finds_readers():
    source = (
        "from m import step\nimport m\n"
        "def walk():\n    yield from step()\n"
        "def other():\n    return [m.step(x) for x in ()]\n"
        "class C:\n    f = staticmethod(step)\n"
        "STEPS = step\n"
        "def step_count():\n    return 0\n"
    )
    assert _readers_of(source, "step") == ["<module>", "C", "other", "walk"]


def test_only_the_frontier_expands_reducts():
    # one reduct-expansion loop behind every search: a second one that
    # walks the reducts itself would read one_step_reducts
    source = (Path(lamclock.__file__).parent / "compare.py").read_text(encoding="utf-8")
    assert _readers_of(source, "one_step_reducts") == ["_frontier"]


def test_one_reader_for_each_fixed_search_bound():
    # the size rule is made from its floor in one helper, which the
    # frontier and the closure both call; a second reader of the floor
    # would be a second rule, or a parameter that sets one
    source = (Path(lamclock.__file__).parent / "compare.py").read_text(encoding="utf-8")
    assert _readers_of(source, "SIZE_LIMIT") == ["_size_limit"]
    assert _readers_of(source, "_size_limit") == ["_closure", "_frontier"]


def test_the_simple_reduct_is_found_by_strategy_not_search():
    # the simple-redex closure follows one line of reduction: neither
    # find_simple_reduct nor its closure walks a frontier of reducts
    source = (Path(lamclock.__file__).parent / "compare.py").read_text(encoding="utf-8")
    for name in ("_frontier", "one_step_reducts"):
        readers = _readers_of(source, name)
        assert "find_simple_reduct" not in readers and "_closure" not in readers
    assert _readers_of(source, "_closure") == ["find_simple_reduct"]


def test_one_simplicity_check():
    # one build classifies a term's steps, and one cache keeps its report
    # for every reader: the sides' checks and the closure end's alike
    package = Path(lamclock.__file__).parent
    trees_source = (package / "trees.py").read_text(encoding="utf-8")
    assert _readers_of(trees_source, "_is_simple") == ["check_simple"]
    source = (package / "compare.py").read_text(encoding="utf-8")
    assert _readers_of(source, "check_simple") == ["_report"]
    assert _readers_of(source, "_report") == ["discriminate", "find_simple_reduct"]


def test_one_node_test_table():
    # holds_for and the product exploration read the one table of node
    # tests, so neither keeps a relation's test of its own
    source = (Path(lamclock.__file__).parent / "compare.py").read_text(encoding="utf-8")
    assert _readers_of(source, "_NODE_TEST") == ["Relation", "_explore"]


def test_only_the_tree_module_reads_the_acyclic_builders():
    # every product path builds with compact_cyclic; the acyclic builders
    # are for the benchmark and the tests, so retiring them touches no
    # other module
    readers = [
        f"{path.stem}.{reader}"
        for path in MODULES
        if path.stem != "trees"
        for name in ("clocked_bt", "clocked_llt", "clocked_bet")
        for reader in _readers_of(path.read_text(encoding="utf-8"), name)
    ]
    assert readers == []


def test_only_the_exact_key_reads_identical():
    # one hit rule for every reuse table: a second table that compared
    # terms with their binder hints itself would read _identical
    readers = [
        f"{path.stem}.{reader}"
        for path in MODULES
        for reader in _readers_of(path.read_text(encoding="utf-8"), "_identical")
    ]
    assert readers == ["trees._Exact"]


def _equality_defs(source: str, base: str | None = None) -> list[str]:
    """``Class.__eq__`` and ``Class.__hash__`` wherever a class of
    ``source`` that is ``base``, or names it among its bases (any class
    when ``base`` is None), defines them in its body, by ``def`` or by
    assignment."""
    found = []
    for c in ast.parse(source).body:
        if not isinstance(c, ast.ClassDef):
            continue
        if base is not None and base not in [c.name, *(getattr(b, "id", None) for b in c.bases)]:
            continue
        for s in c.body:
            if isinstance(s, ast.FunctionDef):
                names = [s.name]
            elif isinstance(s, ast.Assign):
                names = [t.id for t in s.targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [f"{c.name}.{m}" for m in names if m in ("__eq__", "__hash__")]
    return sorted(found)


def _loops_in(source: str, name: str) -> list[str]:
    """The loops, comprehensions included, inside the top-level function
    ``name`` of ``source``, by node type."""
    fn = next(n for n in ast.parse(source).body if getattr(n, "name", None) == name)
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    return [type(n).__name__ for n in ast.walk(fn) if isinstance(n, loops)]


def test_the_check_finds_term_walks():
    source = (
        "class Term:\n    def __eq__(self, other):\n        return True\n"
        "    def __hash__(self):\n        return 0\n"
        "class Leaf(Term):\n    def __eq__(self, other):\n        return False\n"
        "    __hash__ = Term.__hash__\n"
        "class Node(Term):\n    size = 1\n"
        "class Pos:\n    def __eq__(self, other):\n        return False\n"
        "def same(a, b):\n    return Term.__eq__(a, b)\n"
        "def walk(a, b):\n"
        "    while a:\n        a = [x for x in a]\n"
        "    for x in b:\n        pass\n"
    )
    assert _equality_defs(source, "Term") == [
        "Leaf.__eq__", "Leaf.__hash__", "Term.__eq__", "Term.__hash__",
    ]
    assert _equality_defs(source) == [
        "Leaf.__eq__", "Leaf.__hash__", "Pos.__eq__", "Term.__eq__", "Term.__hash__",
    ]
    assert _loops_in(source, "same") == []
    assert sorted(_loops_in(source, "walk")) == ["For", "While", "comprehension"]


def test_one_term_equality():
    # one pairwise walk of two terms: the term classes inherit Term's
    # __eq__ and __hash__, and the hint-exact comparison is that walk
    # with its ``hints`` flag, not a loop of its own
    package = Path(lamclock.__file__).parent
    terms_source = (package / "terms.py").read_text(encoding="utf-8")
    assert _equality_defs(terms_source, "Term") == ["Term.__eq__", "Term.__hash__"]
    assert _loops_in((package / "trees.py").read_text(encoding="utf-8"), "_identical") == []


def test_value_semantics_are_declared_once():
    # the records get equality and hashing from ``namedtuple``; only the
    # term, the head position and the hint-exact key define their own
    found = {
        d.split(".")[0]
        for path in MODULES
        for d in _equality_defs(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == ["HeadPos", "Term", "_Exact"]


def test_no_module_reads_a_free_name_set():
    # a term keeps no free-name set; ``terms.free_vars`` walks for the
    # names where they are read, so no module reads a ``.names``
    reads = [
        f"{path.stem}:{n.lineno}"
        for path in MODULES
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Attribute) and n.attr == "names"
    ]
    assert reads == []


def test_no_unread_dataclass_fields():
    # a field nothing reads, such as a copy whose readers moved to the
    # value it copied, shows here
    tests = Path(__file__).parent
    readers = sorted(tests.glob("*.py")) + sorted((tests.parent / "perfbench").glob("*.py"))
    assert _unread_fields(
        [p.read_text(encoding="utf-8") for p in MODULES],
        [p.read_text(encoding="utf-8") for p in readers],
    ) == []


def _unread_slots(sources: list[str]) -> list[str]:
    """``Class.slot`` for every name in the ``__slots__`` of a class
    other than a record that no module reads as an attribute (``x.slot``
    in a load context).  A record's slots are its fields, which
    ``_unread_fields`` checks against the tests and the benchmark too."""
    slots: list[str] = []
    reads: set[str] = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
            elif isinstance(n, ast.ClassDef) and not _is_record(n):
                slots += [f"{n.name}.{name}" for name in _slots(n) or ()]
    return sorted(s for s in slots if s.split(".", 1)[1] not in reads)


# The package's records: ``namedtuple`` classes, each declaring its
# fields once, and ``ClockTree``, a class with ``__slots__``, its fields
# annotated in its body and an ``__init__`` of its own, since its build
# sets ``refs`` and comparison fills ``explored`` after it is made.
RECORDS = [
    "compare.DiscriminationConfig",
    "compare.EventualResult",
    "compare.Verdict",
    "compare._Product",
    "reduction.HeadOutcome",
    "reduction.NormalizeOutcome",
    "reduction.RedexClass",
    "trees.ClockTree",
    "trees.SimplicityReport",
    "trees.SimplicityWitness",
]


def test_the_check_finds_unread_slots():
    a = (
        "class Box:\n    __slots__ = ('kept', 'dead')\n"
        "    def __init__(self):\n        self.kept = self.dead = 0\n"
        "class Empty:\n    __slots__ = ()\n"
        "class Record:\n    __slots__ = ('outside',)\n    outside: int\n"
        "    def __init__(self, outside):\n        self.outside = outside\n"
    )
    b = "def f(box):\n    return box.kept\n"
    assert _unread_slots([a, b]) == ["Box.dead"]


def test_a_record_keeps_exactly_its_fields_in_its_slots():
    # so the field check, not the slot check, sees every slot of a record:
    # a namedtuple subclass adds no slot to the tuple's items, and without
    # ``__slots__ = ()`` its records would each carry a ``__dict__``
    records = {
        f"{path.stem}.{_record_name(n)}": n
        for path in MODULES
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_record(n)
    }
    assert sorted(records) == RECORDS
    for name, n in records.items():
        if isinstance(n, ast.ClassDef):
            own = [] if _namedtuple_base(n) is not None else _fields(n)
            assert _slots(n) == own, name


@pytest.mark.parametrize("name", [r for r in RECORDS if r != "trees.ClockTree"])
def test_records_are_immutable_values(name):
    # every record but the tree is a namedtuple: equal fields make equal
    # records, and no field can be set after the record is made
    module, cls = name.split(".")
    record = getattr(importlib.import_module(f"lamclock.{module}"), cls)
    fields = list(inspect.signature(record).parameters)
    a, b = (record(*[[i] for i in range(len(fields))]) for _ in "ab")
    assert a == b and a is not b
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert not hasattr(a, "__dict__")


def test_no_unread_slots():
    package = Path(lamclock.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))]
    assert _unread_slots(sources) == []


def _self_calls(source: str, module: str) -> list[str]:
    """``module.qualified.name`` of every function in ``source``, nested
    closures and methods included, whose body (its own nested functions
    too) calls it by name: an ``ast.Name`` call.  Recursion through an
    operator or an attribute does not show, such as an ``__eq__`` that
    compares children with ``==`` or a method via ``self``."""
    found = []
    stack: list[tuple[ast.AST, str]] = [(ast.parse(source), module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}.{child.name}"))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == child.name
                    for n in ast.walk(child)
                ):
                    found.append(name)
                stack.append((child, name))
            else:
                stack.append((child, prefix))
    return sorted(found)


def test_the_check_finds_self_calls():
    source = (
        "def fact(n):\n    return 1 if n == 0 else n * fact(n - 1)\n"
        "def outer(t):\n    def go(u):\n        return [go(v) for v in u]\n    return go(t)\n"
        "def flat(t):\n    return len(t)\n"
        "class Node:\n"
        "    def __eq__(self, other):\n        return self.kids == other.kids\n"
        "    def count(self):\n        return 1 + sum(k.count() for k in self.kids)\n"
        "    def size(self):\n"
        "        def go(k):\n            return 1 + sum(go(c) for c in k.kids)\n"
        "        return go(self)\n"
    )
    assert _self_calls(source, "m") == ["m.Node.size.go", "m.fact", "m.outer.go"]


# Each recursion site can raise RecursionError on a deep enough term
# (ROADMAP K1); a new one shows here.  ``_drive`` recurses one probe
# level only.
RECURSION_SITES = [
    "reduction._drive",
    "terms._inst",
    "terms.shift",
    "trees._build.build",
]


def test_recursion_inventory():
    found = [
        site
        for path in MODULES
        for site in _self_calls(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert found == RECURSION_SITES
