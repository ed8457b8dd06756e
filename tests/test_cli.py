"""Command-line interface, run in process through ``invoke`` (a stand-in
for a fresh process that swaps the standard streams) and, where the
interpreter's own streams or limits matter, in a fresh interpreter."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import lamclock
from lamclock import cli
from lamclock.cli import _dumps, main


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr interleaved, in the order written
    stdout: str
    stderr: str
    exception: BaseException | None  # raised by the command, SystemExit aside


class _Stream(io.StringIO):
    """A standard stream that also appends what it is given to ``log``."""

    def __init__(self, log: list[str]):
        super().__init__()
        self.log = log

    def write(self, s):
        n = super().write(s)
        self.log.append(s)
        return n


def invoke(*args) -> Result:
    """Run ``lamclock *args`` in process, as the entry point would."""
    log: list[str] = []
    out, err = _Stream(log), _Stream(log)
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as e:
            code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
        except Exception as e:
            code, exception = 1, e
    return Result(code, "".join(log), out.getvalue(), err.getvalue(), exception)


@pytest.fixture()
def run():
    return invoke


# -- tree commands -----------------------------------------------------------


def test_bt_text(run):
    res = run("bt", "Y0 f", "--depth", "4")
    assert res.exit_code == 0
    assert res.output == "[2] f\n  [1] f\n    ↺ up 1 (phase 2, period 2)\n"


def test_bt_atomic(run):
    res = run("bt", "eta eta delta x", "--atomic", "--depth", "3")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "⟨11,1,1,e⟩ x"


def test_bt_json_shape_and_determinism(run):
    a = run("bt", "Y1 f", "--json")
    b = run("bt", "Y1 f", "--json")
    assert a.exit_code == 0
    assert a.output == b.output
    d = json.loads(a.output)
    assert sorted(d) == ["atomic", "closed", "depth", "fuel", "periodicity", "root", "semantics"]
    assert d["closed"] is True
    assert d["semantics"] == "bt"
    assert d["periodicity"]["loops"] == [
        {"at": "2", "delta": 1, "period": "2", "phase": "e"}
    ]


def test_bt_dot(run):
    res = run("bt", "Y1 f", "--dot")
    assert res.exit_code == 0
    assert res.output.startswith("digraph clocktree {")
    assert 'n0 [label="[2] f"];' in res.output
    assert 'n0 -> n0 [style=dashed, label="(e, 2)"];' in res.output


TWO_LOOPS = r"(\w z.z (w w) (w w)) (\w z.z (w w) (w w))"


def test_bt_dot_two_loops(run):
    res = run("bt", TWO_LOOPS, "--dot")
    assert res.exit_code == 0
    assert res.output == (
        "digraph clocktree {\n"
        '  node [shape=box, fontname="monospace"];\n'
        '  n0 [label="[1] λz. z"];\n'
        '  n0 -> n0 [style=dashed, label="(e, 012)"];\n'
        '  n0 -> n0 [style=dashed, label="(e, 02)"];\n'
        "}\n"
    )


TWO_LOOPS_JSON = {
    "atomic": False,
    "closed": True,
    "depth": 12,
    "fuel": 10000,
    "periodicity": {
        "closed": True,
        "fully_periodic": True,
        "loops": [
            {"at": "012", "delta": 1, "period": "012", "phase": "e"},
            {"at": "02", "delta": 1, "period": "02", "phase": "e"},
        ],
    },
    "root": {
        "binders": ["z"],
        "children": [
            {
                "backedge": {"period": "012", "phase": "e", "target": "n0"},
                "id": "n1",
                "kind": "backedge",
            },
            {
                "backedge": {"period": "02", "phase": "e", "target": "n0"},
                "id": "n2",
                "kind": "backedge",
            },
        ],
        "clock": 1,
        "head": "z",
        "id": "n0",
        "kind": "hnf",
    },
    "semantics": "bt",
}


def test_bt_json_two_loops(run):
    res = run("bt", TWO_LOOPS, "--json")
    assert res.exit_code == 0
    expected = json.dumps(TWO_LOOPS_JSON, ensure_ascii=False, sort_keys=True, indent=2)
    assert res.output == expected + "\n"


def _tree_json(semantics, root, depth=12, closed=True):
    loops = {"closed": closed, "fully_periodic": closed, "loops": []}
    return {"atomic": False, "closed": closed, "depth": depth, "fuel": 10000,
            "periodicity": loops, "root": root, "semantics": semantics}


# One pin per layer kind, and each marker a child of one: ``lam`` and
# ``head`` with and without children, ``app``, ``var``, ``bottom``, and
# ``unknown`` with its reason (``hnf`` and ``backedge`` are pinned above).
LAYER_KIND_JSON = [
    (["llt", r"\x. x (\y. y x)"], _tree_json("llt", {
        "binders": ["x"], "clock": 0, "id": "n0", "kind": "lam", "children": [
            {"clock": 0, "head": "x", "id": "n1", "kind": "head", "children": [
                {"binders": ["y"], "clock": 0, "id": "n2", "kind": "lam", "children": [
                    {"clock": 0, "head": "y", "id": "n3", "kind": "head", "children": [
                        {"clock": 0, "head": "x", "id": "n4", "kind": "head"},
                    ]},
                ]},
            ]},
        ]})),
    (["bet", r"\x. x ((\y. y y)(\y. y y))"], _tree_json("bet", {
        "binders": ["x"], "clock": 0, "id": "n0", "kind": "lam", "children": [
            {"clock": 0, "id": "n1", "kind": "app", "children": [
                {"clock": 0, "head": "x", "id": "n2", "kind": "var"},
                {"id": "n3", "kind": "bottom"},
            ]},
        ]})),
    (["bt", "Y0 f", "--depth", "1"], _tree_json("bt", {
        "binders": [], "clock": 2, "head": "f", "id": "n0", "kind": "hnf", "children": [
            {"id": "n1", "kind": "unknown", "reason": "depth"},
        ]}, depth=1, closed=False)),
]


@pytest.mark.parametrize("args, payload", LAYER_KIND_JSON, ids=["llt", "bet", "bt"])
def test_json_of_every_layer_kind(run, args, payload):
    res = run(*args, "--json")
    assert res.exit_code == 0
    assert res.output == json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def test_bt_json_of_a_600_level_tree():
    # The standard encoder recurses about twice per tree level and fails
    # here.  A fresh interpreter keeps the default recursion limit, which
    # this suite raises; the output is not decoded, since the decoder
    # recurses too.
    src = str(Path(lamclock.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "lamclock.cli", "bt", r"Y1 (\g x. f (g (s x))) z",
         "--depth", "600", "--json"],
        capture_output=True, text=True, encoding="utf-8",
        env=os.environ | {"PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout.startswith('{\n  "atomic": false,\n  "closed": false,\n')
    assert res.stdout.endswith('\n  "semantics": "bt"\n}\n')
    assert res.stdout.count('"kind": "hnf"') == 600
    assert res.stdout.count('"reason": "depth"') == 1


def _fresh_cli(*args):
    # a fresh interpreter, with the default recursion limit
    src = str(Path(lamclock.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lamclock.cli", *args],
        capture_output=True, text=True, encoding="utf-8",
        env=os.environ | {"PYTHONPATH": src},
    )


# f (f (... x)), closed and 1,500 deep; and an open body of that depth
# under a redex, which substitution has to walk
_DEEP = "f (" * 1500 + "x" + ")" * 1500
_DEEP_BODY = r"(\x. " + "f (" * 1499 + "f x" + ")" * 1499 + ") y"


def test_a_deeply_nested_term_parses_and_its_tree_stops_at_the_depth():
    # The parser is a loop, so the CLI takes a closed nest of any depth
    res = _fresh_cli("bt", _DEEP)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "".join("  " * k + "[0] f\n" for k in range(12)) + "  " * 12 + "? (depth)\n"
    res = _fresh_cli("compare", _DEEP, "x")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.startswith("inconvertible (different-bt)\n")


@pytest.mark.parametrize(
    "args",
    [["bt", _DEEP_BODY], ["compare", _DEEP_BODY, "x"],
     ["bt", r"Y1 (\g x. f (g (s x))) z", "--depth", "1500"]],
    ids=["bt-open-body", "compare-open-body", "bt-build"],
)
def test_too_deeply_nested_a_term_exits_3_without_a_traceback(args):
    # Substitution and the tree builder recurse once per nesting level,
    # so a fresh interpreter cannot take these; the error is reported,
    # with the exit code for a budget that ran out, not raised.
    res = _fresh_cli(*args)
    assert res.returncode == 3, res.stderr[-2000:]
    assert res.stdout == ""
    assert res.stderr == (
        "error: term nested too deeply for the interpreter's recursion limit\n"
    )


def _limit_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))


@pytest.mark.parametrize("term", [r"(\x. x x x)(\x. x x x)", "B Y0 (S I) I"])
def test_bt_of_a_growing_term_at_the_default_fuel_fits_in_2_gb(term):
    # K1: the head reducts of both terms grow at every step.  Keeping
    # them, or rebuilding each one's spine, ran a fresh interpreter
    # limited to a 2 GB address space out of memory before the default
    # fuel was spent.
    src = str(Path(lamclock.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "lamclock.cli", "bt", term],
        capture_output=True, text=True, encoding="utf-8",
        env=os.environ | {"PYTHONPATH": src},
        preexec_fn=_limit_address_space, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout == "? (fuel)\n"


def _limit_address_space_to_200_mb():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (200 << 20, hard))


def test_a_run_out_of_memory_exits_3_without_a_traceback():
    # K9: the hnf tree of Y0 S grows without bound in memory; run it
    # only under an address-space cap.
    src = str(Path(lamclock.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "lamclock.cli", "bt", "Y0 S", "--depth", "3"],
        capture_output=True, text=True, encoding="utf-8",
        env=os.environ | {"PYTHONPATH": src},
        preexec_fn=_limit_address_space_to_200_mb, timeout=60,
    )
    assert res.returncode == 3, res.stderr[-2000:]
    assert (res.stdout, res.stderr) == ("", "error: out of memory\n")


def _limit_cpu_time():
    resource.setrlimit(resource.RLIMIT_CPU, (120, 120))


def test_bt_of_a_growing_term_at_the_default_fuel_stays_under_100_mb():
    # Step positions as long as the spine took this run to about 400 MB;
    # kept as two exponents each, it takes about 24 MB.  ``wait4`` reads
    # the child's own peak, not the largest of every child so far.
    src = str(Path(lamclock.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "lamclock.cli", "bt", r"(\x. x x x)(\x. x x x)"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=os.environ | {"PYTHONPATH": src}, preexec_fn=_limit_cpu_time,
    )
    with proc:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert (proc.returncode, output) == (0, b"? (fuel)\n"), output[-2000:]
    assert usage.ru_maxrss < 100 * 1024  # kilobytes


def test_compare_with_a_growing_term_ends_within_a_minute():
    # K5: the reduct search of B Y0 (S I) I checks up to 200 candidates,
    # and most show a non-simple step within their first few steps.  A
    # check that ran each candidate to the default fuel did not end
    # within two minutes; the search now stops each at that step.
    src = str(Path(lamclock.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "lamclock.cli", "compare", "x", "B Y0 (S I) I"],
        capture_output=True, text=True, encoding="utf-8",
        env=os.environ | {"PYTHONPATH": src},
        preexec_fn=_limit_address_space, timeout=60,
    )
    assert res.returncode == 1, res.stderr[-2000:]
    assert res.stdout.startswith("inconclusive (none)\n")


PINNED_PAYLOADS = [
    TWO_LOOPS_JSON,
    {
        "conclusion": "inconclusive",
        "justification": "none",
        "evidence": {
            "depth": 12,
            "fuel": 10000,
            "atomic": False,
            "closed": [True, True],
            "simple_reduct": [True, True],
        },
    },
    {"status": "not_simple", "closed": False, "depth": 4,
     "witness": {"path": "root", "step": 0, "kind": "duplicating"}},
    {"name": "bohm-seq", "term": r"(\a b.b (a a b)) (\a b.b (a a b)) (\a b.b (a b))"},
    ["y0", "y1"],
    {"loops": [], "empty": {}, "nested": [[], [{}], {"λ": "⟨11,1,e⟩", "x": None}]},
    [],
    {},
    1.5,
]


@pytest.mark.parametrize("payload", PINNED_PAYLOADS)
def test_json_writer_matches_the_standard_encoder(payload):
    expected = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
    assert _dumps(payload) == expected


def test_bt_dot_lists_a_tree_edge_after_its_subtree(run):
    # E3 has back edges below a shared subtree's defining site and a
    # shared reference in a later sibling
    res = run("bt", "E3", "--dot")
    assert res.exit_code == 0
    assert res.output.splitlines()[11:] == [
        "  n1 -> n2;",
        "  n4 -> n5;",
        '  n6 -> n4 [style=dashed, label="(02000212, 000212)"];',
        '  n7 -> n4 [style=dashed, label="(02000212, 000222)"];',
        "  n6 -> n7;",
        "  n4 -> n6;",
        "  n3 -> n4;",
        "  n8 -> n4 [style=dotted];",
        "  n3 -> n8;",
        "  n1 -> n3;",
        "  n0 -> n1;",
        "}",
    ]


_SWAP_LOOP = r"Y0 (\f x y. x (f y x))"


# Catalog terms whose trees have back edges; E3's bt tree also has a
# shared ref, and its llt and bet trees end in unknown nodes.  Each digest
# covers the exit code and output of text, --json and --dot, plain and
# --atomic, and pins those bytes.
@pytest.mark.parametrize(("semantics", "term", "digest"), [
    ("bt", "E1", "eede489ca974b190870104c71eb52756cfac4056ace9c5f9ca7a35c339ea63ac"),
    ("bt", "E3", "2e735aa91cf6811c2c15293ef426167b2f613297914c1944d2edbcf0bb2fb323"),
    ("bt", "Y1 f", "ace63631a3c3655d81f2a967a3881b8a9d7763153dc32693e907d56908dc9064"),
    ("bt", TWO_LOOPS, "b1b5a4f5c4daeb0cd60250657915b17d8ad3ee9a3933bb8e9f75315bb3d9d6f1"),
    ("bt", _SWAP_LOOP, "b46093b5169cc1f3e99edf264629158b1c47e8c3c88dd4ff35adb12571eb7369"),
    ("bt", "eta eta delta x", "dcfa7637f7f46212ec52cef7f56e74bee0afc511e066a111a9afbeb289d94ed6"),
    ("llt", "E1", "e8f0433e25ae9638800449567277855310f21d4a39b77a102962bace1ccc3e53"),
    ("llt", "E3", "50a2e1e4a19fa8cb846eb3c490c77838bdc4771907adbbd411ffc00b04a8150d"),
    ("llt", "Y1 f", "c2f46a53f00ccccd4fd6920aafc0123c62d6999e00b47020f88c6e7acd65dacc"),
    ("llt", TWO_LOOPS, "cee99f61c93877d850268c5848bc522935076e7fc9353ccba1837fb58b6a602b"),
    ("llt", _SWAP_LOOP, "cf458dbfcd55a532de152e1f11c4a51321384da24be3d1c070390f89a3311b7a"),
    ("llt", "eta eta delta x", "1ef09a665806e26d2cfffc74155779e55f1fb83f3576c9de8cc088eb62942626"),
    ("bet", "E1", "9adcb1184cffe383b0f76fd447a97cf542d04bf12bc850ab4a76a8621f871dc6"),
    ("bet", "E3", "1510d65664df5f4a97dd914daa4dba5ed7e3cfecb1cebf0065b3676f7d9cb445"),
    ("bet", "Y1 f", "77ea4ca52222d5e5603b75aeb39de784a7929b126da24540aa118d923737bd45"),
    ("bet", TWO_LOOPS, "005012bb9b2739752f2c1f5ea6fedde29f151068f82823c1b574bb777752fdc8"),
    ("bet", _SWAP_LOOP, "17aec8fd50d06128266a3faab8fdd6e8e6055956066d8b6c24b795ad749acae2"),
    ("bet", "eta eta delta x", "af0e225638b1fe0dc12893729fbeb5011ed423ff1af19a52f337a5b180b4abc0"),
])
def test_tree_output_bytes_are_pinned(run, semantics, term, digest):
    h = hashlib.sha256()
    for form in ((), ("--json",), ("--dot",)):
        for atomic in ((), ("--atomic",)):
            res = run(semantics, term, *form, *atomic)
            h.update(f"{res.exit_code}\n{res.output}\0".encode())
    assert h.hexdigest() == digest


def _text_and_json_digest(run, *args):
    h = hashlib.sha256()
    for form in ((), ("--json",)):
        res = run(*args, *form)
        h.update(f"{res.exit_code}\n{res.output}\0".encode())
    return h.hexdigest()


# Each digest covers the exit code and output of text and --json; the
# reports' ``closed`` and ``depth`` entries are read off the built trees.
@pytest.mark.parametrize(("args", "digest"), [
    # simple
    (("eta eta delta x",), "aa7e312c79b0ab7b26124b2e15a534792c61ab589de67b835e98baa607898444"),
    (("Y0 f", "--depth", "2"), "faca74cbbf83032a12390350e1c524bff71764f42e1a8e40e1fdbe451d5bc434"),
    # not_simple with a witness, closed and open
    ((r"Y1 (\z.f z z)",), "a1fcf8333e308b307ec85f4830c098520ba0de6d4479f269724a4372a6935035"),
    (("delta delta (delta delta)", "--depth", "4", "--fuel", "200"),
     "ba9ffb75eec7f68e13ed747a44a3479af47e74f7cb04b371ba751bbd9c135f94"),
    # unknown
    ((r"Y1 (\g x. f (g (x x)))", "--depth", "4", "--fuel", "300"),
     "c30c4a2e4bd7f0e8f8aa5cda1192f0a294a5c256a4e07d75a8fa739047fd9074"),
    (("x", "--depth", "0"), "ee75eda187005cbfbfc2183f8c43837354e46a3ebb31b6df834c74bc109e069d"),
])
def test_check_simple_output_bytes_are_pinned(run, args, digest):
    assert _text_and_json_digest(run, "check-simple", *args) == digest


# Every justification.  ``eta eta delta delta delta f`` is simple; the
# other side of its pairs is not, and one contraction leaves it short of
# its simple reduct ``(\x. f (x x)) (\x. f (x x))``, four away.
@pytest.mark.parametrize(("args", "digest"), [
    (("I", r"\x. x x"), "0f8447ae72a15a2a919228e2e634adeeea1f99fee328abc44d61e6d7302c00ac"),
    (("Y0", "Y1"), "09a35d69773e863015b8b72547ba674f7a82a0db36850e268301628fe5bb96b8"),
    # E1/E3 mismatch at level 2, as Y0/Y1 do, so the two print alike
    (("E1", "E3"), "09a35d69773e863015b8b72547ba674f7a82a0db36850e268301628fe5bb96b8"),
    (("eta eta delta delta delta f", r"Y0 (\x. f (K x x))", "--reduct-limit", "1"),
     "fec30b979526e759dc0a45b29ec93068f87db800c6d105089abb6db48e552912"),
    ((r"Y0 (\x. f (K x x))", "eta eta delta delta delta f", "--reduct-limit", "1"),
     "f151339652c3de068b5ed997da873723a3cdbd971804b8919a2b9b0c2763f280"),
    (("Y0", "Y0"), "d15c29a872a086e7fd917498bf0b2a6ac614126dce46068874f420e09eab7551"),
    ((r"Y1 (\z.f z z)", r"Y0 (\z.f z z)"),
     "3cffaec3d542ff5b51b3c275188a74f26319960545f30bb988bbd02ae44c6137"),
    (("eta eta delta", "Y0 (S S) I", "--atomic"),
     "17814d6880099908c5c5e14723ddcb05929f6475938ccc3acbb74e8f9f7ba008"),
    (("Y0", "Y1", "--depth", "0"), "a19f62bb0c977e7949f309202b376b2d8ebba54647d18147a67f1bd7de9dba5e"),
])
def test_compare_output_bytes_are_pinned(run, args, digest):
    assert _text_and_json_digest(run, "compare", *args) == digest


def test_llt_whnf_layers(run):
    res = run("llt", r"(\x y. x x)(\x y. x x)")
    assert res.exit_code == 0
    assert res.output == "[1] λy\n  ↺ up 1 (phase e, period 0)\n"


def test_bet_keeps_stuck_application(run):
    res = run("bet", r"x ((\x. x x)(\x. x x))")
    assert res.exit_code == 0
    assert res.output == "[0] @\n  [0] x\n  ⊥\n"


def test_closed_only_failure(run):
    res = run("bt", r"Y0 (\g x. f (g (x x)))",
              "--depth", "4", "--fuel", "300", "--closed-only")
    assert res.exit_code == 3


def test_parse_error_is_usage_error(run):
    res = run("bt", "(((")
    assert res.exit_code == 2
    assert "cannot parse" in res.output


@pytest.mark.parametrize(
    "args",
    [
        [cmd, *terms, opt, "-1"]
        for cmd, terms in (
            ("bt", ["Y0"]),
            ("llt", ["Y0"]),
            ("bet", ["Y0"]),
            ("check-simple", ["Y0"]),
            ("compare", ["Y0", "Y1"]),
        )
        for opt in ("--depth", "--fuel")
    ]
    + [["compare", "Y0", "Y1", "--reduct-limit", "-1"]],
    ids=" ".join,
)
def test_negative_budget_is_usage_error(run, args):
    res = run(*args)
    assert res.exit_code == 2
    assert "Invalid value" in res.output


def test_defs_file(run, tmp_path):
    f = tmp_path / "defs.txt"
    f.write_text("W = \\x. x x x;\n")
    res = run("bt", "W w", "--defs", str(f), "--depth", "3")
    assert res.exit_code == 0
    assert res.output == "[1] w\n  [0] w\n  [0] w\n"


def test_defs_file_syntax_error(run, tmp_path):
    f = tmp_path / "defs.txt"
    f.write_text("W = \\x. x x x\n")  # missing terminator
    res = run("bt", "W", "--defs", str(f))
    assert res.exit_code == 2


def test_defs_file_not_utf8_is_usage_error(run, tmp_path):
    f = tmp_path / "defs.txt"
    f.write_bytes(b"W = \\x. x x\xff;\n")
    res = run("bt", "W w", "--defs", str(f))
    assert (res.exit_code, res.exception) == (2, None)
    assert res.output.startswith("error: cannot read definitions file: ")


# -- compare -----------------------------------------------------------------


def test_compare_separates(run):
    res = run("compare", "Y0", "Y1")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "inconvertible (simple-eventual-mismatch)"
    assert "  level: 2" in lines
    assert "  relation: eq" in lines


def test_compare_atomic_flag(run):
    res = run("compare", "eta eta delta", "Y0 (S S) I", "--atomic")
    assert res.exit_code == 0
    assert "relation: list_eq" in res.output


def test_compare_inconclusive_exit_code(run):
    res = run("compare", "Y0", "Y0")
    assert res.exit_code == 1
    assert res.output.splitlines()[0] == "inconclusive (none)"


def test_compare_json(run):
    res = run("compare", "Y0", "Y1", "--json")
    assert res.exit_code == 0
    d = json.loads(res.output)
    assert d["conclusion"] == "inconvertible"
    assert d["justification"] == "simple-eventual-mismatch"


# -- catalog -----------------------------------------------------------------


def test_catalog_listing(run):
    res = run("catalog")
    assert res.exit_code == 0
    names = res.output.split()
    assert "y0" in names and "bohm-seq" in names


def test_catalog_instantiation(run):
    res = run("catalog", "bohm-seq", "2")
    assert res.exit_code == 0
    assert res.output.strip() == r"(\a b.b (a a b)) (\a b.b (a a b)) (\a b.b (a b))"


def test_catalog_unknown_name(run):
    res = run("catalog", "nope")
    assert res.exit_code == 2


@pytest.mark.parametrize(("args", "entry"), [
    (("plotkin-a", "5"), "plotkin-a"),
    (("dummy-scheme", "3"), "dummy-scheme"),
    (("wfpc-flipflop", "Y0"), "wfpc-flipflop"),
    (("gvector", "Y0", "1", "2"), "gvector"),
])
def test_catalog_parameter_not_taken_is_usage_error(run, args, entry):
    res = run("catalog", *args)
    assert res.exit_code == 2
    assert res.output.startswith(f"error: {entry} takes ")


# -- check-simple ------------------------------------------------------------


def test_check_simple_positive(run):
    res = run("check-simple", "eta eta delta x")
    assert res.exit_code == 0
    assert res.output == "simple\n"


def test_check_simple_negative_with_witness(run):
    res = run("check-simple", "delta delta (delta delta)", "--depth", "4", "--fuel", "200")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "not_simple"
    assert "duplicating" in res.output


def test_check_simple_unknown_exit_code(run):
    res = run("check-simple", r"Y1 (\g x. f (g (x x)))", "--depth", "4", "--fuel", "300")
    assert res.exit_code == 3
    assert res.output.splitlines()[0] == "unknown"


# -- repro -------------------------------------------------------------------


ALL_IDS = [
    "fig3", "ex4-19", "ex4-20", "fig4", "lemma5-3", "fig7", "fig8",
    "sec7-atomic", "ex7-4", "ex8-3", "thm3-8",
]


def test_repro_list(run):
    res = run("repro", "--list")
    assert res.exit_code == 0
    assert res.output.split() == ALL_IDS


def test_repro_all_pass(run):
    res = run("repro")
    assert res.exit_code == 0
    assert res.output.splitlines() == [f"{i}: PASS" for i in ALL_IDS]


def test_repro_single(run):
    res = run("repro", "fig3")
    assert res.exit_code == 0
    assert res.output == "fig3: PASS\n"


def test_repro_unknown_id(run):
    res = run("repro", "nope")
    assert res.exit_code == 2


def test_repro_diff(run, monkeypatch):
    golden = dict(cli._repro_specs())["fig3"]()
    monkeypatch.setattr(cli, "_repro_specs", lambda: {"fig3": lambda: golden + "extra\n"})
    res = run("repro")
    assert res.exit_code == 3
    assert res.output.startswith("fig3: DIFF\n--- goldens/fig3.txt\n+++ recomputed\n")
    assert res.output.endswith("\n+extra\n")


def test_repro_missing_golden(run, monkeypatch):
    monkeypatch.setattr(cli, "_repro_specs", lambda: {"fig0": str})
    res = run("repro")
    assert (res.exit_code, res.output) == (2, "error: missing golden for fig0\n")


# -- the front end's contract -------------------------------------------------
# Each of these holds for the click front end this one replaced, except the
# non-UTF-8 definitions file above, which ended in a traceback there.

COMMANDS = {
    "bt": "Clocked tree of head normal forms.",
    "llt": "Clocked tree of weak head normal forms.",
    "bet": "Clocked tree of root-stable layers.",
    "compare": "Try to certify that LEFT and RIGHT are not interconvertible.",
    "catalog": "List catalog names, or print the named construction.",
    "check-simple": "Classify every head step in the term's tree unfolding.",
    "repro": "Recompute stored reference outputs and diff against goldens.",
}


def _words(text):
    return " ".join(text.split())


def test_help_lists_every_command():
    res = invoke("--help")
    assert (res.exit_code, res.stderr) == (0, "")
    for name, summary in COMMANDS.items():
        assert name in res.output and summary in _words(res.output)


def test_no_command_prints_the_help_as_a_usage_error():
    res = invoke()
    assert (res.exit_code, res.stdout, res.exception) == (2, "", None)
    assert all(name in res.stderr for name in COMMANDS)


_TREE_OPTIONS = {
    "--depth": "default: 12", "--fuel": "default: 10000",
    "--atomic": "Annotate with step positions.",
    "--defs": "Extra definitions file (name = term; ...).",
    "--json": "Machine output.", "--dot": "DOT graph output.",
    "--closed-only": "Fail (exit 3) unless the tree closed.",
}


# Every option of every command, with a help text or a default its help
# shows; ``--help`` is every command's, and no command has another.
@pytest.mark.parametrize(("command", "options"), [
    ("bt", _TREE_OPTIONS), ("llt", _TREE_OPTIONS), ("bet", _TREE_OPTIONS),
    ("compare", {"--depth": "default: 12", "--fuel": "default: 10000",
                 "--atomic": "Compare step-position lists.", "--defs": "", "--json": "",
                 "--reduct-limit": "Bound for the reduct search phase."}),
    ("catalog", {"--defs": "", "--json": "",
                 "": "Numeric PARAMS are taken as counts, anything else is parsed as a "
                     "term (useful for entries taking a combinator argument)."}),
    ("check-simple", {"--depth": "default: 12", "--fuel": "default: 10000",
                      "--defs": "", "--json": ""}),
    ("repro", {"--list": "List known ids."}),
])
def test_each_command_has_exactly_its_options(command, options):
    res = invoke(command, "--help")
    assert (res.exit_code, res.stderr) == (0, "")
    assert set(re.findall(r"--[a-z][a-z-]*", res.output)) == set(options) - {""} | {"--help"}
    text = _words(res.output)
    assert COMMANDS[command] in text
    for shown in options.values():
        assert shown in text
    if command == "compare":
        assert "default: 2000" in text


# a budget left out is its default
@pytest.mark.parametrize("args", [
    ["bt", "Y1 f", "--json"],
    ["llt", "E1"],
    ["bet", "E3", "--dot"],
    ["check-simple", r"Y1 (\z.f z z)", "--json"],
    ["compare", "eta eta delta delta delta f", r"Y0 (\x. f (K x x))", "--json"],
])
def test_the_default_budgets(args):
    explicit = ["--depth", "12", "--fuel", "10000"]
    if args[0] == "compare":
        explicit += ["--reduct-limit", "2000"]
    assert invoke(*args) == invoke(*args, *explicit)


@pytest.mark.parametrize("args", [
    ["nope"],
    ["--json", "bt", "Y0"],
    ["bt"],
    ["compare", "Y0"],
    ["check-simple", "--json"],
    ["bt", "Y0", "Y1"],
    ["bt", "Y0", "--dep", "3"],
    ["bt", "Y0", "--jso"],
    ["compare", "Y0", "Y1", "--reduct", "5"],
    ["bt", "Y0", "--depth"],
    ["bt", "Y0", "--json=1"],
    ["bt", "Y0", "--atomic=yes"],
    ["repro", "--list=no"],
], ids=" ".join)
def test_usage_error(args):
    res = invoke(*args)
    assert (res.exit_code, res.stdout, res.exception) == (2, "", None)


@pytest.mark.parametrize("value", ["x", "1.5", "", "-3", "--1"])
def test_a_budget_that_is_not_a_count_is_usage_error(value):
    for opt in ("--depth", "--fuel", "--reduct-limit"):
        res = invoke("compare", "Y0", "Y1", f"{opt}={value}")
        assert (res.exit_code, res.stdout, res.exception) == (2, "", None)
        assert "Invalid value" in res.stderr


@pytest.mark.parametrize(("error", "message"), [
    (RecursionError, "error: term nested too deeply for the interpreter's recursion limit\n"),
    (MemoryError, "error: out of memory\n"),
    (KeyboardInterrupt, "\nAborted!\n"),
])
@pytest.mark.parametrize(("layer", "args"), [
    ("compact_cyclic", ["bt", "Y0 f"]),
    ("discriminate", ["compare", "Y0", "Y1"]),
    ("check_simple", ["check-simple", "Y0 f"]),
], ids=["bt", "compare", "check-simple"])
def test_an_interrupted_command_exits_without_a_traceback(monkeypatch, layer, args,
                                                          error, message):
    def interrupt(*_):
        raise error

    monkeypatch.setattr(cli, layer, interrupt)
    res = invoke(*args)
    code = 1 if error is KeyboardInterrupt else 3
    assert (res.exit_code, res.output, res.exception) == (code, message, None)


@pytest.mark.parametrize(("args", "same_as"), [
    (["compare", "Y0", "--depth", "3", "Y1"], ["compare", "Y0", "Y1", "--depth", "3"]),
    (["compare", "--json", "Y0", "Y1"], ["compare", "Y0", "Y1", "--json"]),
    (["catalog", "gvector", "--json", "Y0", "1"], ["catalog", "gvector", "Y0", "1", "--json"]),
    (["catalog", "gvector", "Y0", "--json", "1"], ["catalog", "gvector", "Y0", "1", "--json"]),
    (["catalog", "--json", "gvector", "Y0", "1"], ["catalog", "gvector", "Y0", "1", "--json"]),
    (["repro", "fig3", "--list"], ["repro", "--list"]),
    (["repro", "fig3", "--list", "fig4"], ["repro", "--list"]),
    (["bt", "Y0 f", "--depth=4"], ["bt", "Y0 f", "--depth", "4"]),
    (["bt", "--depth", "4", "--", "Y0 f"], ["bt", "Y0 f", "--depth", "4"]),
], ids=lambda a: " ".join(a))
def test_options_go_anywhere(args, same_as):
    res = invoke(*args)
    assert res == invoke(*same_as)
    assert res.exit_code == 0 and res.output


def test_defs_file_with_an_equals_sign(tmp_path):
    f = tmp_path / "defs.txt"
    f.write_text("W = \\x. x x x;\n")
    assert invoke("bt", "W w", f"--defs={f}") == invoke("bt", "W w", "--defs", str(f))


def test_a_negative_catalog_count_after_the_end_of_options():
    res = invoke("catalog", "scott-composite", "--", "-1")
    assert (res.exit_code, res.output) == (2, "error: scott_composite entries must be >= 0\n")


@pytest.mark.parametrize("args", [("gvector", "--", "Y0", "--", "1"), ("--", "gvector", "--")])
def test_a_second_end_of_options_is_a_value(args):
    # only the first ``--`` ends the options; a later one is a parameter
    # like any other, and no term
    res = invoke("catalog", *args)
    assert res.exit_code == 2
    assert res.output.startswith("error: cannot parse term '--': ")


def test_a_value_after_the_end_of_options_may_start_with_a_dash():
    res = invoke("compare", "--", "-x", "y")
    assert res.exit_code == 2
    assert res.output.startswith("error: cannot parse term '-x': ")


def test_catalog_output_bytes_are_pinned():
    h = hashlib.sha256()
    for args in ([], ["y0"], ["bohm-seq", "2"], ["gvector", "Y1", "2"], ["scott-composite", "1", "0"]):
        for form in ((), ("--json",)):
            res = invoke("catalog", *args, *form)
            h.update(f"{res.exit_code}\n{res.output}\0".encode())
    assert h.hexdigest() == "ccca392066731f04bba933b1005997799c0cde444f9f7eaaa0fb06b521e8946f"


def _cli_bytes(*args, env=None, stdout=subprocess.PIPE):
    src = str(Path(lamclock.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lamclock.cli", *args], stdout=stdout, stderr=subprocess.PIPE,
        env=os.environ | {"PYTHONPATH": src} | (env or {}),
    )


def test_output_is_utf8_whatever_the_stream_encoding():
    res = _cli_bytes("bt", "Y0 f", "--depth", "4", env={"PYTHONIOENCODING": "ascii"})
    assert (res.returncode, res.stderr) == (0, b"")
    assert res.stdout == "[2] f\n  [1] f\n    ↺ up 1 (phase 2, period 2)\n".encode()
    res = _cli_bytes("bt", "é(((", env={"PYTHONIOENCODING": "ascii"})
    assert (res.returncode, res.stdout) == (2, b"")
    assert res.stderr.startswith("error: cannot parse term 'é(((': ".encode())


def test_a_reader_that_closes_early_gets_no_traceback():
    # About 1.1 MB of text; whether the writer sees the close depends on
    # how much of it the pipe took first, so both ends are fine, but
    # neither says a word.
    src = str(Path(lamclock.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "lamclock.cli", "bt", r"Y1 (\g x. f (g (s x)) (g (t x))) z",
         "--depth", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=os.environ | {"PYTHONPATH": src},
    )
    with proc:
        assert proc.stdout.read(10) == b"[4] f\n  [4"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode in (0, 1)
    assert err == b""


@pytest.mark.parametrize("args", [["bt", "Y0 f"], ["compare", "Y0", "Y1"], ["catalog"]])
def test_a_reader_that_closed_first_gets_no_traceback(args):
    read, write = os.pipe()
    os.close(read)
    try:
        res = _cli_bytes(*args, stdout=write)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (1, b"")


# -- robustness over random calls --------------------------------------------

_CLI_NAMES = ("x", "y", "f")
_CLI_CONSTS = ("I", "K", "S", "B", "delta", "eta", "theta", "Y0", "Y1", "E1", "E2", "E3")
_SOUP = ("\\", "λ", ".", "(", ")", ";", "=", "#", "x", "Y0", "f1'", "1", "?", "é", " ")


def _grammar_term(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(_CLI_NAMES + _CLI_CONSTS)
    if r < 0.55:
        names = " ".join(rng.choices(_CLI_NAMES, k=rng.randint(1, 2)))
        return f"\\{names}. {_grammar_term(rng, depth - 1)}"
    return f"({_grammar_term(rng, depth - 1)}) ({_grammar_term(rng, depth - 1)})"


def _term_text(rng):
    if rng.random() < 0.25:
        return "".join(rng.choices(_SOUP, k=rng.randint(0, 8)))
    return _grammar_term(rng, rng.randint(0, 4))


def _flags(rng, *names):
    return [n for n in names if rng.random() < 0.3]


def _random_call(rng):
    # Fuel stays at 60 or less: a tree of ``Y0 S`` at the default fuel
    # runs out of memory (ROADMAP K9), and a random term may be that one.
    budget = ["--depth", str(rng.randint(-1, 4)), "--fuel", str(rng.randint(-2, 60))]
    cmd = rng.choice(["bt", "llt", "bet", "check-simple", "compare"])
    if cmd == "compare":
        return [cmd, _term_text(rng), _term_text(rng), *budget,
                "--reduct-limit", str(rng.randint(0, 50)), *_flags(rng, "--atomic", "--json")]
    if cmd == "check-simple":
        return [cmd, _term_text(rng), *budget, *_flags(rng, "--json")]
    return [cmd, _term_text(rng), *budget, *_flags(rng, "--atomic", "--json", "--dot")]


def test_random_calls_end_with_a_documented_exit_code():
    # every call ends normally or by SystemExit with code 0-3, never by
    # another exception; the term text may not parse
    rng = random.Random(20261020)
    codes = set()
    for _ in range(300):
        args = _random_call(rng)
        res = invoke(*args)
        assert res.exception is None or type(res.exception) is SystemExit, (args, res.exception)
        assert 0 <= res.exit_code <= 3, (args, res.output)
        codes.add(res.exit_code)
    assert codes == {0, 1, 2, 3}
