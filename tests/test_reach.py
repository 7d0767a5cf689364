"""Every function of src/twistcheck is run by a verb, or names its caller.

The sweep runs cli.main in-process under sys.setprofile over every
surface verb on the built-in scenarios and on a scenario file, at
--subdivide 0 and 1 and in both formats; over bad scenario files, so
that the parser's error paths are reached through a verb; and over
verify-model for both involution kinds in dimensions 2 and 3.  It then
lists every def in src/twistcheck/*.py with ast and matches it to the
code objects entered, by file and first line (a decorated function's
code starts at its first decorator).

A function no verb reaches must be on ALLOWED, which names the caller
outside the verbs that needs it.  An allowed function that a verb does
reach fails the test too, so the list can only shrink.
"""

import ast
import contextlib
import io
import pathlib
import sys

import pytest

import twistcheck
from twistcheck import cli
from twistcheck.scenarios import BUILDERS

SRC = pathlib.Path(twistcheck.__file__).resolve().parent

# function -> the caller outside the verbs that needs it
CRITERION_9 = ("the homological suite of acceptance criterion 9; "
               "ROADMAP item 5 gives it a verb")
CRITERION_10 = "the Floer suite of acceptance criterion 10 (bigon d^2 = 0)"
ALLOWED = {
    "gf2.rank": CRITERION_9,
    "gf2.ChainComplex.homology": CRITERION_9,
    "gf2.Cone.__init__": CRITERION_9,
    "gf2.Cone.inclusion": CRITERION_9,
    "gf2.Cone.projection_components": CRITERION_9,
    "gf2.LongExactSequence.__init__": CRITERION_9,
    "gf2.LongExactSequence._sequence_edges": CRITERION_9,
    "gf2.LongExactSequence._check_exactness": CRITERION_9,
    "gf2.tensor_complex": CRITERION_9,
    "gf2.tensor_complex.offset": CRITERION_9,
    "floer.floer_complex": CRITERION_10,
    "scenarios.random_torus_les_scenario": "scripts/les_random_audit.py",
    "scenarios.grid_path_curve": "scripts/les_random_audit.py",
    "surface.Surface.face_words_symbols": "perfbench/scenario_gen.py",
}

SCENARIO_FILE = """\
# torus with the reflection across S, and an LES triple
[faces]
a b a' b'   # one square

[curves]
S = a
b = b

[involutions]
c = (b b') (a)

[scenario]
description = torus scenario file
s = S
involution = c
q = b
n = b
twist = 1
"""

BAD_FILES = {
    "disconnected": "[faces]\na b a' b'\nc d c' d'\n",
    "header": "[faces\na b a' b'\n",
    "section": "[shapes]\n",
    "orphan": "a b a' b'\n",
    "no-faces": "[curves]\nS = a\n",
    "no-s": "[faces]\na b a' b'\n",
    "unnamed": "[faces]\na b a' b'\n[curves]\n= a\n",
    "no-equals": "[faces]\na b a' b'\n[curves]\nS a\n",
    "spaced-name": "[faces]\na b a' b'\n[curves]\nS T = a\n",
    "empty-curve": "[faces]\na b a' b'\n[curves]\nS =\n",
    "bad-curve": "[faces]\na b a' b'\n[curves]\nS = z\n",
    "duplicate-curve": "[faces]\na b a' b'\n[curves]\nS = a\nS = b\n",
    "nested": "[faces]\na b a' b'\n[involutions]\nc = ((a b)\n",
    "close": "[faces]\na b a' b'\n[involutions]\nc = )\n",
    "empty-cycle": "[faces]\na b a' b'\n[involutions]\nc = ()\n",
    "bare": "[faces]\na b a' b'\n[involutions]\nc = a\n",
    "unclosed": "[faces]\na b a' b'\n[involutions]\nc = (a\n",
    "no-cycle": "[faces]\na b a' b'\n[involutions]\nc =  \n",
    "bad-involution": "[faces]\na b a' b'\n[involutions]\nc = (a z)\n",
    "duplicate-involution": ("[faces]\na b a' b'\n[involutions]\n"
                             "c = (b b')\nc = (b b')\n"),
    "key": "[faces]\na b a' b'\n[scenario]\nfoo = 1\n",
    "no-value": "[faces]\na b a' b'\n[scenario]\ns =\n",
    "twist": "[faces]\na b a' b'\n[curves]\nS = a\n[scenario]\ns = S\n"
             "twist = x\n",
    "undefined": "[faces]\na b a' b'\n[scenario]\ns = T\n",
}


def defined_functions():
    """(file name, first line) -> dotted name of every def in src."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        out[str(path), first] = name
                    visit(child, name)
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), path.stem)
    return out


def verb_runs(tmp_path):
    """Every argument list of the sweep."""
    good = tmp_path / "torus.scn"
    good.write_text(SCENARIO_FILE)
    runs = []
    for verb in cli.SURFACE_VERBS:
        for source in sorted(BUILDERS) + [str(good)]:
            for rounds in ("0", "1"):
                for fmt in ("table", "structured"):
                    runs.append([verb, source, "--subdivide", rounds,
                                 "--format", fmt])
    runs.append(["twist", "torus-les", "--power", "-2"])
    for name, text in BAD_FILES.items():
        bad = tmp_path / f"{name}.scn"
        bad.write_text(text)
        runs.append(["hf", str(bad)])
    for kind in ("id", "r"):
        for dim in ("2", "3"):
            model = ["verify-model", "--kind", kind, "--dim", dim,
                     "--samples", "40"]
            runs += [model, model + ["--lambda", "1.0"],
                     model + ["--samples", "0"]]
    return runs


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(defined, reached): the dotted names of all defs of src, and of
    those the sweep entered."""
    defined = defined_functions()
    runs = verb_runs(tmp_path_factory.mktemp("reach"))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # build_parser is cached; an earlier test would hide its body
    cli.build_parser.cache_clear()
    out = str(tmp_path_factory.getbasetemp() / "out.txt")
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in runs:
                cli.main(argv + ["--out", out])
    finally:
        sys.setprofile(None)
    files = {f: str(pathlib.Path(f).resolve())
             for f in {c.co_filename for c in entered}}
    keys = {(files[c.co_filename], c.co_firstlineno) for c in entered}
    reached = {name for key, name in defined.items() if key in keys}
    return set(defined.values()), reached


def test_every_function_is_reached_or_allowed(sweep):
    defined, reached = sweep
    unreached = sorted(defined - reached - set(ALLOWED))
    assert not unreached, f"no verb reaches {unreached}; give each a " \
        "verb, delete it, or allow it with the caller that needs it"


def test_allowed_functions_stay_unreached(sweep):
    defined, reached = sweep
    stale = sorted(set(ALLOWED) - defined)
    assert not stale, f"{stale} are allowed but not defined"
    now_reached = sorted(set(ALLOWED) & reached)
    assert not now_reached, f"a verb reaches {now_reached}; take them " \
        "off ALLOWED"


def test_allowed_reasons_name_a_caller():
    for name, caller in ALLOWED.items():
        assert caller.strip() and caller.strip() != "tests", name
