"""Command-line behavior: payloads, exit codes, determinism.

Most cases drive cli.main() in-process and parse what it printed; one
subprocess test covers the python -m entry point.
"""

import json
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade3 import catalog, cli
from grade3.cli import _build_parser, _plain, main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_member_example(capsys):
    code, payload = run_json(capsys, "member", "--demo", "sl2",
                             "--g", "[[2,1],[1,1]]")
    assert code == 0
    assert payload == {"member": True}


def test_member_false(capsys):
    code, payload = run_json(capsys, "member", "--demo", "sl2",
                             "--g", "[[0,1],[-1,0]]")
    assert code == 0
    assert payload == {"member": False}


def test_factor_error_example(capsys):
    code, payload = run_json(capsys, "factor", "--demo", "sl2",
                             "--g", "[[0,1],[-1,0]]")
    assert code == 1
    assert payload["error"] == "NotInOpenCell"
    assert "detail" in payload


def test_grade_example(capsys):
    code, payload = run_json(capsys, "grade", "--demo", "sl2")
    assert code == 0
    assert payload == {"dims": [1, 1, 1]}


def test_factor_payload(capsys):
    code, payload = run_json(capsys, "factor", "--demo", "sl2",
                             "--g", "[[2,1],[1,1]]")
    assert code == 0
    np.testing.assert_allclose(payload["x_plus"], [0.0, 1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(payload["x_minus"], [0.0, 0.0, 1.0], atol=1e-10)
    assert payload["order"] == "+0-"


def test_factor_mirrored_order(capsys):
    code, payload = run_json(capsys, "factor", "--demo", "sl2",
                             "--g", "[[2,1],[1,1]]", "--order=-0+")
    assert code == 0
    np.testing.assert_allclose(payload["x_plus"], [0.0, 0.5, 0.0], atol=1e-10)


def test_polar_payload(capsys):
    code, payload = run_json(capsys, "polar", "--demo", "sl2",
                             "--g", "[[2,1],[1,1]]")
    assert code == 0
    assert set(payload) == {"g0", "x"}


def test_usage_errors(capsys):
    # missing input source
    code, _, err = run_cli(capsys, "member", "--demo", "sl2")
    assert code == 2 and "g" in err
    # malformed inline JSON
    code, _, err = run_cli(capsys, "member", "--demo", "sl2", "--g", "[[2,")
    assert code == 2 and "malformed" in err
    # wrong shape for the representation
    code, _, err = run_cli(capsys, "member", "--demo", "sl2",
                           "--g", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 2


_SOURCES = [
    (["grade"], ["--demo", "sl2"]),
    (["member", "--g", "[[3,1],[2,1]]"], ["--demo", "sl2"]),
    (["factor"], ["--demo", "sl2"]),
    (["polar"], ["--demo", "sl2"]),
    (["roots"], ["--demo", "sl2"]),
    (["modular"], ["--random", "3"]),
    (["monotone"], ["--random", "2"]),
]


@pytest.mark.parametrize("argv,source", _SOURCES, ids=[a[0] for a, _ in _SOURCES])
def test_setting_comes_from_one_source(capsys, tmp_path, argv, source):
    # A second source used to be read and partly ignored; now it is a usage
    # error, and no source at all keeps its "need ..." message.
    doc = tmp_path / "doc.json"
    doc.write_text('{"g": [[2, 1], [1, 1]]}')
    with pytest.raises(SystemExit) as exc:
        main([*argv, *source, "--file", str(doc)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with" in err
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "error: need " in err


def test_unknown_verb_and_suite():
    with pytest.raises(SystemExit) as exc:
        main(["conjugate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_verify_verb(capsys):
    code, payload = run_json(capsys, "verify", "grading", "--samples", "25")
    assert code == 0
    assert payload["pass"] is True
    assert payload["suite"] == "grading"


def test_demo_names_all_work(capsys):
    for name in catalog.DEMO_NAMES:
        code, payload = run_json(capsys, "demo", name, "--json")
        assert code == 0
        assert payload["entry"]["name"] == name
        assert payload["example"]["member"] is True


def test_byte_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "demo", "sl2", "--seed", "3")
    _, out2, _ = run_cli(capsys, "demo", "sl2", "--seed", "3")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "cones", "--samples", "20", "--json")
    _, out4, _ = run_cli(capsys, "verify", "cones", "--samples", "20", "--json")
    assert out3 == out4


def test_render_json_golden():
    payload = {"tenth": 0.1, "f64": np.float64(-2.5), "i64": np.int64(7),
               "flag": np.bool_(True), "mat": np.array([[1.0, 0.0], [0.5, 3.0]]),
               "empty_obj": {}, "empty_list": []}
    assert render_json(payload, compact=True) == (
        '{"empty_list":[],"empty_obj":{},"f64":-2.5,"flag":true,"i64":7,'
        '"mat":[[1.0,0.0],[0.5,3.0]],"tenth":0.1}')
    assert render_json(payload) == """{
  "empty_list": [],
  "empty_obj": {},
  "f64": -2.5,
  "flag": true,
  "i64": 7,
  "mat": [
    [
      1.0,
      0.0
    ],
    [
      0.5,
      3.0
    ]
  ],
  "tenth": 0.1
}"""
    for bad in (float("nan"), float("inf")):
        for compact in (True, False):
            with pytest.raises(ValueError):
                render_json({"x": [bad]}, compact=compact)
    with pytest.raises(TypeError):
        render_json({"x": np.array([1j])})


def test_cached_parser_keeps_no_state(capsys):
    assert _build_parser() is _build_parser()
    g = "[[2,1],[1,1]]"
    code, payload = run_json(capsys, "factor", "--demo", "sl2", "--g", g,
                             "--order=-0+")
    assert code == 0 and payload["order"] == "-0+"
    code, payload = run_json(capsys, "factor", "--demo", "sl2", "--g", g)
    assert code == 0 and payload["order"] == "+0-"
    with pytest.raises(SystemExit) as exc:
        main(["grade", "--demo", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, payload = run_json(capsys, "grade", "--demo", "sl2")
    assert code == 0 and payload == {"dims": [1, 1, 1]}


def test_negative_seed_is_usage_error(capsys):
    for argv in (["modular", "--random", "4"], ["monotone", "--random", "3"],
                 ["demo", "sl2"], ["verify", "grading", "--samples", "5"]):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 2 and out == "" and "--seed" in err


def test_random_dimension_is_capped(capsys):
    for verb in ("modular", "monotone"):
        code, out, err = run_cli(capsys, verb, "--random", "100000000")
        assert code == 2 and out == "" and "--random" in err
        code, out, err = run_cli(capsys, verb, "--random", "0")
        assert code == 2 and out == ""


def test_file_algebra_dimension_is_capped(capsys, tmp_path):
    # 301 basis matrices of size 1 x 1 are refused before the algebra is
    # built; 300 pass the cap and reach the construction, which refuses them
    # as dependent
    for n, reason in ((301, "301 basis matrices, more than 300"),
                      (300, "basis matrices are linearly dependent")):
        algebra = {"name": "big", "rep_dim": 1,
                   "basis": [{"rows": 1, "cols": 1, "re": [1.0]}] * n}
        path = tmp_path / f"big{n}.json"
        path.write_text(json.dumps({"algebra": algebra, "h": [0.0] * n, "cartan": [[1.0] * n]}))
        for verb, what in (("grade", "algebra"), ("member", "algebra"), ("factor", "algebra"),
                           ("polar", "algebra"), ("roots", "roots")):
            code, out, err = run_cli(capsys, verb, "--file", str(path))
            assert (code, out, err) == (2, "", f"error: bad {what} document: {reason}\n")


def test_compact_and_pretty_agree(capsys):
    _, pretty, _ = run_cli(capsys, "grade", "--demo", "poincare3")
    _, compact, _ = run_cli(capsys, "grade", "--demo", "poincare3", "--json")
    assert "\n" not in compact.strip()
    assert json.loads(pretty) == json.loads(compact)


# Documents for the renderer: nested dicts, lists and tuples over every
# scalar JSON has, the floats whose text is easy to get wrong, strings that
# hold JSON's own punctuation or leave ASCII, numpy arrays and scalars, and
# values that cannot be written (NaN, infinity, objects of no JSON type).
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 0.1, 1e-7]))
_TEXT = st.text(st.sampled_from(list(',[{"}]: \\\nx\xe9\u20ac\U0001d11e')), max_size=6)
_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=5).map(np.array),
    st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(
        lambda v: np.array(v).reshape(len(v), 1)),
    st.lists(st.complex_numbers(max_magnitude=1e3), max_size=2).map(np.array),
)
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.floats(width=32).map(np.float32))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
                    _ARRAYS, _NUMPY_SCALARS, st.builds(object), st.builds(set))
_KEYS = st.one_of(_TEXT, _TEXT, st.integers(-3, 3), st.booleans(), st.none(), _FLOATS)
_DOCS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=25)


def _outcome(render, doc):
    try:
        return render(doc)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_pretty_form_matches_the_standard_indented_dump(doc):
    want = _outcome(lambda d: json.dumps(d, sort_keys=True, allow_nan=False,
                                         default=_plain, indent=2), doc)
    assert _outcome(render_json, doc) == want


@settings(max_examples=200, deadline=None)
@given(_DOCS)
def test_compact_form_matches_the_standard_compact_dump(doc):
    want = _outcome(lambda d: json.dumps(d, sort_keys=True, allow_nan=False,
                                         default=_plain, separators=(",", ":")), doc)
    assert _outcome(lambda d: render_json(d, compact=True), doc) == want


@pytest.mark.parametrize("doc", [
    {"a": [1.0, float("nan")]}, [[0.0], {"b": float("inf")}], float("-inf"),
    np.array([1.0, np.nan]), {"x": np.float64("inf")}])
@pytest.mark.parametrize("compact", [False, True])
def test_non_finite_values_raise_in_both_forms(doc, compact):
    with pytest.raises(ValueError):
        render_json(doc, compact=compact)


def test_env_tolerance(capsys, monkeypatch):
    rot = "[[0,1],[-1,0]]"
    monkeypatch.setenv("GRADE3_TOL", "10")
    code, payload = run_json(capsys, "member", "--demo", "sl2", "--g", rot)
    assert code == 0 and payload == {"member": True}
    # explicit flag beats the environment
    code, payload = run_json(capsys, "member", "--demo", "sl2", "--g", rot,
                             "--tol", "1e-9")
    assert code == 0 and payload == {"member": False}
    monkeypatch.setenv("GRADE3_TOL", "banana")
    code, _, err = run_cli(capsys, "member", "--demo", "sl2", "--g", rot)
    assert code == 2 and "GRADE3_TOL" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, monkeypatch, value):
    argv = ["member", "--demo", "sl2", "--g", "[[0,1],[-1,0]]"]
    code, out, err = run_cli(capsys, *argv, "--tol", value)
    assert code == 2 and out == "" and "tolerance" in err
    monkeypatch.setenv("GRADE3_TOL", value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "tolerance" in err


def test_file_input(capsys, tmp_path):
    entry = catalog.get_entry("sl2")
    doc = {
        "algebra": entry.algebra.to_json(),
        "h": [float(v) for v in entry.h],
        "cone": entry.cone.to_json(),
        "g": [[2.0, 1.0], [1.0, 1.0]],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "member", "--file", str(path))
    assert code == 0 and payload == {"member": True}
    code, payload = run_json(capsys, "grade", "--file", str(path))
    assert code == 0 and payload == {"dims": [1, 1, 1]}


def test_grade_file_refusal_names_the_identity_gate(capsys, tmp_path):
    entry = catalog.get_entry("sl2")
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({"algebra": entry.algebra.to_json(), "h": [2.0, 0.0, 0.0]}))
    code, payload = run_json(capsys, "grade", "--file", str(path))
    assert code == 1 and payload == {
        "error": "NotThreeGraded",
        "detail": "ad(h)^3 differs from ad(h): residual 6.000e+00 above gate 9.000e-09 "
                  "at scale 8.000e+00"}


def test_grade_file_refuses_an_overflowing_ad_h_squared(capsys, tmp_path):
    # with h = 1e200 h0, ad(h)^2 overflows: refused by name with finite
    # numbers, and no numpy warning reaches stderr
    entry = catalog.get_entry("sl2")
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({"algebra": entry.algebra.to_json(), "h": [1e200, 0.0, 0.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "grade", "--file", str(path))
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "error": "NotThreeGraded",
        "detail": "ad(h)^2 overflows: h has an entry of size 1.000e+200"}


def test_file_missing(capsys):
    code, _, err = run_cli(capsys, "member", "--file", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


def test_modular_random(capsys):
    code, payload = run_json(capsys, "modular", "--random", "3")
    assert code == 0
    assert payload["roundtrip_gap"] <= 1e-8
    assert payload["pair"]["delta"]["rows"] == 3


def test_modular_file(capsys, tmp_path):
    doc = {"basis": [{"re": [1.0, 0.0], "im": [0.0, 0.0]},
                     {"re": [0.0, 0.0], "im": [0.0, 1.0]}]}
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "modular", "--file", str(path))
    assert code == 0
    np.testing.assert_allclose(
        np.array(payload["pair"]["delta"]["re"]).reshape(2, 2), np.eye(2),
        atol=1e-10)


def test_modular_nonstandard_is_domain_error(capsys, tmp_path):
    doc = {"basis": [{"re": [1.0, 0.0]}, {"re": [2.0, 0.0]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "modular", "--file", str(path))
    assert code == 1
    assert payload["error"] == "NotStandard"


def test_monotone_random_and_file(capsys, tmp_path):
    code, payload = run_json(capsys, "monotone", "--random", "4",
                             "--samples", "30")
    assert code == 0 and payload["ok"] is True
    doc = {"a": [[2.0, 0.0], [0.0, 2.0]], "b": [[1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "monotone", "--file", str(path))
    assert code == 1
    assert payload["error"] == "PreconditionViolated"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_monotone_needs_a_sample(capsys, samples):
    code, out, err = run_cli(capsys, "monotone", "--random", "2", "--samples", samples)
    assert code == 2 and out == "" and "--samples" in err


def test_roots_demos(capsys):
    code, payload = run_json(capsys, "roots", "--demo", "sl2", "--x0", "[1.0]")
    assert code == 0
    assert payload["datum"]["types"] == ["noncompact_simple", "noncompact_simple"]
    assert payload["c_max_generators"] == [[1.0]]
    code, payload = run_json(capsys, "roots", "--demo", "su2")
    assert code == 0
    assert payload["datum"]["types"] == ["compact", "compact"]
    code, payload = run_json(capsys, "roots", "--demo", "sl2+sl2", "--x0", "[1.0, -2.0]")
    assert code == 0
    assert payload["datum"]["types"] == ["noncompact_simple"] * 4
    assert sorted(payload["c_max_generators"]) == [[0.0, -1.0], [1.0, 0.0]]


# Recorded from cli.main before the single-code-path refactor of the
# coordinate solve, root lookup and root fixtures; a later change that alters
# this output on purpose re-records it and says so in CHANGES.md.
TRANSCRIPT = pathlib.Path(__file__).with_name("cli_transcript.json")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def test_cli_transcript(capsys):
    cases = json.loads(TRANSCRIPT.read_text())
    assert len(cases) >= 20
    for case in cases:
        with warnings.catch_warnings():  # a warning would reach stderr
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["code"], case["argv"]
        assert json.loads(out) == json.loads(case["stdout"]), case["argv"]
        assert _NUMBER.sub("#", out) == _NUMBER.sub("#", case["stdout"]), case["argv"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "grade3", "grade", "--demo", "sl2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dims": [1, 1, 1]}


def test_polar_of_a_large_element_writes_nothing_to_stderr():
    # sharp(g) g has condition number 2.5e6; its log answers without a warning
    g = ("[[6.975571572588108, -9.337060459619968], "
         "[-40.61873054682933, 54.5130300724121]]")
    proc = subprocess.run(
        [sys.executable, "-m", "grade3", "polar", "--demo", "sl2", "--g", g,
         "--json"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    assert set(json.loads(proc.stdout)) == {"g0", "x"}


# scipy.linalg loads where a computation first needs it, with the first
# exponential or log.  Catalog builds, the grade, member, roots and factor
# verbs and member_decomposed do not need it: the open-cell factors are
# terminating sums.  scipy.optimize never loads: polyhedral membership runs
# on numkit's numpy nnls, in member on solvable and all through verify.  A
# fresh interpreter sees each step.
_IMPORT_STEPS = """
import contextlib, io, sys
import numpy as np

def loaded():
    return {m for m in ("scipy", "scipy.linalg", "scipy.optimize")
            if m in sys.modules}

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

import grade3
assert loaded() == set(), loaded()
from grade3 import catalog, cli
run("modular", "--random", "4", "--seed", "1", "--json")
assert loaded() == set(), loaded()
for name in catalog.ENTRY_NAMES:
    catalog.get_entry(name)
assert loaded() == set(), loaded()
run("grade", "--demo", "jacobi3")
run("member", "--demo", "sl2", "--g", "[[2,1],[1,1]]")
run("member", "--demo", "solvable", "--g", "[[2,0,0.1],[0,0.5,0.05],[0,0,1]]")
for name in catalog.ROOT_FIXTURE_NAMES:
    run("roots", "--demo", name)
assert loaded() == set(), loaded()
run("factor", "--demo", "sl2", "--g", "[[2,1],[1,1]]")
run("factor", "--demo", "poincare3", "--g", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]")
from grade3.liealg import GroupElement
from grade3.semigroup import member_decomposed
sl2 = catalog.get_entry("sl2")
assert member_decomposed(GroupElement(sl2.algebra, np.array([[2.0, 1.0], [1.0, 1.0]])),
                         sl2.grading, sl2.cone)
assert loaded() == set(), loaded()
run("polar", "--demo", "sl2", "--g", "[[2,1],[1,1]]")
assert loaded() == {"scipy", "scipy.linalg"}, loaded()
cone = catalog.get_entry("solvable").cone
cone.violation(np.ones(cone.ambient_dim))
run("verify", "all", "--samples", "2")
assert "scipy.optimize" not in loaded(), loaded()
"""


def test_scipy_loads_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_STEPS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# The Gauss-Legendre rules of numkit are built on first use, so importing
# the command line and building every catalog entry leaves numpy.polynomial
# unloaded.
_NO_POLYNOMIAL = """
import sys
from grade3 import catalog, cli
for name in catalog.ENTRY_NAMES:
    catalog.get_entry(name)
assert "numpy.polynomial" not in sys.modules
"""


def test_polynomial_module_loads_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _NO_POLYNOMIAL],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# A missing group element is a usage error found before the catalog entry
# is built, so the call leaves the entry cache empty.
_MISSING_ELEMENT = """
import sys
from grade3 import catalog, cli
code = cli.main([{verb!r}, "--demo", "poincare3"])
assert catalog.get_entry.cache_info().currsize == 0, "the catalog entry was built"
sys.exit(code)
"""


@pytest.mark.parametrize("verb", ["member", "factor", "polar"])
def test_missing_element_is_reported_before_the_catalog_build(verb):
    proc = subprocess.run([sys.executable, "-c", _MISSING_ELEMENT.format(verb=verb)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: need a group element via --g or a 'g' file entry\n")


# A verb that imports scipy on first use still writes nothing to stderr.
@pytest.mark.parametrize("argv", [
    ["demo", "solvable"],
    ["roots", "--demo", "su2"],
    ["roots", "--demo", "sl2+sl2"],
    ["grade", "--demo", "jacobi3"],
    ["modular", "--random", "4", "--seed", "1"],
])
def test_first_use_imports_write_nothing_to_stderr(argv):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "grade3", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


@pytest.mark.parametrize("name", ["poincare3", "jacobi1"])
def test_member_file_with_embedded_demo_cone(capsys, tmp_path, name):
    # the setting `demo` prints, cone included, answers like --demo
    code, demo = run_json(capsys, "demo", name, "--json")
    assert code == 0
    g = json.dumps(demo["example"]["semigroup_element"])
    entry = demo["entry"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({k: entry[k] for k in ("algebra", "h", "cone")}))
    for argv in ([], ["--tol", "1e-15"]):
        code_file, from_file = run_json(capsys, "member", "--file", str(path), "--g", g, *argv)
        code_demo, from_demo = run_json(capsys, "member", "--demo", name, "--g", g, *argv)
        assert code_file == code_demo == 0
        assert from_file == from_demo


def test_embedded_cone_without_injection_is_usage_error(capsys, tmp_path):
    entry = catalog.get_entry("poincare3")
    cone = entry.cone.to_json()
    del cone["inject"]
    doc = {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h],
           "cone": cone, "g": np.eye(4).tolist()}
    path = tmp_path / "no_inject.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "member", "--file", str(path))
    assert code == 2 and out == "" and "inject" in err


@pytest.mark.filterwarnings("error")
def test_embedded_cone_with_complex_injection_is_usage_error(capsys, tmp_path):
    # a matrix object may carry "im"; the imaginary part is not dropped
    entry = catalog.get_entry("poincare3")
    cone = entry.cone.to_json()
    cone["inject"]["im"] = [0.5] * len(cone["inject"]["re"])
    doc = {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h],
           "cone": cone}
    path = tmp_path / "complex_inject.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "member", "--file", str(path),
                             "--g", json.dumps(np.eye(4).tolist()))
    assert code == 2 and out == "" and "inject" in err


@pytest.mark.parametrize("verb", ["member", "factor", "polar"])
def test_file_is_read_once(capsys, tmp_path, monkeypatch, verb):
    entry = catalog.get_entry("sl2")
    doc = {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h],
           "cone": entry.cone.to_json(), "g": [[2.0, 1.0], [1.0, 1.0]]}
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    reads = []
    original = cli._read_file
    monkeypatch.setattr(cli, "_read_file", lambda p: reads.append(p) or original(p))
    code, _, _ = run_cli(capsys, verb, "--file", str(path))
    assert code == 0 and reads == [str(path)]


def test_member_file_cone_without_size_is_usage_error(capsys, tmp_path):
    entry = catalog.get_entry("sl2")
    doc = {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h],
           "cone": {"kind": "light_cone"}, "g": [[2.0, 1.0], [1.0, 1.0]]}
    path = tmp_path / "sizeless_cone.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "member", "--file", str(path))
    assert code == 2 and out == "" and "cone" in err


@pytest.mark.parametrize("doc", [
    {"a": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "b": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]},
    {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]},
], ids=["not_square", "shapes_differ"])
def test_monotone_file_bad_shapes_are_usage_errors(capsys, tmp_path, doc):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "monotone", "--file", str(path))
    assert code == 2 and out == "" and "square" in err


def _sl2_setting(**entries):
    entry = catalog.get_entry("sl2")
    return {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h],
            **entries}


# Each value is malformed, so reading it exits 2 before any kernel call.
@pytest.mark.parametrize("argv,doc", [
    (["roots", "--demo", "sl2", "--x0", "[NaN]"], None),
    (["roots", "--demo", "sl2", "--x0", "[Infinity]"], None),
    (["roots", "--demo", "sl2", "--x0", '"abc"'], None),
    (["roots", "--demo", "sl2", "--x0", '{"a": 1}'], None),
    (["roots", "--demo", "sl2", "--x0", "[[1.0]]"], None),
    (["grade"], _sl2_setting(h=[float("nan"), 0.0, 0.0])),
    (["grade"], _sl2_setting(h=[float("inf"), 0.0, 0.0])),
    (["grade"], _sl2_setting(h=[[0.0, 1.0, -1.0]])),
    (["monotone"], {"a": [[float("nan"), 0.0], [0.0, 1.0]], "b": np.eye(2).tolist()}),
    (["roots"], {"algebra": catalog.root_fixture("sl2")[0].to_json(),
                 "cartan": [[float("nan"), 1.0, -1.0]]}),
    (["member", "--g", "[[2,1],[1,1]]"], _sl2_setting(cone={
        "kind": "polyhedral", "generators": [[0.0, 1.0, float("nan")]]})),
    (["member", "--g", "[[2,1],[1,1]]"], _sl2_setting(cone={
        "kind": "polyhedral", "generators": [[0.0, 1.0, 0.0], [float("inf"), 0.0, 0.0]]})),
], ids=["x0_nan", "x0_inf", "x0_string", "x0_object", "x0_matrix", "h_nan",
        "h_inf", "h_matrix", "a_nan", "cartan_nan", "generators_nan", "generators_inf"])
def test_malformed_values_are_usage_errors(capsys, tmp_path, argv, doc):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("demo,g", [
    ("sl2", "[[1,2],[2,4]]"),
    ("poincare3", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,0]]"),
    ("sl2", "[[1e-310,0],[0,1]]"),  # the inverse overflows to inf
    ("poincare3", "[[1e-310,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"),
], ids=["sl2", "poincare3", "sl2_subnormal", "poincare3_subnormal"])
def test_polar_singular_element_is_domain_error(capsys, demo, g):
    code, payload = run_json(capsys, "polar", "--demo", demo, "--g", g)
    assert code == 1 and payload["error"] == "NotPolar"
    assert payload["detail"].startswith("g is numerically singular")


# Every verb takes --json; beyond it, the flags each verb reads.
_VERB_ARGV = {
    "grade": (["grade", "--demo", "sl2"], ()),
    "member": (["member", "--demo", "sl2", "--g", "[[2,1],[1,1]]"], ("--tol",)),
    "factor": (["factor", "--demo", "sl2", "--g", "[[2,1],[1,1]]"], ("--tol",)),
    "polar": (["polar", "--demo", "sl2", "--g", "[[2,1],[1,1]]"], ("--tol",)),
    "roots": (["roots", "--demo", "sl2"], ("--tol",)),
    "modular": (["modular", "--random", "2"], ("--tol", "--seed")),
    "demo": (["demo", "sl2"], ("--tol", "--seed")),
    "monotone": (["monotone", "--random", "2"], ("--tol", "--seed", "--samples")),
    "verify": (["verify", "grading"], ("--tol", "--seed", "--samples")),
}
_FLAG_VALUE = {"--tol": "1e-9", "--seed": "1", "--samples": "5"}


@pytest.mark.parametrize("verb,flag", [
    (verb, flag) for verb, (_, kept) in _VERB_ARGV.items()
    for flag in _FLAG_VALUE if flag not in kept])
def test_verb_rejects_flag_it_does_not_read(capsys, verb, flag):
    argv, _ = _VERB_ARGV[verb]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, _FLAG_VALUE[flag]])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("verb", list(_VERB_ARGV))
def test_verb_parses_every_flag_it_reads(capsys, verb):
    argv, kept = _VERB_ARGV[verb]
    extra = [a for flag in kept for a in (flag, _FLAG_VALUE[flag])]
    code, out, _ = run_cli(capsys, *argv, *extra, "--json")
    assert code == 0
    assert out.count("\n") == 1 and json.loads(out)


def test_grade_ignores_tolerance_environment(capsys, monkeypatch):
    monkeypatch.setenv("GRADE3_TOL", "banana")
    code, payload = run_json(capsys, "grade", "--demo", "sl2")
    assert code == 0 and payload == {"dims": [1, 1, 1]}


@pytest.mark.parametrize("verb", list(_VERB_ARGV))
def test_verb_help(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: grade3 {verb} ")


def _roots_doc(cartan):
    return {"algebra": catalog.root_fixture("sl2")[0].to_json(), "cartan": cartan}


@pytest.mark.parametrize("cartan", [
    [[1.0, 0.0]], [0.0, 1.0, -1.0, 0.0], [], [[]],
    {"rows": 0, "cols": 3, "re": []},
], ids=["narrow_row", "wide_flat_row", "empty", "empty_row", "no_rows"])
def test_roots_file_bad_cartan_rows_are_usage_errors(capsys, tmp_path, cartan):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(_roots_doc(cartan)))
    code, out, err = run_cli(capsys, "roots", "--file", str(path))
    assert code == 2 and out == "" and "file entry 'cartan'" in err


def test_roots_file_dependent_cartan_rows_are_not_cartan(capsys, tmp_path):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(_roots_doc([[0.0, 1.0, -1.0], [0.0, 2.0, -2.0]])))
    code, payload = run_json(capsys, "roots", "--file", str(path))
    assert code == 1 and payload["error"] == "NotCartan"


def test_member_file_flat_polyhedral_generators(capsys, tmp_path):
    outs = []
    for gens in ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]):
        path = tmp_path / "member.json"
        path.write_text(json.dumps(_sl2_setting(
            cone={"kind": "polyhedral", "generators": gens}, g=[[2.0, 1.0], [1.0, 1.0]])))
        outs.append(run_cli(capsys, "member", "--file", str(path)))
    assert outs[0] == outs[1] and outs[0][0] == 0
    path.write_text(json.dumps(_sl2_setting(
        cone={"kind": "polyhedral", "generators": [[[1.0, 0.0, 0.0]]]})))
    code, out, err = run_cli(capsys, "member", "--file", str(path))
    assert code == 2 and out == "" and "bad cone object" in err


def _diag(*entries):
    return json.dumps(np.diag(entries).tolist())


# diag(s, 1, 1, 1) is not in the Poincare group; past s = 1e154 the norms of
# the conjugation overflow, which must not open the residual gate.
@pytest.mark.parametrize("verb", ["member", "factor", "polar"])
@pytest.mark.parametrize("s", [1e160, 1e200])
def test_overflowed_residual_is_adjoint_out_of_span(capsys, verb, s):
    with np.errstate(over="ignore", invalid="ignore"):
        code, payload = run_json(capsys, verb, "--demo", "poincare3",
                                 "--g", _diag(s, 1.0, 1.0, 1.0))
    assert code == 1 and payload["error"] == "AdjointOutOfSpan"


# A valid element whose scale overflows still passes its (zero) residuals.
@pytest.mark.parametrize("verb", ["member", "factor", "polar"])
def test_extreme_valid_element_still_answers(capsys, verb):
    with np.errstate(over="ignore", invalid="ignore"):
        code, payload = run_json(capsys, verb, "--demo", "sl2",
                                 "--g", _diag(1e160, 1e-160))
    assert code == 0 and "error" not in payload


# Overflow and NaN inside a verb are for the gates to judge; numpy's warnings
# about them must not reach stderr.  pytest captures warnings apart from
# capsys, so they are raised as errors here.
@pytest.mark.parametrize("argv, code", [
    (["factor", "--demo", "sl2", "--g", _diag(1e160, 1e-160)], 0),
    (["member", "--demo", "poincare3", "--g", _diag(1e160, 1.0, 1.0, 1.0)], 1),
    (["member", "--demo", "sl2", "--g", _diag(1e160, 1e-160), "--tol", "0"], 1),
    (["factor", "--demo", "sl2", "--g", _diag(1e-310, 1.0), "--order=-0+"], 1),
    (["member", "--demo", "sl2", "--g", _diag(1e-310, 1.0)], 1),
])
def test_overflow_warnings_stay_off_stderr(capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "") and json.loads(out)


def test_zero_tolerance_reports_a_zero_gate_at_overflowed_scale(capsys):
    with np.errstate(over="ignore"):
        code, payload = run_json(capsys, "member", "--demo", "sl2",
                                 "--g", _diag(1e160, 1e-160), "--tol", "0")
    assert code == 1 and payload["error"] == "AdjointOutOfSpan"
    assert payload["detail"].endswith("above gate 0.000e+00 at scale inf")


# Past 1e154 a squared data scale overflows to inf, which the gates judge: the
# basis of sl2 scaled by 1e160 is refused as a bad algebra (exit 2), and Cartan
# rows scaled by 1e160 as not abelian (exit 1), with no traceback.
def test_overflowed_squared_scales_reach_the_gates(capsys, tmp_path):
    alg = catalog.get_entry("sl2").algebra.to_json()
    alg["basis"] = [dict(b, re=[1e160 * v for v in b["re"]]) for b in alg["basis"]]
    path = tmp_path / "grade.json"
    path.write_text(json.dumps({"algebra": alg, "h": [1.0, 0.0, 0.0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "grade", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: bad algebra document: bracket does not close over the basis: "
                   "residual nan above gate inf at scale inf\n")
    algebra, cartan, _ = catalog.root_fixture("sl2+sl2")
    path = tmp_path / "roots.json"
    path.write_text(json.dumps({"algebra": algebra.to_json(),
                                "cartan": (1e160 * np.atleast_2d(cartan)).tolist()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "roots", "--file", str(path))
    assert code == 1 and payload == {
        "error": "NotCartan",
        "detail": "cartan subalgebra is not abelian: residual nan above gate inf at scale inf"}


# Ad(g)h of this finite element is finite, but twice its degree -1 part
# overflows on the right side of the x- system: the element is refused as
# outside the open cell, in both orders, with a JSON error document.
@pytest.mark.parametrize("order", ["+0-", "-0+"])
def test_factor_with_an_overflowing_system_is_not_in_the_open_cell(capsys, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "factor", "--demo", "sl2", "--g",
                                 "[[1,0],[1.5e308,1]]", f"--order={order}")
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "NotInOpenCell"
