"""Fixed, seeded operation lists for the three benchmark workloads.

Each builder turns a seed into a list of ``Op`` records. An op holds the
call to time and a judge that checks the result against a reference the
benchmark computes itself: a mathematical property of the constructed
input, a closed-form oracle, or a recomputation with numpy/scipy from the
printed output. No result is compared with a stored copy of an earlier one.

The judge returns an ``Outcome``:

* ``ok``: the result agrees with its reference.
* ``failed``: the call hit one of the program's known faults (named by
  ``detail``); it is counted in ``failed`` and leaves ``correct`` true.
* ``wrong``: anything else; the run then reports ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from grade3 import catalog, cli, modular, numkit, semigroup, verify
from grade3.errors import AdjointOutOfSpan, NotInOpenCell
from grade3.liealg import GroupElement

EPS = 2.0**-53
WORKLOADS = ("semigroup_queries", "verify_suites", "cli_session")

# Semigroup elements at sampler scales 2 and 5 hit the known faults on some
# draws (ROADMAP item 2; at scale 2 rarely, e.g. jacobi3), so they come from
# a fixed generator instead of --seed: the faults then fail the same
# operations in every run and the failed share does not depend on the seed.
# The seeded stream keeps scale 0.5, where the answers are expected to hold.
SEEDED_SCALE = 0.5
FIXED_SCALES = (2.0, 5.0)
FIXED_SEED = 1912          # seed of the fixed block; never --seed
POLAR_SCALE = 0.3          # catalog.sample_polar_domain's principal-branch scale
GENERIC_ENTRIES = ("sl2", "poincare3", "poincare4", "solvable")
GENERIC_SCALES = (0.5, 2.0)
PER_CELL = 2               # elements per (entry, scale) cell

VERIFY_SUITES = ("grading", "cones", "semigroup", "modular", "roots")
VERIFY_SAMPLES = (6, 12)


@dataclass(frozen=True)
class Outcome:
    status: str                    # "ok", "failed" or "wrong"
    detail: str = ""
    digits: float | None = None    # -log10 of the relative error, if numeric


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    judge: Callable[[object, BaseException | None], Outcome]
    inputs: bytes          # what the call is given, for the determinism test


def digits_of(err: float) -> float:
    """Correct decimal digits for a relative error. Errors below the unit
    roundoff count as full double precision: digits past it are noise."""
    if not math.isfinite(err):
        return 0.0
    return -math.log10(max(err, EPS))


def rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(1.0, float(np.linalg.norm(b))))


def _mat(alg, x) -> np.ndarray:
    m = np.einsum("i,iab->ab", np.asarray(x, dtype=float), alg.basis)
    return m.real


def _exp(alg, x) -> np.ndarray:
    return scipy.linalg.expm(_mat(alg, x))


def _clip(x: np.ndarray, scale: float) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    return x * (scale / nrm) if nrm > scale else x


def _factor_bound(g: np.ndarray) -> float:
    """Accepted relative error of a recovered factor: forward error grows
    with the condition number of the constructed element."""
    return 1e-6 + 1e3 * EPS * float(np.linalg.cond(g))


def _unexpected(exc: BaseException) -> Outcome:
    return Outcome("wrong", f"{type(exc).__name__}: {exc}")


def _s_triple(entry, rng, scale):
    """(x+, g0, x-): x+ in C+, x- in C-, g0 = exp(y) with y of degree 0."""
    alg = entry.algebra
    xp = _clip(entry.cone_plus.sample(rng), scale)
    xm = _clip(entry.cone_minus.sample(rng), scale)
    g0 = _exp(alg, entry.grading.p_zero @ (scale * rng.normal(size=alg.dim)))
    return xp, g0, xm


def _product(alg, triple, order):
    """exp(x+) g0 exp(x-) for order "+0-", exp(x-) g0 exp(x+) for "-0+";
    the paper's theorem puts both in the compression semigroup."""
    xp, g0, xm = triple
    if order == "+0-":
        return _exp(alg, xp) @ g0 @ _exp(alg, xm)
    return _exp(alg, xm) @ g0 @ _exp(alg, xp)


def _triple_error(x_plus, g0, x_minus, triple) -> float:
    return max(rel(x_plus, triple[0]), rel(g0, triple[1]), rel(x_minus, triple[2]))


def _polar_pair(entry, rng):
    """(g0, x) with g0 = exp(y), y of degree 0 and x odd under tau."""
    alg, gd = entry.algebra, entry.grading
    g0 = _exp(alg, gd.p_zero @ (POLAR_SCALE * rng.normal(size=alg.dim)))
    x = (gd.p_plus + gd.p_minus) @ (POLAR_SCALE * rng.normal(size=alg.dim))
    return g0, x


# -- semigroup_queries ----------------------------------------------------


def _member_op(kind, label, entry, m, expect, in_s):
    """Membership query; expect is the theorem's or the oracle's verdict and
    in_s says the element was built inside the semigroup."""
    parts = (entry.cone_plus, entry.cone_minus)

    def call():
        g = GroupElement(entry.algebra, m)
        if kind == "member_ShC":
            return semigroup.member_ShC(g, entry.grading, entry.cone)
        return semigroup.member_decomposed(g, entry.grading, entry.cone, parts=parts)

    def judge(res, exc):
        if isinstance(exc, AdjointOutOfSpan):
            return Outcome("failed", "adjoint_out_of_span")
        if exc is not None:
            return _unexpected(exc)
        if res == expect:
            return Outcome("ok")
        if in_s and not res:
            return Outcome("failed", f"{kind}_false_on_S")
        return Outcome("wrong", f"{label}: got {res}, reference {expect}")
    return Op(f"{kind}/{label}", call, judge, m.tobytes())


def _factor_op(label, entry, order, triple):
    m = _product(entry.algebra, triple, order)
    bound = _factor_bound(m)

    def call():
        return semigroup.triangular_factor(GroupElement(entry.algebra, m),
                                           entry.grading, order)

    def judge(f, exc):
        if isinstance(exc, NotInOpenCell):
            return Outcome("failed", "not_in_open_cell")
        if isinstance(exc, AdjointOutOfSpan):
            return Outcome("failed", "adjoint_out_of_span")
        if exc is not None:
            return _unexpected(exc)
        err = _triple_error(f.x_plus, f.g0.matrix, f.x_minus, triple)
        if not err <= bound:
            return Outcome("wrong", f"{label}: factor error {err:.3e} > {bound:.3e}")
        return Outcome("ok", digits=digits_of(err))
    return Op(label, call, judge, m.tobytes())


def _polar_op(label, entry, pair):
    g0, x = pair
    m = g0 @ _exp(entry.algebra, x)
    bound = _factor_bound(m)

    def call():
        return semigroup.polar_factor(GroupElement(entry.algebra, m), entry.grading)

    def judge(f, exc):
        if exc is not None:
            return _unexpected(exc)
        err = max(rel(f.x, x), rel(f.g0.matrix, g0))
        if not err <= bound:
            return Outcome("wrong", f"{label}: polar error {err:.3e} > {bound:.3e}")
        return Outcome("ok", digits=digits_of(err))
    return Op(label, call, judge, m.tobytes())


def _semigroup_cell(entry, rng, scale, tag) -> list[Op]:
    """Ops on one semigroup element exp(x+) g0 exp(x-) and its mirror."""
    triple = _s_triple(entry, rng, scale)
    plus = _product(entry.algebra, triple, "+0-")
    name = f"{entry.name}/s{scale:g}/{tag}"
    return [
        _member_op("member_ShC", name, entry, plus, True, True),
        _member_op("member_decomposed", name, entry, plus, True, True),
        _factor_op(f"triangular_factor+0-/{name}", entry, "+0-", triple),
        _factor_op(f"triangular_factor-0+/{name}", entry, "-0+", triple),
    ]


def semigroup_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops: list[Op] = []
    for name in catalog.ENTRY_NAMES:
        entry = catalog.get_entry(name)
        alg = entry.algebra
        for k in range(PER_CELL):
            ops += _semigroup_cell(entry, rng, SEEDED_SCALE, f"seed{k}")
        ops.append(_polar_op(f"polar_factor/{name}/seed", entry, _polar_pair(entry, rng)))
        if name in GENERIC_ENTRIES:
            oracle = entry.extras["member_direct"]
            for scale in GENERIC_SCALES:
                for k in range(PER_CELL):
                    m = (_exp(alg, scale * rng.normal(size=alg.dim))
                         @ _exp(alg, scale * rng.normal(size=alg.dim)))
                    expect = oracle(GroupElement(alg, m))
                    tag = f"{name}/s{scale:g}/generic{k}"
                    for kind in ("member_ShC", "member_decomposed"):
                        ops.append(_member_op(kind, tag, entry, m, expect, False))
    for i, name in enumerate(catalog.ENTRY_NAMES):
        fixed = np.random.default_rng([FIXED_SEED, i])
        for scale in FIXED_SCALES:
            ops += _semigroup_cell(catalog.get_entry(name), fixed, scale, "fixed")
    return ops


# -- verify_suites --------------------------------------------------------


def _suite_op(suite, seed, samples) -> Op:
    label = f"run_suite/{suite}/seed{seed}/n{samples}"

    def call():
        return verify.run_suite(suite, seed=seed, samples=samples)

    def judge(rep, exc):
        if exc is not None:
            return _unexpected(exc)
        why = _suite_problem(rep)
        if why is not None:
            return Outcome("wrong", f"{label}: {why}")
        worst = max((c["value"] for c in rep["checks"]
                     if c["statistic"] == "max_violation"), default=0.0)
        return Outcome("ok", digits=digits_of(worst))
    return Op(label, call, judge, label.encode())


def _suite_problem(rep) -> str | None:
    """Why a single-suite report is not a clean pass, or None."""
    for c in rep["checks"]:
        value, thr = c["value"], c["threshold"]
        if not (math.isfinite(value) and math.isfinite(thr)):
            return f"{c['name']} is not finite"
        holds = value >= thr if c["statistic"] == "min_margin" else value <= thr
        if holds != c["pass"]:
            return f"{c['name']} pass flag disagrees with its value"
    if rep["pass"] != all(c["pass"] for c in rep["checks"]):
        return "suite pass flag disagrees with its checks"
    return None if rep["pass"] else "a check failed"


def verify_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    seeds = [int(s) for s in rng.integers(0, 2**31, size=len(VERIFY_SAMPLES))]
    return [_suite_op(suite, s, n)
            for s, n in zip(seeds, VERIFY_SAMPLES) for suite in VERIFY_SUITES]


# -- cli_session ----------------------------------------------------------

# ROADMAP item 3: each of these raises a raw exception out of cli.main.
CRASH_ARGVS = (
    ["roots", "--demo", "sl2", "--x0", "[1.0, 2.0]"],
    ["member", "--demo", "sl2", "--g", "[[1,2],[2,4]]"],
    ["verify", "grading", "--samples", "-5"],
    ["grade", "--file", "{bad_h}"],
)


def run_cli(argv):
    """cli.main in-process with stdout/stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def _jmat(d) -> np.ndarray:
    m = np.asarray(d["re"], dtype=float).reshape(d["rows"], d["cols"])
    if "im" in d:
        m = m + 1j * np.asarray(d["im"], dtype=float).reshape(d["rows"], d["cols"])
    return m


def _check_factor(alg, g, order, triple=None):
    """Rebuild g from the printed factors; with the constructed triple, the
    digits come from how well the factors themselves were recovered."""
    def check(doc):
        xp, xm, g0 = _vec(doc["x_plus"]), _vec(doc["x_minus"]), _jmat(doc["g0"])
        if doc["order"] != order:
            return None, "order field disagrees"
        err = rel(_product(alg, (xp, g0, xm), order), g)
        if triple is not None:
            err = max(err, _triple_error(xp, g0, xm, triple))
        return err, None if err <= _factor_bound(g) else f"factor error {err:.3e}"
    return check


def _check_polar(alg, pair):
    def check(doc):
        g0, x = _jmat(doc["g0"]), _vec(doc["x"])
        g = pair[0] @ _exp(alg, pair[1])
        err = max(rel(g0 @ _exp(alg, x), g), rel(g0, pair[0]), rel(x, pair[1]))
        return err, None if err <= _factor_bound(g) else f"polar error {err:.3e}"
    return check


def _modular_defect(pair) -> float:
    u, d = _jmat(pair["j_unitary"]), _jmat(pair["delta"])
    jdj = u @ d.conj() @ u.conj()
    return float(np.abs(jdj @ d - np.eye(d.shape[0])).max())


def _check_modular(doc):
    err = _modular_defect(doc["pair"])
    if not (err <= 1e-8 and doc["roundtrip_gap"] <= 1e-8):
        return err, f"modular defect {err:.3e}, gap {doc['roundtrip_gap']:.3e}"
    return err, None


def _check_monotone(samples):
    def check(doc):
        ok = (doc["ok"] is True and doc["trials"] == samples
              and doc["min_margin"] >= -1e-9 and doc["resolvent_min_eig"] >= -1e-9)
        return None, None if ok else "log monotonicity certificate failed"
    return check


def _check_member(expect):
    def check(doc):
        return None, None if doc == {"member": expect} else f"member {doc}"
    return check


def _check_grade(dim):
    def check(doc):
        dims = doc["dims"]
        ok = len(dims) == 3 and sum(dims) == dim and dims[0] >= 1 and dims[2] >= 1
        return None, None if ok else f"grading dims {dims} for dim {dim}"
    return check


def _check_roots(tag, rank):
    def check(doc):
        datum = doc["datum"]
        im = [r["im"] for r in datum["roots"]]
        paired = all(any(np.allclose(a, -np.asarray(b)) for b in im) for a in im)
        ok = paired and set(datum["types"]) == {tag} and len(datum["cartan"]) == rank
        if "c_max_generators" in doc:
            ok = ok and len(doc["c_max_generators"]) == 1
        return None, None if ok else "root datum fails its structure check"
    return check


def _check_demo(entry):
    def check(doc):
        ex = doc["example"]
        g = _jmat(ex["semigroup_element"])
        err, why = _check_factor(entry.algebra, g, "+0-")(ex["factorization"])
        if ex["member"] is not True:
            why = "demo element reported outside S"
        return err, why
    return check


def _check_verify(doc):
    return None, _suite_problem(doc)


def _check_error(kind):
    def check(doc):
        return None, None if doc.get("error") == kind else f"error document {doc}"
    return check


def _cli_op(argv, expect_code, check=None, crash=False) -> Op:
    label = "cli/" + " ".join(argv)

    def call():
        return run_cli(argv)

    def judge(res, exc):
        if exc is not None:
            if crash:
                return Outcome("failed", f"cli_crash_{type(exc).__name__}")
            return _unexpected(exc)
        code, out = res
        if crash:
            return Outcome("wrong", f"{label}: expected crash, got exit {code}")
        if code not in (0, 1, 2) or code != expect_code:
            return Outcome("wrong", f"{label}: exit {code}, expected {expect_code}")
        if code == 2:
            return Outcome("ok") if out == "" else Outcome("wrong", "usage error on stdout")
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return Outcome("wrong", f"{label}: stdout is not one JSON document")
        if ("--json" in argv) != (out.count("\n") == 1):
            return Outcome("wrong", f"{label}: wrong output form")
        if check is None:
            return Outcome("ok")
        err, why = check(doc)
        if why is not None:
            return Outcome("wrong", f"{label}: {why}")
        return Outcome("ok", digits=None if err is None else digits_of(err))
    return Op(label, call, judge, json.dumps(argv).encode())


def _gjson(m) -> str:
    return json.dumps(np.asarray(m).tolist())


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def cli_ops(seed: int, workdir: Path) -> list[Op]:
    """Fixed argv list; --file documents are written into workdir."""
    rng = np.random.default_rng([seed, 3])
    sl2, p3, p4 = (catalog.get_entry(n) for n in ("sl2", "poincare3", "poincare4"))
    j1, j2 = catalog.get_entry("jacobi1"), catalog.get_entry("jacobi2")
    s = str(int(rng.integers(0, 2**31)))

    sl2_t, p4_t, j1_t, p3_t, p4_file_t, sl2_file_t = (
        _s_triple(e, rng, 0.5) for e in (sl2, p4, j1, p3, p4, sl2))
    sl2_plus = _product(sl2.algebra, sl2_t, "+0-")
    p4_plus = _product(p4.algebra, p4_t, "+0-")
    j1_plus = _product(j1.algebra, j1_t, "+0-")
    p3_minus = _product(p3.algebra, p3_t, "-0+")
    p4_file_plus = _product(p4.algebra, p4_file_t, "+0-")
    sl2_file_plus = _product(sl2.algebra, sl2_file_t, "+0-")
    generic = _exp(sl2.algebra, rng.normal(size=3)) @ _exp(sl2.algebra, rng.normal(size=3))
    generic_expect = catalog.sl2_member_direct(GroupElement(sl2.algebra, generic))
    sl2_pair, j1_pair = _polar_pair(sl2, rng), _polar_pair(j1, rng)
    sl2_polar = sl2_pair[0] @ _exp(sl2.algebra, sl2_pair[1])
    j1_polar = j1_pair[0] @ _exp(j1.algebra, j1_pair[1])

    def setting(entry, g=None, cone=True):
        doc = {"algebra": entry.algebra.to_json(), "h": [float(v) for v in entry.h]}
        if cone:
            doc["cone"] = entry.cone.to_json()
        if g is not None:
            doc["g"] = np.asarray(g).tolist()
        return doc

    subspace = modular.StandardSubspace(rng.normal(size=(8, 8))
                                        + 1j * rng.normal(size=(8, 8)))
    r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = r.conj().T @ r + 0.1 * np.eye(6)
    mm = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = a + mm.conj().T @ mm

    files = {
        "jacobi2": _write(workdir / "jacobi2.json", setting(j2, cone=False)),
        "sl2_member": _write(workdir / "sl2_member.json", setting(sl2, sl2_file_plus)),
        "p4_factor": _write(workdir / "p4_factor.json",
                            setting(p4, p4_file_plus, cone=False)),
        "sl2_polar": _write(workdir / "sl2_polar.json", setting(sl2, sl2_polar)),
        "subspace": _write(workdir / "subspace.json", subspace.to_json()),
        "pair": _write(workdir / "pair.json", {"a": numkit.matrix_to_json(a),
                                               "b": numkit.matrix_to_json(b)}),
        "bad_h": _write(workdir / "bad_h.json",
                        {"algebra": sl2.algebra.to_json(), "h": [1.0, 0.0]}),
    }
    demo = catalog.DEMO_NAMES[int(rng.integers(len(catalog.DEMO_NAMES)))]
    grade_entries = [catalog.ENTRY_NAMES[int(i)]
                     for i in rng.choice(len(catalog.ENTRY_NAMES), 3, replace=False)]

    base = []
    for name in grade_entries:
        base.append((["grade", "--demo", name], 0,
                     _check_grade(catalog.get_entry(name).algebra.dim)))
    base += [
        (["grade", "--file", files["jacobi2"]], 0, _check_grade(j2.algebra.dim)),
        (["member", "--demo", "sl2", "--g", _gjson(sl2_plus)], 0, _check_member(True)),
        (["member", "--demo", "poincare4", "--g", _gjson(p4_plus)], 0,
         _check_member(True)),
        (["member", "--demo", "sl2", "--g", _gjson(generic)], 0,
         _check_member(generic_expect)),
        (["member", "--file", files["sl2_member"]], 0, _check_member(True)),
        (["factor", "--demo", "jacobi1", "--g", _gjson(j1_plus)], 0,
         _check_factor(j1.algebra, j1_plus, "+0-", j1_t)),
        (["factor", "--demo", "poincare3", "--g", _gjson(p3_minus), "--order=-0+"], 0,
         _check_factor(p3.algebra, p3_minus, "-0+", p3_t)),
        (["factor", "--file", files["p4_factor"]], 0,
         _check_factor(p4.algebra, p4_file_plus, "+0-", p4_file_t)),
        (["polar", "--demo", "jacobi1", "--g", _gjson(j1_polar)], 0,
         _check_polar(j1.algebra, j1_pair)),
        (["polar", "--file", files["sl2_polar"]], 0, _check_polar(sl2.algebra, sl2_pair)),
        (["modular", "--file", files["subspace"]], 0, _check_modular),
        (["monotone", "--file", files["pair"]], 0, _check_monotone(200)),
        (["roots", "--demo", "sl2", "--x0", "[1.0]"], 0,
         _check_roots("noncompact_simple", 1)),
        (["roots", "--demo", "su2"], 0, _check_roots("compact", 1)),
        (["demo", demo, "--seed", s], 0, _check_demo(catalog.get_entry(demo))),
        (["verify", "roots", "--seed", s, "--samples", "10"], 0, _check_verify),
        (["factor", "--demo", "sl2", "--g", "[[0,1],[-1,0]]"], 1,
         _check_error("NotInOpenCell")),
        (["member", "--demo", "sl2"], 2, None),
        (["grade", "--demo", "nosuch"], 2, None),
    ]
    for n in (4, 16, 48):
        base.append((["modular", "--random", str(n), "--seed", s], 0, _check_modular))
        base.append((["monotone", "--random", str(n), "--seed", s, "--samples", "50"], 0,
                     _check_monotone(50)))

    ops = []
    for form in ([], ["--json"]):
        for argv, code, check in base:
            ops.append(_cli_op(argv + form, code, check))
        for argv in CRASH_ARGVS:
            argv = [files["bad_h"] if a == "{bad_h}" else a for a in argv]
            ops.append(_cli_op(argv + form, None, crash=True))
    return ops


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    if workload == "semigroup_queries":
        return semigroup_ops(seed)
    if workload == "verify_suites":
        return verify_ops(seed)
    if workload == "cli_session":
        return cli_ops(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
