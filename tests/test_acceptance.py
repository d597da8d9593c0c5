"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line (run with -s to see them on success).

Every criterion draws its own seeded generator, so the whole module is
reproducible in isolation and in any test order.
"""

import time

import numpy as np
import scipy.linalg

from grade3 import catalog, modular, roots, verify
from grade3.cones import graded_parts
from grade3.errors import NotInOpenCell
from grade3.liealg import GroupElement
from grade3.numkit import Tolerance
from grade3.semigroup import member_ShC, triangular_factor


def _line(num: int, ok: bool, text: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_01_sl2_closed_form():
    entry = catalog.get_entry("sl2")
    rng = np.random.default_rng(1)
    tol = Tolerance(1e-9)
    mats = []
    for _ in range(10_000):
        x = 0.7 * rng.normal(size=3)
        y = 0.7 * rng.normal(size=3)
        mats.append(GroupElement.exp(entry.algebra, x).matrix
                    @ GroupElement.exp(entry.algebra, y).matrix)
    start = time.perf_counter()
    bad = 0
    for m in mats:
        g = GroupElement(entry.algebra, m)
        lib = member_ShC(g, entry.grading, entry.cone, tol)
        (a, b), (c, d) = m
        closed = (a * b >= -tol.value and c * d >= -tol.value
                  and b * c >= -tol.value)
        if lib != closed:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 2.0
    _line(1, ok, f"sl2 closed form, 10^4 samples, {bad} disagreements, "
                 f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_decomposition_theorem():
    rng = np.random.default_rng(2)
    products_bad = 0
    slack_worst = np.inf
    for name in ("sl2", "poincare3"):
        entry = catalog.get_entry(name)
        parts = graded_parts(entry.cone, entry.grading)
        cp, cm = parts
        for i in range(1000):
            xp = cp.sample(rng)
            xm = cm.sample(rng)
            g0 = catalog.sample_stabilizer(entry, rng, scale=0.4)
            ep = GroupElement.exp(entry.algebra, xp)
            em = GroupElement.exp(entry.algebra, xm)
            g = (ep @ g0 @ em) if i % 2 == 0 else (em @ g0 @ ep)
            if not member_ShC(g, entry.grading, entry.cone):
                products_bad += 1
        for _ in range(1000):
            g = catalog.sample_semigroup_element(entry, rng)
            assert member_ShC(g, entry.grading, entry.cone)
            for order in ("+0-", "-0+"):
                f = triangular_factor(g, entry.grading, order)
                slack_worst = min(slack_worst,
                                  -cp.violation(f.x_plus),
                                  -cm.violation(f.x_minus))
    ok = products_bad == 0 and slack_worst >= -1e-8
    _line(2, ok, f"decomposition on sl2+poincare3, {products_bad} bad "
                 f"products, worst factor slack {slack_worst:.2e}")
    assert ok


def test_criterion_03_factorization_fidelity():
    worst_res = 0.0
    worst_idem = 0.0
    for name in catalog.ENTRY_NAMES:
        entry = catalog.get_entry(name)
        rng = np.random.default_rng([3, entry.algebra.dim])
        for _ in range(1000):
            g = catalog.sample_semigroup_element(entry, rng)
            f = triangular_factor(g, entry.grading)
            recon = (GroupElement.exp(entry.algebra, f.x_plus) @ f.g0
                     @ GroupElement.exp(entry.algebra, f.x_minus))
            worst_res = max(worst_res,
                            float(np.linalg.norm(recon.matrix - g.matrix)))
            f2 = triangular_factor(recon, entry.grading)
            worst_idem = max(
                worst_idem,
                float(np.abs(f2.x_plus - f.x_plus).max()),
                float(np.abs(f2.x_minus - f.x_minus).max()),
                float(np.abs(f2.g0.matrix - f.g0.matrix).max()),
            )
    ok = worst_res <= 1e-9 and worst_idem <= 1e-8
    _line(3, ok, f"factorization fidelity over {len(catalog.ENTRY_NAMES)} "
                 f"entries, residual {worst_res:.2e}, idempotence "
                 f"{worst_idem:.2e}")
    assert ok


def _poincare_sample(entry, rng, kind: str) -> GroupElement:
    d = entry.extras["d"]
    alg = entry.algebra

    def translation(v):
        m = np.eye(d + 1)
        m[:d, d] = v
        return GroupElement(alg, m)

    def wedge_translation():
        v = rng.normal(size=d)
        v[1] = abs(v[0]) + abs(rng.normal())
        return translation(v)

    if kind == "member":
        t = 0.5 * rng.normal()
        boost = GroupElement.exp(alg, t * entry.h)
        g = wedge_translation() @ boost @ wedge_translation()
        if d > 3:
            # SO(d-2) factor commutes with the wedge boost
            rot = np.zeros(alg.dim)
            rot[2 * d - 1] = rng.normal()
            g = g @ GroupElement.exp(alg, rot)
        return g
    if kind == "near":
        if rng.random() < 0.5:
            v = rng.normal(size=d)
            v[1] = -abs(v[0]) - abs(rng.normal()) - 0.01
            return translation(v)
        spoiler = np.zeros(alg.dim)
        spoiler[d + 1] = 0.3 + abs(rng.normal())  # boost K_2 breaks the centralizer
        return wedge_translation() @ GroupElement.exp(alg, spoiler)
    return catalog.sample_group_element(entry, rng, scale=0.6)


def test_criterion_04_poincare_wedge():
    rng = np.random.default_rng(4)
    bad = 0
    for d in (3, 4):
        entry = catalog.get_entry(f"poincare{d}")
        direct = entry.extras["member_direct"]
        tol = Tolerance(1e-8)
        for i in range(10_000):
            kind = ("member", "near", "generic")[i % 3]
            g = _poincare_sample(entry, rng, kind)
            if member_ShC(g, entry.grading, entry.cone, tol) != direct(g, tol):
                bad += 1
    ok = bad == 0
    _line(4, ok, f"poincare wedge closed form, d=3,4 x 10^4 samples, "
                 f"{bad} disagreements")
    assert ok


def test_criterion_05_modular_relation():
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    worst_gap = 0.0
    for i in range(1000):
        n = 2 + i % 7  # dimensions 2..8
        v = modular.random_standard_subspace(n, rng)
        pair = modular.modular_pair(v)
        jdj = pair.j_unitary @ pair.delta.conj() @ pair.j_unitary.conj().T
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(jdj @ pair.delta - np.eye(n), 2)))
        back = modular.standard_from_pair(pair)
        worst_gap = max(worst_gap, modular.subspace_gap_standard(v, back))
    ok = worst_rel <= 1e-10 and worst_gap <= 1e-8
    _line(5, ok, f"modular relation 10^3 subspaces, |JDJ.D - 1| {worst_rel:.2e}, "
                 f"roundtrip gap {worst_gap:.2e}")
    assert ok


def test_criterion_06_graph_projection():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(1000):
        m = 1 + i % 8
        n = 1 + (i // 8) % 8
        scale = (0.3, 1.0, 4.0)[i % 3]
        s = scale * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        p = modular.graph_projection(s)
        p11 = np.linalg.inv(np.eye(n) + s.conj().T @ s)
        worst = max(worst, float(np.abs(p[:n, :n] - p11).max()))
    ok = worst <= 1e-10
    _line(6, ok, f"graph projection block formula, 10^3 samples incl "
                 f"rectangular, max deviation {worst:.2e}")
    assert ok


def test_criterion_07_log_integral():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        z = complex(10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(-10.0, 10.0))
        worst = max(worst, abs(modular.log_integral(z) - np.log(z)))
    ok = worst <= 1e-6
    _line(7, ok, f"log integral on 100 samples, max error {worst:.2e}")
    assert ok


def test_criterion_08_log_monotonicity():
    rng = np.random.default_rng(8)
    worst_margin = np.inf
    worst_resolvent = np.inf
    for i in range(1000):
        n = 1 + i % 6
        r = rng.normal(size=(n, n))
        a = r.T @ r + 0.1 * np.eye(n)
        m = rng.normal(size=(n, n))
        b = a + m.T @ m
        rep = modular.log_monotone_check(a, b, trials=100,
                                         rng=np.random.default_rng([8, i]))
        worst_margin = min(worst_margin, rep["min_margin"])
        worst_resolvent = min(worst_resolvent, rep["resolvent_min_eig"])
        if i % 100 == 0:
            # independent route through scipy's Schur-Pade matrix logarithm
            log_diff = scipy.linalg.logm(b) - scipy.linalg.logm(a)
            for _ in range(5):
                xi = rng.normal(size=n) + 1j * rng.normal(size=n)
                xi /= np.linalg.norm(xi)
                direct = float(np.real(xi.conj() @ log_diff @ xi))
                worst_margin = min(worst_margin, direct)
    ok = worst_margin >= -1e-9 and worst_resolvent >= -1e-9
    _line(8, ok, f"log monotone 10^3 pairs x 100 vectors, min margin "
                 f"{worst_margin:.2e}, resolvent min eig {worst_resolvent:.2e}")
    assert ok


def test_criterion_09_root_classification():
    entry = catalog.get_entry("sl2")
    datum = roots.root_decomposition(entry.algebra,
                                     np.array([[0.0, 1.0, -1.0]]))
    two_noncompact = (len(datum.roots) == 2
                      and all(t.startswith("noncompact") for t in datum.types))
    cone = roots.c_max(datum, np.array([1.0]))
    gen = datum.cartan.T @ cone.generators[:, 0]
    u = np.array([0.0, 1.0, -1.0])
    aligned = float(np.linalg.norm(gen / np.linalg.norm(gen)
                                   - u / np.linalg.norm(u))) <= 1e-8
    traces_cone = entry.cone.contains(gen) and not entry.cone.contains(-gen)
    su2_datum = roots.root_decomposition(catalog.build_su2(),
                                         np.array([[1.0, 0.0, 0.0]]))
    su2_compact = su2_datum.types == ["compact", "compact"]
    ok = two_noncompact and aligned and traces_cone and su2_compact
    _line(9, ok, f"roots: sl2 noncompact pair {two_noncompact}, c_max trace "
                 f"match {aligned and traces_cone}, su2 compact {su2_compact}")
    assert ok


def test_criterion_10_rigidity_substitute():
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    contained_all = True
    for i in range(1000):
        n = 2 + i % 5
        v1 = modular.random_standard_subspace(n, rng)
        t = np.eye(n) + 0.5 * rng.normal(size=(n, n))
        while abs(np.linalg.det(t)) < 1e-3:
            t = np.eye(n) + 0.5 * rng.normal(size=(n, n))
        v2 = modular.StandardSubspace(v1.basis @ t)
        contained_all &= modular.subspace_contained(v1, v2)
        worst_gap = max(worst_gap, modular.subspace_gap_standard(v1, v2))
    suite = verify.run_suite("modular", seed=10, samples=200)
    ok = contained_all and worst_gap <= 1e-8 and suite["pass"]
    _line(10, ok, f"rigidity substitute: 10^3 contained pairs equal "
                  f"(gap {worst_gap:.2e}), modular suite pass={suite['pass']}")
    assert ok
