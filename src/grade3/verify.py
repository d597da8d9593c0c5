"""Seeded invariant suites behind the command line ``verify`` verb.

Each suite draws from its own deterministic generator and reports one
record per invariant: the worst observed statistic, the threshold it is
held to, and a pass flag.  run_suite("all", ...) chains every suite, so
each library-level invariant is reachable from here.
"""

from __future__ import annotations

import numpy as np

from . import catalog, modular, numkit, roots, semigroup
from .cones import gram_to_poly, invariance_check, poly_eval
from .errors import NotInOpenCell, UnknownSuite
from .liealg import GroupElement, ad_image, adjoint, sharp
from .numkit import DEFAULT_TOL, Tolerance

__all__ = ["SUITE_NAMES", "run_suite"]


def _leq(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "statistic": "max_violation", "value": float(value),
            "threshold": float(threshold), "pass": bool(value <= threshold)}


def _geq(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "statistic": "min_margin", "value": float(value),
            "threshold": float(threshold), "pass": bool(value >= threshold)}


def _count(name: str, value: int, threshold: int = 0) -> dict:
    return {"name": name, "statistic": "failures", "value": int(value),
            "threshold": int(threshold), "pass": bool(value <= threshold)}


def _entries():
    return [catalog.get_entry(name) for name in catalog.DEMO_NAMES]


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _unit_cone_sample(cone, rng):
    for _ in range(16):
        x = cone.sample(rng)
        nrm = float(np.linalg.norm(x))
        if nrm > 1e-6:
            return x / nrm
    raise RuntimeError(f"sampler for {cone!r} keeps returning zero")


# -- grading ------------------------------------------------------------


def _tau_bracket_defect(t, tau) -> float:
    """Largest |tau [b_i, b_j] - [tau b_i, tau b_j]| over basis pairs, for
    the ad tensor t and the matrix tau on coefficient vectors: the defect
    of tau ad(b_i) = ad(tau b_i) tau."""
    return float(np.abs(tau @ t - np.tensordot(tau.T, t, 1) @ tau).max(initial=0.0))


def _suite_grading(rng, samples, tol):
    checks = []
    worst = max(catalog.get_entry(n).algebra.jacobi_defect()
                for n in catalog.ENTRY_NAMES)
    checks.append(_leq("jacobi_identity", worst, 1e-10))

    adh = tau_inv = tau_auto = 0.0
    for e in _entries():
        g = e.grading
        adh = max(adh, float(np.abs(e.algebra.ad(e.h) - (g.p_plus - g.p_minus)).max()))
        tau_inv = max(tau_inv, float(np.abs(g.tau @ g.tau - np.eye(e.algebra.dim)).max()))
        tau_auto = max(tau_auto, _tau_bracket_defect(e.algebra.ad_tensor, g.tau))
    checks.append(_leq("adh_equals_projector_difference", adh, 1e-10))
    checks.append(_leq("tau_involution", tau_inv, 1e-10))
    checks.append(_leq("tau_bracket_automorphism", tau_auto, 1e-10))

    entries = _entries()
    worst = 0.0
    for _ in range(samples):
        e = _pick(rng, entries)
        g1 = catalog.sample_group_element(e, rng)
        g2 = catalog.sample_group_element(e, rng)
        defect = np.abs(adjoint(g1 @ g2, tol) - adjoint(g1, tol) @ adjoint(g2, tol))
        worst = max(worst, float(defect.max()))
    checks.append(_leq("ad_multiplicative", worst, 1e-8))

    # Parabolic detection: Ad(g)h in h + g^s iff the trailing factor of the
    # matching triangular order vanishes.  A dead zone avoids counting draws
    # that sit on the decision boundary of both routes at once.
    mism = 0
    for _ in range(samples):
        e = _pick(rng, entries)
        s = 1 if rng.random() < 0.5 else -1
        mode = int(rng.integers(3))
        part = e.grading.part(catalog.sample_algebra_element(e, rng), s * (1 if mode != 2 else -1))
        if mode == 0:
            g = catalog.sample_stabilizer(e, rng) @ GroupElement.exp(e.algebra, part)
        elif mode == 1:
            g = catalog.sample_group_element(e, rng)
        else:
            g = GroupElement.exp(e.algebra, part) @ catalog.sample_stabilizer(e, rng)
        via_r = semigroup.member_P(g, e.grading, s, tol)
        try:
            f = semigroup.triangular_factor(g, e.grading, "+0-" if s == 1 else "-0+", tol)
            trailing = float(np.linalg.norm(f.x_minus if s == 1 else f.x_plus))
        except NotInOpenCell:
            trailing = np.inf
        if via_r and trailing > 100.0 * tol.gate():
            mism += 1
        if not via_r and trailing <= tol.gate():
            mism += 1
    checks.append(_count("parabolic_detection", mism))

    preserved = 0.0
    detects = np.inf
    for _ in range(samples):
        e = _pick(rng, entries)
        gd = e.grading
        eye = np.eye(e.algebra.dim)
        pi_p = gd.p_zero + gd.p_plus
        x1 = gd.part(catalog.sample_algebra_element(e, rng), 1)
        g = GroupElement.exp(e.algebra, x1) @ catalog.sample_stabilizer(e, rng)
        m = adjoint(g, tol)
        preserved = max(preserved,
                        float(np.abs((eye - pi_p) @ m @ pi_p).max()),
                        float(np.abs((eye - gd.p_plus) @ m @ gd.p_plus).max()))
        xm = gd.part(catalog.sample_algebra_element(e, rng), -1)
        nrm = float(np.linalg.norm(xm))
        if nrm > 1e-6:
            mneg = adjoint(GroupElement.exp(e.algebra, xm / nrm), tol)
            detects = min(detects, float(np.abs((eye - pi_p) @ mneg @ pi_p).max()))
    checks.append(_leq("flag_stabilizer_preserved", preserved, 1e-8))
    checks.append(_geq("flag_stabilizer_detects_opposite", detects, 1e-3))

    worst = -np.inf
    for _ in range(samples):
        a = rng.normal(size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        b = rng.normal(size=a.shape[0])
        _, res = numkit.solve_lstsq(a, b)
        worst = max(worst, res - float(np.linalg.norm(b)))
    checks.append(_leq("lstsq_residual_bound", worst, tol.value))
    return checks


# -- cones --------------------------------------------------------------


def _suite_cones(rng, samples, tol):
    checks = []
    entries = _entries()

    worst = 0.0
    for e in entries:
        rep = invariance_check(e.cone, e.algebra, samples=max(10, samples // 4),
                               tol=tol, rng=np.random.default_rng(rng.integers(2**32)),
                               tau=e.grading.tau)
        worst = max(worst, rep["max_ad_violation"], rep["max_tau_violation"])
    checks.append(_leq("cone_ad_and_tau_invariance", worst, 1e-8))

    worst = 0.0
    for _ in range(samples):
        e = _pick(rng, entries)
        x = e.cone.sample(rng)
        worst = max(worst, e.cone_plus.violation(e.grading.part(x, 1)),
                    e.cone_minus.violation(-e.grading.part(x, -1)))
    checks.append(_leq("graded_decomposition", worst, 1e-8))

    mism = 0
    for _ in range(samples):
        e = _pick(rng, entries)
        if rng.random() < 0.5:
            x = catalog.sample_algebra_element(e, rng, scale=1.0)
        else:
            x = (e.cone_plus.sample(rng)
                 + e.grading.part(catalog.sample_algebra_element(e, rng), 0)
                 + e.cone_minus.sample(rng))
        lhs = e.cone.contains(e.algebra.bracket(e.h, x), tol)
        rhs = (e.cone_plus.contains(e.grading.part(x, 1), tol)
               and e.cone_minus.contains(e.grading.part(x, -1), tol))
        mism += lhs != rhs
    checks.append(_count("adh_preimage_equivalence", mism))

    margin = np.inf
    for _ in range(samples):
        e = _pick(rng, entries)
        cone = _pick(rng, (e.cone, e.cone_plus, e.cone_minus))
        x = cone.sample(rng)
        nrm = float(np.linalg.norm(x))
        if nrm > 1e-6:
            margin = min(margin, cone.violation(-x / nrm))
    checks.append(_geq("pointedness", margin, 1e-6))

    worst = 0.0
    axes = np.linspace(-3.0, 3.0, 21)
    grid2 = np.stack(np.meshgrid(axes, axes), axis=-1).reshape(-1, 2)
    for _ in range(samples):
        n = 1 + int(rng.integers(2))
        g = rng.normal(size=(n + 1, n + 1))
        coeffs = gram_to_poly(g.T @ g)
        pts = axes[:, None] if n == 1 else grid2
        vals = poly_eval(coeffs, pts, n)
        worst = max(worst, -float(vals.min()))
    checks.append(_leq("nonneg_poly_grid", worst, 1e-8))
    return checks


# -- semigroup ----------------------------------------------------------


def _suite_semigroup(rng, samples, tol):
    checks = []
    entries = _entries()

    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(2, 9))
        a = numkit.expm(0.4 * rng.normal(size=(m, m)))
        back = numkit.expm(numkit.logm_principal(a, tol))
        worst = max(worst, float(np.linalg.norm(back - a) / np.linalg.norm(a)))
    checks.append(_leq("expm_logm_roundtrip", worst, 1e-8))

    closure = sharp_bad = 0
    for _ in range(samples):
        e = _pick(rng, entries)
        g1 = catalog.sample_semigroup_element(e, rng)
        g2 = catalog.sample_semigroup_element(e, rng)
        closure += not semigroup.member_ShC(g1 @ g2, e.grading, e.cone, tol)
        sharp_bad += not semigroup.member_ShC(sharp(g1), e.grading, e.cone, tol)
    checks.append(_count("semigroup_closure", closure))
    checks.append(_count("sharp_invariance", sharp_bad))

    worst = 0.0
    for _ in range(samples):
        e = _pick(rng, entries)
        g = (catalog.sample_stabilizer(e, rng) if rng.random() < 0.5
             else catalog.sample_semigroup_element(e, rng))
        if semigroup.member_ShC(g, e.grading, e.cone, tol) and \
           semigroup.member_ShC(g.inverse(), e.grading, e.cone, tol):
            worst = max(worst, float(np.linalg.norm(
                ad_image(g, e.grading, tol) - e.grading.h)))
    checks.append(_leq("unit_group_fixes_h", worst, 1e-8))

    dec_entries = [catalog.get_entry(n) for n in ("sl2", "poincare3", "poincare4")]
    mism = 0
    for _ in range(samples):
        e = _pick(rng, dec_entries)
        g = (catalog.sample_semigroup_element(e, rng) if rng.random() < 0.5
             else catalog.sample_group_element(e, rng))
        parts = (e.cone_plus, e.cone_minus)
        if semigroup.member_ShC(g, e.grading, e.cone, tol) != \
           semigroup.member_decomposed(g, e.grading, e.cone, tol, parts=parts):
            mism += 1
    checks.append(_count("decomposition_equivalence", mism))

    worst = 0.0
    for _ in range(samples):
        e = _pick(rng, entries)
        xp = 0.4 * _unit_cone_sample(e.cone_plus, rng)
        xm = 0.4 * _unit_cone_sample(e.cone_minus, rng)
        g0 = catalog.sample_stabilizer(e, rng, scale=0.3)
        for order, first, last in (("+0-", xp, xm), ("-0+", xm, xp)):
            g = (GroupElement.exp(e.algebra, first) @ g0
                 @ GroupElement.exp(e.algebra, last))
            f = semigroup.triangular_factor(g, e.grading, order, tol)
            worst = max(worst,
                        float(np.linalg.norm(f.x_plus - xp)),
                        float(np.linalg.norm(f.x_minus - xm)),
                        float(np.abs(f.g0.matrix - g0.matrix).max()))
    checks.append(_leq("factorization_uniqueness", worst, 1e-8))

    wedge_bad = 0
    for _ in range(samples):
        e = _pick(rng, entries)
        cp = _unit_cone_sample(e.cone_plus, rng)
        cm = _unit_cone_sample(e.cone_minus, rng)
        y0 = e.grading.part(catalog.sample_algebra_element(e, rng, 0.3), 0)
        x = 0.4 * cp + y0 + 0.4 * cm
        for t in (0.1, 0.5, 1.0, 2.0):
            wedge_bad += not semigroup.member_ShC(
                GroupElement.exp(e.algebra, t * x), e.grading, e.cone, tol)
        # Flip one graded component to -0.5 * unit, strictly outside its cone;
        # membership must then fail already for small t.
        xb = x - 0.9 * (cp if rng.random() < 0.5 else cm)
        wedge_bad += semigroup.member_ShC(
            GroupElement.exp(e.algebra, 0.01 * xb), e.grading, e.cone, tol)
    checks.append(_count("tangent_wedge", wedge_bad))

    worst = 0.0
    for _ in range(samples):
        e = _pick(rng, entries)
        g = catalog.sample_polar_domain(e, rng)
        f = semigroup.polar_factor(g, e.grading, tol)
        worst = max(worst,
                    float(np.linalg.norm(e.grading.tau @ f.x + f.x)),
                    float(np.linalg.norm(ad_image(f.g0, e.grading, tol) - e.grading.h)))
    checks.append(_leq("polar_roundtrip", worst, 1e-8))

    poi = catalog.get_entry("poincare3")
    d = poi.extras["d"]
    mism = 0
    for _ in range(samples):
        g = catalog.sample_group_element(poi, rng)
        lift = np.eye(d + 1)
        lift[:d, :d] = g.matrix[:d, :d]
        gl = GroupElement(poi.algebra, lift)
        ok_g = ok_l = True
        try:
            semigroup.triangular_factor(g, poi.grading, "+0-", tol)
        except NotInOpenCell:
            ok_g = False
        try:
            semigroup.triangular_factor(gl, poi.grading, "+0-", tol)
        except NotInOpenCell:
            ok_l = False
        mism += ok_g != ok_l
    checks.append(_count("levi_projection_consistency", mism))
    return checks


# -- modular ------------------------------------------------------------


def _suite_modular(rng, samples, tol):
    checks = []

    refl = anti = trans = 0
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (a + a.conj().T) / 2
        m1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p1 = m1.conj().T @ m1 + 0.1 * np.eye(n)
        m2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p2 = m2.conj().T @ m2
        refl += not numkit.loewner_leq(a, a, tol)
        refl += not numkit.loewner_leq(a, a + p1, tol)
        anti += numkit.loewner_leq(a + p1, a, tol)
        trans += not numkit.loewner_leq(a, a + p1 + p2, tol)
    checks.append(_count("loewner_reflexive_and_constructed", refl))
    checks.append(_count("loewner_antisymmetry", anti))
    checks.append(_count("loewner_transitivity", trans))

    relation = roundtrip = 0.0
    for _ in range(samples):
        n = 2 + int(rng.integers(7))
        v = modular.random_standard_subspace(n, rng)
        pair = modular.modular_pair(v, tol)
        jdj = pair.j_unitary @ pair.delta.conj() @ pair.j_unitary.conj()
        relation = max(relation, float(np.abs(jdj @ pair.delta - np.eye(n)).max()))
        back = modular.standard_from_pair(pair, tol)
        roundtrip = max(roundtrip, modular.subspace_gap_standard(v, back))
    checks.append(_leq("modular_relation", relation, 1e-10))
    checks.append(_leq("modular_roundtrip", roundtrip, 1e-8))

    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        s = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        p = modular.graph_projection(s, tol)
        worst = max(worst, float(np.abs(p @ p - p).max()),
                    float(np.abs(p - p.conj().T).max()))
    checks.append(_leq("graph_projection_idempotent", worst, 1e-10))

    worst = 0.0
    for _ in range(samples):
        z = complex(np.exp(rng.uniform(np.log(0.1), np.log(10.0))),
                    rng.uniform(-10.0, 10.0))
        worst = max(worst, abs(modular.log_integral(z) - np.log(z)))
    checks.append(_leq("log_integral_agreement", worst, 1e-6))

    margin = np.inf
    for _ in range(samples):
        a, b = modular.random_ordered_pair(int(rng.integers(2, 7)), rng)
        rep = modular.log_monotone_check(a, b, trials=20, tol=tol,
                                         rng=np.random.default_rng(rng.integers(2**32)))
        margin = min(margin, rep["min_margin"], rep["resolvent_min_eig"])
    checks.append(_geq("log_monotonicity", margin, -1e-9))

    worst = 0.0
    contained_bad = 0
    for _ in range(samples):
        n = 2 + int(rng.integers(5))
        v1 = modular.random_standard_subspace(n, rng)
        t = rng.normal(size=(n, n))
        while abs(np.linalg.det(t)) < 1e-3:
            t = rng.normal(size=(n, n))
        v2 = modular.StandardSubspace(v1.basis @ t)
        if not modular.subspace_contained(v1, v2, tol):
            contained_bad += 1
            continue
        worst = max(worst, modular.subspace_gap_standard(v1, v2))
    checks.append(_count("rigidity_containment_detected", contained_bad))
    checks.append(_leq("rigidity_equality", worst, 1e-8))
    return checks


# -- roots --------------------------------------------------------------


def _suite_roots(rng, samples, tol):
    checks = []
    fixtures = [(name, *catalog.root_fixture(name))
                for name in catalog.ROOT_FIXTURE_NAMES]
    data = {}
    tag_bad = 0
    for name, alg, cartan, expect in fixtures:
        datum = roots.root_decomposition(alg, cartan, tol)
        data[name] = datum
        tag_bad += sum(t != expect for t in datum.types)
    checks.append(_count("classification_tags", tag_bad))

    worst = 0.0
    for name, alg, cartan, _ in fixtures:
        datum = data[name]
        t_rows = datum.cartan.astype(complex)
        for i, (ai, vi) in enumerate(zip(datum.roots, datum.vectors)):
            for j, (aj, vj) in enumerate(zip(datum.roots, datum.vectors)):
                w = alg.bracket(vi, vj)
                target = ai + aj
                try:
                    vk = datum.vectors[datum.index_of(target)]
                except KeyError:
                    if np.allclose(target, 0.0, atol=1e-8):
                        _, resid = numkit.solve_lstsq(t_rows.T, w)
                    else:
                        resid = float(np.linalg.norm(w))
                else:
                    coeff = (vk.conj() @ w) / (vk.conj() @ vk)
                    resid = float(np.linalg.norm(w - coeff * vk))
                worst = max(worst, resid)
    checks.append(_leq("root_space_bracket", worst, 1e-8))

    mism = 0
    for name, alg, cartan, _ in fixtures:
        datum = data[name]
        scales = 0.5 + 2.0 * rng.random(size=cartan.shape[0])
        datum2 = roots.root_decomposition(alg, np.diag(scales) @ cartan, tol)
        for i, alpha in enumerate(datum.roots):
            j = datum2.index_of(alpha * scales)
            mism += datum.types[i] != datum2.types[j]
        for i, v in enumerate(datum.vectors):
            c = rng.normal() + 1j * rng.normal()
            while abs(c) < 0.1:
                c = rng.normal() + 1j * rng.normal()
            tag = roots._classify(alg, datum.cartan.astype(complex),
                                  datum.roots[i], c * v, tol)
            mism += tag != datum.types[i]
    checks.append(_count("classification_rescaling_invariance", mism))

    sl2_entry = catalog.get_entry("sl2")
    datum = data["sl2"]
    cone = roots.c_max(datum, np.array([1.0]), tol)
    ray_bad = 0
    gens = cone.generators
    ray_bad += gens.shape[1] != 1
    for col in gens.T:
        x = datum.cartan.T @ col
        ray_bad += not sl2_entry.cone.contains(x, tol)
        ray_bad += sl2_entry.cone.contains(-x, tol)
    checks.append(_count("sl2_cmax_is_cone_trace", ray_bad))

    margin = np.inf
    for name in ("sl2", "sl2+sl2"):
        datum = data[name]
        x0 = roots.find_adapted_x0(datum, np.random.default_rng(rng.integers(2**32)))
        cone = roots.c_max(datum, x0, tol)
        for _ in range(max(10, samples // 10)):
            x = cone.sample(rng)
            nrm = float(np.linalg.norm(x))
            if nrm > 1e-6:
                margin = min(margin, cone.violation(-x / nrm))
    checks.append(_geq("cmax_pointed_when_roots_span", margin, 1e-6))

    search_bad = 0
    for name, alg, cartan, _ in fixtures:
        try:
            x0 = roots.find_adapted_x0(data[name], np.random.default_rng(rng.integers(2**32)))
            roots.c_max(data[name], x0, tol)
        except Exception:
            search_bad += 1
    checks.append(_count("adapted_x0_search", search_bad))
    return checks


# -- driver -------------------------------------------------------------


_SUITES = {
    "grading": _suite_grading,
    "cones": _suite_cones,
    "semigroup": _suite_semigroup,
    "modular": _suite_modular,
    "roots": _suite_roots,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(suite: str, seed: int = 0, samples: int = 200,
              tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run one named suite (or "all") and return its JSON-ready report."""
    if suite not in SUITE_NAMES:
        raise UnknownSuite(
            f"unknown suite {suite!r}; choices: {', '.join(SUITE_NAMES)}")
    sections = []
    for index, (name, run) in enumerate(_SUITES.items()):
        if suite not in (name, "all"):
            continue
        rng = np.random.default_rng([int(seed), index])
        checks = run(rng, int(samples), tol)
        sections.append({"suite": name, "checks": checks,
                         "pass": all(c["pass"] for c in checks)})
    if suite != "all":
        report = sections[0]
        report["seed"] = int(seed)
        report["samples"] = int(samples)
        return report
    return {"suite": "all", "seed": int(seed), "samples": int(samples),
            "sections": sections, "pass": all(s["pass"] for s in sections)}
