import json
import math
import pickle
import warnings

import numpy as np
import pytest

from grade3 import catalog, numkit
from grade3.cones import (
    Cone,
    gram_to_poly,
    graded_parts,
    invariance_check,
    nonneg_poly_dim,
    poly_eval,
    poly_gram,
)
from grade3.errors import AmbientMismatch
from grade3.liealg import GroupElement, adjoint


def quadrant():
    return Cone("polyhedral", 2, generators=np.eye(2))


def test_polyhedral_membership():
    c = quadrant()
    assert c.contains([1.0, 2.0])
    assert c.contains([0.0, 0.0])
    assert not c.contains([-1.0, 0.0])
    assert c.violation([-1.0, 0.0]) == pytest.approx(1.0)
    assert c.violation([-3.0, -4.0]) == pytest.approx(5.0)


def test_empty_polyhedral_is_origin():
    c = Cone("polyhedral", 2)
    assert c.contains([0.0, 0.0])
    assert c.violation([1.0, 1.0]) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("name", ["sl2", "poincare3", "jacobi1", "solvable"])
def test_violation_is_float_and_contains_is_bool(name, rng):
    entry = catalog.get_entry(name)
    for cone in (entry.cone, entry.cone_plus, entry.cone_minus):
        x = cone.sample(rng)
        assert cone.contains(x) and not cone.contains(-x)
        for point in (x, -x):
            assert type(cone.violation(point)) is float
            assert type(cone.contains(point)) is bool


def test_sl2_lorentz_closed_form(sl2):
    c = sl2.cone
    # coords (h, e, f): matrix [[a, b], [c, -a]] with a = h-coeff / 2
    assert c.contains([0.0, 1.0, -1.0])
    assert c.contains([2.0, 1.0, -1.0])  # a^2 + bc = 0 boundary
    assert c.violation([0.0, -1.0, 1.0]) == pytest.approx(1.0)
    assert c.violation([2.0, 1.0, 0.0]) == pytest.approx(1.0)  # a^2 + bc = 1
    assert not c.contains([1.0, 0.0, 0.0])  # h itself: a^2 > 0


def test_light_cone():
    c = Cone("light_cone", 3, d=3)
    assert c.violation([1.0, 0.5, 0.0]) == 0.0
    assert c.violation([0.5, 1.0, 0.0]) == pytest.approx(0.5)
    assert not c.contains([-1.0, 0.0, 0.0])


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        quadrant().violation([1.0, 2.0, 3.0])
    with pytest.raises(AmbientMismatch):
        Cone("polyhedral", 2, generators=np.eye(3))
    with pytest.raises(AmbientMismatch):
        Cone("sl2_lorentz", 5)


def test_nonneg_poly_dim():
    assert nonneg_poly_dim(1) == 3
    assert nonneg_poly_dim(2) == 6
    assert nonneg_poly_dim(3) == 10


def test_poly_gram_eval():
    # 1 + 2x + 3x^2 at x = 2
    coeffs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(poly_eval(coeffs, [[2.0]], 1), [17.0])
    m = poly_gram(coeffs, 1)
    np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 3.0]])
    np.testing.assert_allclose(gram_to_poly(m), coeffs)


def test_poly_gram_cross_terms():
    # x1*x2 on R^2
    coeffs = np.zeros(6)
    coeffs[4] = 1.0  # order: const, x1, x2, x1^2, x1*x2, x2^2
    np.testing.assert_allclose(poly_eval(coeffs, [[2.0, 3.0]], 2), [6.0])
    np.testing.assert_allclose(gram_to_poly(poly_gram(coeffs, 2)), coeffs)


def _reference_gram(coeffs, n):
    """poly_gram written out with explicit i <= j loops."""
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = coeffs[0]
    k = n + 1
    for i in range(n):
        m[0, 1 + i] = m[1 + i, 0] = coeffs[1 + i] / 2.0
        for j in range(i, n):
            if i == j:
                m[1 + i, 1 + i] = coeffs[k]
            else:
                m[1 + i, 1 + j] = m[1 + j, 1 + i] = coeffs[k] / 2.0
            k += 1
    return m


def _reference_poly(m, n):
    out = [m[0, 0]] + [2.0 * m[0, 1 + i] for i in range(n)]
    out += [m[1 + i, 1 + j] if i == j else 2.0 * m[1 + i, 1 + j]
            for i in range(n) for j in range(i, n)]
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_poly_codec_matches_explicit_coefficient_order(n, rng):
    for _ in range(20):
        coeffs = rng.normal(size=nonneg_poly_dim(n)) * 10.0 ** rng.integers(-8, 8)
        np.testing.assert_array_equal(poly_gram(coeffs, n), _reference_gram(coeffs, n))
        m = rng.normal(size=(n + 1, n + 1))  # not symmetric: the upper triangle is read
        np.testing.assert_array_equal(gram_to_poly(m), _reference_poly(m, n))


def test_nonneg_poly_cone():
    c = Cone("nonneg_poly", 3, n=1)
    assert c.contains([1.0, 0.0, 1.0])       # 1 + x^2
    assert c.contains([1.0, 2.0, 1.0])       # (1 + x)^2
    assert c.violation([-1.0, 0.0, -1.0]) == pytest.approx(1.0)
    assert c.violation([0.0, 1.0, 0.0]) == pytest.approx(0.5)  # f(x) = x


def test_cone_sampling_stays_inside(rng):
    cones = [quadrant(), Cone("light_cone", 4, d=4),
             Cone("sl2_lorentz", 3), Cone("nonneg_poly", 6, n=2)]
    for c in cones:
        for _ in range(40):
            assert c.violation(c.sample(rng)) <= 1e-10


def test_section_requires_base_and_projector():
    with pytest.raises(ValueError):
        Cone("section", 2)
    with pytest.raises(ValueError):
        Cone("section", 2, base=quadrant(), projector=np.eye(2))
    with pytest.raises(AmbientMismatch):
        Cone("section", 3, base=quadrant(), projector=np.eye(3), sign=1.0)
    with pytest.raises(AmbientMismatch):
        Cone("section", 2, base=quadrant(), projector=np.eye(3), sign=1.0)
    with pytest.raises(ValueError):
        Cone("bogus_kind", 2)


@pytest.mark.parametrize("sign", [2.0, 0.0, -0.5, math.nan])
def test_section_sign_is_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign"):
        Cone("section", 2, base=quadrant(), projector=np.eye(2), sign=sign)


@pytest.mark.parametrize("bad", ["complex", "nan", "inf"])
def test_inject_must_be_real_and_finite(bad):
    inject = np.eye(4)[:, :3]
    if bad == "complex":
        inject = inject + 1j * np.eye(4)[:, :3]
    else:
        inject[1, 0] = float(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="inject"):
            Cone("light_cone", 4, d=3, inject=inject)


def _non_finite_cases():
    """Every native kind, an embedded cone and both sections over a native
    and an embedded cone."""
    solvable, poincare3 = catalog.get_entry("solvable"), catalog.get_entry("poincare3")
    return [quadrant(), Cone("polyhedral", 3), Cone("sl2_lorentz", 3),
            Cone("light_cone", 3, d=3), Cone("nonneg_poly", 3, n=1),
            poincare3.cone, catalog.get_entry("jacobi1").cone,
            solvable.cone_plus, solvable.cone_minus,
            poincare3.cone_plus, poincare3.cone_minus]


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_point_is_in_no_cone(entry):
    for cone in _non_finite_cases():
        for points in ([entry] + [0.0] * (cone.ambient_dim - 1),
                       [entry, entry] + [0.0] * (cone.ambient_dim - 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cone.violation(points) == math.inf, (cone, points)
                assert not cone.contains(points)


def test_serialization_roundtrip(sl2):
    for c in (quadrant(), Cone("sl2_lorentz", 3), Cone("light_cone", 4, d=4),
              Cone("nonneg_poly", 6, n=2)):
        back = Cone.from_json(c.to_json())
        assert back.kind == c.kind
        assert back.ambient_dim == c.ambient_dim
    with pytest.raises(ValueError):
        Cone.from_json({"kind": "section"})
    for part in graded_parts(sl2.cone, sl2.grading):
        with pytest.raises(ValueError, match="not serializable"):
            part.to_json()


@pytest.mark.parametrize("doc", [{"kind": "light_cone"}, {"kind": "nonneg_poly"},
                                 {"kind": "light_cone", "d": None},
                                 {"kind": "nonneg_poly", "n": "two"}])
def test_from_json_without_size_is_value_error(doc):
    with pytest.raises(ValueError, match="bad cone object"):
        Cone.from_json(doc)


def test_graded_parts_sl2(sl2):
    cp, cm = graded_parts(sl2.cone, sl2.grading)
    # C+ = C cap g^1 is the ray through e; C- = -C cap g^{-1} is the ray
    # through f (the cone itself meets g^{-1} along -f)
    assert cp.contains([0.0, 1.0, 0.0])
    assert not cp.contains([0.0, -1.0, 0.0])
    assert not cp.contains([0.0, 0.0, -1.0])  # wrong graded piece
    assert cm.contains([0.0, 0.0, 1.0])
    assert not cm.contains([0.0, 0.0, -1.0])
    assert sl2.cone.contains([0.0, 0.0, -1.0])


def test_graded_parts_sampler(sl2, rng):
    cp, cm = graded_parts(sl2.cone, sl2.grading)
    for _ in range(20):
        assert cp.violation(cp.sample(rng)) <= 1e-10
        assert cm.violation(cm.sample(rng)) <= 1e-10


def _closure_parts(cone, grading):
    """(violation, sample) pairs of C+ and C- as closures over the base cone,
    the formulas the section kind keeps."""
    def make(p, sign):
        def violation(x):
            off = float(np.linalg.norm(x - p @ x))
            return max(off, cone.violation(sign * x))

        def sample(rng):
            return sign * (p @ cone.sample(rng))

        return violation, sample

    return make(grading.p_plus, +1.0), make(grading.p_minus, -1.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()  # -0.0 differs from 0.0


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_sections_match_closure_formulas_bit_for_bit(name):
    entry = catalog.get_entry(name)
    sections = (entry.cone_plus, entry.cone_minus)
    closures = _closure_parts(entry.cone, entry.grading)
    for section, (violation, sample) in zip(sections, closures):
        assert section.kind == "section"
        rng_s, rng_c = np.random.default_rng(7), np.random.default_rng(7)
        drawn = [section.sample(rng_s) for _ in range(20)]
        assert _bits(drawn) == _bits([sample(rng_c) for _ in range(20)])
        points = drawn + list(np.random.default_rng(8).normal(size=(20, entry.algebra.dim)))
        assert _bits([section.violation(x) for x in points]) == _bits(
            [violation(x) for x in points])
    back = pickle.loads(pickle.dumps(sections))
    x = entry.cone_plus.sample(np.random.default_rng(9))
    assert _bits([c.violation(x) for c in back]) == _bits([c.violation(x) for c in sections])


def _closure_embedded(cone):
    """(violation, sample) of an embedded cone as closures over its native
    cone and its injection J, read back from the cone's JSON document: the
    formulas the embedded path keeps."""
    doc = cone.to_json()
    inject = numkit.matrix_from_json(doc.pop("inject"))
    del doc["embedded"]
    native, project = Cone.from_json(doc), np.linalg.pinv(inject)

    def violation(x):
        v = project @ x
        off = float(np.linalg.norm(inject @ v - x))
        return float(max(native.violation(v), off))

    def sample(rng):
        return inject @ native.sample(rng)

    return violation, sample


EMBEDDED = ("poincare3", "poincare4", "poincare5", "poincare6",
            "jacobi1", "jacobi2", "jacobi3")


@pytest.mark.parametrize("name", EMBEDDED)
def test_embedded_cones_match_closure_formulas_bit_for_bit(name):
    entry = catalog.get_entry(name)
    cone = entry.cone
    assert cone.to_json()["embedded"] is True
    violation, sample = _closure_embedded(cone)
    rng_e, rng_c = np.random.default_rng(7), np.random.default_rng(7)
    drawn = [cone.sample(rng_e) for _ in range(20)]
    assert _bits(drawn) == _bits([sample(rng_c) for _ in range(20)])
    points = drawn + list(np.random.default_rng(8).normal(size=(20, entry.algebra.dim)))
    assert _bits([cone.violation(x) for x in points]) == _bits([violation(x) for x in points])


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_catalog_cone_pickle_roundtrip(name):
    cone = catalog.get_entry(name).cone
    back = pickle.loads(pickle.dumps(cone))
    assert (back.kind, back.ambient_dim, back.to_json()) == (
        cone.kind, cone.ambient_dim, cone.to_json())
    drawn = [c.sample(np.random.default_rng(7)) for c in (cone, back)]
    assert _bits(drawn[0]) == _bits(drawn[1])
    points = [drawn[0], -drawn[0], np.random.default_rng(8).normal(size=cone.ambient_dim)]
    assert _bits([back.violation(x) for x in points]) == _bits(
        [cone.violation(x) for x in points])


def test_invariance_check_on_catalog(sl2, poincare3, rng):
    for entry in (sl2, poincare3):
        rep = invariance_check(entry.cone, entry.algebra, samples=30,
                               rng=rng, tau=entry.grading.tau)
        assert rep["ok"]
        assert rep["max_ad_violation"] <= 1e-8
        assert rep["max_tau_violation"] <= 1e-8


def _invariance_draw_by_draw(cone, algebra, samples, tol, rng, tau):
    """invariance_check as one group element at a time: exp of each factor,
    the word's product and adjoint, per draw."""
    ad_worst = tau_worst = 0.0
    for _ in range(samples):
        x = cone.sample(rng)
        factors = []
        for _ in range(rng.integers(1, 3)):
            e = np.zeros(algebra.dim)
            e[rng.integers(algebra.dim)] = rng.uniform(-1.0, 1.0)
            factors.append(GroupElement.exp(algebra, e))
        g = factors[0]
        for f in factors[1:]:
            g = g @ f
        ad_worst = max(ad_worst, cone.violation(adjoint(g, tol) @ x))
        tau_worst = max(tau_worst, cone.violation(-(tau @ x)))
    return {"samples": int(samples), "max_ad_violation": float(ad_worst),
            "max_tau_violation": float(tau_worst),
            "ok": tol.accepts(ad_worst) and tol.accepts(tau_worst)}


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_invariance_check_equals_the_draw_by_draw_loop(name):
    # the stacked exp, inverse and Ad solve give every draw its own bits
    entry = catalog.get_entry(name)
    for samples in (0, 1, 10, 50):
        for seed in range(3):
            args = (entry.cone, entry.algebra, samples, numkit.DEFAULT_TOL)
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _invariance_draw_by_draw(*args, want_rng, entry.grading.tau)
            got = invariance_check(*args, rng=got_rng, tau=entry.grading.tau)
            assert json.dumps(got) == json.dumps(want)
            assert repr(got) == repr(want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_serialization_roundtrip_catalog_cones(name):
    # embedded cones carry their injection, so the copy lives in the same
    # ambient space and agrees on cone points and off-cone points alike
    cone = catalog.get_entry(name).cone
    back = Cone.from_json(json.loads(json.dumps(cone.to_json())))
    assert (back.kind, back.ambient_dim) == (cone.kind, cone.ambient_dim)
    rng = np.random.default_rng(7)
    points = [cone.sample(rng) for _ in range(10)]
    points += [rng.normal(size=cone.ambient_dim) for _ in range(10)]
    for x in points:
        assert back.violation(x) == cone.violation(x)


def test_embedded_cone_without_injection_is_rejected():
    doc = catalog.get_entry("poincare3").cone.to_json()
    del doc["inject"]
    with pytest.raises(ValueError, match="inject"):
        Cone.from_json(doc)


def test_from_json_flat_generators_is_one_generator():
    flat = Cone.from_json({"kind": "polyhedral", "generators": [1.0, 0.0, 0.0]})
    nested = Cone.from_json({"kind": "polyhedral", "generators": [[1.0, 0.0, 0.0]]})
    assert flat.ambient_dim == nested.ambient_dim == 3
    np.testing.assert_array_equal(flat.generators, nested.generators)


def test_from_json_generators_with_three_axes_is_value_error():
    with pytest.raises(ValueError, match="bad cone object"):
        Cone.from_json({"kind": "polyhedral", "generators": [[[1.0, 0.0, 0.0]]]})


def _overflow_cases():
    e = catalog.get_entry("poincare4")
    return [Cone("light_cone", 3, d=3), e.cone, e.cone_plus, e.cone_minus]


@pytest.mark.parametrize("k", range(4))
def test_light_cone_norm_does_not_overflow(k):
    # squared entries of 1e160 overflow; the norm falls back to max scaling
    cone, lam = _overflow_cases()[k], 1e160
    rng = np.random.default_rng(11)
    inside = [cone.sample(rng) for _ in range(10)]
    if k == 0:
        inside.append(np.array([2.0, 1.0, 0.0]))
    outside = [-x for x in inside]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in inside:
            assert cone.violation(x) == 0.0
            assert cone.violation(lam * x) == 0.0
            assert cone.contains(lam * x)
        assert min(cone.violation(x) for x in outside) > 0.0
        for x in outside + list(rng.normal(size=(10, cone.ambient_dim))):
            np.testing.assert_allclose(cone.violation(lam * x), lam * cone.violation(x),
                                       rtol=1e-15)


def test_view_near_the_float_limit_reads_finite_or_inf():
    # an oblique section (row gain 2) at entries near 1.7e308: a residual
    # whose norm overflows is rescaled, and one whose image overflows reads
    # inf, never NaN
    P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    cone = Cone("section", 3, base=Cone("light_cone", 3, d=3), projector=P, sign=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cone.violation(np.array([1.7e308, 1e308, 0.0])) == 0.0
        np.testing.assert_allclose(cone.violation(np.array([0.0, 1e308, -1e308])),
                                   1e308 * cone.violation(np.array([0.0, 1.0, -1.0])),
                                   rtol=1e-15)
        with np.errstate(over="ignore"):  # P x overflows in its second entry
            assert cone.violation(np.array([1.7e308, 1e308, 1e308])) == math.inf


def test_sl2_lorentz_far_out_keeps_its_sign():
    # a*a + b*c overflows above about 1e154; the rescaled form keeps an
    # inside point at 0.0 and an outside one at inf, with no NaN or warning
    cone = Cone("sl2_lorentz", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cone.violation(1e160 * np.array([0.0, 1.0, -1.0])) == 0.0
        assert cone.violation(1e160 * np.array([0.5, 1.0, -1.0])) == 0.0
        assert cone.violation(1e160 * np.array([2.0, 1.0, -1.0])) == 0.0  # boundary
        assert cone.violation(1e160 * np.array([2.0, 1.0, 1.0])) == math.inf


def test_sl2_lorentz_finite_violations_are_unchanged(sl2, rng):
    # the same closed form as before, bit for bit, on the sl2 draws
    def numpy_scalar_form(x):
        a, b, c = x[0] / 2.0, x[1], x[2]
        return float(max(0.0, -b, c, a * a + b * c))

    points = []
    for _ in range(100):
        x = sl2.cone.sample(rng)
        points += [x, -x, catalog.sample_algebra_element(sl2, rng, scale=5.0)]
    for x in points:
        assert sl2.cone.violation(x) == numpy_scalar_form(x)
