"""Structure constants, gradings, and the adjoint action on sl(2,R).

The sl2 basis is (h, e, f) with h = diag(1/2, -1/2), so [h, e] = e,
[h, f] = -f, [e, f] = 2h.  All expected values below follow by hand from
these three brackets.
"""

import functools
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from grade3 import catalog, numkit, verify
from grade3.errors import (
    AdjointOutOfSpan,
    NoTauImplementation,
    NotThreeGraded,
)
from grade3.liealg import (
    GroupElement,
    LieAlgebraSpec,
    ad_image,
    adjoint,
    adjoints,
    grade_by,
    sharp,
    tau_group,
)

H = np.array([1.0, 0.0, 0.0])
E = np.array([0.0, 1.0, 0.0])
F = np.array([0.0, 0.0, 1.0])


def test_sl2_structure_constants(sl2):
    alg = sl2.algebra
    np.testing.assert_allclose(alg.bracket(H, E), E, atol=1e-12)
    np.testing.assert_allclose(alg.bracket(H, F), -F, atol=1e-12)
    np.testing.assert_allclose(alg.bracket(E, F), 2 * H, atol=1e-12)
    np.testing.assert_allclose(alg.bracket(E, E), np.zeros(3), atol=1e-12)


# Every algebra the package builds: the nine catalog entries and the root
# fixtures that are not catalog entries.
ALGEBRAS = [catalog.get_entry(n).algebra for n in catalog.ENTRY_NAMES] + [
    catalog.root_fixture(n)[0] for n in ("su2", "sl2+sl2")]
EPS = np.finfo(np.float64).eps


def _constants(alg):
    """C[i, j, k], coordinate k of [b_i, b_j]: ad_tensor transposed, laid
    out C-contiguously, the layout the einsum references are pinned on."""
    return np.ascontiguousarray(alg.ad_tensor.transpose(0, 2, 1))


def _bound(alg, scale):
    """Forward-error bound of a float64 sum over the 2 r^2 stacked matrix
    entries that one coordinate solve adds up, for data of size scale."""
    return 2 * alg.rep_dim**2 * EPS * max(1.0, scale)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_structure_constants_match_pairwise_solve(alg):
    # Reference: one try_coords call per basis pair.
    ref = np.empty((alg.dim, alg.dim, alg.dim))
    for i in range(alg.dim):
        for j in range(alg.dim):
            bi, bj = alg.basis[i], alg.basis[j]
            ref[i, j], res = alg.try_coords(bi @ bj - bj @ bi)
            assert res <= _bound(alg, alg._basis_scale**2)
    np.testing.assert_allclose(_constants(alg), ref, rtol=0,
                               atol=_bound(alg, np.abs(ref).max()))


@pytest.mark.parametrize("alg", ALGEBRAS + [catalog.root_fixture("sl2")[0]],
                         ids=lambda a: a.name)
def test_structure_constants_bit_identical_to_the_einsum_commutators(alg):
    # The commutators come one basis row at a time, b_i B - B b_i; the loop
    # einsum over all pairs gives the same bits on every algebra the package
    # builds, the complex su2 basis included.
    comm = np.einsum("iab,jbc->ijac", alg.basis, alg.basis)
    ref, _ = alg.try_coords(comm - np.transpose(comm, (1, 0, 2, 3)))
    np.testing.assert_array_equal(_constants(alg), ref)


@pytest.mark.parametrize("alg", ALGEBRAS + [catalog.root_fixture("sl2")[0]],
                         ids=lambda a: a.name)
def test_structure_constants_bit_identical_to_the_batched_products(alg):
    # one basis row at a time as two batched products b_i B and B b_i, each
    # pair's product formed twice: the same bits as one product per side
    ref = np.empty_like(alg.ad_tensor)
    for i, b in enumerate(alg.basis):
        ref[i], _ = alg.try_coords(b @ alg.basis - alg.basis @ b)
    assert _constants(alg).tobytes() == ref.tobytes()
    assert alg.ad_tensor.tobytes() == np.ascontiguousarray(ref.transpose(0, 2, 1)).tobytes()


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_adjoint_matrix_matches_ad_image(name, rng):
    entry = catalog.get_entry(name)
    for _ in range(5):
        g = catalog.sample_group_element(entry, rng)
        x = rng.normal(size=entry.algebra.dim)
        scale = (np.linalg.norm(g.matrix) * np.linalg.norm(g.inv_matrix)
                 * np.linalg.norm(x))
        np.testing.assert_allclose(adjoint(g) @ x, ad_image(g, x), rtol=0,
                                   atol=_bound(entry.algebra, scale))


def _jacobi_reference(c):
    """[b_i, [b_j, b_k]] summed cyclically at every index triple, as one 4-D
    einsum and its two cyclic transposes."""
    t = np.einsum("jkm,imn->ijkn", c, c)
    cyc = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.abs(cyc).max())


def test_jacobi_defect_vanishes():
    # the constants are coordinates of matrix commutators, which satisfy the
    # Jacobi identity exactly: on every catalog algebra the cyclic sums stay
    # at roundoff, the same 1e-10 the grading suite holds closure_residual to
    for name in catalog.ENTRY_NAMES:
        assert _jacobi_reference(_constants(catalog.get_entry(name).algebra)) <= 1e-10


def _traced_peak(f):
    """Peak bytes traced by tracemalloc while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_structure_constants_peak_memory():
    # one basis row of commutators at a time: the one structure tensor,
    # ad_tensor (d^3 floats), dominates, not a (d, d, r, r) stack
    basis = catalog.get_entry("jacobi3").algebra.basis.real
    d = len(basis)
    assert _traced_peak(lambda: LieAlgebraSpec("jacobi3", list(basis))) <= 4 * 8 * d**3


def test_sp12_build_holds_one_structure_tensor():
    # at d = 78 the d^3 tensor outweighs the rest of the construction: a
    # second d^3 copy of the constants would take the peak past 2 d^3 floats
    basis = catalog._sp_basis(6)
    d = len(basis)
    assert _traced_peak(lambda: LieAlgebraSpec("sp12", basis)) <= 1.75 * 8 * d**3


def test_grading_suite_peak_memory():
    # the suite reads the residuals the construction kept and forms no
    # structure tensor of its own: its peak stays cubic in the largest
    # dimension; the catalog is built beforehand
    d = max(catalog.get_entry(n).algebra.dim for n in catalog.ENTRY_NAMES)
    peak = _traced_peak(lambda: verify.run_suite("grading", seed=0, samples=1))
    assert peak <= 16 * 8 * d**3


def test_ad_matrix(sl2):
    np.testing.assert_allclose(sl2.algebra.ad(H), np.diag([0.0, 1.0, -1.0]),
                               atol=1e-12)


def test_coords_roundtrip(sl2, rng):
    alg = sl2.algebra
    x = rng.normal(size=3)
    np.testing.assert_allclose(alg.coords(alg.to_matrix(x)), x, atol=1e-12)


def test_coords_rejects_off_span(sl2):
    with pytest.raises(ValueError):
        sl2.algebra.coords(np.eye(2))  # identity is not traceless


def test_dependent_basis_rejected():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LieAlgebraSpec("dep", [e, 2 * e])


@pytest.mark.parametrize("entry", [np.float64(1.0), np.ones(2), np.ones((2, 2, 2))],
                         ids=["0-d", "1-d", "3-d"])
def test_basis_entry_that_is_not_a_matrix_rejected(entry):
    with pytest.raises(ValueError, match="^basis matrices must be square and same-shaped$"):
        LieAlgebraSpec("x", [entry])


def test_non_closing_bracket_rejected():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    # [e, f] = diag(1, -1) is outside span{e, f}
    with pytest.raises(ValueError):
        LieAlgebraSpec("open", [e, f])


def test_algebra_json_roundtrip(sl2):
    alg = sl2.algebra
    back = LieAlgebraSpec.from_json(alg.to_json())
    np.testing.assert_allclose(back.ad_tensor, alg.ad_tensor, atol=1e-12)
    np.testing.assert_allclose(back.tau_matrix, alg.tau_matrix)


def test_grading_dims_and_projectors(sl2):
    g = sl2.grading
    assert g.dims == (1, 1, 1)
    np.testing.assert_allclose(g.part([3.0, 4.0, 5.0], 1), 4 * E, atol=1e-12)
    np.testing.assert_allclose(g.part([3.0, 4.0, 5.0], 0), 3 * H, atol=1e-12)
    np.testing.assert_allclose(g.part([3.0, 4.0, 5.0], -1), 5 * F, atol=1e-12)
    b = g.eigenbasis(1)
    assert b.shape == (3, 1)
    np.testing.assert_allclose(np.abs(b[:, 0]), E, atol=1e-12)


def test_grading_tau_involution(sl2):
    tau = sl2.grading.tau
    np.testing.assert_allclose(tau, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    np.testing.assert_allclose(tau @ tau, np.eye(3), atol=1e-12)


def test_tau_defect_with_non_diagonal_tau(rng):
    # Every catalog tau is diagonal, where a transposed index goes unseen.
    # In the sheared sl2 basis (h + e, e + 2f, f - h) tau is far from it,
    # and T = diag(1, -1) still implements it.
    h = np.diag([0.5, -0.5])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = LieAlgebraSpec("sl2_sheared", [h + e, e + 2 * e.T, e.T - h],
                         tau_matrix=np.diag([1.0, -1.0]))
    tau = grade_by(alg, alg.coords(h)).tau
    assert np.abs(tau - np.diag(np.diag(tau))).max() > 1.0
    perturbed = tau + 1e-6 * rng.normal(size=tau.shape)
    for t, implemented in ((tau, True), (tau.T, False), (perturbed, False)):
        grading = grade_by(alg, alg.coords(h))
        grading.tau = t
        assert numkit.DEFAULT_TOL.accepts(*grading.tau_defect) == implemented


@pytest.mark.parametrize("size, name", [(1e200, "ad(h)^2"), (1e120, "ad(h)^3")])
def test_grade_by_refuses_an_overflowing_power_by_name(sl2, size, name):
    # the square (or only the cube) of ad(h) overflows: refused with finite
    # numbers and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotThreeGraded) as exc:
            grade_by(sl2.algebra, np.array([size, 0.0, 0.0]))
    assert str(exc.value) == f"{name} overflows: h has an entry of size {size:.3e}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grade_by_refuses_a_non_finite_h_by_name(sl2, bad):
    # refused before ad(h) is formed, so no overflow message names it; a
    # wrong length is still refused first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^h has non-finite entries$"):
            grade_by(sl2.algebra, np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError, match="^h must be a coefficient vector of the algebra$"):
            grade_by(sl2.algebra, np.array([bad, 0.0]))


def test_grade_by_rejects_bad_spectrum(sl2):
    # ad(2h) has eigenvalues {0, +-2}
    with pytest.raises(NotThreeGraded):
        grade_by(sl2.algebra, 2 * H)
    # nilpotent ad(e) clusters onto 0 but is not semisimple
    with pytest.raises(NotThreeGraded):
        grade_by(sl2.algebra, E)
    with pytest.raises(ValueError):
        grade_by(sl2.algebra, np.zeros(4))


def test_group_exp_and_inverse(sl2):
    g = GroupElement.exp(sl2.algebra, E)
    np.testing.assert_allclose(g.matrix, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose((g @ g.inverse()).matrix, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        GroupElement(sl2.algebra, np.eye(3))


def test_matmul_requires_same_algebra(sl2, poincare3):
    g = GroupElement.exp(sl2.algebra, E)
    k = GroupElement.exp(poincare3.algebra, np.zeros(poincare3.algebra.dim))
    with pytest.raises(ValueError):
        g @ k


def test_ad_image_frozen_values(sl2):
    g = GroupElement.exp(sl2.algebra, E)
    # Ad(exp e) h = h - e and Ad(exp e) f = f + 2h - e
    np.testing.assert_allclose(ad_image(g, H), H - E, atol=1e-12)
    np.testing.assert_allclose(ad_image(g, F), F + 2 * H - E, atol=1e-12)


def test_adjoint_matrix_frozen(sl2):
    g = GroupElement.exp(sl2.algebra, E)
    want = np.array([[1.0, 0.0, 2.0],
                     [-1.0, 1.0, -1.0],
                     [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(adjoint(g), want, atol=1e-12)


def test_adjoint_is_multiplicative(sl2, rng):
    alg = sl2.algebra
    for _ in range(10):
        a = GroupElement.exp(alg, 0.6 * rng.normal(size=3))
        b = GroupElement.exp(alg, 0.6 * rng.normal(size=3))
        np.testing.assert_allclose(adjoint(a @ b), adjoint(a) @ adjoint(b),
                                   atol=1e-9)


def test_ad_image_out_of_span():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    line = LieAlgebraSpec("line", [e])
    rot = GroupElement(line, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(AdjointOutOfSpan):
        ad_image(rot, np.array([1.0]))


def test_adjoints_gate_each_element_as_adjoint_does(poincare3, rng):
    # a generic invertible matrix does not normalize the algebra: its
    # conjugates leave the span, and a stack holding it raises that
    # element's own message; the first failing element in stack order wins
    alg = poincare3.algebra
    good = [catalog.sample_group_element(poincare3, rng) for _ in range(3)]
    bad = [GroupElement(alg, rng.normal(size=(alg.rep_dim,) * 2) + 3.0 * np.eye(alg.rep_dim))
           for _ in range(2)]
    messages = []
    for g in bad:
        with pytest.raises(AdjointOutOfSpan) as exc:
            adjoint(g)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    for order, want in (([0, 3, 1, 4, 2], messages[0]), ([4, 0, 3], messages[1])):
        stack = [(good + bad)[i] for i in order]
        with pytest.raises(AdjointOutOfSpan) as exc:
            adjoints(alg, np.stack([g.matrix for g in stack]),
                     np.stack([g.inv_matrix for g in stack]))
        assert str(exc.value) == want
    ads = adjoints(alg, np.stack([g.matrix for g in good]),
                   np.stack([g.inv_matrix for g in good]))
    assert ads.shape == (3, alg.dim, alg.dim)
    for g, ad in zip(good, ads):
        assert np.array_equal(ad, adjoint(g))


def test_tau_group_and_sharp(sl2):
    g = GroupElement.exp(sl2.algebra, E)
    np.testing.assert_allclose(tau_group(g).matrix, [[1.0, -1.0], [0.0, 1.0]],
                               atol=1e-14)
    # e is sharp-fixed: tau(exp e)^{-1} = exp(e)
    np.testing.assert_allclose(sharp(g).matrix, g.matrix, atol=1e-14)


def test_tau_group_matches_algebra_tau(sl2, rng):
    alg, grading = sl2.algebra, sl2.grading
    for _ in range(10):
        x = 0.7 * rng.normal(size=3)
        lhs = tau_group(GroupElement.exp(alg, x)).matrix
        rhs = GroupElement.exp(alg, grading.tau @ x).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_tau_group_missing_raises():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    line = LieAlgebraSpec("line", [e])
    with pytest.raises(NoTauImplementation):
        tau_group(GroupElement(line, np.eye(2)))


def test_complex_representation_real_coords():
    su2 = catalog.build_su2()
    x = np.array([0.3, -0.2, 0.9])
    m = su2.to_matrix(x)
    assert np.iscomplexobj(m)
    np.testing.assert_allclose(su2.coords(m), x, atol=1e-12)


def _stacked_solve(alg, m):
    """Reference coordinate solve: real and imaginary parts stacked, against
    the full pseudoinverse, as complex matrices and representations take."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    stacked = np.concatenate([flat.real, flat.imag], axis=-1)
    v = stacked @ alg._pinv.T
    d = v @ alg._bstack.T - stacked
    return v, np.sqrt((d * d).sum(axis=-1))


def _conjugates(alg):
    """g H g^-1 for drawn g at scales 0.5, 2 and 5: H = h's matrix and g a
    semigroup draw for a catalog entry, a random element and a product of two
    exponentials otherwise."""
    rng = np.random.default_rng(11)
    entry = catalog.get_entry(alg.name) if alg.name in catalog.ENTRY_NAMES else None
    for scale in (0.5, 2.0, 5.0):
        for _ in range(20):
            if entry is not None:
                g, hm = catalog.sample_semigroup_element(entry, rng, scale), entry.grading.h_matrix
            else:
                g = (GroupElement.exp(alg, scale * rng.normal(size=alg.dim))
                     @ GroupElement.exp(alg, scale * rng.normal(size=alg.dim)))
                hm = alg.to_matrix(rng.normal(size=alg.dim))
            yield g.matrix @ hm @ g.inv_matrix


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_to_matrix_matches_the_complex_einsum_bit_for_bit(alg):
    rng = np.random.default_rng(10)
    for scale in (0.5, 2.0, 5.0):
        x = scale * rng.normal(size=alg.dim)
        want = np.einsum("i,iab->ab", x, alg.basis)
        got = alg.to_matrix(x)
        assert np.iscomplexobj(got) == (alg.name == "su2")
        assert got.tobytes() == (want if np.iscomplexobj(got) else want.real).tobytes()


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_coords_of_conjugates_match_the_stacked_solve_bit_for_bit(alg):
    # the residuals add up r^2 instead of 2 r^2 squares, so their grouping,
    # and at most their last bits, may differ
    ms = np.stack(list(_conjugates(alg)))
    for m in (*ms, ms):  # one by one, then as one stack
        v, res = alg.try_coords(m)
        want, want_res = _stacked_solve(alg, m)
        assert v.tobytes() == want.tobytes()
        assert (np.abs(res - want_res) <= 4 * np.spacing(want_res)).all()


def test_complex_matrix_in_a_real_representation(sl2):
    # the imaginary part is no coordinate: it is left out of the solve and
    # counts in full in the residual
    alg = sl2.algebra
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = rng.normal(size=(2, 2, 2))
        v, res = alg.try_coords(a + 1j * b)
        want, res_a = alg.try_coords(a)
        np.testing.assert_allclose(v, want, rtol=4 * EPS, atol=4 * EPS)
        assert res**2 == pytest.approx(res_a**2 + np.linalg.norm(b) ** 2, rel=8 * EPS)
    x = np.array([0.3, -0.2, 0.9])
    with pytest.raises(ValueError, match="outside basis span"):
        alg.coords(1j * alg.to_matrix(x))


def test_part_refuses_a_degree_outside_the_grading(sl2):
    for degree in (-2, 2):
        with pytest.raises(KeyError):
            sl2.grading.part([3.0, 4.0, 5.0], degree)


# -- the identity gate ad(h)^3 = ad(h) ---------------------------------------

def test_identity_gate_reports_residual_gate_and_scale(sl2):
    # ad(2h) = diag(0, 2, -2): ad^3 - ad = diag(0, 6, -6), at scale 8
    with pytest.raises(NotThreeGraded) as exc:
        grade_by(sl2.algebra, 2 * H)
    assert str(exc.value) == ("ad(h)^3 differs from ad(h): residual 6.000e+00 "
                              "above gate 9.000e-09 at scale 8.000e+00")


def test_identity_gate_refuses_nilpotent_h():
    # ad(x) of x in g^{+-1} is nilpotent with ad(x)^3 = 0 != ad(x): every
    # draw is refused by the identity gate, whatever roundoff does to the
    # computed spectrum of ad(x)
    refused = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for name in catalog.ENTRY_NAMES:
            entry = catalog.get_entry(name)
            for d in (-1, 1):
                for _ in range(20):
                    x = entry.grading.part(rng.normal(size=entry.algebra.dim), d)
                    with pytest.raises(NotThreeGraded, match=r"^ad\(h\)\^3 differs from ad\(h\): "):
                        grade_by(entry.algebra, x)
                    refused += 1
    assert refused == 1080


@pytest.mark.parametrize("s", [1.0, 10.0, 1e2, 3e2, 1e3, 2e3])
def test_identity_gate_on_a_sheared_sl2_basis(s):
    # in the basis (H + sE, E, F + sH) the grading element H has coordinates
    # (1, -s, 0) and ad(h) entries up to s^2: the exact h is accepted and
    # a relative error of 1e-8 refused at every shear
    hm, em = np.diag([0.5, -0.5]), np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = LieAlgebraSpec("sheared sl2", [hm + s * em, em, em.T + s * hm])
    h = np.array([1.0, -s, 0.0])
    assert grade_by(alg, h).dims == (1, 1, 1)
    with pytest.raises(NotThreeGraded, match=r"^ad\(h\)\^3 differs from ad\(h\): "):
        grade_by(alg, h * (1 + 1e-8))


def test_products_and_inverses_keep_the_finite_invariant(sl2):
    # an overflowing product or inverse is refused with the constructor's
    # message, and inverse() hands the pair over instead of inverting again
    big = GroupElement(sl2.algebra, np.diag([1e200, 1e-200]))
    tiny = GroupElement(sl2.algebra, np.diag([1e-310, 1.0]))
    for build in (lambda: big @ big, tiny.inverse):
        with np.errstate(divide="ignore", over="ignore"), \
                pytest.raises(ValueError, match="^group element has non-finite entries$"):
            build()
    g = GroupElement(sl2.algebra, np.array([[2.0, 1.0], [1.0, 1.0]]))
    inv = g.inverse()
    assert inv.inv_matrix is g.matrix and inv.inverse().matrix is g.matrix


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_brackets_match_the_optimized_einsum_bit_for_bit(name):
    # the census's bracket-compatibility check forms these blocks from the
    # ad tensor, ad(u_a) v_b; they must give the bits the optimized einsum
    # over the structure constants (ad_tensor transposed) gives
    entry = catalog.get_entry(name)
    alg, g = entry.algebra, entry.grading
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            u, v = g.eigenbasis(di), g.eigenbasis(dj)
            want = np.einsum("ia,ijk,jb->akb", u, _constants(alg), v, optimize=True)
            got = np.tensordot(u.T, alg.ad_tensor, 1) @ v
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (di, dj)


def _bracket_compatibility_defect(grading):
    """Largest coordinate of [g^i, g^j] outside g^{i+j} (all of it when
    |i + j| > 1), from blocks ad(u_a) v_b of the eigenbases."""
    t, worst = grading.algebra.ad_tensor, 0.0
    projectors = {-1: grading.p_minus, 0: grading.p_zero, 1: grading.p_plus}
    for di in (-1, 0, 1):
        ad_u = np.tensordot(grading.eigenbasis(di).T, t, 1)
        for dj in (-1, 0, 1):
            w = ad_u @ grading.eigenbasis(dj)
            if -1 <= di + dj <= 1:
                w = w - projectors[di + dj] @ w
            worst = max(worst, float(np.abs(w).max(initial=0.0)))
    return worst


def _census_inputs(entry, rng):
    """h, h + eps N(0, 1) for eps = 1e-14 ... 1e-3, scaled h (the last
    overflowing ad(h)^2), random h, and the graded parts of a random x."""
    h, d = entry.h, entry.algebra.dim
    yield h
    for k in range(-14, -2):
        yield h + 10.0**k * rng.normal(size=d)
    for c in (-1.0, 0.0, 0.5, 2.0, 1.0 + 1e-12, 1e200):
        yield c * h
    for _ in range(3):
        yield rng.normal(size=d)
    x = rng.normal(size=d)
    for degree in (-1, 0, 1):
        yield entry.grading.part(x, degree)


def test_grade_by_census_every_refusal_names_a_gate_and_every_grading_is_compatible():
    # with the identity ad(h)^3 = ad(h) as its one gate, grade_by accepts only
    # gradings whose eigenspaces bracket by degree (ad(h) is a derivation),
    # and refuses by the identity or by an overflowing power, nothing else
    rng = np.random.default_rng(32)
    seen = {"accepted": 0, "identity": 0, "overflow": 0}
    for name in catalog.ENTRY_NAMES:
        entry = catalog.get_entry(name)
        scale = float(np.abs(entry.algebra.ad_tensor).max())
        for h in _census_inputs(entry, rng):
            try:
                grading = grade_by(entry.algebra, h)
            except NotThreeGraded as exc:
                gate = re.match(r"ad\(h\)\^3 differs from ad\(h\): |ad\(h\)\^[23] overflows: ",
                                str(exc))
                assert gate, str(exc)
                seen["overflow" if "overflows" in gate.group() else "identity"] += 1
                continue
            defect = _bracket_compatibility_defect(grading)
            assert numkit.DEFAULT_TOL.accepts(defect, scale), (name, defect)
            seen["accepted"] += 1
    assert sum(seen.values()) == 9 * 25 and min(seen.values()) >= 9, seen


def test_sp12_builds_and_grades_in_cubic_time():
    # sp(12, R) is 3-graded by h = diag(I, -I)/2, half the gl(6) diagonal:
    # the symmetric blocks are g^{+-1}, gl(6) is g^0.  The best of three
    # runs is timed, so a stall of the host does not count as cost.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        alg = LieAlgebraSpec("sp12", catalog._sp_basis(6))
        h = np.zeros(alg.dim)
        h[[i * 6 + i for i in range(6)]] = 0.5
        assert grade_by(alg, h).dims == (21, 36, 21)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5, times


# nilpotency bound of each catalog grading: the longest chain lambda,
# lambda + 1, ... in the spectrum of h's representing matrix
NILPOTENCY_BOUNDS = {"sl2": 2, "poincare3": 3, "poincare4": 3, "poincare5": 3,
                     "poincare6": 3, "jacobi1": 2, "jacobi2": 2, "jacobi3": 2,
                     "solvable": 3}


@functools.cache
def _adjoint_grading(name):
    """The grading of entry name in its adjoint representation, where
    h_matrix = ad(h) has spectrum {-1, 0, 1}; every entry is centreless, so
    the representation is faithful."""
    entry = catalog.get_entry(name)
    alg = entry.algebra
    return grade_by(LieAlgebraSpec(name, [alg.ad(b) for b in np.eye(alg.dim)]),
                    entry.grading.h)


def _gradings(name):
    return (catalog.get_entry(name).grading, _adjoint_grading(name))


def _graded_draws(name, rng):
    """(degree, x) with x in g^{+1} or g^{-1} at norms 0.5, 2, 5 and 10,
    projected by the catalog grading so that both representations exponentiate
    the same coefficient vectors."""
    grading = catalog.get_entry(name).grading
    for degree in (1, -1):
        for norm in (0.5, 2.0, 5.0, 10.0):
            for _ in range(5):
                x = grading.part(rng.normal(size=grading.algebra.dim), degree)
                yield degree, x * (norm / np.linalg.norm(x))


def test_nilpotency_bounds_of_the_catalog():
    for name, k in NILPOTENCY_BOUNDS.items():
        assert catalog.get_entry(name).grading.nilpotency_bound == k, name
        assert _adjoint_grading(name).nilpotency_bound == 3, name


def test_nilpotency_bound_is_computed_on_first_use(sl2):
    g = grade_by(sl2.algebra, sl2.grading.h)
    assert "nilpotency_bound" not in vars(g)
    assert g.nilpotency_bound == 2 and "nilpotency_bound" in vars(g)


def test_trivial_grading_has_bound_one(sl2):
    # h = 0 grades everything in degree 0; the sum is the identity alone,
    # with no division by k - 1 = 0, and a fresh array each call
    g = grade_by(sl2.algebra, np.zeros(3))
    assert g.dims == (0, 3, 0) and g.nilpotency_bound == 1
    u = g.inverse_unipotent(np.zeros(3), "leading")
    assert u.tobytes() == np.eye(2).tobytes()
    u[0, 1] = 5.0
    assert g.inverse_unipotent(np.zeros(3), "leading").tobytes() == np.eye(2).tobytes()


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_unipotent_matches_scipy_expm(name):
    # The sum is exact for a nilpotent X.  The projector's roundoff leaves x
    # off its degree by E, so that X^k is of order |E| |X|^(k-1) rather than
    # 0, and the terms the sum leaves out hold one factor E each and at most
    # 2k - 2 factors X; without that slack jacobi1's catalog grading misses
    # by 196 units of roundoff at |x| = 10.
    entry = catalog.get_entry(name)
    for grading in _gradings(name):
        alg, k = grading.algebra, grading.nilpotency_bound
        for degree, x in _graded_draws(name, np.random.default_rng(7)):
            m = alg.to_matrix(x)
            off = np.linalg.norm(alg.to_matrix(x - entry.grading.part(x, degree)))
            n = np.linalg.norm(m)
            bound = 16 * EPS * (1.0 + n ** (k - 1)) + off * (1.0 + n) ** (2 * k - 2)
            err = np.abs(grading.inverse_unipotent(-x, "leading") - scipy.linalg.expm(m)).max()
            assert err <= bound, (alg.rep_dim, degree, n, err / bound)


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_unipotent_of_minus_x_is_the_inverse(name):
    for grading in _gradings(name):
        k = grading.nilpotency_bound
        for _, x in _graded_draws(name, np.random.default_rng(8)):
            m = grading.algebra.to_matrix(x)
            scale = (1.0 + np.linalg.norm(m) ** (k - 1)) ** 2
            exp_x = grading.inverse_unipotent(-x, "leading")
            err = np.abs(exp_x @ grading.inverse_unipotent(x, "trailing") - np.eye(len(m))).max()
            assert err <= 16 * EPS * scale, (grading.algebra.rep_dim, err / (EPS * scale))


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_nilpotency_bound_covers_the_measured_index(name):
    # the index is the first power of X that vanishes to roundoff
    for grading in _gradings(name):
        for _, x in _graded_draws(name, np.random.default_rng(9)):
            m = grading.algebra.to_matrix(x / np.linalg.norm(x))
            power, index = np.eye(len(m)), 0
            while np.abs(power).max() > 1e3 * EPS * (1.0 + np.abs(m).max()) ** index:
                power, index = m @ power, index + 1
            assert index <= grading.nilpotency_bound
