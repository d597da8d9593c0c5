"""Bundled example algebras: construction, gradings, closed-form membership.

The jacobi fixtures use the polynomial chart on R^2 with variables (q, p):
the constant 1 and q^2 land in C+, while -p^2 lands in C-.
"""

import numpy as np
import pytest
import scipy.linalg

from grade3 import catalog, semigroup
from grade3.liealg import GroupElement, ad_image


def test_registry():
    assert catalog.ENTRY_NAMES == (
        "sl2", "poincare3", "poincare4", "poincare5", "poincare6",
        "jacobi1", "jacobi2", "jacobi3", "solvable",
    )
    assert set(catalog.DEMO_NAMES) <= set(catalog.ENTRY_NAMES)
    with pytest.raises(KeyError):
        catalog.get_entry("nope")
    assert catalog.get_entry("sl2") is catalog.get_entry("sl2")


def test_builder_ranges():
    with pytest.raises(ValueError):
        catalog.build_poincare(7)
    with pytest.raises(ValueError):
        catalog.build_poincare(2)
    with pytest.raises(ValueError):
        catalog.build_jacobi(0)
    with pytest.raises(ValueError):
        catalog.build_jacobi(4)


def test_graded_dims():
    expected = {
        "sl2": (1, 1, 1),
        "poincare3": (2, 2, 2),
        "poincare4": (3, 4, 3),
        "jacobi1": (1, 3, 3),
        "jacobi2": (3, 7, 6),
        "solvable": (1, 1, 1),
    }
    for name, dims in expected.items():
        entry = catalog.get_entry(name)
        assert entry.grading.dims == dims, name
        assert sum(dims) == entry.algebra.dim


def test_sl2_closed_form_agrees(sl2, rng):
    direct = sl2.extras["member_direct"]
    for _ in range(300):
        g = catalog.sample_group_element(sl2, rng, scale=0.7)
        assert direct(g) == semigroup.member_ShC(g, sl2.grading, sl2.cone)


def test_sl2_closed_form_at_an_overflowed_squared_scale(sl2):
    # a product that overflows to -inf fails, as it does at every scale,
    # although its own scale |x||y| overflows to inf with it
    direct = sl2.extras["member_direct"]
    s = 1e160
    assert direct(GroupElement(sl2.algebra, np.diag([s, 1.0 / s])))
    assert not direct(GroupElement(sl2.algebra, np.array([[s, -s], [0.0, 1.0 / s]])))


def test_sl2_closed_form_gates_each_product_at_its_own_scale(sl2):
    # ab = -1e10 is a clear shortfall at its scale 1e10, though it lies
    # within tol times the squared scale of g
    g = GroupElement(sl2.algebra, np.array([[1e10, -1.0], [0.0, 1e-10]]))
    assert not sl2.extras["member_direct"](g)
    assert not semigroup.member_ShC(g, sl2.grading, sl2.cone)


def _translation(entry, v) -> GroupElement:
    """The Poincare translation by v: the identity with v in the last column."""
    d = entry.extras["d"]
    m = np.eye(d + 1)
    m[:d, d] = v
    return GroupElement(entry.algebra, m)


def test_poincare_frozen_members(poincare3):
    grading, cone = poincare3.grading, poincare3.cone
    assert semigroup.member_ShC(_translation(poincare3, [0.0, 1.0, 0.0]), grading, cone)
    assert semigroup.member_ShC(_translation(poincare3, [0.5, 1.0, 0.0]), grading, cone)
    assert not semigroup.member_ShC(_translation(poincare3, [0.0, -1.0, 0.0]), grading, cone)
    assert not semigroup.member_ShC(_translation(poincare3, [1.0, 0.0, 0.0]), grading, cone)
    # pure boost compresses the wedge; a rotation does not
    boost = GroupElement.exp(poincare3.algebra, poincare3.h)
    assert semigroup.member_ShC(boost, grading, cone)
    rot = np.zeros(poincare3.algebra.dim)
    rot[-1] = 0.4
    assert not semigroup.member_ShC(GroupElement.exp(poincare3.algebra, rot),
                                    grading, cone)


def test_poincare_closed_form_agrees(poincare3, rng):
    direct = poincare3.extras["member_direct"]
    grading, cone = poincare3.grading, poincare3.cone
    for _ in range(300):
        g = catalog.sample_group_element(poincare3, rng, scale=0.6)
        assert direct(g) == semigroup.member_ShC(g, grading, cone)


def test_jacobi_chart_fixtures(jacobi1):
    np.testing.assert_allclose(
        jacobi1.h, [0.0, 0.0, 0.0, -0.5, 0.0, 0.0, 0.5], atol=1e-12)
    inject = jacobi1.cone.from_base
    one = inject @ np.array([1.0, 0, 0, 0, 0, 0])
    q2 = inject @ np.array([0.0, 0, 0, 1.0, 0, 0])
    minus_p2 = inject @ np.array([0.0, 0, 0, 0, 0, -1.0])
    np.testing.assert_allclose(one, np.eye(7)[0], atol=1e-12)
    np.testing.assert_allclose(q2, -2.0 * np.eye(7)[5], atol=1e-12)
    np.testing.assert_allclose(minus_p2, -2.0 * np.eye(7)[4], atol=1e-12)
    assert jacobi1.cone_plus.contains(one)
    assert jacobi1.cone_plus.contains(q2)
    assert jacobi1.cone_minus.contains(minus_p2)
    assert not jacobi1.cone.contains(minus_p2)
    # the cross term qp is indefinite
    qp = inject @ np.array([0.0, 0, 0, 0, 1.0, 0])
    assert not jacobi1.cone.contains(qp)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_inject_matches_explicit_chart(n):
    # the chart written out with explicit i <= j loops over Gram blocks
    entry = catalog.get_entry(f"jacobi{n}")
    two_n = 2 * n
    omega = catalog._omega(n)
    cols = [catalog._jacobi_rho(n, z=1.0)]
    for k in range(two_n):
        cols.append(catalog._jacobi_rho(n, v=omega @ np.eye(two_n)[k]))
    for i in range(two_n):
        for j in range(i, two_n):
            q = np.zeros((two_n, two_n))
            if i == j:
                q[i, i] = 1.0
            else:
                q[i, j] = q[j, i] = 0.5
            cols.append(catalog._jacobi_rho(n, x=2.0 * omega @ q))
    expected = np.empty((entry.algebra.dim, len(cols)))
    for idx, mat in enumerate(cols):
        expected[:, idx] = entry.algebra.coords(mat)
    np.testing.assert_array_equal(entry.cone.from_base, expected)


def test_solvable_default(solvable):
    assert solvable.grading.dims == (1, 1, 1)
    assert solvable.cone.contains([1.0, 0.0, 0.0])
    assert solvable.cone.contains([0.0, -1.0, 0.0])
    assert not solvable.cone.contains([0.0, 1.0, 0.0])


def test_solvable_weight_shorthand():
    entry = catalog.build_solvable([1.0, 1.0, -1.0])
    assert entry.grading.dims == (1, 1, 2)
    assert entry.cone.contains([1.0, 1.0, 0.0, 0.0])


def test_solvable_rejects_non_involution():
    with pytest.raises(ValueError):
        catalog.build_solvable([[2.0]])
    with pytest.raises(ValueError):
        catalog.build_solvable([1.0, 0.5])
    with pytest.raises(ValueError):
        catalog.build_solvable(np.zeros((0, 0)))


def test_solvable_closed_form_agrees(solvable, rng):
    direct = solvable.extras["member_direct"]
    for _ in range(200):
        g = catalog.sample_group_element(solvable, rng, scale=0.8)
        assert direct(g) == semigroup.member_ShC(g, solvable.grading,
                                                 solvable.cone)


def test_samplers(sl2, rng):
    x = catalog.sample_algebra_element(sl2, rng)
    assert x.shape == (3,)
    g0 = catalog.sample_stabilizer(sl2, rng)
    np.testing.assert_allclose(ad_image(g0, sl2.grading.h), sl2.grading.h,
                               atol=1e-10)
    for _ in range(25):
        g = catalog.sample_semigroup_element(sl2, rng)
        assert semigroup.member_ShC(g, sl2.grading, sl2.cone)


def test_polar_domain_sampler(sl2, rng):
    for _ in range(25):
        g = catalog.sample_polar_domain(sl2, rng)
        f = semigroup.polar_factor(g, sl2.grading)
        np.testing.assert_allclose(sl2.grading.tau @ f.x, -f.x, atol=1e-9)
        np.testing.assert_allclose(ad_image(f.g0, sl2.grading.h), sl2.grading.h,
                                   atol=1e-9)


def test_entry_json(sl2):
    d = sl2.to_json()
    assert set(d) == {"name", "description", "dim", "dims", "h", "algebra", "cone"}
    assert d["dims"] == [1, 1, 1]
    assert d["cone"]["kind"] == "sl2_lorentz"


def test_tau_compatible_across_entries(rng):
    # group-level tau implements the grading involution on every entry
    from grade3.liealg import tau_group
    for name in catalog.ENTRY_NAMES:
        entry = catalog.get_entry(name)
        x = catalog.sample_algebra_element(entry, rng, scale=0.4)
        lhs = tau_group(GroupElement.exp(entry.algebra, x)).matrix
        rhs = GroupElement.exp(entry.algebra, entry.grading.tau @ x).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-8, err_msg=name)


def test_direct_sum_cartan_is_block_diagonal(rng):
    # the sl2+sl2 fixture, and blocks of unequal shapes over two algebras
    su2, poincare3 = catalog.build_su2(), catalog.get_entry("poincare3").algebra
    mixed = [(alg, rng.normal(size=(k, alg.dim)), "any")
             for alg, k in ((su2, 2), (poincare3, 1), (su2, 3))]
    for parts in ([catalog.root_fixture("sl2")] * 2, mixed):
        algebra, cartan, tag = catalog.direct_sum(parts)
        expected = scipy.linalg.block_diag(*[f[1] for f in parts])
        assert cartan.dtype == expected.dtype and cartan.tobytes() == expected.tobytes()
        assert cartan.shape[1] == algebra.dim and tag == parts[0][2]
