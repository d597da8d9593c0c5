"""Root decompositions over compactly embedded Cartan subalgebras.

sl(2,R) with the compact Cartan t = R(e - f) has the two roots +-2i, both
noncompact; su(2) has a pair of compact roots.  Frozen values below come
from working the 2x2 commutators out by hand.
"""

import numpy as np
import pytest

from grade3 import catalog, roots
from grade3.errors import NotAdapted, NotCartan, NotRegular

U_COORDS = np.array([[0.0, 1.0, -1.0]])  # e - f spans the compact Cartan


@pytest.fixture(scope="module")
def sl2_datum():
    algebra = catalog.get_entry("sl2").algebra
    return roots.root_decomposition(algebra, U_COORDS)


def test_sl2_has_two_imaginary_roots(sl2_datum):
    assert sl2_datum.rank == 1
    assert len(sl2_datum.roots) == 2
    vals = sorted((complex(r[0]) for r in sl2_datum.roots), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-2j, abs=1e-9)
    assert vals[1] == pytest.approx(2j, abs=1e-9)


def test_sl2_roots_noncompact(sl2_datum):
    assert sl2_datum.types == ["noncompact_simple", "noncompact_simple"]


def test_su2_roots_compact():
    datum = roots.root_decomposition(catalog.build_su2(),
                                     np.array([[1.0, 0.0, 0.0]]))
    assert datum.types == ["compact", "compact"]


def test_root_vectors_are_eigenvectors(sl2_datum):
    alg = sl2_datum.algebra
    t = sl2_datum.cartan[0]
    for alpha, v in zip(sl2_datum.roots, sl2_datum.vectors):
        lhs = alg.ad(t).astype(complex) @ v
        np.testing.assert_allclose(lhs, complex(alpha[0]) * v, atol=1e-9)


def test_star_conjugates_roots(sl2_datum):
    # star maps the alpha root space onto the -alpha root space
    v = sl2_datum.vectors[0]
    sv = roots.star(v)
    alg = sl2_datum.algebra
    t = sl2_datum.cartan[0]
    alpha = complex(sl2_datum.roots[0][0])
    np.testing.assert_allclose(alg.ad(t).astype(complex) @ sv, -alpha * sv,
                               atol=1e-9)


def test_not_cartan_rejected(sl2):
    # span{h, e} is not abelian
    with pytest.raises(NotCartan):
        roots.root_decomposition(sl2.algebra,
                                 np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_sl2_cmax_single_ray(sl2_datum):
    cone = roots.c_max(sl2_datum, np.array([1.0]))
    np.testing.assert_allclose(cone.generators, [[1.0]], atol=1e-9)
    # flipping the positive system flips the cone
    cone2 = roots.c_max(sl2_datum, np.array([-1.0]))
    np.testing.assert_allclose(cone2.generators, [[-1.0]], atol=1e-9)


def test_cmax_requires_regular(sl2_datum):
    with pytest.raises(NotRegular):
        roots.c_max(sl2_datum, np.array([0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cmax_rejects_non_finite_x0(sl2_datum, value):
    with pytest.raises(ValueError, match="coefficient vector"):
        roots.c_max(sl2_datum, np.array([value]))


def test_cmax_matches_cone_trace(sl2_datum, sl2):
    # the generator maps to a cone element of sl2; its negative does not
    gen = sl2_datum.cartan.T @ roots.c_max(sl2_datum, np.array([1.0])).generators[:, 0]
    assert sl2.cone.contains(gen)
    assert not sl2.cone.contains(-gen)


def test_find_adapted_x0(sl2_datum, rng):
    x0 = roots.find_adapted_x0(sl2_datum, rng)
    ivals = sl2_datum.i_values(x0)
    assert np.abs(ivals).min() > 1e-9


def test_rank_two_product():
    algebra, cartan, tag = catalog.root_fixture("sl2+sl2")
    datum = roots.root_decomposition(algebra, cartan)
    assert datum.rank == 2
    assert len(datum.roots) == 4
    assert all(t == tag == "noncompact_simple" for t in datum.types)
    x0 = roots.find_adapted_x0(datum, np.random.default_rng(5))
    cone = roots.c_max(datum, x0, tol=roots.DEFAULT_TOL)
    # quadrant-like: two generators, pointed
    assert cone.generators.shape == (2, 2)
    mid = cone.generators.sum(axis=1)
    assert cone.violation(mid / np.linalg.norm(mid)) <= 1e-9
    assert cone.violation(-mid / np.linalg.norm(mid)) > 0.5


def test_cmax_product_of_four_sl2():
    # Cartan rank 4: the row-subset ray enumeration has no rank cap
    algebra, cartan, _ = catalog.direct_sum([catalog.root_fixture("sl2")] * 4)
    datum = roots.root_decomposition(algebra, cartan)
    assert datum.rank == 4 and len(datum.roots) == 8
    x0 = roots.find_adapted_x0(datum, np.random.default_rng(5))
    cone = roots.c_max(datum, x0)
    assert cone.generators.shape == (4, 4)
    ivals = datum.i_values(x0)
    rows = np.array([[-np.imag(v) for v in datum.roots[i]]
                     for i in range(len(ivals)) if ivals[i] > 0])
    for x in np.random.default_rng(0).normal(size=(300, 4)):
        assert cone.contains(x) == bool((rows @ x).min() >= 0)


def test_classification_invariant_under_scaling(sl2_datum):
    scaled = roots.root_decomposition(sl2_datum.algebra, 2.5 * U_COORDS)
    assert sorted(scaled.types) == sorted(sl2_datum.types)


def test_datum_json(sl2_datum):
    d = sl2_datum.to_json()
    assert set(d) >= {"cartan", "roots", "types", "vectors"}
    assert len(d["roots"]) == 2


def _hand_datum(roots_, types, rank):
    """A RootDatum with the given roots and tags over a rank-`rank` Cartan;
    c_max reads only the roots, the tags and the rank."""
    algebra = catalog.get_entry("sl2").algebra
    return roots.RootDatum(algebra, np.eye(rank), [np.array(r) for r in roots_],
                           [None] * len(roots_), list(types))


def test_cmax_rejects_compact_values_above_noncompact():
    # i alpha(x0) is 1 for the positive noncompact root, 2 for a compact one
    datum = _hand_datum([[1j], [-1j], [2j], [-2j]], ["noncompact"] * 2 + ["compact"] * 2, 1)
    with pytest.raises(NotAdapted, match="not adapted"):
        roots.c_max(datum, [1.0])


def test_cmax_adapted_with_compact_roots_is_the_ray():
    datum = _hand_datum([[1j], [-1j], [0.5j], [-0.5j]], ["noncompact"] * 2 + ["compact"] * 2, 1)
    gens = roots.c_max(datum, [1.0]).generators
    # the positive noncompact root is -i at x0 = 1, so the cone is x >= 0
    assert gens.shape == (1, 1) and gens[0, 0] == pytest.approx(1.0)


def test_cmax_keeps_the_lineality_space():
    # one positive noncompact root in rank 2 cuts out the half-plane x1 >= 0
    datum = _hand_datum([[1j, 0.0], [-1j, 0.0]], ["noncompact"] * 2, 2)
    cone = roots.c_max(datum, [1.0, 0.3])
    assert cone.generators.shape == (2, 3)
    for x in ([1.0, 5.0], [1.0, -5.0], [0.0, 1.0], [0.0, -1.0]):
        assert cone.contains(x)
    assert not cone.contains([-1.0, 0.0])


def test_dependent_cartan_rows_are_not_cartan(sl2):
    with pytest.raises(NotCartan, match="linearly dependent"):
        roots.root_decomposition(sl2.algebra, np.vstack([U_COORDS, 2.0 * U_COORDS]))


def _index_by_allclose(roots_, alpha):
    """The root lookup as a loop of numpy.allclose calls; None if no root."""
    for i, r in enumerate(roots_):
        if np.allclose(r, np.asarray(alpha, dtype=complex), atol=1e-8):
            return i
    return None


def _index_of(datum, alpha):
    try:
        return datum.index_of(alpha)
    except KeyError:
        return None


@pytest.mark.parametrize("name", catalog.ROOT_FIXTURE_NAMES)
def test_index_of_keeps_the_allclose_predicate(name):
    algebra, cartan, _ = catalog.root_fixture(name)
    datum = roots.root_decomposition(algebra, cartan)
    # offsets just inside and just outside CLUSTER_GAP + 1e-5 |alpha|
    for i, r in enumerate(datum.roots):
        edge = 1e-8 + 1e-5 * np.abs(r)
        for step in (0.0, 0.99, -0.99, 1.01, -1.01):
            for alpha in (r + step * edge, r + 1j * step * edge):
                found = _index_of(datum, alpha)
                assert found == _index_by_allclose(datum.roots, alpha), (i, step)
                assert abs(step) > 1 or found == i
    for bad in (np.nan, np.inf):
        assert _index_of(datum, np.full(datum.rank, bad, dtype=complex)) is None


def test_index_of_miss_names_alpha_as_a_plain_list():
    algebra, cartan, _ = catalog.root_fixture("sl2+sl2")
    datum = roots.root_decomposition(algebra, cartan)
    alpha = np.array([0.5j, np.nan])
    with pytest.raises(KeyError) as info:
        datum.index_of(alpha)
    assert info.value.args == (f"{alpha.tolist()} is not a root of this datum",)
