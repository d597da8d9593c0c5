import numpy as np
import pytest

from grade3 import numkit
from grade3.errors import BranchCutError, NotSelfAdjoint
from grade3.numkit import Tolerance


def test_tolerance_gate():
    tol = Tolerance(1e-9)
    assert tol.gate() == pytest.approx(2e-9)
    assert tol.gate(100.0) == pytest.approx(1e-9 + 1e-7)
    assert tol.gate(-100.0) == pytest.approx(1e-9 + 1e-7)


def test_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        Tolerance(-1.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_tolerance_rejects_non_finite(value):
    # an infinite tolerance would open every gate
    with pytest.raises(ValueError):
        Tolerance(value)


def test_vector_json_roundtrip():
    z = np.array([1.5 - 2.0j, 0.25j, -3.0])
    d = numkit.vector_to_json(z)
    assert d == {"re": [1.5, 0.0, -3.0], "im": [-2.0, 0.25, 0.0]}
    np.testing.assert_array_equal(numkit.vector_from_json(d), z)
    # a missing "im" reads as zeros
    np.testing.assert_array_equal(numkit.vector_from_json({"re": [1.0, 2.0]}),
                                  [1.0 + 0.0j, 2.0 + 0.0j])


def test_require_finite():
    with pytest.raises(ValueError):
        numkit.require_finite([1.0, np.nan])
    with pytest.raises(ValueError):
        numkit.require_finite([[1.0, np.inf]])
    a = numkit.require_finite([[1.0, 2.0]])
    assert a.shape == (1, 2)


def test_matrix_json_roundtrip_real():
    m = np.array([[1.0, -2.5, 3.0], [0.0, 4.0, 5.5]])
    d = numkit.matrix_to_json(m)
    assert d == {"rows": 2, "cols": 3, "re": [1.0, -2.5, 3.0, 0.0, 4.0, 5.5]}
    np.testing.assert_array_equal(numkit.matrix_from_json(d), m)


def test_matrix_json_roundtrip_complex():
    m = np.array([[1 + 2j, 0], [0, -1j]])
    d = numkit.matrix_to_json(m)
    assert d["im"] == [2.0, 0.0, 0.0, -1.0]
    np.testing.assert_array_equal(numkit.matrix_from_json(d), m)


def test_matrix_from_json_malformed():
    with pytest.raises(ValueError):
        numkit.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0]})
    with pytest.raises(ValueError):
        numkit.matrix_from_json({"rows": 2, "re": [1.0, 2.0]})


def test_expm_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(numkit.expm(n), [[1.0, 1.0], [0.0, 1.0]],
                               atol=1e-15)


def test_logm_roundtrip(rng):
    x = 0.4 * rng.normal(size=(4, 4))
    a = numkit.expm(x)
    np.testing.assert_allclose(numkit.expm(numkit.logm_principal(a)), a,
                               atol=1e-12)


def test_logm_branch_cut():
    # rotation by pi has both eigenvalues on the cut
    with pytest.raises(BranchCutError):
        numkit.logm_principal(np.array([[-1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(BranchCutError):
        numkit.logm_principal(np.diag([1.0, 0.0]))


def test_logm_real_output_for_real_input():
    a = numkit.expm(np.array([[0.1, 0.7], [-0.2, 0.3]]))
    out = numkit.logm_principal(a)
    assert not np.iscomplexobj(out)


def test_solve_lstsq_exact_and_residual():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([2.0, 3.0, 4.0])
    x, res = numkit.solve_lstsq(a, b)
    np.testing.assert_allclose(x, [2.0, 3.0])
    assert res == pytest.approx(4.0)


def test_solve_lstsq_residual_never_exceeds_rhs(rng):
    for _ in range(25):
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=6)
        _, res = numkit.solve_lstsq(a, b)
        assert res <= np.linalg.norm(b) + 1e-12


def test_hermitian_defect():
    assert numkit.hermitian_defect(np.eye(3)) == 0.0
    assert numkit.hermitian_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0


def test_loewner_order():
    assert numkit.loewner_leq(np.eye(2), np.diag([2.0, 3.0]))
    assert not numkit.loewner_leq(np.diag([2.0, 3.0]), np.eye(2))
    # incomparable pair
    assert not numkit.loewner_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    with pytest.raises(NotSelfAdjoint):
        numkit.loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_eigvals_clustered_merges_near_pairs():
    vals = numkit.eigvals_clustered(np.diag([1.0, 1.0 + 1e-12, 2.0]))
    vals = np.sort(vals.real)
    np.testing.assert_allclose(vals, [1.0, 1.0, 2.0], atol=1e-11)
    assert vals[0] == vals[1]


def test_quad_adaptive_polynomial():
    val = numkit.quad_adaptive(lambda t: t ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_quad_adaptive_sharp_peak():
    # narrow Lorentzian, integrable analytically: atan scaled
    val = numkit.quad_adaptive(lambda t: 1e-3 / (t ** 2 + 1e-6), -1.0, 1.0,
                               tol=1e-10)
    assert val == pytest.approx(2.0 * np.arctan(1e3), rel=1e-9)


def test_subspace_gap():
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    same = u @ np.array([[2.0, 1.0], [0.0, 3.0]])
    assert numkit.subspace_gap(u, same) < 1e-12
    w = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert numkit.subspace_gap(u, w) == pytest.approx(1.0)
    assert numkit.subspace_gap(u, u[:, :1]) == 1.0


def test_null_space_floors_the_cutoff_at_unit_scale():
    # below unit scale the cutoff stays RANK_RTOL, above it it grows with
    # the largest singular value
    small = numkit.null_space(np.diag([1e-3, 1e-11, 0.0]))
    assert small.shape == (3, 2)
    np.testing.assert_allclose(small.T @ small, np.eye(2), atol=1e-15)
    assert numkit.null_space(np.diag([1e6, 1e-5, 1.0])).shape == (3, 1)
    assert numkit.null_space(np.diag([1e6, 1e-3, 1.0])).shape == (3, 0)
    np.testing.assert_array_equal(numkit.null_space(np.zeros((0, 3))), np.eye(3))


def test_clusters_are_runs_within_gap_of_their_first_member():
    vals = np.array([2.0, 1.0 + 5e-9, 1.0, 1.0 + 1.5e-8, 3.0])
    runs = numkit.clusters(vals, 1e-8)
    assert [r.tolist() for r in runs] == [[2, 1], [3], [0], [4]]


@pytest.mark.parametrize("residual", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1.0, 1e300, np.inf])
def test_tolerance_never_accepts_non_finite_residual(residual, scale):
    tol = Tolerance(1e-9)
    assert tol.accepts(residual, scale) is False
    with pytest.raises(ArithmeticError, match="what failed: residual"):
        tol.check(residual, scale, ArithmeticError, "what failed")


def test_tolerance_accepts_finite_residual_at_infinite_scale():
    # an overflowed scale opens the gate to every finite residual
    tol = Tolerance(1e-9)
    assert tol.gate(np.inf) == np.inf
    assert tol.accepts(1e300, np.inf) is True
    tol.check(1e300, np.inf, ArithmeticError, "unused")


def test_tolerance_gate_boundary_is_inclusive():
    tol = Tolerance(1e-9)
    for scale in (1.0, 0.5, 100.0):
        gate = tol.gate(scale)
        assert tol.accepts(gate, scale) is True
        tol.check(gate, scale, ArithmeticError, "unused")
        assert tol.accepts(np.nextafter(gate, np.inf), scale) is False
    assert tol.accepts(np.float64(1e-9)) is True   # a bool, not numpy's


def test_tolerance_check_message_names_residual_gate_and_scale():
    with pytest.raises(NotSelfAdjoint) as exc:
        Tolerance(1e-9).check(2.0, 100.0, NotSelfAdjoint, "some gate")
    assert str(exc.value) == (
        "some gate: residual 2.000e+00 above gate 1.010e-07 at scale 1.000e+02")


def test_zero_tolerance_gates_at_zero_at_every_scale():
    # 0 * inf is NaN: an overflowed scale must not turn the zero gate into NaN
    tol = Tolerance(0.0)
    for scale in (0.0, 1.0, 1e300, np.inf):
        assert tol.gate(scale) == 0.0
    assert tol.accepts(0.0, np.inf) is True
    assert tol.accepts(1e-300, np.inf) is False


# scipy.linalg.logm drops a real input's negligible imaginary part; if a scipy
# release stops doing so, polar factors would silently turn complex.
@pytest.mark.parametrize("make", [
    lambda: np.array([[1.0, -0.5], [0.5, 1.0]]),  # a complex-conjugate pair
    lambda: numkit.expm(np.random.default_rng(6).normal(size=(6, 6))),
])
def test_logm_principal_of_real_input_is_float64(make):
    out = numkit.logm_principal(make())
    assert out.dtype == np.float64
