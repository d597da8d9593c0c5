import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from grade3 import catalog, numkit
from grade3.errors import BranchCutError, NotSelfAdjoint
from grade3.liealg import sharp
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


def test_logm_refuses_a_real_negative_eigenvalue_at_zero_tolerance():
    # the complex Schur form puts eigenvalue -1 at -1 + 3e-16j, clear of a
    # zero tolerance; its conjugate pulls it back onto the cut
    v = np.random.default_rng(3).normal(size=(3, 3))
    a = v @ np.diag([-1.0, 1.0, 2.0]) @ np.linalg.inv(v)
    with pytest.raises(BranchCutError):
        numkit.logm_principal(a, Tolerance(0.0))


def test_logm_real_output_for_real_input():
    a = numkit.expm(np.array([[0.1, 0.7], [-0.2, 0.3]]))
    out = numkit.logm_principal(a)
    assert not np.iscomplexobj(out)


def _verify_draws(n):
    """The (m, m) matrices expm(0.4 N) that verify's semigroup suite logs."""
    rng = np.random.default_rng(3)
    return [numkit.expm(0.4 * rng.normal(size=(m, m)))
            for m in (int(rng.integers(2, 9)) for _ in range(n))]


def test_logm_does_not_depend_on_the_global_rng():
    mats = _verify_draws(300)
    state = np.random.get_state()
    try:
        runs = []
        for seed in (0, 1, 2):
            np.random.seed(seed)
            runs.append([numkit.logm_principal(a).tobytes() for a in mats])
    finally:
        np.random.set_state(state)
    assert runs[0] == runs[1] == runs[2]


def test_logm_runs_one_schur_and_no_scipy_logm(monkeypatch):
    calls = []
    schur = scipy.linalg.schur
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda *a, **k: calls.append(1) or schur(*a, **k))
    monkeypatch.setattr(scipy.linalg, "logm", None)
    for a in _verify_draws(5):
        numkit.logm_principal(a)
    assert len(calls) == 5


def test_logm_refuses_square_roots_that_overflow():
    # eigenvalues 1e-200 clear a zero tolerance, but the log's corner entry
    # (about 1e400) overflows, and so do the square roots on the way there
    a = np.array([[1e-200, 1e200], [0.0, 1e-200]])
    with pytest.raises(BranchCutError, match="square roots"):
        numkit.logm_principal(a, Tolerance(0.0))


def _rel_err(out, ref):
    return float(np.abs(out - ref).max() / np.abs(ref).max())


def _oracle_cases():
    """(a, tol, exact log) triples; the exact logs are good to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mpmathify

    def mp_logm(a):
        with mpmath.workdps(50):
            return np.array(mpmath.logm(mpmath.matrix(a.tolist())).tolist(),
                            dtype=complex)

    cases = []
    for name in catalog.ENTRY_NAMES:  # one scale-0.3 polar input per entry
        entry = catalog.get_entry(name)
        g = catalog.sample_polar_domain(entry, np.random.default_rng(1), 0.3)
        m = (sharp(g) @ g).matrix
        cases.append((m, numkit.DEFAULT_TOL, mp_logm(m)))
    cases.append((np.array([[1.0, 1.0], [0.0, 1.0]]), numkit.DEFAULT_TOL,
                  np.array([[0.0, 1.0], [0.0, 0.0]])))  # Jordan block
    rng = np.random.default_rng(2)
    z = numkit.expm(0.4 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))))
    cases.append((z, numkit.DEFAULT_TOL, mp_logm(z)))
    # an eigenvalue 1e-10 from the cut, admitted by a zero tolerance only;
    # the log of a triangular 2x2 has the divided difference as corner entry
    l1, b, l2 = -1.0 + 1e-10j, 0.3, 0.5 + 0.2j
    with mpmath.workdps(50):
        g1, g2 = mpmath.log(mp(l1)), mpmath.log(mp(l2))
        corner = mp(b) * (g1 - g2) / (mp(l1) - mp(l2))
        exact = np.array([[complex(g1), complex(corner)], [0.0, complex(g2)]])
    cases.append((np.array([[l1, b], [0.0, l2]]), Tolerance(0.0), exact))
    return cases


def test_logm_matches_a_50_digit_oracle_as_well_as_scipy():
    cases = _oracle_cases()
    ours, theirs = [], []
    for a, tol, exact in cases:
        ours.append(_rel_err(numkit.logm_principal(a, tol), exact))
        theirs.append(_rel_err(scipy.linalg.logm(a), exact))
        assert ours[-1] <= max(4.0 * theirs[-1], 2e-15), (a, ours[-1], theirs[-1])
    assert np.median(ours) <= 2.0 * np.median(theirs)
    with pytest.raises(BranchCutError):  # the near-cut input, default tolerance
        numkit.logm_principal(cases[-1][0])


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


def test_nnls_small_cases():
    a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, rnorm = numkit.nnls(a, np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(x, [1.5, 1.0], rtol=1e-15)
    assert rnorm == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # b in the polar cone: x = 0, and the norm is math.hypot's to the bit
    b = np.array([-1.0, -1.0, -1.0])
    x, rnorm = numkit.nnls(a, b)
    assert x.tolist() == [0.0, 0.0] and rnorm == math.hypot(*b.tolist())


def test_nnls_without_columns_measures_the_origin():
    x, rnorm = numkit.nnls(np.zeros((3, 0)), np.array([3.0, 4.0, 12.0]))
    assert x.shape == (0,) and rnorm == 13.0
    # hypot does not underflow where the plain sum of squares would
    tiny = np.array([1e-200, 1e-200])
    assert numkit.nnls(np.zeros((2, 0)), tiny)[1] == math.hypot(*tiny.tolist())


def test_nnls_residual_is_exactly_zero_in_the_span():
    # the solve's own residual, not a recomputed b - a x, which would read
    # about 1e-7 here at scale 1e9 and fail the absolute membership gate
    a = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])  # solvable's generators
    square = np.array([[1.0, 0.5], [0.25, 1.0]])
    rng = np.random.default_rng(3)
    for scale in (1e-200, 1.0, 1e9, 1e200):
        for _ in range(20):
            u = np.abs(rng.normal(size=2))
            assert numkit.nnls(a, scale * (a @ u))[1] == 0.0
            assert numkit.nnls(square, scale * (square @ u))[1] == 0.0


def test_nnls_takes_a_column_that_b_barely_needs():
    # b's entries span 31 orders of magnitude: the small first entry still
    # brings its column in, so only the 3e-16 off the span remains
    a = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    b = np.array([0.8283156502165506, -5.776721347430205e15, 3.3306690738754696e-16])
    x, rnorm = numkit.nnls(a, b)
    assert (x > 0.0).all() and rnorm == b[2]


@pytest.mark.xfail(strict=True, reason="nnls stops short on nearly parallel "
                   "columns: the third column's gradient, about 6e-16, lies "
                   "below its roundoff bound in the recomputed residual")
def test_nnls_finds_the_exact_fit_beside_a_nearly_parallel_column():
    # x = [0, 0, 1/3] fits exactly; nnls stops at [1/6, 0, 0], residual 1.41e-8
    a = np.array([[-6.0, 0.0, -3.0], [-5.99999988, 0.0, -3.0]])
    b = np.array([-1.0, -1.0])
    x, rnorm = numkit.nnls(a, b)
    assert rnorm <= 1e-15
    np.testing.assert_allclose(x, [0.0, 0.0, 1.0 / 3.0], atol=1e-15)


def test_nnls_scales_exactly_with_b():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3))
    for _ in range(20):
        b = rng.normal(size=5)
        x, rnorm = numkit.nnls(a, b)
        for s in (2.0**-900, 2.0**900):
            xs, rs = numkit.nnls(a, s * b)
            assert rs == s * rnorm
            np.testing.assert_array_equal(xs, s * x)


@st.composite
def _nnls_problems(draw):
    """(a, b) with m <= 8 rows and 0 to 8 columns.  a has small-integer
    entries, some columns repeated and, at random, a low-rank integer mix,
    all scaled by a power of ten; b has float entries.  Integer columns are
    never nearly parallel without being parallel, so every instance has a
    well-defined optimum at double precision."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    a = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)),
                 dtype=float).reshape(m, n)
    if n >= 2:
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      max_size=2)):
            a[:, dst] = a[:, src]
        k = draw(st.integers(1, n))
        if k < n:
            mix = draw(st.lists(st.integers(-2, 2), min_size=k * n, max_size=k * n))
            a = a[:, :k] @ np.array(mix, dtype=float).reshape(k, n)
    a *= 10.0 ** draw(st.integers(-3, 3))
    entry = st.floats(-1e3, 1e3, allow_subnormal=False)
    b = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    return a, b


def _kkt_defect(a, b, x) -> float:
    """Largest violation of the optimality conditions of x: the gradient
    w = a^T (b - a x) must be <= 0 everywhere and 0 where x > 0."""
    w = a.T @ (b - a @ x)
    return max(w.max(initial=0.0), np.abs(w[x > 0]).max(initial=0.0))


@settings(max_examples=500, deadline=None)
@given(_nnls_problems())
def test_nnls_is_optimal_and_agrees_with_scipy(problem):
    a, b = problem
    x, rnorm = numkit.nnls(a, b)
    assert x.shape == (a.shape[1],) and (x >= 0.0).all()
    # Roundoff in the residual grows with ||a|| ||x||, which exceeds ||b||
    # when dependent columns cancel.
    size = max(1.0, float(np.linalg.norm(b)), float(np.linalg.norm(a) * np.linalg.norm(x)))
    assert abs(rnorm - float(np.linalg.norm(b - a @ x))) <= 1e-12 * size
    assert _kkt_defect(a, b, x) <= 1e-10 * max(1.0, float(np.linalg.norm(a))) * size
    if a.shape[1] == 0:  # scipy's nnls aborts the interpreter on no columns
        assert rnorm == math.hypot(*b.tolist())
        return
    try:
        xs, ref = scipy.optimize.nnls(a, b)
    except RuntimeError:  # scipy ran out of iterations
        return
    size = max(size, float(np.linalg.norm(a) * np.linalg.norm(xs)))
    if _kkt_defect(a, b, xs) <= 1e-10 * max(1.0, float(np.linalg.norm(a))) * size:
        assert abs(rnorm - ref) <= 1e-12 * size
    else:  # scipy's answer is not optimal: ours is at least as close
        assert rnorm <= float(np.linalg.norm(a @ xs - b)) + 1e-12 * size


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


def test_loewner_leq_names_the_argument_that_fails_self_adjointness():
    bad = np.array([[0.0, 3.0], [0.0, 0.0]])
    cases = [
        ((bad, np.eye(2)), "first argument is not self-adjoint: residual 3.000e+00 "
                           "above gate 4.000e-09 at scale 3.000e+00"),
        ((np.eye(2), 2 * bad), "second argument is not self-adjoint: residual 6.000e+00 "
                               "above gate 7.000e-09 at scale 6.000e+00"),
        # both fail: the first argument is named
        ((bad, 2 * bad), "first argument is not self-adjoint: residual 3.000e+00 "
                         "above gate 4.000e-09 at scale 3.000e+00"),
    ]
    for args, message in cases:
        with pytest.raises(NotSelfAdjoint) as exc:
            numkit.loewner_leq(*args)
        assert str(exc.value) == message


@pytest.mark.parametrize("a, b", [
    (np.ones((2, 3)), np.ones((3, 2))),
    (np.ones((2, 3)), np.ones((2, 3))),
    (np.eye(2), np.eye(3)),
    (np.ones(3), np.ones(3)),
], ids=["transposed", "non_square", "two_sizes", "vectors"])
def test_loewner_leq_checks_shapes_before_any_gate(a, b):
    # a non-square pair is not self-adjoint either: the shapes are named
    with pytest.raises(ValueError) as exc:
        numkit.loewner_leq(a, b)
    assert str(exc.value) == f"need two square matrices of one shape, got {a.shape} and {b.shape}"


def test_check_self_adjoint_gates_at_the_largest_entry():
    tol = Tolerance(1e-9)
    numkit.check_self_adjoint(np.array([[5.0, 1j], [-1j, 0.0]]), tol, ArithmeticError, "x")
    # a defect of 3e-9 fails the unit-floored gate 2e-9 but passes 1e-9 + 4e-9
    skew = np.array([[0.0, 3e-9], [0.0, 0.0]])
    with pytest.raises(ArithmeticError, match="^x: residual 3.000e-09 above gate"):
        numkit.check_self_adjoint(skew, tol, ArithmeticError, "x")
    numkit.check_self_adjoint(skew + 4.0 * np.eye(2), tol, ArithmeticError, "x")
    numkit.check_self_adjoint(np.zeros((0, 0)), tol, ArithmeticError, "x")


def test_loewner_margin_is_the_smallest_eigenvalue_of_the_hermitian_difference():
    assert numkit.loewner_margin(np.eye(2), np.diag([2.0, 3.0])) == 1.0
    assert numkit.loewner_margin(np.diag([2.0, 3.0]), np.eye(2)) == -2.0
    # only the Hermitian part of b - a counts
    assert numkit.loewner_margin(np.zeros((2, 2)), np.array([[1.0, 2.0], [0.0, 1.0]])) == 0.0
    a, b = np.diag([1.0, 1.0 + 1e-10]), np.diag([1.0 + 2e-9, 1.0])
    margin = numkit.loewner_margin(a, b)
    assert margin == pytest.approx(-1e-10, rel=1e-5)
    assert numkit.loewner_leq(a, b) is (margin >= -1e-9)
    assert numkit.loewner_leq(a, b, Tolerance(1e-11)) is False


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


# The principal log of a real matrix clear of the branch cut is real, so
# logm_principal returns a float64 array for a real input; polar factors would
# otherwise turn complex.
@pytest.mark.parametrize("make", [
    lambda: np.array([[1.0, -0.5], [0.5, 1.0]]),  # a complex-conjugate pair
    lambda: numkit.expm(np.random.default_rng(6).normal(size=(6, 6))),
])
def test_logm_principal_of_real_input_is_float64(make):
    out = numkit.logm_principal(make())
    assert out.dtype == np.float64


def test_nullity_counts_the_null_space_columns(rng):
    low_rank = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 6))
    cases = [np.diag([1e-3, 1e-11, 0.0]), np.diag([1e6, 1e-5, 1.0]),
             np.diag([1e6, 1e-3, 1.0]), np.zeros((0, 3)), np.zeros((2, 2)),
             rng.normal(size=(2, 5)), rng.normal(size=(5, 2)), low_rank, low_rank.T,
             rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))]
    for a in cases:  # wide inputs count their extra columns
        for rtol in (numkit.RANK_RTOL, 1e-8):
            assert numkit.nullity(a, rtol) == numkit.null_space(a, rtol).shape[1], a.shape
    assert numkit.nullity(low_rank) == 4 and numkit.nullity(low_rank.T) == 2
