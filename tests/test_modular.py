"""Standard subspaces, modular pairs, and the spectral log toolbox.

One-dimensional cases pin everything down: V = R inside C has S = conj, so
Delta = 1 and J = conj; rotating the line by theta multiplies the
conjugation's linear part by exp(2 i theta).
"""

import numpy as np
import pytest

from grade3 import modular, numkit
from grade3.errors import (
    DomainError,
    ModularRelationViolated,
    NotStandard,
    PreconditionViolated,
)
from grade3.modular import StandardSubspace


def test_real_line_pair():
    pair = modular.modular_pair(StandardSubspace([[1.0]]))
    np.testing.assert_allclose(pair.delta, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(pair.j_unitary, [[1.0]], atol=1e-14)


def test_rotated_line_pair():
    theta = np.pi / 4
    pair = modular.modular_pair(StandardSubspace([[np.exp(1j * theta)]]))
    np.testing.assert_allclose(pair.delta, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(pair.j_unitary, [[1j]], atol=1e-12)


def test_axis_aligned_plane():
    v = StandardSubspace(np.array([[1.0, 0.0], [0.0, 1j]]))
    pair = modular.modular_pair(v)
    np.testing.assert_allclose(pair.delta, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(pair.j_unitary, np.diag([1.0, -1.0]), atol=1e-12)


def test_is_standard():
    assert modular.is_standard(StandardSubspace([[1.0]]))
    assert modular.is_standard(StandardSubspace(np.array([[1.0, 1j], [1j, 1.0]])))
    # complex-linearly dependent columns
    assert not modular.is_standard(StandardSubspace(np.array([[1.0, 1j], [0.0, 0.0]])))
    # wrong real dimension
    assert not modular.is_standard(StandardSubspace(np.array([[1.0], [0.0]])))


def _realified_rule(b):
    """The rank test on the 2n real columns of b and ib."""
    return not numkit.nullity(np.hstack([modular._realify(b), modular._realify(1j * b)]))


def test_is_standard_matches_the_realified_rank_rule(rng):
    # The stack [b, ib] has b's singular values, each twice, so b's nullity
    # decides the same way: random, scaled and rank-deficient bases.
    verdicts = set()
    for n in (1, 2, 3, 5, 8, 13):
        for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
            for rank in {n, n - 1, max(n - 3, 0)}:
                b = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) @ (
                    rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n)))
                b = scale * b
                verdict = modular.is_standard(StandardSubspace(b))
                assert verdict == _realified_rule(b), (n, scale, rank)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_modular_pair_rejects_nonstandard():
    with pytest.raises(NotStandard):
        modular.modular_pair(StandardSubspace(np.array([[1.0, 1j], [0.0, 0.0]])))


def test_ill_conditioned_basis_rejected():
    v = StandardSubspace(np.diag([1.0, 1e7]))
    with pytest.raises(NotStandard):
        modular.modular_pair(v)


def test_modular_relation_and_roundtrip(rng):
    for n in (2, 3, 5, 8):
        v = modular.random_standard_subspace(n, rng)
        pair = modular.modular_pair(v)
        jdj = pair.j_unitary @ pair.delta.conj() @ pair.j_unitary.conj().T
        np.testing.assert_allclose(jdj @ pair.delta, np.eye(n), atol=1e-10)
        back = modular.standard_from_pair(pair)
        assert modular.subspace_gap_standard(v, back) <= 1e-8


def test_random_standard_subspace_conditioning(rng):
    for n in (2, 5, 8):
        v = modular.random_standard_subspace(n, rng)
        assert modular.is_standard(v)
        assert np.linalg.cond(v.basis) <= 9.0 + 1e-6


def test_standard_from_pair_validates():
    bad = modular.ModularPair(delta=np.diag([2.0, 1.0]),
                              j_unitary=np.eye(2))
    # J Delta J must equal Delta^{-1}; identity J with non-unit Delta fails
    with pytest.raises(ModularRelationViolated):
        modular.standard_from_pair(bad)


@pytest.mark.parametrize("delta, message", [
    # not self-adjoint and not positive: the self-adjointness gate decides
    (np.array([[-1.0, 2.0], [0.0, -1.0]]),
     "delta is not self-adjoint: residual 2.000e+00 above gate 3.000e-09 at scale 2.000e+00"),
    # self-adjoint, not positive, and off the modular relation
    (np.diag([2.0, -1.0]), "delta is not positive definite"),
    (np.diag([2.0, 1.0]), "modular relation defect: residual 3.000e+00 above gate "
                          "5.000e-09 at scale 4.000e+00"),
    # the squared scale overflows to inf, which the gate judges
    (1e200 * np.eye(2), "modular relation defect: residual inf above gate inf at scale inf"),
], ids=["not_self_adjoint_nor_positive", "not_positive", "relation", "overflowed_scale"])
def test_standard_from_pair_raise_order(delta, message):
    with np.errstate(over="ignore"), pytest.raises(ModularRelationViolated) as exc:
        modular.standard_from_pair(modular.ModularPair(delta, np.eye(2)))
    assert str(exc.value) == message


def test_subspace_containment(rng):
    v = modular.random_standard_subspace(4, rng)
    assert modular.subspace_contained(v, v)
    w = modular.random_standard_subspace(4, rng)
    assert not modular.subspace_contained(v, w)


def test_proper_subspan_is_contained(rng):
    v = modular.random_standard_subspace(4, rng)
    part = StandardSubspace(v.basis[:, :2] @ (rng.normal(size=(2, 2)) + 2 * np.eye(2)))
    assert modular.subspace_contained(part, v)
    assert not modular.subspace_contained(v, part)
    # the two-sided gap still reports unequal dimensions as fully apart
    assert modular.subspace_gap_standard(part, v) == 1.0


def test_rigidity_under_real_basis_change(rng):
    v = modular.random_standard_subspace(5, rng)
    t = rng.normal(size=(5, 5)) + np.eye(5)
    w = StandardSubspace(v.basis @ t)
    assert modular.subspace_contained(v, w)
    assert modular.subspace_gap_standard(v, w) <= 1e-8


def test_graph_projection_scalar_real():
    p = modular.graph_projection([[2.0]])
    np.testing.assert_allclose(p, np.array([[1.0, 2.0], [2.0, 4.0]]) / 5.0,
                               atol=1e-12)


def test_graph_projection_scalar_complex():
    p = modular.graph_projection([[1j]])
    want = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    np.testing.assert_allclose(p, want, atol=1e-12)


def test_graph_projection_properties(rng):
    for shape in ((3, 3), (2, 5), (5, 2)):
        s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        p = modular.graph_projection(s)
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        m, n = shape
        np.testing.assert_allclose(
            p[:n, :n], np.linalg.inv(np.eye(n) + s.conj().T @ s), atol=1e-10)


def test_log_integral_values():
    assert modular.log_integral(1.0) == pytest.approx(0.0, abs=1e-10)
    assert modular.log_integral(np.e) == pytest.approx(1.0, abs=1e-8)
    z = 2.0 + 3.0j
    assert abs(modular.log_integral(z) - np.log(z)) < 1e-8


def test_log_integral_domain():
    with pytest.raises(DomainError):
        modular.log_integral(-1.0)
    with pytest.raises(DomainError):
        modular.log_integral(0.0)


def test_log_monotone_check_passes():
    rep = modular.log_monotone_check(np.eye(2), 2.0 * np.eye(2), trials=25)
    assert rep["ok"]
    assert rep["min_margin"] == pytest.approx(np.log(2.0), abs=1e-12)
    assert rep["resolvent_min_eig"] >= -1e-12
    assert rep["trials"] == 25


def test_log_monotone_check_preconditions():
    with pytest.raises(PreconditionViolated):
        modular.log_monotone_check(2.0 * np.eye(2), np.eye(2))
    with pytest.raises(PreconditionViolated):
        modular.log_monotone_check(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(PreconditionViolated):
        modular.log_monotone_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


_SKEW = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("a, b, message", [
    (np.eye(2) + _SKEW, 2.0 * np.eye(2) + 3.0 * _SKEW,
     "A is not self-adjoint: residual 1.000e+00 above gate 2.000e-09 at scale 1.000e+00"),
    (3.0 * np.eye(2), np.eye(2) + 2.0 * _SKEW,
     "B is not self-adjoint: residual 2.000e+00 above gate 3.000e-09 at scale 2.000e+00"),
    (np.diag([0.0, 5.0]), np.eye(2), "A <= B fails in the Loewner order"),
    (np.zeros((2, 2)), np.zeros((2, 2)), "A must have trivial kernel"),
    (np.diag([1.5e-9, 1.0]), np.diag([0.8e-9, 1.0]), "B must be positive definite"),
], ids=["a_and_b_not_self_adjoint", "b_not_self_adjoint_and_unordered",
        "unordered_and_a_singular", "a_and_b_singular", "b_singular"])
def test_log_monotone_check_raise_order(a, b, message):
    with pytest.raises(PreconditionViolated) as exc:
        modular.log_monotone_check(a, b)
    assert str(exc.value) == message


@pytest.mark.parametrize("a, b", [
    (np.ones((2, 3)), np.ones((2, 3))),
    (np.eye(2) + _SKEW, np.eye(3)),
], ids=["non_square", "two_sizes"])
def test_log_monotone_check_checks_shapes_before_any_gate(a, b):
    with pytest.raises(ValueError) as exc:
        modular.log_monotone_check(a, b)
    assert str(exc.value) == f"need two square matrices of one shape, got {a.shape} and {b.shape}"


def test_subspace_json_roundtrip(rng):
    v = modular.random_standard_subspace(3, rng)
    back = StandardSubspace.from_json(v.to_json())
    np.testing.assert_allclose(back.basis, v.basis, atol=1e-15)
    with pytest.raises(ValueError):
        StandardSubspace.from_json({"basis": "nope"})


def test_self_adjointness_gates_floor_small_scales():
    # a matrix with entries far below 1 is held to the unit-scale gate
    # 2 * tol.value, the same gate loewner_leq applies
    a = 1e-3 * np.eye(2) + np.array([[0.0, 1.5e-9], [0.0, 0.0]])
    assert numkit.loewner_leq(a, 2e-3 * np.eye(2))
    assert modular.log_monotone_check(a, 2e-3 * np.eye(2), trials=5)["ok"]
