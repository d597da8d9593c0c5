"""Finite-dimensional modular theory of standard subspaces of C^n.

A standard subspace V (V cap iV = 0, V + iV = C^n) determines the conjugation
T(xi + i eta) = xi - i eta.  As an antilinear map, T(z) = A conj(z) with
A = B conj(B)^{-1} for any complex basis matrix B of V.  The modular data
come from the polar decomposition A = U_J conj(Delta)^{1/2}: Delta = T*T with
the antilinear adjoint convention <eta, T xi> = <xi, T* eta>, and
J = U_J compose conj.  All operators on C^n are stored as (matrix, implicit
conjugation) pairs through their complex-linear parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (
    DomainError,
    ModularRelationViolated,
    NotStandard,
    PreconditionViolated,
)
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "StandardSubspace",
    "ModularPair",
    "is_standard",
    "modular_pair",
    "standard_from_pair",
    "random_standard_subspace",
    "random_ordered_pair",
    "graph_projection",
    "log_integral",
    "log_monotone_check",
    "subspace_contained",
]

# Condition-number ceiling for accepting a standard-subspace basis.
MAX_BASIS_COND = 1e6
# random_standard_subspace draws singular values in [1/_SPREAD, _SPREAD].
_SPREAD = 3.0


def _realify(b: np.ndarray) -> np.ndarray:
    b = np.atleast_2d(b)
    return np.vstack([b.real, b.imag])


class StandardSubspace:
    """Real-linear span of complex basis vectors (columns of basis)."""

    def __init__(self, basis):
        b = np.asarray(basis, dtype=complex)
        if b.ndim == 1:
            b = b[:, None]
        numkit.require_finite(b, "subspace basis")
        self.n = b.shape[0]
        self.basis = b

    @classmethod
    def from_json(cls, d: dict) -> "StandardSubspace":
        try:
            vecs = [numkit.vector_from_json(v) for v in d["basis"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad subspace object: {exc}") from exc
        return cls(np.column_stack(vecs))

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "basis": [numkit.vector_to_json(col) for col in self.basis.T],
        }

    def __repr__(self):
        return f"StandardSubspace(n={self.n}, k={self.basis.shape[1]})"


@dataclass
class ModularPair:
    """Modular operator Delta (positive) and the complex-linear part U_J of
    the modular conjugation J = U_J compose conj."""

    delta: np.ndarray
    j_unitary: np.ndarray

    def to_json(self) -> dict:
        return {
            "delta": numkit.matrix_to_json(self.delta),
            "j_unitary": numkit.matrix_to_json(self.j_unitary),
        }


def is_standard(v: StandardSubspace) -> bool:
    """V is standard: dim_R V = n, V cap iV = 0, V + iV = C^n, which for n
    basis vectors b means the 2n real columns of b and ib are independent,
    that is, b is invertible: the realified stack [b, ib] has b's singular
    values, each twice, so b's own nullity decides."""
    b = v.basis
    n, k = b.shape
    return k == n and not numkit.nullity(b)


def _tomita_linear_part(v: StandardSubspace) -> np.ndarray:
    """A with T(z) = A conj(z); T fixes the basis columns of V."""
    if not is_standard(v):
        raise NotStandard("subspace is not standard")
    b = v.basis
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[0] / sv[-1] > MAX_BASIS_COND:
        raise NotStandard(
            f"basis condition number {sv[0] / sv[-1]:.2e} exceeds {MAX_BASIS_COND:.0e}"
        )
    # A conj(B) = B
    return np.linalg.solve(b.conj().T, b.T).T


def modular_pair(v: StandardSubspace, tol: Tolerance = DEFAULT_TOL) -> ModularPair:
    """Modular data of a standard subspace.

    Delta and U_J come from the polar decomposition of the Tomita matrix via
    SVD, which keeps U_J unitary to machine precision.  The modular relation
    J Delta J = Delta^{-1} and J^2 = 1 are verified before returning, and the
    fixed space of J Delta^{1/2} is checked to reproduce V.
    """
    a = _tomita_linear_part(v)
    w, sig, vh = np.linalg.svd(a)
    u_j = w @ vh
    delta = (vh.conj().T * sig**2) @ vh
    delta = delta.conj()
    pair = ModularPair(delta=delta, j_unitary=u_j)
    size = _check_modular_relation(pair, tol)
    recovered = _fixed_space(a, v.n)
    tol.check(subspace_gap_standard(v, StandardSubspace(recovered)), size,
              ModularRelationViolated, "Fix(J Delta^{1/2}) misses V")
    return pair


def _check_modular_relation(pair: ModularPair, tol: Tolerance) -> float:
    """The modular-relation gate: the worst violation among J^2 = 1,
    unitarity and J Delta J Delta = 1 must pass tol at the squared scale of
    Delta's largest entry (ModularRelationViolated otherwise).  Returns that
    largest entry."""
    u, d = pair.j_unitary, pair.delta
    n = u.shape[0]
    eye = np.eye(n)
    out = float(np.abs(u @ u.conj().T - eye).max())
    out = max(out, float(np.abs(u @ u.conj() - eye).max()))
    out = max(out, numkit.hermitian_defect(d))
    jdj = u @ d.conj() @ u.conj()
    out = max(out, float(np.abs(jdj @ d - eye).max()))
    size = float(np.abs(d).max(initial=0.0))
    tol.check(out, size * size, ModularRelationViolated, "modular relation defect")
    return size


def _fixed_space(a: np.ndarray, n: int) -> np.ndarray:
    """Real-linear fixed space {z : A conj(z) = z} as complex columns."""
    ar, ai = a.real, a.imag
    eye = np.eye(n)
    f = np.block([[ar - eye, ai], [ai, -(ar + eye)]])
    null = numkit.null_space(f, rtol=1e-8)
    return null[:n] + 1j * null[n:]


def standard_from_pair(pair: ModularPair, tol: Tolerance = DEFAULT_TOL) -> StandardSubspace:
    """Standard subspace Fix(J Delta^{1/2}) of a valid modular pair."""
    u, d = pair.j_unitary, pair.delta
    numkit.require_finite(u, "j_unitary")
    numkit.require_finite(d, "delta")
    n = u.shape[0]
    numkit.check_self_adjoint(d, tol, ModularRelationViolated, "delta is not self-adjoint")
    evals, evecs = np.linalg.eigh((d + d.conj().T) / 2)
    if evals.min() <= tol.value:
        raise ModularRelationViolated("delta is not positive definite")
    _check_modular_relation(pair, tol)
    sqrt_d = (evecs * np.sqrt(evals)) @ evecs.conj().T
    a = u @ sqrt_d.conj()
    v = StandardSubspace(_fixed_space(a, n))
    if not is_standard(v):
        raise NotStandard("fixed space of J Delta^{1/2} is not standard")
    return v


def random_standard_subspace(n: int, rng: np.random.Generator) -> StandardSubspace:
    """Random standard subspace of C^n with a well-conditioned basis.

    Any complex-invertible basis matrix spans a standard subspace, so the
    sampler draws U diag(s) W^H with Haar unitary factors and log-uniform
    singular values in [1/_SPREAD, _SPREAD].  The basis condition number is
    then at most _SPREAD^2, which keeps the modular data computable to
    near machine precision.
    """

    def haar(k):
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        return q * (d / np.abs(d))

    s = np.exp(rng.uniform(-np.log(_SPREAD), np.log(_SPREAD), size=n))
    return StandardSubspace((haar(n) * s) @ haar(n).conj().T)


def random_ordered_pair(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random complex n x n matrices 0 < A <= B: A = R*R + 0.1 I and
    B = A + M*M with Gaussian R and M."""
    r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = r.conj().T @ r + 0.1 * np.eye(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a, a + m.conj().T @ m


def subspace_gap_standard(v1: StandardSubspace, v2: StandardSubspace) -> float:
    """sin of the largest principal angle between the realified spans."""
    return numkit.subspace_gap(_realify(v1.basis), _realify(v2.basis))


def subspace_contained(v1: StandardSubspace, v2: StandardSubspace,
                       tol: Tolerance = DEFAULT_TOL) -> bool:
    """Real-linear containment span(v1) within span(v2) at tolerance."""
    excess = numkit.subspace_excess(_realify(v2.basis), _realify(v1.basis))
    return bool(excess <= np.sqrt(tol.value))


def graph_projection(s, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projection onto the graph {(x, Sx)} in C^{n+m}.

    Built from an orthonormalized graph basis; the closed forms
    p11 = (1 + S*S)^{-1} and p12 = (1 + S*S)^{-1} S* are asserted against it
    before returning.
    """
    s = np.atleast_2d(np.asarray(s, dtype=complex))
    m, n = s.shape
    g = np.vstack([np.eye(n), s])
    q = np.linalg.qr(g)[0]
    p = q @ q.conj().T
    gram_inv = np.linalg.inv(np.eye(n) + s.conj().T @ s)
    # [p11, p12] against (1 + S*S)^{-1} [1, S*]
    closed = gram_inv @ np.hstack([np.eye(n), s.conj().T])
    size = float(np.abs(s).max(initial=0.0))
    tol.check(np.abs(p[:n] - closed).max(), size * size,
              ArithmeticError, "graph projection disagrees with its closed form")
    return p


def log_integral(z: complex) -> complex:
    """log z for Re z > 0 through the integral of 1/(x+1) - 1/(x+z) over
    x in [0, inf), after the substitution x = t/(1-t) the integrand is the
    smooth function (z-1)/(t + z(1-t)) on [0, 1]."""
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError(f"log integral needs Re z > 0, got {z}")

    def f(t):
        return (z - 1.0) / (t + z * (1.0 - t))

    val = numkit.quad_adaptive(f, 0.0, 1.0, tol=1e-8)
    return complex(val)


def log_monotone_check(a, b, trials: int = 100, tol: Tolerance = DEFAULT_TOL,
                       rng: np.random.Generator | None = None) -> dict:
    """Sampled operator-monotonicity certificate for log on [A, B].

    Requires square A and B of one shape (ValueError otherwise) and
    0 < A <= B (PreconditionViolated otherwise).  Checks the
    quadratic-form margin <xi, log(B) xi> - <xi, log(A) xi>, each form taken
    through the spectral decomposition of its matrix, on random unit vectors
    and the resolvent step -(x+A)^{-1} <= -(x+B)^{-1}, whose Loewner margin
    is loewner_margin(rb, ra), on the grid x in {0, 0.1, 1, 10}.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    numkit.require_square_pair(a, b)
    for name, mat in (("A", a), ("B", b)):
        numkit.check_self_adjoint(mat, tol, PreconditionViolated, f"{name} is not self-adjoint")
    if not numkit.loewner_margin(a, b) >= -tol.value:
        raise PreconditionViolated("A <= B fails in the Loewner order")
    evals_a, evecs_a = np.linalg.eigh((a + a.conj().T) / 2)
    if evals_a.min() <= tol.value:
        raise PreconditionViolated("A must have trivial kernel")
    evals_b, evecs_b = np.linalg.eigh((b + b.conj().T) / 2)
    if evals_b.min() <= tol.value:
        raise PreconditionViolated("B must be positive definite")
    n = a.shape[0]
    xi = rng.normal(size=(n, int(trials))) + 1j * rng.normal(size=(n, int(trials)))
    xi = xi / np.linalg.norm(xi, axis=0)
    qa = np.log(evals_a) @ (np.abs(evecs_a.conj().T @ xi) ** 2)
    qb = np.log(evals_b) @ (np.abs(evecs_b.conj().T @ xi) ** 2)
    min_margin = float((qb - qa).min()) if trials else np.inf
    resolvent_min = np.inf
    for x in (0.0, 0.1, 1.0, 10.0):
        eye = np.eye(n)
        ra = np.linalg.inv(x * eye + a)
        rb = np.linalg.inv(x * eye + b)
        # -(x+A)^{-1} <= -(x+B)^{-1} iff (x+B)^{-1} <= (x+A)^{-1}
        resolvent_min = min(resolvent_min, numkit.loewner_margin(rb, ra))
    ok = bool(min_margin >= -tol.value and resolvent_min >= -tol.value)
    return {
        "trials": int(trials),
        "min_margin": float(min_margin),
        "resolvent_min_eig": float(resolvent_min),
        "ok": ok,
    }
