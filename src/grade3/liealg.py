"""Finite-dimensional Lie algebras with a distinguished 3-grading.

An algebra is specified by a faithful matrix basis; elements are real
coefficient vectors over that basis.  Structure constants are derived once at
construction and every bracket closes over the basis within tolerance.  A
3-grading is decided by its defining identity ad(h)^3 = ad(h), and its
projectors are the Lagrange polynomials of ad(h) at {-1, 0, 1}; ad(h) is a
derivation, so its eigenspaces bracket by degree within the closure gate.
"""

from __future__ import annotations

import functools

import numpy as np

from . import numkit
from .errors import (
    AdjointOutOfSpan,
    NoTauImplementation,
    NotInOpenCell,
    NotThreeGraded,
)
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "LieAlgebraSpec",
    "Grading",
    "GroupElement",
    "grade_by",
    "adjoint",
    "adjoints",
    "ad_image",
    "conjugate_coords",
    "tau_group",
    "sharp",
]


class LieAlgebraSpec:
    """A real Lie algebra given by a linearly independent matrix basis.

    Coefficient vectors are always real; the representing matrices may be
    complex (e.g. su(2)).  Construction derives the structure constants and
    fails if the basis is dependent or the bracket does not close.  A real
    representation (every basis matrix real) builds matrices and solves
    coordinates of real matrices in real arithmetic.

    ad_tensor, the one structure tensor, holds the matrix of ad(b_i) on
    coefficient vectors as ad_tensor[i]: ad(x) = sum_i x_i ad_tensor[i], and
    ad_tensor[i, k, j] is coordinate k of [b_i, b_j].  bracket reads it too.
    """

    def __init__(self, name, basis, tau_matrix=None):
        self.name = str(name)
        mats = [numkit.require_finite(b, f"basis[{i}]") for i, b in enumerate(basis)]
        if not mats:
            raise ValueError("empty basis")
        r = mats[0].shape[0] if mats[0].ndim else 0
        if any(m.shape != (r, r) for m in mats):
            raise ValueError("basis matrices must be square and same-shaped")
        self.rep_dim = r
        self.dim = len(mats)
        self.basis = np.stack([m.astype(complex) for m in mats])
        self._is_real_rep = all(not np.iscomplexobj(m) or np.abs(m.imag).max(initial=0) == 0 for m in mats)
        if tau_matrix is not None:
            tau_matrix = numkit.require_finite(tau_matrix, "tau_matrix")
            if tau_matrix.shape != (r, r):
                raise ValueError("tau_matrix shape mismatch")
        self.tau_matrix = tau_matrix

        # Real stacked basis (re over im), one column per basis element.
        flat = self.basis.reshape(self.dim, r * r).T
        self._bstack = np.vstack([flat.real, flat.imag])
        if numkit.nullity(self._bstack):
            raise ValueError("basis matrices are linearly dependent")
        self._pinv = np.linalg.pinv(self._bstack)
        if self._is_real_rep:
            # The imaginary halves of _bstack and _pinv are exactly zero.  The
            # map keeps _pinv.T's layout (a C-contiguous transpose): another
            # layout takes another BLAS path and moves coordinates' last bits.
            self._basis_flat = self._bstack[:r * r].T
            self._coord_map = np.ascontiguousarray(self._pinv[:, :r * r]).T
        self._basis_scale = max(1.0, float(np.abs(self.basis).max()))

        # ad_tensor[i] from the coordinates of [b_i, b_j], solved one basis
        # row i at a time: the working set is one (d, r, r) stack.  Row i is
        # b_i [b_0 | ... | b_{d-1}] - [b_0; ...; b_{d-1}] b_i: two products.
        d = self.dim
        wide = self.basis.transpose(1, 0, 2).reshape(r, d * r)
        tall = self.basis.reshape(d * r, r)
        self.ad_tensor = np.empty((d,) * 3)
        res = np.empty((d, d))
        for i, b in enumerate(self.basis):
            comm = (b @ wide).reshape(r, d, r).transpose(1, 0, 2) - (tall @ b).reshape(d, r, r)
            row, res[i] = self.try_coords(comm)
            self.ad_tensor[i] = row.T
        DEFAULT_TOL.check(float(res.max()), self._basis_scale * self._basis_scale, ValueError,
                          "bracket does not close over the basis")

    @functools.cached_property
    def _tau_inverse(self) -> np.ndarray:
        """Inverse of tau_matrix, computed on first use; a singular
        tau_matrix raises NoTauImplementation at every use."""
        try:
            return np.linalg.inv(self.tau_matrix)
        except np.linalg.LinAlgError as exc:
            raise NoTauImplementation(
                f"algebra {self.name} has a singular tau_matrix") from exc

    def to_matrix(self, x) -> np.ndarray:
        """Representing matrix of the coefficient vector x."""
        x = np.asarray(x, dtype=float)
        if self._is_real_rep:
            return (x @ self._basis_flat).reshape(self.rep_dim, self.rep_dim)
        return np.einsum("i,iab->ab", x, self.basis)

    def try_coords(self, m):
        """Best real coefficient vector for matrix m and its residual.

        m is one (r, r) matrix or a stack (..., r, r); the solve runs along
        the last axis, so a stack gives coefficients (..., dim) and residuals
        (...).  One real matrix in a real representation is solved in real
        arithmetic.  Otherwise the (real, imaginary) parts are stacked, so an
        imaginary part counts in the residual; a real stack is stacked too,
        since its shorter matrix-matrix product would move the last bits."""
        m = np.asarray(m)
        if self._is_real_rep and m.ndim == 2 and m.dtype.kind != "c":
            flat = m.ravel()
            v = flat @ self._coord_map
            d = v @ self._basis_flat - flat
            return v, np.sqrt(np.add.reduce(d * d))
        flat = m.reshape(m.shape[:-2] + (-1,))
        stacked = np.concatenate([flat.real, flat.imag], axis=-1)
        v = stacked @ self._pinv.T
        d = v @ self._bstack.T - stacked
        return v, np.sqrt((d * d).sum(axis=-1))

    def coords(self, m) -> np.ndarray:
        """Coefficient vector of m; raises ValueError if m leaves the span."""
        v, res = self.try_coords(m)
        DEFAULT_TOL.check(float(res), float(np.abs(m).max(initial=0.0)), ValueError,
                          "matrix outside basis span")
        return v

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket of coefficient vectors."""
        return np.einsum("i,j,ikj->k", x, y, self.ad_tensor)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) on coefficient vectors."""
        return np.einsum("i,ikj->kj", np.asarray(x, dtype=float), self.ad_tensor)

    def jacobi_defect(self) -> float:
        """Largest Jacobi-identity residual over basis triples.

        With C[p, q, s] = ad_tensor[p, s, q], coordinate s of [b_p, b_q],
        and u[p, q, s] = [[b_p, b_q], b_s] = C[p, q] @ C[:, s], the triples
        i < j < k are read in groups of equal smallest index i.  The constants
        are exactly antisymmetric (the commutators are formed as an exact
        difference), so a reordering of a triple only permutes and negates its
        terms a = u[i, j, k], b = u[j, k, i], e = u[k, i, j] = -u[i, k, j], and
        the largest residual over all orderings is the largest over the
        pairings (a + b) + e, (b + e) + a, (e + a) + b.  Group i forms a and b
        on the grid j, k > i, where cell (k, j) holds -e, -b, -a: so (a + b) + e
        there covers the first two pairings, and the diagonal sums to zero.
        The working set is O(d^3) floats: C, held for the call, and a few
        (d-i-1, d-i-1, d) arrays.  Fewer than three basis elements give 0.0.
        """
        c = np.ascontiguousarray(self.ad_tensor.transpose(0, 2, 1))
        d = len(c)
        worst = 0.0
        for i in range(d - 2):
            n = d - i - 1
            a = (c[i, i + 1:] @ c.reshape(d, d * d)[:, (i + 1) * d:]).reshape(n, n, d)
            b = (c[i + 1:, i + 1:].reshape(n * n, d) @ c[:, i]).reshape(n, n, d)
            at = a.transpose(1, 0, 2)  # -e
            s = a + b
            s -= at
            worst = max(worst, np.abs(s, out=s).max())
            np.subtract(a, at, out=s)
            s += b
            worst = max(worst, np.abs(s, out=s).max())
        return float(worst)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "rep_dim": self.rep_dim,
            "basis": [numkit.matrix_to_json(self.to_matrix(e)) for e in np.eye(self.dim)],
        }
        if self.tau_matrix is not None:
            out["tau_matrix"] = numkit.matrix_to_json(self.tau_matrix)
        return out

    @classmethod
    def from_json(cls, d: dict) -> "LieAlgebraSpec":
        try:
            name = d["name"]
            basis = [numkit.matrix_from_json(b) for b in d["basis"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad algebra object: {exc}") from exc
        tau = numkit.matrix_from_json(d["tau_matrix"]) if "tau_matrix" in d else None
        return cls(name, basis, tau_matrix=tau)

    def __repr__(self):
        return f"LieAlgebraSpec({self.name!r}, dim={self.dim}, rep_dim={self.rep_dim})"


class Grading:
    """Spectral data of a 3-grading: projectors onto the ad(h) eigenspaces
    for eigenvalues -1, 0, +1 and the induced involution tau = P0 - P- - P+.
    The matrix of h, the nilpotency bound of g^{+-1}, the eigenbases and the
    tau_matrix defect are built on first use and then kept."""

    def __init__(self, algebra: LieAlgebraSpec, h, p_minus, p_zero, p_plus):
        self.algebra = algebra
        self.h = np.asarray(h, dtype=float)
        self.p_minus = p_minus
        self.p_zero = p_zero
        self.p_plus = p_plus
        self.tau = p_zero - p_minus - p_plus
        self.dims = (
            int(round(np.trace(p_minus).real)),
            int(round(np.trace(p_zero).real)),
            int(round(np.trace(p_plus).real)),
        )
        self._projectors = {-1: p_minus, 0: p_zero, 1: p_plus}
        self._bases = {}
        self._eye = np.eye(algebra.rep_dim)  # inverse_unipotent's, held once
        self.coeff_identity = np.eye(algebra.dim)  # the factorization's, held once

    @functools.cached_property
    def h_matrix(self) -> np.ndarray:
        return self.algebra.to_matrix(self.h)

    @functools.cached_property
    def tau_defect(self) -> tuple[float, float]:
        """(residual, scale) of T b_i T^{-1} = tau(b_i) over the basis, T the
        algebra's tau_matrix; the scale max|b_i| ||T|| ||T^{-1}|| bounds roundoff."""
        b, t, t_inv = self.algebra.basis, self.algebra.tau_matrix, self.algebra._tau_inverse
        return (float(np.abs(t @ b @ t_inv - np.tensordot(self.tau.T, b, 1)).max()),
                float(np.abs(b).max() * np.linalg.norm(t) * np.linalg.norm(t_inv)))

    @functools.cached_property
    def nilpotency_bound(self) -> int:
        """Length k of the longest chain lambda, lambda + 1, ... in the
        clustered spectrum of h_matrix, each step matched within a quarter.
        [H, X] = +-X moves each generalized eigenspace of H one step, so
        X^k = 0 for every x in g^{+1} or g^{-1}.  Computed on first use."""
        vals = numkit.eigvals_clustered(self.h_matrix)
        k, level = 0, vals
        while level.size:  # level: the values k steps up some chain
            k += 1
            level = vals[(np.abs(level[:, None] + 1.0 - vals) < 0.25).any(axis=0)]
        return k

    def inverse_unipotent(self, x, which: str) -> np.ndarray:
        """exp(-X), X = to_matrix(x), for x in g^{+1} or g^{-1}: the Taylor
        sum of (-X)^j / j! over j < k = nilpotency_bound, which terminates
        there, in Horner form I - X (I - X/2 (I - ...)), starting at
        I - X/(k - 1).  NotInOpenCell names the which factor if it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.algebra.to_matrix(x)
            k = self.nilpotency_bound
            out = self._eye.copy() if k < 2 else self._eye - m / (k - 1)
            for j in range(k - 2, 0, -1):
                out = self._eye - m @ out / j
        if not np.isfinite(out).all():
            raise NotInOpenCell(f"{which} factor exp(-x) overflows")
        return out

    def part(self, x, degree: int) -> np.ndarray:
        """Component of x in the degree eigenspace."""
        return self._projectors[degree] @ np.asarray(x, dtype=float)

    def eigenbasis(self, degree: int) -> np.ndarray:
        """Orthonormal columns spanning the degree eigenspace: as many leading
        left singular vectors of its projector as its trace (an idempotent's)."""
        if degree not in self._bases:
            u = np.linalg.svd(self._projectors[degree])[0]
            self._bases[degree] = u[:, :self.dims[degree + 1]]
        return self._bases[degree]


def grade_by(algebra: LieAlgebraSpec, h) -> Grading:
    """3-grading of the algebra by ad(h) eigenvalues {-1, 0, +1}.

    ad(h) is diagonalizable with spectrum in {-1, 0, 1} exactly when
    ad(h)^3 = ad(h): that identity is the one gate, at the default tolerance
    and the scale of ad(h)^3's largest entry.  A non-finite h is refused
    first, then a square or cube of ad(h) that overflows, with h's size.
    The projectors are the Lagrange polynomials of ad(h) at {-1, 0, 1};
    they bracket by degree with no further check (module docstring).  O(d^3).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (algebra.dim,):
        raise ValueError("h must be a coefficient vector of the algebra")
    numkit.require_finite(h, "h")
    with np.errstate(over="ignore", invalid="ignore"):
        a = algebra.ad(h)
        a2 = a @ a
        a3 = a2 @ a
    for name, power in (("ad(h)^2", a2), ("ad(h)^3", a3)):  # a non-finite ad(h) fails ad(h)^2
        if not np.isfinite(power).all():
            raise NotThreeGraded(f"{name} overflows: h has an entry of size "
                                 f"{float(np.abs(h).max()):.3e}")
    DEFAULT_TOL.check(float(np.abs(a3 - a).max()), float(np.abs(a3).max()), NotThreeGraded,
                      "ad(h)^3 differs from ad(h)")
    return Grading(algebra, h, (a2 - a) / 2.0, np.eye(algebra.dim) - a2, (a2 + a) / 2.0)


class GroupElement:
    """Invertible matrix in the representation carrying the algebra: a
    finite matrix of the representation's shape."""

    def __init__(self, algebra: LieAlgebraSpec, matrix):
        self.algebra = algebra
        m = numkit.require_finite(matrix, "group element")
        if m.shape != (algebra.rep_dim, algebra.rep_dim):
            raise ValueError("group element has wrong shape for the representation")
        self.matrix = m

    @classmethod
    def exp(cls, algebra: LieAlgebraSpec, x) -> "GroupElement":
        """exp of the coefficient vector x."""
        return cls(algebra, numkit.expm(algebra.to_matrix(x)))

    @functools.cached_property
    def inv_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def inverse(self) -> "GroupElement":
        """g^{-1}, holding g's matrix as its inverse."""
        out = GroupElement(self.algebra, self.inv_matrix)
        out.inv_matrix = self.matrix
        return out

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.algebra is not self.algebra:
            raise ValueError("group elements from different algebras")
        return GroupElement(self.algebra, self.matrix @ other.matrix)

    def __repr__(self):
        return f"GroupElement({self.algebra.name}, {self.matrix.tolist()})"


def conjugate_coords(algebra: LieAlgebraSpec, m, m_inv, xm, tol: Tolerance, what: str,
                     x_scale: float | None = None) -> np.ndarray:
    """Coefficients of m X m_inv (m a group element's matrix) for one matrix X
    or a stack; AdjointOutOfSpan when the worst residual exceeds the gate at
    scale ||m|| x_scale ||m_inv||, the size roundoff actually reaches when the
    conjugation cancels.  x_scale defaults to the Frobenius norm of X.

    m and m_inv may be stacks (N, r, r) of group elements, with X a stack
    (k, r, r); the coefficients are then (N, k, dim).  Each element is gated
    on its own worst residual, and the first failing one in stack order
    raises the message it raises alone.  Stacked products and solves run one
    matrix at a time, so every element gets the bits of its own call."""
    if m.ndim == 2:
        v, res = algebra.try_coords(m @ xm @ m_inv)
        _gate_conjugate(res.max() if res.ndim else float(res), m, m_inv, xm, tol, what,
                        x_scale)
        return v
    v, res = algebra.try_coords(m[:, None] @ xm @ m_inv[:, None])
    worst = res.reshape(len(m), -1).max(axis=1)
    for i in np.flatnonzero(~(worst <= tol.gate())):
        _gate_conjugate(worst[i], m[i], m_inv[i], xm, tol, what, x_scale)
    return v


def _gate_conjugate(worst, m, m_inv, xm, tol: Tolerance, what: str, x_scale) -> None:
    """conjugate_coords' gate for one group element m."""
    # The gate floors its scale at 1, so a residual within the gate at
    # scale 1 passes at any scale without the norms; NaN falls through.
    if not worst <= tol.gate():
        if x_scale is None:
            x_scale = np.linalg.norm(xm)
        scale = float(np.linalg.norm(m) * x_scale * np.linalg.norm(m_inv))
        tol.check(worst, scale, AdjointOutOfSpan, what)


def ad_image(g: GroupElement, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Coefficients of Ad(g) x = g X g^{-1}, gated as in conjugate_coords; x is
    a coefficient vector, or a Grading standing for h by the matrix it holds."""
    xm = x.h_matrix if isinstance(x, Grading) else g.algebra.to_matrix(x)
    return conjugate_coords(g.algebra, g.matrix, g.inv_matrix, xm, tol, "Ad(g)x")


def adjoint(g: GroupElement, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix of Ad(g) on coefficient vectors: adjoints for one element."""
    return adjoints(g.algebra, g.matrix[None], g.inv_matrix[None], tol)[0]


def adjoints(algebra: LieAlgebraSpec, ms, m_invs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrices of Ad(g) on coefficient vectors, shape (N, dim, dim), for a
    stack ms (N, r, r) of group-element matrices and m_invs of their
    inverses: one conjugation of the basis by every element, gated per
    element at the basis's scale as in conjugate_coords."""
    return conjugate_coords(algebra, ms, m_invs, algebra.basis, tol, "Ad(g)",
                            algebra._basis_scale).transpose(0, 2, 1)


def tau_group(g: GroupElement) -> GroupElement:
    """Group-level involution implemented by the algebra's tau matrix."""
    alg = g.algebra
    t = alg.tau_matrix
    if t is None:
        raise NoTauImplementation(f"algebra {alg.name} has no tau matrix")
    return GroupElement(alg, t @ g.matrix @ alg._tau_inverse)


def sharp(g: GroupElement) -> GroupElement:
    """The semigroup involution g -> tau_G(g)^{-1}."""
    return tau_group(g).inverse()
