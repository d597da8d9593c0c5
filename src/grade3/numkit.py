"""Dense linear-algebra kernel used by every other module.

Thin, deterministic wrappers around numpy/scipy primitives plus the pieces
they do not provide: the principal matrix log with branch-cut detection,
nonnegative least squares (Lawson-Hanson on np.linalg.lstsq), the Loewner
order, eigenvalue clustering, adaptive Gauss-Legendre quadrature, and the
JSON matrix and complex-vector codecs.  It owns the tolerance policy: every
residual gate is decided by Tolerance.check (raise) or Tolerance.accepts
(bool) against Tolerance.gate, which floors the data scale at 1; an
infinite or NaN residual never passes.  It owns two Hermitian-operator
facts: check_self_adjoint is the one self-adjointness gate, and
loewner_margin, the smallest eigenvalue of the Hermitian part of b - a, the
one Loewner margin.  The rank cutoff
RANK_RTOL and the eigenvalue gap CLUSTER_GAP are fixed.  logm_principal owns
a log's real part: a real matrix clear of the branch cut has a real
principal log.  scipy.linalg is imported on first use, by expm and
logm_principal only, so importing this module, clustering a spectrum or
solving an nnls does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, NotSelfAdjoint

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CLUSTER_GAP",
    "RANK_RTOL",
    "require_finite",
    "float_list",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "expm",
    "logm_principal",
    "solve_lstsq",
    "nnls",
    "hermitian_defect",
    "check_self_adjoint",
    "require_square_pair",
    "loewner_margin",
    "loewner_leq",
    "null_space",
    "nullity",
    "clusters",
    "eigvals_clustered",
    "quad_adaptive",
    "subspace_excess",
    "subspace_gap",
]

# Gap threshold for clustering eigenvalues onto structural targets.  Fixed by
# design, independent of the user tolerance.
CLUSTER_GAP = 1e-8

# Relative singular-value cutoff for numerical rank, also fixed by design.
RANK_RTOL = 1e-10

# nnls takes a gradient entry as positive above this many units of roundoff
# per row or column.
_NNLS_ROUNDOFF = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Tolerance:
    """The one user tolerance used across the package.

    value gates absolute residuals and one-sided cone slacks as it is, and
    scales with the problem data through gate(), which floors the data
    scale at 1 so that small data never tighten a gate below unit scale.
    """

    value: float = 1e-9

    def __post_init__(self):
        # An infinite value would open every gate; NaN fails this test too.
        if not 0.0 <= self.value < np.inf:
            raise ValueError("tolerance must be finite and nonnegative")

    def gate(self, scale: float = 1.0) -> float:
        """Largest residual accepted for data of the given magnitude; 0 at
        every scale, infinity included, for a zero tolerance."""
        return self.value + self.value * max(1.0, abs(scale)) if self.value else 0.0

    def accepts(self, residual: float, scale: float = 1.0) -> bool:
        """residual <= gate(scale); an infinite or NaN residual never passes."""
        return bool(abs(residual) < math.inf and residual <= self.gate(scale))

    def check(self, residual: float, scale: float, error: type, what: str) -> None:
        """Raise error("<what>: residual R above gate G at scale S") unless accepts."""
        if not self.accepts(residual, scale):
            raise error(f"{what}: residual {residual:.3e} above gate "
                        f"{self.gate(scale):.3e} at scale {scale:.3e}")


DEFAULT_TOL = Tolerance()


def require_finite(a, what: str = "matrix") -> np.ndarray:
    """Return a as an ndarray after checking every entry is finite."""
    a = np.asarray(a)
    if a.dtype == object:
        raise ValueError(f"{what} has non-numeric entries")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    return a


def float_list(a) -> list:
    """a as nested lists of Python floats (an integer 1 gives 1.0), the
    form every JSON document of the package writes numbers in."""
    return np.asarray(a, dtype=float).tolist()


def matrix_to_json(m) -> dict:
    """Serialize a matrix to {"rows", "cols", "re"[, "im"]} with row-major
    flat entry lists.  "im" is present only for complex matrices."""
    m = require_finite(np.atleast_2d(m))
    out = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": float_list(np.real(m).ravel()),
    }
    if np.iscomplexobj(m):
        out["im"] = float_list(np.imag(m).ravel())
    return out


def matrix_from_json(d: dict) -> np.ndarray:
    """Inverse of matrix_to_json.  Raises ValueError on malformed input."""
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad matrix object: {exc}") from exc
    if rows < 0 or cols < 0 or re.size != rows * cols:
        raise ValueError("matrix entry count does not match rows*cols")
    m = re.reshape(rows, cols)
    if "im" in d:
        im = np.asarray(d["im"], dtype=float)
        if im.size != rows * cols:
            raise ValueError("matrix entry count does not match rows*cols")
        m = m + 1j * im.reshape(rows, cols)
    return require_finite(m)


def vector_to_json(z) -> dict:
    """Serialize a complex vector to {"re", "im"} entry lists."""
    z = np.asarray(z)
    return {"re": float_list(z.real), "im": float_list(z.imag)}


def vector_from_json(d: dict) -> np.ndarray:
    """Inverse of vector_to_json; a missing "im" reads as zeros.  Raises
    KeyError, TypeError or ValueError on malformed input."""
    re = np.asarray(d["re"], dtype=float)
    return re + 1j * np.asarray(d.get("im", np.zeros(len(d["re"]))), dtype=float)


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring)."""
    import scipy.linalg
    return scipy.linalg.expm(require_finite(a))


def _cut_distance(z: complex) -> float:
    """Distance from z to the ray (-inf, 0]."""
    if z.real <= 0.0:
        return abs(z.imag)
    return abs(z)


@functools.cache
def _gauss_legendre(n: int, unit: bool = False):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], or
    mapped to [0, 1] when unit, as read-only arrays built on first use, so
    numpy.polynomial is not imported until a log or an integral needs it."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    if unit:
        nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The degree-8 Gauss-Legendre Pade approximant to log(I + X), from the rule
# on [0, 1], is accurate to double precision for ||X||_1 up to 0.367 (Al-Mohy
# & Higham 2012, Table 2.1); _LOG_THETA keeps a margin below it.  Each square
# root halves log(t), so _LOG_MAX_SQRTS halvings bring any log with finite
# entries under _LOG_THETA.
_LOG_DEGREE = 8
_LOG_THETA = 0.25
_LOG_MAX_SQRTS = 1100


def logm_principal(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm, real for a real input.

    Inverse scaling and squaring on one complex Schur form a = z t z^H
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 34, 2012): square roots of t
    until ||t - I||_1 <= _LOG_THETA, the Pade sum as one stacked solve, the
    diagonal reset to the logs of t's eigenvalues.  The principal log of a
    real matrix with no eigenvalue on the closed negative axis is real, so a
    real input gives the real part.  Raises BranchCutError when any
    eigenvalue, clustered as in eigvals_clustered (for a real input together
    with its conjugates), lies within tol.value of that axis, where the
    principal branch is ill-defined, or when the square roots overflow or do
    not reach the Pade region within _LOG_MAX_SQRTS steps.
    """
    import scipy.linalg
    a = require_finite(a)
    t0, z = scipy.linalg.schur(np.atleast_2d(a).astype(complex), output="complex")
    vals = np.diag(t0)
    if not np.iscomplexobj(a):
        # a real spectrum is closed under conjugation: mirroring it merges a
        # real eigenvalue's roundoff imaginary part away before the check
        vals = np.concatenate([vals, vals.conj()])
    for lam in _merge_clusters(vals):
        if _cut_distance(complex(lam)) <= tol.value:
            raise BranchCutError(
                f"eigenvalue {lam} within {tol.value} of the branch cut"
            )
    eye = np.eye(len(t0))
    t, k = t0, 0
    while not (dist := np.linalg.norm(t - eye, 1)) <= _LOG_THETA:
        if k == _LOG_MAX_SQRTS or not dist < np.inf:
            raise BranchCutError(
                f"{k} square roots did not bring the Schur factor near I")
        t, k = scipy.linalg.sqrtm(t), k + 1
    x = t - eye
    nodes, weights = _gauss_legendre(_LOG_DEGREE, unit=True)
    terms = np.linalg.solve(eye + nodes[:, None, None] * x,
                            np.broadcast_to(x, (len(nodes),) + x.shape))
    log_t = np.exp2(k) * np.tensordot(weights, terms, axes=1)
    np.fill_diagonal(log_t, np.log(np.diag(t0)))
    out = z @ log_t @ z.conj().T
    return out if np.iscomplexobj(a) else out.real


def solve_lstsq(a, b):
    """Minimum-norm least-squares solution of a x = b.

    Returns (x, residual) with residual = ||a x - b||_2 computed explicitly
    (numpy's residual output is empty in the rank-deficient case).
    """
    a = require_finite(a)
    b = require_finite(b)
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual


def nnls(a, b):
    """Nonnegative least squares: x >= 0 minimising ||a x - b||_2, and that
    residual norm.

    The active-set method of Lawson & Hanson (Solving Least Squares
    Problems, SIAM 1995, ch. 23).  The column of largest gradient a^T r
    joins the passive set.  The passive columns' least-squares solution
    (np.linalg.lstsq) is taken when positive; otherwise x moves toward it
    until an entry reaches zero, that column leaves, and the solve repeats.
    A gradient entry within its roundoff bound counts as zero, so a
    repeated or dependent column is not taken.  At most 3n columns join; if
    that cap is reached, x is the last feasible iterate and the norm an
    upper bound.  A zero-column a gives (empty, ||b||).

    The norm is the last solve's own residual, the part of b outside the
    passive columns' span, so it is exactly 0 where b lies in that span (a
    recomputed b - a x would carry roundoff of b's size).  Where that solve
    has no such residual (no passive column, or a rank-deficient solve) it
    is math.hypot of b - a x, exact to the last bit for a zero x.  The
    problem is solved for b over a power of two near its largest entry,
    which is exact, so no sum of squares overflows or underflows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    scale = math.ldexp(1.0, math.frexp(float(np.abs(b).max(initial=0.0)))[1] - 1)
    b = b / scale
    x = np.zeros(n)
    r = b
    passive = []
    abs_a, abs_b = np.abs(a), np.abs(b)
    for _ in range(3 * n):
        # a gradient entry counts only above its roundoff, bounded entrywise
        # by |a|^T (|b| + |a| x) units, so a column that b barely needs still
        # joins when b has entries of very different size
        w = a.T @ r - _NNLS_ROUNDOFF * max(m, n) * (abs_a.T @ (abs_b + abs_a @ x))
        w[passive] = -np.inf
        j = int(w.argmax())
        if not w[j] > 0.0:
            break
        passive.append(j)
        z, ss, rank, _ = np.linalg.lstsq(a[:, passive], b, rcond=None)
        while min(z.tolist(), default=1.0) <= 0.0:
            # move from x toward z until the first passive entry reaches 0
            xp = x[passive]
            step, first = min((xi / (xi - zi) if xi > 0.0 else 0.0, k)
                              for k, (xi, zi) in enumerate(zip(xp.tolist(), z.tolist()))
                              if zi <= 0.0)
            xp += step * (z - xp)
            xp[first] = 0.0
            x[passive] = np.maximum(xp, 0.0)
            passive = [k for k, xi in zip(passive, xp.tolist()) if xi > 0.0]
            z, ss, rank, _ = np.linalg.lstsq(a[:, passive], b, rcond=None)
        x[passive] = z
        r = b - a @ x
    if not passive or rank < len(passive):
        rnorm = math.hypot(*r.tolist())
    else:  # numpy gives no sum of squares for a square solve, whose residual is 0
        rnorm = math.sqrt(ss[0]) if ss.size else 0.0
    return scale * x, scale * rnorm


def hermitian_defect(a) -> float:
    """Max-norm of the antihermitian part of a."""
    a = np.atleast_2d(a)
    return float(np.abs(a - a.conj().T).max(initial=0.0))


def check_self_adjoint(a, tol: Tolerance, error: type, what: str) -> None:
    """The self-adjointness gate: raise error(what) unless hermitian_defect(a)
    passes tol at the scale of a's largest entry."""
    tol.check(hermitian_defect(a), float(np.abs(a).max(initial=0.0)), error, what)


def require_square_pair(a, b) -> None:
    """Raise ValueError, naming both shapes, unless a and b are square
    matrices of one shape."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"need two square matrices of one shape, got {a.shape} and {b.shape}")


def loewner_margin(a, b) -> float:
    """Smallest eigenvalue of the Hermitian part of b - a: a <= b in the
    Loewner order exactly when it is >= 0."""
    diff = b - a
    diff = (diff + diff.conj().T) / 2
    return float(np.linalg.eigvalsh(diff).min())


def loewner_leq(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Decide a <= b in the Loewner order: loewner_margin(a, b) >=
    -tol.value.  Raises ValueError unless a and b are finite square
    matrices of one shape, and NotSelfAdjoint if either is not
    self-adjoint within tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    require_square_pair(a, b)
    a = require_finite(a)
    b = require_finite(b)
    for name, m in (("first", a), ("second", b)):
        check_self_adjoint(m, tol, NotSelfAdjoint, f"{name} argument is not self-adjoint")
    return loewner_margin(a, b) >= -tol.value


def _rank(s, rtol: float) -> int:
    """Number of singular values s (largest first) above rtol * max(1, s[0])."""
    return int(np.sum(s > rtol * max(1.0, s[0] if s.size else 0.0)))


def null_space(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal columns spanning the null space of a: the right singular
    vectors whose singular value is at most rtol * max(1, largest)."""
    _, s, vt = np.linalg.svd(a)
    return vt[_rank(s, rtol):].conj().T


def nullity(a, rtol: float = RANK_RTOL) -> int:
    """null_space(a, rtol).shape[1] from the singular values alone: the
    column count minus the rank, so a wide a counts its extra columns."""
    a = np.asarray(a)
    return a.shape[1] - _rank(np.linalg.svd(a, compute_uv=False), rtol)


def clusters(vals, gap: float) -> list[np.ndarray]:
    """Index groups of vals in the order of their real parts (imaginary
    parts breaking ties): each group is a maximal consecutive run within gap
    of its first member."""
    vals = np.asarray(vals)
    order = np.argsort(vals.real + 1e-3 * vals.imag, kind="stable")
    seq = vals[order].tolist()
    runs, start = [], 0
    for j in range(1, len(seq) + 1):
        if j == len(seq) or not abs(seq[j] - seq[start]) <= gap:
            runs.append(order[start:j])
            start = j
    return runs


def _merge_clusters(vals) -> np.ndarray:
    """vals with each CLUSTER_GAP run of two or more merged onto its mean."""
    out = vals.copy()
    for run in clusters(vals, CLUSTER_GAP):
        if len(run) > 1:
            out[run] = vals[run].mean()
    return out


def eigvals_clustered(a) -> np.ndarray:
    """Eigenvalues of a from numpy's LAPACK geev (so no scipy is loaded),
    with values closer than CLUSTER_GAP merged onto their mean.  A real a
    gives exact conjugate pairs, and a real array when every value is real."""
    return _merge_clusters(np.linalg.eigvals(a))


_GL_POINTS = 15     # points of the Gauss-Legendre rule of the adaptive quadrature
_GL_MAX_DEPTH = 40  # bisections after which a panel is accepted as it is


def _gl_panel(f, a: float, b: float):
    nodes, weights = _gauss_legendre(_GL_POINTS)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return half * np.sum(weights * f(mid + half * nodes))


def quad_adaptive(f, a: float, b: float, tol: float = 1e-8):
    """Adaptive Gauss-Legendre integral of f over [a, b].

    f must accept a numpy array of nodes and return values (real or complex).
    A panel is accepted when whole-panel and split-panel estimates agree to
    tol; tol halves with each bisection so the total error stays below tol.
    """

    def recurse(lo, hi, whole, budget, depth):
        mid = (lo + hi) / 2.0
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        if depth >= _GL_MAX_DEPTH or abs(left + right - whole) <= budget:
            return left + right
        return recurse(lo, mid, left, budget / 2.0, depth + 1) + recurse(
            mid, hi, right, budget / 2.0, depth + 1
        )

    return recurse(float(a), float(b), _gl_panel(f, float(a), float(b)), float(tol), 0)


def subspace_excess(u, v) -> float:
    """sin of the largest angle between span(v) and span(u), seen from v:
    the norm of (I - P_u) Q_v, zero exactly when span(v) lies in span(u)."""
    qu = np.linalg.qr(np.atleast_2d(u))[0]
    qv = np.linalg.qr(np.atleast_2d(v))[0]
    # ||(I - P_u) Q_v|| = sin(theta_max), stable for tiny angles
    resid = qv - qu @ (qu.conj().T @ qv)
    return float(np.linalg.norm(resid, 2))


def subspace_gap(u, v) -> float:
    """sin of the largest principal angle between the column spans of u, v.

    Returns 1.0 when dimensions differ.  Used for 'same subspace' checks."""
    u = np.atleast_2d(u)
    v = np.atleast_2d(v)
    if min(u.shape) != min(v.shape):
        return 1.0
    return subspace_excess(u, v)
