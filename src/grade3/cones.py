"""Convex cones in Lie algebra coordinate spaces.

Native kinds, each with a closed-form violation and sampler: finitely
generated (polyhedral), the sl2 Lorentz-type cone, the forward light cone and
nonnegative polynomials of degree <= 2.  Every other cone is a view of a base
cone through linear maps (to_base, from_base, sign): the set of x with
x = sign * from_base(to_base x) and to_base x in the base.  An analytic kind
embedded through an injection J is the view (pinv J, J, 1) of its native
cone; a graded section C+ or C- (graded_parts) is the view (sign, P, sign) of
C through the projector P onto g^{+1} or g^{-1}.  The coefficient order of
degree-<=2 polynomials is defined here once (_quad_index); the Jacobi chart
in catalog reads it through poly_gram.

Membership is always one-sided: a point belongs to the cone when its
violation (a nonnegative defect measure) is at most tol.value.  A polyhedral
violation is the distance to the cone, the residual of numkit.nnls.  A point
with a NaN or infinite entry lies in no cone: its violation is inf.  The
light cone's norm and a view's off-view norm fall back to max scaling where
the plain norm overflows, so a finite point far out keeps a finite
violation, unless a view's own image of it overflows (near the float limit
through a map of gain above 1), which reads inf.  The sl2 cone's a^2 + bc
is rescaled by the largest entry where it overflows, so it keeps its sign
and an inside point still reads 0.0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numkit
from .errors import AmbientMismatch
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "Cone",
    "graded_parts",
    "invariance_check",
    "poly_gram",
    "gram_to_poly",
    "poly_eval",
    "nonneg_poly_dim",
]

_KINDS = ("polyhedral", "sl2_lorentz", "light_cone", "nonneg_poly", "section")


def _norm(v) -> float:
    """Euclidean norm of v with no overflow warning: the plain norm where it
    is finite, else the max-scaled one, or inf where v itself is not finite
    (a view's residual that overflowed)."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if n < math.inf:
        return n
    s = float(np.abs(v).max())
    return s * float(np.linalg.norm(v / s)) if s < math.inf else math.inf


def nonneg_poly_dim(n: int) -> int:
    """Coefficient-space dimension of degree-<=2 polynomials on R^n."""
    return 1 + n + n * (n + 1) // 2


@functools.cache
def _quad_index(n: int):
    """Gram rows i+1, columns j+1 and weights (1 on the diagonal, 1/2 off it)
    of the xi_i*xi_j coefficients, i <= j, in coefficient order."""
    i, j = np.triu_indices(n)
    return i + 1, j + 1, np.where(i == j, 1.0, 0.5)


def poly_gram(coeffs, n: int) -> np.ndarray:
    """(n+1) x (n+1) symmetric Gram matrix M of a degree-<=2 polynomial.

    Coefficient order: constant, n linear terms, then xi_i*xi_j terms for
    i <= j.  f(xi) = [1, xi]^T M [1, xi], and f >= 0 on R^n iff M >= 0.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (nonneg_poly_dim(n),):
        raise AmbientMismatch("polynomial coefficient vector has wrong length")
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = coeffs[0]
    m[0, 1:] = m[1:, 0] = coeffs[1 : n + 1] / 2.0
    rows, cols, weights = _quad_index(n)
    m[rows, cols] = m[cols, rows] = coeffs[n + 1 :] * weights
    return m


def gram_to_poly(m) -> np.ndarray:
    """Inverse of poly_gram."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0] - 1
    rows, cols, weights = _quad_index(n)
    out = np.empty(nonneg_poly_dim(n))
    out[0] = m[0, 0]
    out[1 : n + 1] = 2.0 * m[0, 1:]
    out[n + 1 :] = m[rows, cols] / weights
    return out


def poly_eval(coeffs, points, n: int) -> np.ndarray:
    """Evaluate the polynomial at points of shape (k, n)."""
    m = poly_gram(coeffs, n)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ext = np.hstack([np.ones((pts.shape[0], 1)), pts])
    return np.einsum("ka,ab,kb->k", ext, m, ext)


class Cone:
    """A closed convex cone with a quantitative membership defect.

    violation(x) is 0 exactly on the cone (up to floating point); contains()
    compares it against tol.value.  sample() draws cone points through the
    kind's closed-form sampler, or for a view through its base's.  A view has
    a base cone; a native cone has base None.
    """

    def __init__(self, kind: str, ambient_dim: int, *, generators=None, d=None,
                 n=None, inject=None, base=None, projector=None, sign=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown cone kind {kind!r}")
        self.kind = kind
        self.ambient_dim = int(ambient_dim)
        self.d = d
        self.n = n
        self.generators = self.base = self.to_base = self.from_base = self.sign = None

        if kind == "polyhedral":
            if generators is None:
                generators = np.zeros((self.ambient_dim, 0))
            g = numkit.require_finite(np.asarray(generators, dtype=float), "generators")
            if g.ndim == 1:
                g = g[:, None]
            if g.shape[0] != self.ambient_dim:
                raise AmbientMismatch("generators do not match ambient dimension")
            self.generators = g
        elif kind == "section":
            if base is None or projector is None or sign is None:
                raise ValueError("section needs a base cone, a projector and a sign")
            if sign not in (1.0, -1.0):  # the view rule needs sign * sign = 1
                raise ValueError(f"section sign must be 1 or -1, not {sign!r}")
            if (base.ambient_dim, *np.shape(projector)) != (self.ambient_dim,) * 3:
                raise AmbientMismatch("section does not match ambient dimension")
            self.base, self.to_base, self.from_base, self.sign = base, sign, projector, sign
        else:
            if kind == "sl2_lorentz":
                native_dim = 3
            elif kind == "light_cone":
                if not d or d < 2:
                    raise ValueError("light cone needs dimension d >= 2")
                native_dim = d
            else:  # nonneg_poly
                if n is None or n < 1:
                    raise ValueError("nonneg_poly needs n >= 1")
                native_dim = nonneg_poly_dim(n)
            if inject is not None:
                if np.iscomplexobj(inject):
                    raise ValueError("inject matrix must be real")
                inject = numkit.require_finite(np.asarray(inject, dtype=float), "inject")
                if inject.shape != (self.ambient_dim, native_dim):
                    raise AmbientMismatch("inject matrix has wrong shape")
                self.base = Cone(kind, native_dim, d=d, n=n)
                self.to_base, self.from_base, self.sign = np.linalg.pinv(inject), inject, 1.0
            elif self.ambient_dim != native_dim:
                raise AmbientMismatch("ambient dimension does not match the cone's native space")

    # -- membership ------------------------------------------------------

    def violation(self, x) -> float:
        """Nonnegative defect; 0 iff x lies in the cone, inf if x is not finite."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise AmbientMismatch(
                f"vector of length {x.shape} in ambient of dim {self.ambient_dim}"
            )
        if not np.isfinite(x).all():
            return math.inf
        if self.base is not None:
            v = np.dot(self.to_base, x)  # a matrix, or a section's scalar sign
            off = _norm(self.sign * (self.from_base @ v) - x)
            return max(off, self.base.violation(v))
        if self.kind == "polyhedral":
            return numkit.nnls(self.generators, x)[1]
        if self.kind == "light_cone":
            return max(0.0, _norm(x[1:]) - float(x[0]))
        if self.kind == "sl2_lorentz":
            a, b, c = x.tolist()  # Python floats overflow without a warning
            a /= 2.0
            det = a * a + b * c
            if not abs(det) < math.inf:  # rescaled, so an inside point keeps a sign
                s = max(abs(a), abs(b), abs(c))
                det = s * (s * ((a / s) ** 2 + (b / s) * (c / s)))
            return max(0.0, -b, c, det)
        # nonneg_poly
        return max(0.0, -float(np.linalg.eigvalsh(poly_gram(x, self.n)).min()))

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.violation(x) <= tol.value

    # -- sampling --------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one cone element."""
        if self.base is not None:
            return self.sign * (self.from_base @ self.base.sample(rng))
        if self.kind == "polyhedral":
            k = self.generators.shape[1]
            return self.generators @ np.abs(rng.normal(size=k))
        if self.kind == "light_cone":
            x0 = abs(rng.normal())
            direction = rng.normal(size=self.d - 1)
            nrm = np.linalg.norm(direction)
            if nrm > 0:
                direction = direction / nrm * (x0 * rng.uniform())
            return np.concatenate([[x0], direction])
        if self.kind == "sl2_lorentz":
            b = abs(rng.normal())
            c = -abs(rng.normal())
            a = rng.uniform(-1.0, 1.0) * np.sqrt(b * -c)
            return np.array([2.0 * a, b, c])
        # nonneg_poly
        g = rng.normal(size=(self.n + 1, self.n + 1))
        return gram_to_poly(g.T @ g)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "section":
            raise ValueError("section cones are not serializable")
        if self.base is not None:  # embedded: the native document and its injection
            return {**self.base.to_json(), "embedded": True,
                    "inject": numkit.matrix_to_json(self.from_base)}
        if self.kind == "polyhedral":
            return {"kind": "polyhedral",
                    "generators": numkit.float_list(self.generators.T)}
        if self.kind == "sl2_lorentz":
            return {"kind": "sl2_lorentz"}
        if self.kind == "light_cone":
            return {"kind": "light_cone", "d": int(self.d)}
        return {"kind": "nonneg_poly", "n": int(self.n)}

    @classmethod
    def from_json(cls, d: dict, ambient_dim: int | None = None) -> "Cone":
        try:
            kind = d["kind"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad cone object: {exc}") from exc
        if kind == "polyhedral":
            gens = np.atleast_2d(np.asarray(d.get("generators", []), dtype=float))
            if gens.ndim > 2:  # a flat list reads as one generator
                raise ValueError("bad cone object: generators have more than two axes")
            if gens.size == 0:
                if ambient_dim is None:
                    raise ValueError("empty polyhedral cone needs ambient_dim")
                return cls("polyhedral", ambient_dim)
            return cls("polyhedral", gens.shape[1], generators=gens.T)
        if kind == "sl2_lorentz":
            dim, native = 3, {}
        elif kind in ("light_cone", "nonneg_poly"):
            key = "d" if kind == "light_cone" else "n"
            try:
                size = int(d[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad cone object: {kind} needs an integer {key!r}") from exc
            native = {key: size}
            dim = size if kind == "light_cone" else nonneg_poly_dim(size)
        else:
            raise ValueError(f"cone kind {kind!r} is not serializable")
        if d.get("embedded"):  # the cone lives in the ambient space of inject
            if "inject" not in d:
                raise ValueError("embedded cone has no 'inject' matrix")
            native["inject"] = numkit.matrix_from_json(d["inject"])
            dim = native["inject"].shape[0]
        return cls(kind, dim, **native)

    def __repr__(self):
        return f"Cone({self.kind}, ambient_dim={self.ambient_dim})"


def graded_parts(cone: Cone, grading) -> tuple[Cone, Cone]:
    """Section cones C+ = C cap g^1 and C- = (-C) cap g^{-1}.

    Samplers project cone samples onto the graded pieces, which stay inside
    the graded cones because C is contained in C+ + g^0 + (-C-).
    """
    return (Cone("section", cone.ambient_dim, base=cone, projector=grading.p_plus, sign=1.0),
            Cone("section", cone.ambient_dim, base=cone, projector=grading.p_minus, sign=-1.0))


def invariance_check(cone: Cone, algebra, samples: int,
                     tol: Tolerance = DEFAULT_TOL, *, rng: np.random.Generator,
                     tau) -> dict:
    """Sampled certificate that the cone is Ad-invariant and that
    tau(C) = -C for tau, the grading involution on coordinates.

    Group elements are drawn from one-parameter subgroups exp(t b_i) along
    basis directions and two-factor products of those.  Every draw comes
    first, per sample: the cone point, the factor count, then each factor's
    t and index.  Then one expm of the stack of factor matrices, each word's
    product in draw order, one inverse of the stack of group elements and
    one Ad matrix per element (liealg.adjoints, gated per element); the
    violations stay per sample.  Each stacked step gives every element the
    bits of its own call, so the report equals a draw-by-draw loop's.
    """
    from .liealg import adjoints  # local import to avoid a cycle

    points, lengths, factors = [], [], []
    for _ in range(samples):
        points.append(cone.sample(rng))
        lengths.append(int(rng.integers(1, 3)))
        for _ in range(lengths[-1]):
            e = np.zeros(algebra.dim)
            e[rng.integers(algebra.dim)] = rng.uniform(-1.0, 1.0)  # t, then the index
            factors.append(algebra.to_matrix(e))
    ad_worst = 0.0
    tau_worst = 0.0
    if points:
        exps = numkit.expm(np.stack(factors))
        lengths = np.array(lengths)
        starts = np.cumsum(lengths) - lengths
        gs = exps[starts]
        for j in range(1, lengths.max()):  # g = f_0 f_1 ..., left to right
            word = lengths > j
            gs[word] = gs[word] @ exps[starts[word] + j]
        numkit.require_finite(gs, "group element")
        for x, ad in zip(points, adjoints(algebra, gs, np.linalg.inv(gs), tol)):
            ad_worst = max(ad_worst, cone.violation(ad @ x))
            tau_worst = max(tau_worst, cone.violation(-(tau @ x)))
    return {
        "samples": int(samples),
        "max_ad_violation": float(ad_worst),
        "max_tau_violation": float(tau_worst),
        "ok": tol.accepts(ad_worst) and tol.accepts(tau_worst),
    }
