"""Convex cones in Lie algebra coordinate spaces.

Supported kinds: finitely generated (polyhedral), the sl2 Lorentz-type cone,
the forward light cone, nonnegative polynomials of degree <= 2, and graded
sections: the points of a projector's range whose signed copy lies in a base
cone (the C+ and C- of graded_parts).  Analytic kinds may be embedded into a
larger ambient space through a linear injection; membership then also
requires the off-subspace component to vanish within tolerance.  The coefficient order of degree-<=2
polynomials is defined here once (_quad_index); the Jacobi chart in catalog
reads it through poly_gram.

Membership is always one-sided: a point belongs to the cone when its
violation (a nonnegative defect measure) is at most tol.value.
"""

from __future__ import annotations

import functools

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
    kind's closed-form sampler.
    """

    def __init__(self, kind: str, ambient_dim: int, *, generators=None, d=None,
                 n=None, inject=None, base=None, projector=None, sign=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown cone kind {kind!r}")
        self.kind = kind
        self.ambient_dim = int(ambient_dim)
        self.d = d
        self.n = n
        self.base, self.projector, self.sign = base, projector, sign
        self.generators = self._inject = self._project = None

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
            if (base.ambient_dim, *np.shape(projector)) != (self.ambient_dim,) * 3:
                raise AmbientMismatch("section does not match ambient dimension")
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
                inject = np.asarray(inject, dtype=float)
                if inject.shape != (self.ambient_dim, native_dim):
                    raise AmbientMismatch("inject matrix has wrong shape")
                self._inject = inject
                self._project = np.linalg.pinv(inject)
            elif self.ambient_dim != native_dim:
                raise AmbientMismatch("ambient dimension does not match the cone's native space")

    # -- membership ------------------------------------------------------

    def _check_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise AmbientMismatch(
                f"vector of length {x.shape} in ambient of dim {self.ambient_dim}"
            )
        return x

    def _to_native(self, x):
        """(native coords, off-subspace defect)."""
        if self._inject is None:
            return x, 0.0
        v = self._project @ x
        return v, float(np.linalg.norm(self._inject @ v - x))

    def violation(self, x) -> float:
        """Nonnegative defect; 0 iff x lies in the cone."""
        x = self._check_vec(x)
        if self.kind == "section":
            off = float(np.linalg.norm(x - self.projector @ x))
            return max(off, self.base.violation(self.sign * x))
        if self.kind == "polyhedral":
            # scipy.optimize.nnls on a zero-column matrix aborts the whole
            # interpreter (a double free, seen with scipy 1.17.1), so the
            # cone {0} is measured directly.  scipy.optimize is imported
            # here, so it loads only for polyhedral cones.
            if self.generators.shape[1] == 0:
                return float(np.linalg.norm(x))
            import scipy.optimize
            _, dist = scipy.optimize.nnls(self.generators, x)
            return float(dist)
        v, off = self._to_native(x)
        if self.kind == "light_cone":
            body = max(0.0, float(np.linalg.norm(v[1:]) - v[0]))
        elif self.kind == "sl2_lorentz":
            a, b, c = v[0] / 2.0, v[1], v[2]
            body = max(0.0, -b, c, a * a + b * c)
        else:  # nonneg_poly
            m = poly_gram(v, self.n)
            body = max(0.0, -float(np.linalg.eigvalsh(m).min()))
        return float(max(body, off))

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.violation(x) <= tol.value

    # -- sampling --------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one cone element."""
        if self.kind == "section":
            return self.sign * (self.projector @ self.base.sample(rng))
        if self.kind == "polyhedral":
            k = self.generators.shape[1]
            return self.generators @ np.abs(rng.normal(size=k))
        if self.kind == "light_cone":
            x0 = abs(rng.normal())
            direction = rng.normal(size=self.d - 1)
            nrm = np.linalg.norm(direction)
            if nrm > 0:
                direction = direction / nrm * (x0 * rng.uniform())
            v = np.concatenate([[x0], direction])
        elif self.kind == "sl2_lorentz":
            b = abs(rng.normal())
            c = -abs(rng.normal())
            a = rng.uniform(-1.0, 1.0) * np.sqrt(b * -c)
            v = np.array([2.0 * a, b, c])
        else:  # nonneg_poly
            g = rng.normal(size=(self.n + 1, self.n + 1))
            v = gram_to_poly(g.T @ g)
        if self._inject is not None:
            return self._inject @ v
        return v

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "polyhedral":
            out = {"kind": "polyhedral",
                   "generators": [[float(v) for v in col] for col in self.generators.T]}
        elif self.kind == "sl2_lorentz":
            out = {"kind": "sl2_lorentz"}
        elif self.kind == "light_cone":
            out = {"kind": "light_cone", "d": int(self.d)}
        elif self.kind == "nonneg_poly":
            out = {"kind": "nonneg_poly", "n": int(self.n)}
        else:
            raise ValueError("section cones are not serializable")
        if self._inject is not None:
            out["embedded"] = True
            out["inject"] = numkit.matrix_to_json(self._inject)
        return out

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
    basis directions and two-factor products of those.
    """
    from .liealg import GroupElement, adjoint  # local import to avoid a cycle

    ad_worst = 0.0
    tau_worst = 0.0
    for _ in range(samples):
        x = cone.sample(rng)
        factors = []
        for _ in range(rng.integers(1, 3)):
            e = np.zeros(algebra.dim)
            e[rng.integers(algebra.dim)] = rng.uniform(-1.0, 1.0)
            factors.append(GroupElement.exp(algebra, e))
        g = factors[0]
        for f in factors[1:]:
            g = g @ f
        ad = adjoint(g, tol)
        ad_worst = max(ad_worst, cone.violation(ad @ x))
        tau_worst = max(tau_worst, cone.violation(-(tau @ x)))
    return {
        "samples": int(samples),
        "max_ad_violation": float(ad_worst),
        "max_tau_violation": float(tau_worst),
        "ok": tol.accepts(ad_worst) and tol.accepts(tau_worst),
    }
