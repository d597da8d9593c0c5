"""Worked models: sl(2,R), Poincare algebras, Jacobi algebras and a solvable
extension, each packaged with its grading element, invariant cone and the
graded cone parts.

Every entry is built from an explicit faithful matrix representation, so all
structural claims (closure, grading dimensions, cone invariance) are checked
numerically at construction rather than assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .cones import Cone, graded_parts, nonneg_poly_dim, poly_gram
from .liealg import Grading, GroupElement, LieAlgebraSpec, grade_by
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "CatalogEntry",
    "build_sl2",
    "build_poincare",
    "build_jacobi",
    "build_solvable",
    "build_su2",
    "get_entry",
    "ENTRY_NAMES",
    "DEMO_NAMES",
    "direct_sum",
    "root_fixture",
    "ROOT_FIXTURE_NAMES",
    "sample_algebra_element",
    "sample_group_element",
    "sample_stabilizer",
    "sample_semigroup_element",
    "sample_polar_domain",
]


@dataclass
class CatalogEntry:
    """A graded algebra with its invariant cone and derived data."""

    name: str
    description: str
    algebra: LieAlgebraSpec
    h: np.ndarray
    grading: Grading
    cone: Cone
    cone_plus: Cone
    cone_minus: Cone
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "dim": int(self.algebra.dim),
            "dims": list(self.grading.dims),
            "h": numkit.float_list(self.h),
            "algebra": self.algebra.to_json(),
            "cone": self.cone.to_json(),
        }


def _finish(name, description, algebra, h, cone, extras=None) -> CatalogEntry:
    grading = grade_by(algebra, h)
    cplus, cminus = graded_parts(cone, grading)
    return CatalogEntry(name, description, algebra, np.asarray(h, dtype=float),
                        grading, cone, cplus, cminus, extras or {})


# -- sl(2, R) ------------------------------------------------------------


def sl2_member_direct(g: GroupElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Closed-form compression test for sl2: with g = [[a, b], [c, d]],
    membership amounts to ab >= 0, cd >= 0 and bc >= 0, the shortfall of
    each product xy gated at its own scale |x||y|, so a product overflowing
    to -inf fails."""
    (a, b), (c, d) = g.matrix.tolist()
    return all(tol.accepts(max(0.0, -x * y), abs(x) * abs(y)) for x, y in ((a, b), (c, d), (b, c)))


def build_sl2() -> CatalogEntry:
    h = np.array([[0.5, 0.0], [0.0, -0.5]])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    alg = LieAlgebraSpec("sl2", [h, e, f], tau_matrix=np.diag([1.0, -1.0]))
    cone = Cone("sl2_lorentz", 3)
    return _finish(
        "sl2",
        "sl(2,R) in the basis (h, e, f) with its Lorentz-type invariant cone",
        alg,
        [1.0, 0.0, 0.0],
        cone,
        extras={"member_direct": sl2_member_direct},
    )


# -- Poincare ------------------------------------------------------------


def build_poincare(d: int = 3) -> CatalogEntry:
    """Poincare algebra R^{1,d-1} x| so(1,d-1) in the affine representation,
    graded by the first boost, with the forward light cone in the
    translations.  Supported range: 3 <= d <= 6."""
    if not 3 <= d <= 6:
        raise ValueError("build_poincare supports 3 <= d <= 6")
    r = d + 1

    def unit(i, j):
        m = np.zeros((r, r))
        m[i, j] = 1.0
        return m

    basis = [unit(mu, d) for mu in range(d)]                 # translations
    basis += [unit(0, i) + unit(i, 0) for i in range(1, d)]  # boosts
    basis += [unit(i, j) - unit(j, i)
              for i in range(1, d) for j in range(i + 1, d)]
    tau = np.diag([-1.0, -1.0] + [1.0] * (d - 2) + [1.0])
    alg = LieAlgebraSpec(f"poincare{d}", basis, tau_matrix=tau)
    h = np.zeros(alg.dim)
    h[d] = 1.0  # the boost K_1
    inject = np.eye(alg.dim)[:, :d]
    cone = Cone("light_cone", alg.dim, d=d, inject=inject)
    k = np.zeros((d, d))
    k[0, 1] = k[1, 0] = 1.0

    def member_direct(g: GroupElement, tol: Tolerance = DEFAULT_TOL) -> bool:
        ell = g.matrix[:d, :d]
        v = g.matrix[:d, d]
        if np.abs(k @ ell - ell @ k).max() > tol.gate(np.abs(ell).max()):
            return False
        w = k @ v  # the shift h - Ad(g)h as a translation vector
        return bool(np.linalg.norm(w[1:]) - w[0] <= tol.value)

    return _finish(
        f"poincare{d}",
        f"Poincare algebra in spacetime dimension {d}, graded by a boost",
        alg,
        h,
        cone,
        extras={"d": d, "member_direct": member_direct},
    )


# -- Jacobi --------------------------------------------------------------


def _omega(n: int) -> np.ndarray:
    eye = np.eye(n)
    return np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])


def _sp_basis(n: int) -> list[np.ndarray]:
    """Basis of sp(2n, R): gl(n) part, then the two symmetric blocks."""
    out = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((2 * n, 2 * n))
            m[i, j] = 1.0
            m[n + j, n + i] = -1.0
            out.append(m)
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((2 * n, 2 * n))
            m[i, n + j] = 1.0
            m[j, n + i] = 1.0
            out.append(m)
    for i in range(n):
        for j in range(i, n):
            m = np.zeros((2 * n, 2 * n))
            m[n + i, j] = 1.0
            m[n + j, i] = 1.0
            out.append(m)
    return out


def _jacobi_rho(n: int, z: float = 0.0, v=None, x=None, s: float = 0.0) -> np.ndarray:
    """Faithful representation of (z, v, x, s) on R^{2n+2}: central z, the
    symplectic vector v, the sp(2n) part x and the grading direction s."""
    r = 2 * n + 2
    m = np.zeros((r, r))
    m[0, 0] = -s
    m[r - 1, r - 1] = s
    m[r - 1, 0] = z
    if v is not None:
        v = np.asarray(v, dtype=float)
        m[1:r - 1, 0] = v
        m[r - 1, 1:r - 1] = -0.5 * (_omega(n) @ v)
    if x is not None:
        m[1:r - 1, 1:r - 1] += np.asarray(x, dtype=float)
    return m


def build_jacobi(n: int = 1) -> CatalogEntry:
    """Jacobi algebra heis(R^{2n}) x| (sp(2n) + R): under the chart sending
    (z, v, x) to the polynomial z + omega(v, .) + omega(x ., .)/2 on R^{2n},
    the invariant cone is the cone of nonnegative polynomials of degree at
    most two.  Supported range: 1 <= n <= 3."""
    if not 1 <= n <= 3:
        raise ValueError("build_jacobi supports 1 <= n <= 3")
    two_n = 2 * n
    basis = [_jacobi_rho(n, z=1.0)]
    for k in range(two_n):
        basis.append(_jacobi_rho(n, v=np.eye(two_n)[k]))
    sp = _sp_basis(n)
    basis += [_jacobi_rho(n, x=m) for m in sp]
    basis.append(_jacobi_rho(n, s=1.0))
    tau = np.diag([1.0] + [1.0] * n + [-1.0] * n + [-1.0])
    alg = LieAlgebraSpec(f"jacobi{n}", basis, tau_matrix=tau)

    # h acts on the symplectic plane as (id + tau_V)/2 for the reflection
    # tau_V = diag(-1, 1); as a coefficient vector that is half the grading
    # direction minus half the gl(n)-diagonal of sp.
    h = np.zeros(alg.dim)
    h[-1] = 0.5
    for i in range(n):
        h[1 + two_n + i * n + i] = -0.5

    omega = _omega(n)
    quad = np.eye(nonneg_poly_dim(two_n))[two_n + 1:]
    cols = [_jacobi_rho(n, z=1.0)]
    # linear coefficient l corresponds to the vector Omega l, and a quadratic
    # coefficient with Gram block Q to the sp(2n) element 2 Omega Q
    cols += [_jacobi_rho(n, v=omega @ e) for e in np.eye(two_n)]
    cols += [_jacobi_rho(n, x=2.0 * omega @ poly_gram(e, two_n)[1:, 1:]) for e in quad]
    inject = np.column_stack([alg.coords(mat) for mat in cols])
    cone = Cone("nonneg_poly", alg.dim, n=two_n, inject=inject)

    return _finish(
        f"jacobi{n}",
        f"Jacobi algebra of R^{{{two_n}}} with the cone of nonnegative "
        "degree-two polynomials",
        alg,
        h,
        cone,
    )


# -- solvable extension --------------------------------------------------


def build_solvable(d=None) -> CatalogEntry:
    """Abelian E = R^m extended by an involutive derivation D.

    d may be a weight sequence (made diagonal) or a full matrix with
    D^2 = 1.  The cone is spanned by a +1-eigenbasis and the negated
    -1-eigenbasis of D, which is invariant because Ad acts on E through
    exp(t D) only."""
    if d is None:
        d = np.diag([1.0, -1.0])
    d = np.asarray(d, dtype=float)
    if d.ndim == 1:
        d = np.diag(d)
    m = d.shape[0]
    if d.shape != (m, m) or m == 0:
        raise ValueError("the derivation must be a nonempty square matrix")
    if np.abs(d @ d - np.eye(m)).max() > 1e-10:
        raise ValueError("the derivation must be an involution")
    r = m + 1
    basis = []
    for k in range(m):
        mat = np.zeros((r, r))
        mat[k, m] = 1.0
        basis.append(mat)
    hmat = np.zeros((r, r))
    hmat[:m, :m] = d
    basis.append(hmat)
    tau = np.diag([-1.0] * m + [1.0])
    alg = LieAlgebraSpec("solvable", basis, tau_matrix=tau)
    h = np.zeros(alg.dim)
    h[-1] = 1.0

    def eigvecs(sign):
        p = (np.eye(m) + sign * d) / 2.0
        u = np.linalg.svd(p)[0]
        return u[:, : int(round(np.trace(p)))]

    cols = [np.concatenate([v, [0.0]]) for v in eigvecs(+1).T]
    cols += [np.concatenate([-v, [0.0]]) for v in eigvecs(-1).T]
    cone = Cone("polyhedral", alg.dim, generators=np.column_stack(cols))

    def member_direct(g: GroupElement, tol: Tolerance = DEFAULT_TOL) -> bool:
        w = g.matrix[:m, m]
        shift = np.concatenate([d @ w, [0.0]])
        return cone.contains(shift, tol)

    return _finish(
        "solvable",
        f"solvable extension of R^{m} by an involutive derivation",
        alg,
        h,
        cone,
        extras={"member_direct": member_direct},
    )


# -- auxiliaries ---------------------------------------------------------


def build_su2() -> LieAlgebraSpec:
    """Compact real form su(2); used by the root-space tools."""
    u1 = np.array([[1j, 0.0], [0.0, -1j]])
    u2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    u3 = np.array([[0.0, 1j], [1j, 0.0]])
    return LieAlgebraSpec("su2", [u1, u2, u3])


def direct_sum(fixtures) -> tuple:
    """Root fixture (algebra, cartan, tag) of the block-diagonal direct sum
    of root fixtures that share one tag: the bases sit in diagonal blocks
    and the Cartan rows in the matching coordinate blocks."""
    (tag,) = {f[2] for f in fixtures}
    algebras, cartans = [f[0] for f in fixtures], [f[1] for f in fixtures]
    r = sum(a.rep_dim for a in algebras)
    cartan = np.zeros((sum(len(c) for c in cartans), sum(a.dim for a in algebras)))
    basis, offset, row, col = [], 0, 0, 0
    for a, c in zip(algebras, cartans):
        block = slice(offset, offset + a.rep_dim)
        for b in a.basis:
            z = np.zeros((r, r), dtype=complex)
            z[block, block] = b
            basis.append(z)
        cartan[row:row + len(c), col:col + a.dim] = c
        offset, row, col = offset + a.rep_dim, row + len(c), col + a.dim
    name = "+".join(a.name for a in algebras)
    return LieAlgebraSpec(name, basis), cartan, tag


# -- registry ------------------------------------------------------------

_BUILDERS = {
    "sl2": build_sl2,
    "poincare3": lambda: build_poincare(3),
    "poincare4": lambda: build_poincare(4),
    "poincare5": lambda: build_poincare(5),
    "poincare6": lambda: build_poincare(6),
    "jacobi1": lambda: build_jacobi(1),
    "jacobi2": lambda: build_jacobi(2),
    "jacobi3": lambda: build_jacobi(3),
    "solvable": build_solvable,
}

ENTRY_NAMES = tuple(_BUILDERS)
DEMO_NAMES = ("sl2", "poincare3", "poincare4", "jacobi1", "solvable")


@functools.cache
def get_entry(name: str) -> CatalogEntry:
    """Cached lookup of a catalog entry by name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"available: {', '.join(ENTRY_NAMES)}")
    return _BUILDERS[name]()


# Root fixtures: name -> (algebra, Cartan rows spanning a compactly embedded
# Cartan subalgebra, the tag every root of it carries).
_ROOT_BUILDERS = {
    "sl2": lambda: (get_entry("sl2").algebra, np.array([[0.0, 1.0, -1.0]]),
                    "noncompact_simple"),
    "su2": lambda: (build_su2(), np.array([[1.0, 0.0, 0.0]]), "compact"),
    "sl2+sl2": lambda: direct_sum([root_fixture("sl2")] * 2),
}

ROOT_FIXTURE_NAMES = tuple(_ROOT_BUILDERS)


@functools.cache
def root_fixture(name: str) -> tuple:
    """Cached lookup of a root fixture (algebra, cartan, tag) by name."""
    return _ROOT_BUILDERS[name]()


# -- samplers ------------------------------------------------------------


def sample_algebra_element(entry: CatalogEntry, rng: np.random.Generator,
                           scale: float = 0.5) -> np.ndarray:
    return scale * rng.normal(size=entry.algebra.dim)


def sample_group_element(entry: CatalogEntry, rng: np.random.Generator,
                         scale: float = 0.5) -> GroupElement:
    """exp(x1) exp(x2) for two independent algebra samples."""
    alg = entry.algebra
    g = GroupElement.exp(alg, sample_algebra_element(entry, rng, scale))
    return g @ GroupElement.exp(alg, sample_algebra_element(entry, rng, scale))


def sample_stabilizer(entry: CatalogEntry, rng: np.random.Generator,
                      scale: float = 0.5) -> GroupElement:
    """exp of a degree-zero element; fixes h under Ad."""
    y = entry.grading.part(sample_algebra_element(entry, rng, scale), 0)
    return GroupElement.exp(entry.algebra, y)


def _clipped(x: np.ndarray, scale: float) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    if nrm > scale > 0:
        return x * (scale / nrm)
    return x


def sample_semigroup_element(entry: CatalogEntry, rng: np.random.Generator,
                             scale: float = 0.5) -> GroupElement:
    """Element of the compression semigroup in factored position
    exp(x+) g0 exp(x-) with x+- drawn from the graded cone parts."""
    xp = _clipped(entry.cone_plus.sample(rng), scale)
    xm = _clipped(entry.cone_minus.sample(rng), scale)
    g0 = sample_stabilizer(entry, rng, scale)
    alg = entry.algebra
    return GroupElement.exp(alg, xp) @ g0 @ GroupElement.exp(alg, xm)


def sample_polar_domain(entry: CatalogEntry, rng: np.random.Generator,
                        scale: float = 0.3) -> GroupElement:
    """g0 exp(x) with g0 fixing h and x odd under the grading involution.

    polar_factor recovers x from the principal log of sharp(g) g = exp(2x),
    which is 2x only while every eigenvalue of 2 * to_matrix(x) has |Im| < pi.
    At the default scale every draw on the catalog stays in that strip; from
    scale 1 on some leave it, and polar_factor then refuses them (NotPolar)
    or returns another polar factorization than the drawn one."""
    g0 = sample_stabilizer(entry, rng, scale)
    raw = sample_algebra_element(entry, rng, scale)
    x = entry.grading.part(raw, 1) + entry.grading.part(raw, -1)
    return g0 @ GroupElement.exp(entry.algebra, x)
