"""Root decomposition with respect to a compactly embedded Cartan
subalgebra, compact/noncompact classification of roots, and the maximal
cone cut out by an adapted positive system.

All computations happen on the complexified coefficient space.  The star
map (x + iy)* = -x + iy of the real form acts on coefficient vectors as
v -> -conj(v), since coefficients over the defining basis are exactly the
real-form coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import numkit
from .cones import Cone
from .errors import NonReducedRootSystem, NotAdapted, NotCartan, NotRegular
from .liealg import LieAlgebraSpec
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "RootDatum",
    "root_decomposition",
    "c_max",
    "find_adapted_x0",
    "star",
]


# Random draws find_adapted_x0 makes before it reports failure.
_ADAPTED_X0_DRAWS = 200


def star(v) -> np.ndarray:
    """The involution (x + iy)* = -x + iy on coefficient vectors."""
    return -np.conj(np.asarray(v, dtype=complex))


@dataclass
class RootDatum:
    """Roots of a compactly embedded Cartan: each root is the tuple of
    ad-eigenvalues along the Cartan basis, with a unit root vector and a
    compactness tag."""

    algebra: LieAlgebraSpec
    cartan: np.ndarray            # rows are coefficient vectors spanning t
    roots: list                   # complex (k,) arrays alpha(t_1..t_k)
    vectors: list                 # complex (dim,) unit root vectors
    types: list                   # tags parallel to roots

    @property
    def rank(self) -> int:
        return self.cartan.shape[0]

    def index_of(self, alpha) -> int:
        """Index of the first root r with |r - alpha| <= CLUSTER_GAP +
        1e-5 |alpha| in every entry (numpy's allclose at atol CLUSTER_GAP and
        its default rtol); KeyError if none, as for a non-finite alpha."""
        alpha = np.asarray(alpha, dtype=complex)
        roots = np.asarray(self.roots, dtype=complex).reshape(-1, self.rank)
        close = ((np.abs(roots - alpha) <= numkit.CLUSTER_GAP + 1e-5 * np.abs(alpha))
                 & np.isfinite(alpha)).all(axis=1)
        if close.any():
            return int(close.argmax())
        raise KeyError(f"{alpha.tolist()} is not a root of this datum")

    def i_values(self, x0) -> np.ndarray:
        """Real numbers i alpha(x0) for every root, x0 in Cartan coords."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.rank,) or not np.isfinite(x0).all():
            raise ValueError("x0 must be a coefficient vector over the Cartan basis")
        return np.array([-float(np.imag(r @ x0)) for r in self.roots])

    def to_json(self) -> dict:
        return {
            "cartan": numkit.float_list(self.cartan),
            "roots": [numkit.vector_to_json(r) for r in self.roots],
            "vectors": [numkit.vector_to_json(x) for x in self.vectors],
            "types": list(self.types),
        }


def _refine_blocks(blocks, a, gap):
    """Split each invariant block along the eigenspaces of a."""
    out = []
    for q in blocks:
        if q.shape[1] == 1:
            out.append(q)
            continue
        a_res = q.conj().T @ (a @ q)
        w, vec = np.linalg.eig(a_res)
        if numkit.nullity(vec):
            raise NotCartan("ad(t) is not semisimple on the complexification")
        for grp in numkit.clusters(w, gap):
            sub = np.linalg.qr(vec[:, grp])[0]
            out.append(q @ sub)
    return out


def root_decomposition(algebra: LieAlgebraSpec, cartan,
                       tol: Tolerance = DEFAULT_TOL) -> RootDatum:
    """Simultaneous eigendecomposition of ad over a compactly embedded
    Cartan subalgebra.

    cartan is a sequence of coefficient vectors spanning t.  Raises
    NotCartan when they are linearly dependent, t is not abelian or not
    self-centralizing, or an ad-eigenvalue fails to be purely imaginary;
    NonReducedRootSystem when a root space has dimension above one.
    """
    t_mat = np.atleast_2d(np.asarray(cartan, dtype=float))
    k, dim = t_mat.shape
    if dim != algebra.dim:
        raise ValueError("cartan vectors do not match the algebra dimension")
    if numkit.nullity(t_mat.T):
        raise NotCartan("cartan vectors are linearly dependent")
    scale = float(np.abs(t_mat).max())
    for i in range(k):
        for j in range(i + 1, k):
            tol.check(np.abs(algebra.bracket(t_mat[i], t_mat[j])).max(), scale * scale,
                      NotCartan, "cartan subalgebra is not abelian")

    ads = np.stack([algebra.ad(t).astype(complex) for t in t_mat])
    gap = numkit.CLUSTER_GAP * max(1.0, max(float(np.abs(a).max()) for a in ads))
    blocks = [np.eye(algebra.dim, dtype=complex)]
    for a in ads:
        blocks = _refine_blocks(blocks, a, gap)

    zero_dim = 0
    roots, vectors = [], []
    for q in blocks:
        weight = np.array([complex(np.trace(q.conj().T @ (a @ q))) / q.shape[1]
                           for a in ads])
        if np.abs(weight.real).max() > gap:
            raise NotCartan(
                f"ad(t) eigenvalue {weight} is not purely imaginary; "
                "the Cartan subalgebra is not compactly embedded"
            )
        weight = 1j * weight.imag
        if np.abs(weight).max() <= gap:
            zero_dim += q.shape[1]
            continue
        if q.shape[1] > 1:
            raise NonReducedRootSystem(
                f"root space of dimension {q.shape[1]} at weight {weight}"
            )
        x = q[:, 0]
        tol.check(np.abs(ads @ x - np.outer(weight, x)).max(), scale, NotCartan,
                  "joint eigenvector")
        roots.append(weight)
        vectors.append(x)

    if zero_dim != k:
        raise NotCartan(
            f"centralizer of t has dimension {zero_dim}, expected {k}"
        )
    datum = RootDatum(algebra, t_mat, roots, vectors, types=[])
    for r in roots:
        try:
            datum.index_of(-r)
        except KeyError:
            raise NotCartan(f"root {r} has no negative") from None

    datum.types.extend(_classify(algebra, t_mat, alpha, x, tol)
                       for alpha, x in zip(roots, vectors))
    return datum


def _classify(algebra, t_mat, alpha, x, tol: Tolerance) -> str:
    """Sign of alpha([x, x*]) decides the tag for a 1-dimensional root
    space: positive compact, negative noncompact simple, zero noncompact."""
    z = algebra.bracket(x, star(x))
    coeff, _, _, _ = np.linalg.lstsq(t_mat.T.astype(complex), z, rcond=None)
    tol.check(np.abs(t_mat.T @ coeff - z).max(), np.abs(z).max(), NotCartan,
              "[x, x*] leaves the Cartan subalgebra")
    value = complex(np.dot(alpha, coeff))
    tol.check(abs(value.imag), abs(value), NotCartan, "alpha([x, x*]) is not real")
    thr = tol.gate()
    if value.real > thr:
        return "compact"
    if value.real < -thr:
        return "noncompact_simple"
    return "noncompact"


def _dual_rays(rows: np.ndarray, k: int, tol: Tolerance) -> np.ndarray:
    """Generators of {x in R^k : rows @ x >= 0}.

    Splits off the lineality space (nullspace of rows) and enumerates
    extreme rays of the rest through nullspaces of row subsets.
    """
    if rows.size == 0:
        return np.hstack([np.eye(k), -np.eye(k)])
    lineality = numkit.null_space(rows)          # (k, k - rank)
    rank = k - lineality.shape[1]
    slack = tol.value * max(1.0, float(np.abs(rows).max()))

    rays = []
    for subset in combinations(range(rows.shape[0]), rank - 1):
        null = numkit.null_space(np.vstack([rows[list(subset)], lineality.T]))
        if null.shape[1] != 1:
            continue
        d = null[:, 0]
        for cand in (d, -d):
            if (rows @ cand).min() >= -slack:
                cand = cand / np.linalg.norm(cand)
                if not any(np.allclose(cand, r, atol=1e-8) for r in rays):
                    rays.append(cand)
    gens = list(rays)
    for col in lineality.T:
        gens.append(col)
        gens.append(-col)
    if not gens:
        return np.zeros((k, 0))
    return np.column_stack(gens)


def c_max(datum: RootDatum, x0, tol: Tolerance = DEFAULT_TOL) -> Cone:
    """The cone {x in t : i alpha(x) >= 0 for all noncompact positive
    roots}, in Cartan coordinates, by generators.

    x0 defines the positive system and must be regular; the system must be
    adapted (noncompact positive values dominate all compact values).
    """
    ivals = datum.i_values(x0)
    if ivals.size and np.abs(ivals).min() <= tol.gate():
        raise NotRegular(f"x0 is not regular: i alpha(x0) reaches {np.abs(ivals).min():.3e}")
    pos_noncompact = [i for i in range(len(ivals))
                      if ivals[i] > 0 and datum.types[i] != "compact"]
    compact = [i for i in range(len(ivals)) if datum.types[i] == "compact"]
    if pos_noncompact and compact:
        lo = min(ivals[i] for i in pos_noncompact)
        hi = max(ivals[i] for i in compact)
        if not lo > hi:
            raise NotAdapted(
                f"positive system at x0 is not adapted: "
                f"min noncompact {lo:.3g} <= max compact {hi:.3g}"
            )
    rows = np.array([[-float(np.imag(v)) for v in datum.roots[i]]
                     for i in pos_noncompact]).reshape(len(pos_noncompact), datum.rank)
    gens = _dual_rays(rows, datum.rank, tol)
    return Cone("polyhedral", datum.rank, generators=gens)


def find_adapted_x0(datum: RootDatum, rng: np.random.Generator) -> np.ndarray:
    """Search for a regular Cartan element whose positive system is adapted.

    Existence is not guaranteed for every algebra; after _ADAPTED_X0_DRAWS
    random draws the search reports failure instead of guessing.
    """
    for _ in range(_ADAPTED_X0_DRAWS):
        x0 = rng.normal(size=datum.rank)
        try:
            c_max(datum, x0)
        except (NotRegular, NotAdapted):
            continue
        return x0
    raise NotAdapted(f"no adapted positive system found in {_ADAPTED_X0_DRAWS} draws")
