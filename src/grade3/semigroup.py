"""Compression semigroups of a 3-grading and their factorizations.

member_ShC decides h - Ad(g)h in C directly.  triangular_factor computes the
open-cell factorization g = exp(x-) g0 exp(x+): with w = Ad(g)h and graded
parts (w1, w0, w-1), expanding w = e^{ad x-}(h + y) for y in g^1 gives
w0 = h + [x-, y] and w-1 = (1/2)(I - ad w0) x-, so x- solves a linear system
on g^{-1}; x+ is then read off from Ad(g1^{-1})h = h + x+, g1 = exp(-x-) g.
The order g = exp(x+) g0 exp(x-) is its mirror, g^{-1} = exp(-x-) g0^{-1}
exp(-x+).  The Olshanski-type polar factorization g0 exp(x) comes from the
principal log of sharp(g) g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .cones import Cone, graded_parts
from .errors import AdjointOutOfSpan, NotInOpenCell, NotPolar
from .liealg import Grading, GroupElement, ad_image, sharp
from .numkit import DEFAULT_TOL, Tolerance

__all__ = [
    "TriangularFactorization",
    "PolarFactorization",
    "member_ShC",
    "member_P",
    "member_decomposed",
    "triangular_factor",
    "polar_factor",
]


@dataclass
class TriangularFactorization:
    """g = exp(x_plus) g0 exp(x_minus) for order '+0-', the mirrored product
    for order '-0+'."""

    x_plus: np.ndarray
    g0: GroupElement
    x_minus: np.ndarray
    order: str = "+0-"

    def to_json(self) -> dict:
        return {
            "x_plus": [float(v) for v in self.x_plus],
            "g0": numkit.matrix_to_json(self.g0.matrix),
            "x_minus": [float(v) for v in self.x_minus],
            "order": self.order,
        }


@dataclass
class PolarFactorization:
    """g = g0 exp(x) with Ad(g0)h = h and tau(x) = -x."""

    g0: GroupElement
    x: np.ndarray

    def to_json(self) -> dict:
        return {
            "g0": numkit.matrix_to_json(self.g0.matrix),
            "x": [float(v) for v in self.x],
        }


def member_ShC(g: GroupElement, grading: Grading, cone: Cone,
               tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compression-semigroup membership: h - Ad(g)h in C."""
    w = ad_image(g, grading.h, tol)
    return cone.contains(grading.h - w, tol)


def member_P(g: GroupElement, grading: Grading, sign: int,
             tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in P(sign) = G^0 G^{sign}: Ad(g)h lands in h + g^{sign}."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    r = ad_image(g, grading.h, tol) - grading.h
    off = r - grading.part(r, sign)
    return tol.accepts(np.linalg.norm(off), np.linalg.norm(r))


def _inverse_factor(alg, x, which: str) -> GroupElement:
    """exp(-x), the inverse of the factor exp(x), refusing a diverging x."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = numkit.expm(alg.to_matrix(-x))
    if not np.isfinite(m).all():
        raise NotInOpenCell(f"{which} factor exp(-x) overflows")
    return GroupElement(alg, m)


def triangular_factor(g: GroupElement, grading: Grading, order: str = "+0-",
                      tol: Tolerance = DEFAULT_TOL) -> TriangularFactorization:
    """Factor g through the open cell G^1 G^0 G^{-1} (or G^{-1} G^0 G^1).

    '-0+' is eliminated directly; '+0-' is the mirror of '-0+' on g^{-1}.
    Raises AdjointOutOfSpan when the first conjugation (of g for '-0+', of
    g^{-1} for '+0-') fails its gate, and NotInOpenCell for every later
    failure: a numerically singular g, an overflowing factor, or a gate on
    the residual conjugation or the middle factor.
    """
    if order not in ("+0-", "-0+"):
        raise ValueError("order must be '+0-' or '-0+'")
    alg = g.algebra
    h = grading.h
    try:
        if order == "+0-":
            g = g.inverse()
        w = ad_image(g, h, tol)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotInOpenCell(f"g is numerically singular: {exc}") from exc

    # (I - ad(w0)) x- = 2 w-1, solved on g^{-1}.  An inconsistent system
    # leaves Ad(g1)h off h + g^1, which the gates below refuse, so its
    # residual is not gated here.
    basis = grading.eigenbasis(-1)
    mat = basis.T @ (np.eye(alg.dim) - alg.ad(grading.part(w, 0))) @ basis
    sol, _ = numkit.solve_lstsq(mat, basis.T @ (2.0 * grading.part(w, -1)))
    x_minus = basis @ sol
    scale = float(np.linalg.norm(w))

    try:
        g1 = _inverse_factor(alg, x_minus, "leading") @ g
        r = ad_image(g1, h, tol) - h
        tol.check(np.linalg.norm(r - grading.part(r, 1)), scale,
                  NotInOpenCell, "residual conjugation does not reach h + g^{-lead}")

        # Trailing factor from Ad(g1^{-1})h = h + x+.  Its off-degree part
        # needs no gate of its own: g0 fixes h only if it vanishes.
        x_plus = grading.part(ad_image(g1.inverse(), h, tol) - h, 1)
        g0 = g1 @ _inverse_factor(alg, x_plus, "trailing")
        tol.check(np.linalg.norm(ad_image(g0, h, tol) - h), scale,
                  NotInOpenCell, "middle factor does not fix h")
    except (AdjointOutOfSpan, np.linalg.LinAlgError) as exc:
        # A diverging unipotent factor can push the intermediate conjugations
        # past what the representation can verify or invert; that is a
        # failed factorization, not a broken group element.
        raise NotInOpenCell(f"factor verification failed: {exc}") from exc

    if order == "+0-":  # the mirror; 0.0 - x negates without signing zeros
        return TriangularFactorization(0.0 - x_plus, g0.inverse(), 0.0 - x_minus, order)
    return TriangularFactorization(x_plus, g0, x_minus, order)


def member_decomposed(g: GroupElement, grading: Grading, cone: Cone,
                      tol: Tolerance = DEFAULT_TOL, parts=None) -> bool:
    """Membership through the decomposition theorem: g factors in the open
    cell with x+ in C+ and x- in C-.  False when g is not in the cell.

    parts may carry precomputed (C+, C-) handles to avoid rebuilding them."""
    try:
        f = triangular_factor(g, grading, "+0-", tol)
    except NotInOpenCell:
        return False
    c_plus, c_minus = parts if parts is not None else graded_parts(cone, grading)
    return c_plus.contains(f.x_plus, tol) and c_minus.contains(f.x_minus, tol)


def polar_factor(g: GroupElement, grading: Grading,
                 tol: Tolerance = DEFAULT_TOL) -> PolarFactorization:
    """Polar-type factorization g = g0 exp(x), tau(x) = -x, Ad(g0)h = h.

    Computes m = sharp(g) g = exp(2x) and halves its principal log.
    BranchCutError from the log propagates; NotPolar flags a log outside the
    algebra, a tau-symmetric part in x, or a bad unit factor.
    """
    alg = g.algebra
    try:
        m = (sharp(g) @ g).matrix
    except np.linalg.LinAlgError as exc:
        raise NotPolar(f"g is numerically singular: {exc}") from exc
    logm = numkit.logm_principal(m, tol)
    v, res = alg.try_coords(logm)
    tol.check(float(res), float(np.abs(logm).max(initial=0.0)), NotPolar,
              "log of sharp(g) g leaves the algebra")
    x = v / 2.0
    tol.check(np.linalg.norm(grading.tau @ x + x), float(np.linalg.norm(x)),
              NotPolar, "odd part of the factorization is not tau-antifixed")
    g0 = g @ GroupElement.exp(alg, -x)
    tol.check(np.linalg.norm(ad_image(g0, grading.h, tol) - grading.h), 1.0,
              NotPolar, "unit factor does not fix h")
    return PolarFactorization(g0, x)

