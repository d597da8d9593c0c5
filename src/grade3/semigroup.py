"""Compression semigroups of a 3-grading and their factorizations.

member_ShC decides h - Ad(g)h in C directly.  triangular_factor computes the
open-cell factorization g = exp(x-) g0 exp(x+): with w = Ad(g)h and graded
parts (w1, w0, w-1), expanding w = e^{ad x-}(h + y) for y in g^1 gives
w0 = h + [x-, y] and w-1 = (1/2)(I - ad w0) x-, so x- solves a linear system
on g^{-1}; x+ is then read off from Ad(g1^{-1})h = h + x+, g1 = exp(-x-) g.
The order g = exp(x+) g0 exp(x-) is its mirror, g^{-1} = exp(-x-) g0^{-1}
exp(-x+).  x+- lies in g^{+-1}, so its matrix is nilpotent and exp(-x+-) is
a terminating sum (Grading.inverse_unipotent): the factorization makes no
matrix exponential.  The Olshanski-type polar factorization g0 exp(x) comes
from the principal log of sharp(g) g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .cones import Cone, graded_parts
from .errors import AdjointOutOfSpan, NotInOpenCell, NotPolar
from .liealg import Grading, GroupElement, ad_image, conjugate_coords, sharp
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
            "x_plus": numkit.float_list(self.x_plus),
            "g0": numkit.matrix_to_json(self.g0.matrix),
            "x_minus": numkit.float_list(self.x_minus),
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
            "x": numkit.float_list(self.x),
        }


def member_ShC(g: GroupElement, grading: Grading, cone: Cone,
               tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compression-semigroup membership: h - Ad(g)h in C."""
    w = ad_image(g, grading, tol)
    return cone.contains(grading.h - w, tol)


def member_P(g: GroupElement, grading: Grading, sign: int,
             tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in P(sign) = G^0 G^{sign}: Ad(g)h lands in h + g^{sign}."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    r = ad_image(g, grading, tol) - grading.h
    off = r - grading.part(r, sign)
    return tol.accepts(np.linalg.norm(off), np.linalg.norm(r))


def triangular_factor(g: GroupElement, grading: Grading, order: str = "+0-",
                      tol: Tolerance = DEFAULT_TOL) -> TriangularFactorization:
    """Factor g through the open cell G^1 G^0 G^{-1} (or G^{-1} G^0 G^1).

    '-0+' is eliminated directly; '+0-' is the mirror of '-0+' on g^{-1}.
    Raises AdjointOutOfSpan when the first conjugation (of g for '-0+', of
    g^{-1} for '+0-') fails its gate, and NotInOpenCell for every later
    failure: a numerically singular g, an overflowing system or factor, or
    a gate on the residual conjugation or the middle factor.
    """
    if order not in ("+0-", "-0+"):
        raise ValueError("order must be '+0-' or '-0+'")
    # One pass over plain matrices, each inverse computed once; only g0 is a
    # GroupElement.  A non-finite g1^{-1} fails the first conjugation by g1.
    alg, h, hm = g.algebra, grading.h, grading.h_matrix
    try:
        m, m_inv = g.matrix, g.inv_matrix
        if order == "+0-":
            m, m_inv = numkit.require_finite(m_inv, "group element"), m
        w = conjugate_coords(alg, m, m_inv, hm, tol, "Ad(g)x")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotInOpenCell(f"g is numerically singular: {exc}") from exc

    # (I - ad(w0)) x- = 2 w-1, solved on g^{-1}.  An inconsistent system
    # leaves Ad(g1)h off h + g^1, which the gates below refuse, so its
    # residual is not gated here, nor computed: lstsq is called directly.
    basis = grading.eigenbasis(-1)
    mat = basis.T @ (grading.coeff_identity - alg.ad(grading.p_zero @ w)) @ basis
    try:
        sol = np.linalg.lstsq(numkit.require_finite(mat),
                              numkit.require_finite(basis.T @ (2.0 * (grading.p_minus @ w))),
                              rcond=None)[0]
    except ValueError as exc:  # the system overflows for a finite w near the float limit
        raise NotInOpenCell(f"system for x- cannot be solved: {exc}") from exc
    x_minus = basis @ sol
    scale = math.sqrt(w.dot(w))

    try:
        g1 = numkit.require_finite(grading.inverse_unipotent(x_minus, "leading") @ m,
                                   "group element")
        g1_inv = np.linalg.inv(g1)
        r = conjugate_coords(alg, g1, g1_inv, hm, tol, "Ad(g)x") - h
        off = r - grading.p_plus @ r
        tol.check(math.sqrt(off.dot(off)), scale,
                  NotInOpenCell, "residual conjugation does not reach h + g^{-lead}")

        # Trailing factor from Ad(g1^{-1})h = h + x+.  Its off-degree part
        # needs no gate of its own: g0 fixes h only if it vanishes.
        x_plus = grading.p_plus @ (conjugate_coords(alg, g1_inv, g1, hm, tol, "Ad(g)x") - h)
        g0 = GroupElement(alg, g1 @ grading.inverse_unipotent(x_plus, "trailing"))
        moved = conjugate_coords(alg, g0.matrix, g0.inv_matrix, hm, tol, "Ad(g)x") - h
        tol.check(math.sqrt(moved.dot(moved)), scale, NotInOpenCell, "middle factor does not fix h")
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

    parts may carry the precomputed section cones (C+, C-) of graded_parts
    to avoid rebuilding them."""
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
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotPolar(f"g is numerically singular: {exc}") from exc
    logm = numkit.logm_principal(m, tol)
    v, res = alg.try_coords(logm)
    tol.check(float(res), float(np.abs(logm).max(initial=0.0)), NotPolar,
              "log of sharp(g) g leaves the algebra")
    x = v / 2.0
    tol.check(np.linalg.norm(grading.tau @ x + x), float(np.linalg.norm(x)),
              NotPolar, "odd part of the factorization is not tau-antifixed")
    g0 = g @ GroupElement.exp(alg, -x)
    tol.check(np.linalg.norm(ad_image(g0, grading, tol) - grading.h), 1.0,
              NotPolar, "unit factor does not fix h")
    return PolarFactorization(g0, x)

