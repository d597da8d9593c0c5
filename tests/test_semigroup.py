"""Compression-semigroup membership and open-cell factorizations on sl2.

g = [[2, 1], [1, 1]] factors by hand: with h = diag(1/2, -1/2),
exp(a e) diag(d, 1/d) exp(b f) = [[d + ab/d, a/d], [b/d, 1/d]], so the
'+0-' factorization is a = b = 1, d = 1 and the '-0+' one is d = 2,
a = b = 1/2.
"""

import functools

import numpy as np
import pytest

from grade3 import catalog, numkit
from grade3.cones import graded_parts
from grade3.errors import (
    AdjointOutOfSpan,
    BranchCutError,
    NoTauImplementation,
    NotInOpenCell,
    NotPolar,
)
from grade3.liealg import (
    Grading,
    GroupElement,
    LieAlgebraSpec,
    ad_image,
    grade_by,
    sharp,
    tau_group,
)
from grade3.numkit import DEFAULT_TOL
from grade3.semigroup import (
    member_P,
    member_ShC,
    member_decomposed,
    polar_factor,
    triangular_factor,
)

G_IN = np.array([[2.0, 1.0], [1.0, 1.0]])
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def g_of(entry, m):
    return GroupElement(entry.algebra, np.asarray(m, dtype=float))


def test_member_frozen_cases(sl2):
    assert member_ShC(g_of(sl2, G_IN), sl2.grading, sl2.cone)
    assert not member_ShC(g_of(sl2, ROT), sl2.grading, sl2.cone)
    g = GroupElement.exp(sl2.algebra, [0.0, -1.0, 0.0])
    assert not member_ShC(g, sl2.grading, sl2.cone)


def test_member_is_python_bool(sl2):
    for m in (G_IN, ROT):
        assert type(member_ShC(g_of(sl2, m), sl2.grading, sl2.cone)) is bool


def test_factor_plus_zero_minus(sl2):
    f = triangular_factor(g_of(sl2, G_IN), sl2.grading, "+0-")
    np.testing.assert_allclose(f.x_plus, [0.0, 1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(f.x_minus, [0.0, 0.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(f.g0.matrix, np.eye(2), atol=1e-10)
    assert f.order == "+0-"


def test_factor_minus_zero_plus(sl2):
    f = triangular_factor(g_of(sl2, G_IN), sl2.grading, "-0+")
    np.testing.assert_allclose(f.x_plus, [0.0, 0.5, 0.0], atol=1e-10)
    np.testing.assert_allclose(f.x_minus, [0.0, 0.0, 0.5], atol=1e-10)
    np.testing.assert_allclose(f.g0.matrix, np.diag([2.0, 0.5]), atol=1e-10)


def test_factor_slack_in_cone_parts(sl2):
    cp, cm = graded_parts(sl2.cone, sl2.grading)
    for order in ("+0-", "-0+"):
        f = triangular_factor(g_of(sl2, G_IN), sl2.grading, order)
        assert cp.violation(f.x_plus) <= 1e-8
        assert cm.violation(f.x_minus) <= 1e-8


def test_rotation_not_in_open_cell(sl2):
    for order in ("+0-", "-0+"):
        with pytest.raises(NotInOpenCell):
            triangular_factor(g_of(sl2, ROT), sl2.grading, order)


def test_element_whose_inverse_overflows_leaves_open_cell(sl2):
    # '+0-' starts from g^{-1}; an inverse that overflows is a numerically
    # singular g, not a bad group element
    with pytest.raises(NotInOpenCell, match="numerically singular"):
        triangular_factor(g_of(sl2, [[1e-310, 0.0], [0.0, 1.0]]), sl2.grading, "+0-")


def test_factor_bad_order(sl2):
    with pytest.raises(ValueError):
        triangular_factor(g_of(sl2, G_IN), sl2.grading, "0+-")


def test_factor_json_keys(sl2):
    d = triangular_factor(g_of(sl2, G_IN), sl2.grading).to_json()
    assert set(d) == {"x_plus", "g0", "x_minus", "order"}


def test_member_P(sl2):
    e_plus = GroupElement.exp(sl2.algebra, [0.0, 1.0, 0.0])
    e_minus = GroupElement.exp(sl2.algebra, [0.0, 0.0, 1.0])
    scale = GroupElement.exp(sl2.algebra, [0.7, 0.0, 0.0])
    assert member_P(e_plus, sl2.grading, +1)
    assert member_P(scale @ e_plus, sl2.grading, +1)
    assert not member_P(e_plus, sl2.grading, -1)
    assert member_P(e_minus, sl2.grading, -1)
    assert not member_P(g_of(sl2, G_IN), sl2.grading, +1)
    with pytest.raises(ValueError):
        member_P(e_plus, sl2.grading, 0)


def test_member_decomposed_matches_direct(sl2, rng):
    parts = graded_parts(sl2.cone, sl2.grading)
    agree = 0
    for _ in range(200):
        x = 0.7 * rng.normal(size=3)
        y = 0.7 * rng.normal(size=3)
        g = GroupElement.exp(sl2.algebra, x) @ GroupElement.exp(sl2.algebra, y)
        if member_decomposed(g, sl2.grading, sl2.cone, parts=parts) == \
                member_ShC(g, sl2.grading, sl2.cone):
            agree += 1
    assert agree == 200


def test_member_decomposed_rejects_bad_sign(sl2):
    g = GroupElement.exp(sl2.algebra, [0.0, -1.0, 0.0])
    assert not member_decomposed(g, sl2.grading, sl2.cone)


def test_refactorization_idempotent(sl2, rng):
    alg = sl2.algebra
    for _ in range(50):
        entry_g = catalog.sample_semigroup_element(sl2, rng)
        f = triangular_factor(entry_g, sl2.grading)
        rebuilt = (GroupElement.exp(alg, f.x_plus) @ f.g0
                   @ GroupElement.exp(alg, f.x_minus))
        f2 = triangular_factor(rebuilt, sl2.grading)
        np.testing.assert_allclose(f2.x_plus, f.x_plus, atol=1e-8)
        np.testing.assert_allclose(f2.x_minus, f.x_minus, atol=1e-8)
        np.testing.assert_allclose(f2.g0.matrix, f.g0.matrix, atol=1e-8)


def test_polar_frozen(sl2):
    x = np.array([0.0, 0.5, 0.5])  # tau x = -x
    f = polar_factor(GroupElement.exp(sl2.algebra, x), sl2.grading)
    np.testing.assert_allclose(f.x, x, atol=1e-9)
    np.testing.assert_allclose(f.g0.matrix, np.eye(2), atol=1e-9)


def test_polar_structure(sl2):
    f = polar_factor(g_of(sl2, G_IN), sl2.grading)
    np.testing.assert_allclose(sl2.grading.tau @ f.x, -f.x, atol=1e-9)
    np.testing.assert_allclose(ad_image(f.g0, sl2.grading.h), sl2.grading.h,
                               atol=1e-9)
    assert set(f.to_json()) == {"g0", "x"}


def test_polar_branch_cut(sl2):
    # sharp(g) g doubles the rotation angle, so the quarter turn produces
    # the half turn, whose log sits on the principal branch cut
    quarter = GroupElement.exp(sl2.algebra, (np.pi / 2) * np.array([0.0, 1.0, -1.0]))
    with pytest.raises(BranchCutError):
        polar_factor(quarter, sl2.grading)


@pytest.mark.parametrize("name,m", [
    ("sl2", [[1.0, 2.0], [2.0, 4.0]]),
    ("poincare3", np.diag([1.0, 1.0, 1.0, 0.0])),
], ids=["sl2", "poincare3"])
def test_polar_singular_element_is_not_polar(name, m):
    entry = catalog.get_entry(name)
    with pytest.raises(NotPolar, match="numerically singular"):
        polar_factor(g_of(entry, m), entry.grading)


def test_polar_refuses_a_tau_matrix_that_does_not_implement_tau(sl2):
    # T = I conjugates e to e, where tau(e) = -e: T b T^-1 - tau(b) = 2b on
    # e and f, at scale max|b_i| ||I|| ||I|| = 1 * sqrt(2) * sqrt(2)
    alg = LieAlgebraSpec("sl2", sl2.algebra.basis.real, tau_matrix=np.eye(2))
    with pytest.raises(NoTauImplementation) as exc:
        polar_factor(g_of(sl2, G_IN), grade_by(alg, sl2.h))
    assert str(exc.value) == ("tau_matrix does not implement tau: residual 2.000e+00 "
                              "above gate 3.000e-09 at scale 2.000e+00")


def test_polar_without_a_tau_matrix_keeps_tau_groups_refusal(sl2):
    alg = LieAlgebraSpec("plain", sl2.algebra.basis.real)
    with pytest.raises(NoTauImplementation, match="^algebra plain has no tau matrix$"):
        polar_factor(GroupElement(alg, G_IN), grade_by(alg, sl2.h))


def test_a_singular_tau_matrix_is_refused_by_name_at_every_use(sl2):
    # T = diag(1, 0) has no inverse: every path through T^{-1} names it
    alg = LieAlgebraSpec("sl2", sl2.algebra.basis.real, tau_matrix=np.diag([1.0, 0.0]))
    grading, g = grade_by(alg, sl2.h), GroupElement(alg, G_IN)
    for use in (lambda: polar_factor(g, grading), lambda: tau_group(g), lambda: sharp(g),
                lambda: grading.tau_defect):
        with pytest.raises(NoTauImplementation,
                           match="^algebra sl2 has a singular tau_matrix$"):
            use()


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_every_catalog_tau_matrix_implements_tau(name):
    grading = catalog.get_entry(name).grading
    residual, scale = grading.tau_defect
    assert residual <= 2e-15 and DEFAULT_TOL.accepts(residual, scale)


def test_polar_computes_the_tau_defect_once_per_grading(sl2, monkeypatch):
    calls = []
    defect = Grading.tau_defect.func

    def counted(grading):
        calls.append(grading)
        return defect(grading)

    prop = functools.cached_property(counted)
    prop.__set_name__(Grading, "tau_defect")
    monkeypatch.setattr(Grading, "tau_defect", prop)
    grading = grade_by(sl2.algebra, sl2.h)
    for _ in range(2):
        polar_factor(g_of(sl2, G_IN), grading)
    assert calls == [grading]


def test_polar_domain_draws_outside_the_principal_strip_are_refused(poincare3):
    # sharp(g) g = exp(2x) has principal log 2x only while the eigenvalues of
    # 2x lie in the strip |Im| < pi; at scale 1, 22 of these 200 draws do not
    rng, twin = np.random.default_rng(1), np.random.default_rng(1)
    refusals = 0
    for _ in range(200):
        g = catalog.sample_polar_domain(poincare3, rng, 1.0)
        catalog.sample_algebra_element(poincare3, twin, 1.0)  # g0's draw
        raw = catalog.sample_algebra_element(poincare3, twin, 1.0)
        x = poincare3.grading.part(raw, 1) + poincare3.grading.part(raw, -1)
        vals = np.linalg.eigvals(2.0 * poincare3.algebra.to_matrix(x))
        try:
            polar_factor(g, poincare3.grading)
            refused = False
        except NotPolar:
            refused = True
        assert refused == (np.abs(vals.imag).max() >= np.pi)
        refusals += refused
    assert refusals == 22


def test_polar_refuses_a_log_that_leaves_the_algebra(poincare3):
    # Draw 133 at scale 2: the principal log of sharp(g) g is not in the
    # algebra.  That gate alone refuses it; with the gate off, the unit-factor
    # gate would refuse it under another message.
    rng = np.random.default_rng(1)
    for _ in range(133):
        catalog.sample_polar_domain(poincare3, rng, 2.0)
    g = catalog.sample_polar_domain(poincare3, rng, 2.0)
    with pytest.raises(NotPolar, match=r"^log of sharp\(g\) g leaves the algebra: "):
        polar_factor(g, poincare3.grading)


# (entry, draw index, message) of '+0-' draws at sampler scale 10 whose
# factors diverge.  The sums exp(-x) stay finite; the gates and the
# conjugations downstream refuse the factorization.
DIVERGING_DRAWS = [
    ("poincare3", 28, r"residual conjugation does not reach h \+ g\^\{-lead\}"),
    ("poincare3", 144, r"factor verification failed: Singular matrix"),
    ("poincare5", 142, r"factor verification failed: Singular matrix"),
    ("poincare5", 265, r"middle factor does not fix h"),
]


def test_diverging_leading_factor_leaves_open_cell():
    for name, index, match in DIVERGING_DRAWS:
        entry = catalog.get_entry(name)
        rng = np.random.default_rng(0)
        for _ in range(index + 1):
            g = catalog.sample_semigroup_element(entry, rng, 10.0)
        with pytest.raises(NotInOpenCell, match=match):
            triangular_factor(g, entry.grading, "+0-")


def test_overflowing_factor_is_refused(poincare3):
    # a finite x in g^{+1} whose X^2 overflows: the sum exp(-x) has
    # non-finite entries, a failed factorization, not a raw ValueError
    grading = poincare3.grading
    x = grading.part(np.random.default_rng(3).normal(size=poincare3.algebra.dim), 1)
    x *= 1e160 / np.linalg.norm(x)
    assert grading.nilpotency_bound == 3
    assert np.isfinite(poincare3.algebra.to_matrix(x)).all()
    for which in ("leading", "trailing"):
        with pytest.raises(NotInOpenCell, match=f"{which} factor exp\\(-x\\) overflows"):
            grading.inverse_unipotent(x, which)


def _exp_minus(grading, x, which):
    """exp(-x) for x in g^{+-1}: the terminating Horner sum of the nilpotent
    -X, refusing an overflowing one."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = grading.algebra.to_matrix(-x)
        k = grading.nilpotency_bound
        out = np.eye(len(m))
        if k >= 2:
            eye = np.eye(len(m))
            out = eye + m / (k - 1)
            for j in range(k - 2, 0, -1):
                out = eye + m @ out / j
    if not np.isfinite(out).all():
        raise NotInOpenCell(f"{which} factor exp(-x) overflows")
    return out


def _reference_factor(g, grading, order, tol=DEFAULT_TOL):
    """The open-cell factorization written with group elements: every
    conjugation through ad_image, every graded part through Grading.part."""
    alg, h = g.algebra, grading.h
    try:
        if order == "+0-":
            g = g.inverse()
        w = ad_image(g, grading, tol)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotInOpenCell(f"g is numerically singular: {exc}") from exc
    basis = grading.eigenbasis(-1)
    mat = basis.T @ (np.eye(alg.dim) - alg.ad(grading.part(w, 0))) @ basis
    try:
        sol = np.linalg.lstsq(numkit.require_finite(mat),
                              numkit.require_finite(basis.T @ (2.0 * grading.part(w, -1))),
                              rcond=None)[0]
    except ValueError as exc:
        raise NotInOpenCell(f"system for x- cannot be solved: {exc}") from exc
    x_minus = basis @ sol
    scale = float(np.linalg.norm(w))
    try:
        g1 = GroupElement(alg, _exp_minus(grading, x_minus, "leading") @ g.matrix)
        r = ad_image(g1, grading, tol) - h
        tol.check(np.linalg.norm(r - grading.part(r, 1)), scale,
                  NotInOpenCell, "residual conjugation does not reach h + g^{-lead}")
        x_plus = grading.part(ad_image(g1.inverse(), grading, tol) - h, 1)
        g0 = GroupElement(alg, g1.matrix @ _exp_minus(grading, x_plus, "trailing"))
        tol.check(np.linalg.norm(ad_image(g0, grading, tol) - h), scale,
                  NotInOpenCell, "middle factor does not fix h")
    except (AdjointOutOfSpan, np.linalg.LinAlgError) as exc:
        raise NotInOpenCell(f"factor verification failed: {exc}") from exc
    if order == "+0-":
        return 0.0 - x_plus, g0.inverse(), 0.0 - x_minus
    return x_plus, g0, x_minus


def _outcome(factor, *args):
    """Bytes of (x+, g0, g0^{-1}, x-), or the exception's type and message."""
    try:
        out = factor(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__, str(exc)
    if not isinstance(out, tuple):
        out = (out.x_plus, out.g0, out.x_minus)
    x_plus, g0, x_minus = out
    return x_plus.tobytes(), g0.matrix.tobytes(), g0.inv_matrix.tobytes(), x_minus.tobytes()


def test_factorization_is_bit_identical_to_the_group_element_reference():
    # the one-pass factorization on plain matrices gives the bytes, or the
    # exception type and message, of the same algorithm on group elements
    kinds = set()
    for name in catalog.ENTRY_NAMES:
        entry = catalog.get_entry(name)
        for scale in (0.5, 2.0, 5.0):
            rng = np.random.default_rng(0)
            for i in range(6):
                m = catalog.sample_semigroup_element(entry, rng, scale).matrix
                for order in ("+0-", "-0+"):
                    got, want = (_outcome(f, GroupElement(entry.algebra, m), entry.grading, order)
                                 for f in (triangular_factor, _reference_factor))
                    assert got == want, (name, scale, i, order)
                    kinds.add(got[0] if isinstance(got[0], str) else "factored")
    assert kinds == {"factored", "AdjointOutOfSpan", "NotInOpenCell"}


# (entry, draw index, orders) at sampler scale 10: draws that leave the open
# cell.  In the first six g or an intermediate factor is numerically singular.
# In the last five the leading factor diverges: its exponential overflows
# (poincare3 15, poincare6 179), a later conjugation leaves the algebra's span
# (jacobi1 168, jacobi3 154), or the residual-conjugation gate refuses it
# (jacobi2 25).
SINGULAR_DRAWS = [
    ("poincare3", 28, ("-0+",)),
    ("poincare3", 144, ("-0+",)),
    ("poincare4", 53, ("+0-",)),
    ("jacobi1", 130, ("+0-", "-0+")),
    ("jacobi1", 176, ("+0-", "-0+")),
    ("jacobi2", 78, ("+0-", "-0+")),
    ("poincare3", 15, ("-0+",)),
    ("poincare6", 179, ("-0+",)),
    ("jacobi1", 168, ("+0-",)),
    ("jacobi2", 25, ("+0-",)),
    ("jacobi3", 154, ("+0-",)),
]


@pytest.mark.parametrize("name,index,orders", SINGULAR_DRAWS)
def test_singular_factor_leaves_open_cell(name, index, orders):
    entry = catalog.get_entry(name)
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        g = catalog.sample_semigroup_element(entry, rng, 10.0)
    for order in orders:
        with pytest.raises(NotInOpenCell):
            triangular_factor(GroupElement(entry.algebra, g.matrix), entry.grading, order)


# Cells (entry, sampler scale, order) whose first GUARD_DRAWS draws include an
# accepted factorization far from the drawn factors (ROADMAP item 1): draw 0
# of this cell is accepted at 24 times its bound.
WRONG_ACCEPTS = {("jacobi3", 5.0, "+0-")}
GUARD_DRAWS = 70


def _drawn_factors(entry, rng, scale):
    """(x+, g0, x-) in the order sample_semigroup_element draws them."""
    xp = catalog._clipped(entry.cone_plus.sample(rng), scale)
    xm = catalog._clipped(entry.cone_minus.sample(rng), scale)
    return xp, catalog.sample_stabilizer(entry, rng, scale), xm


def _drawn_element(entry, rng, scale, order):
    """A drawn (x+, g0, x-) and its product in the given order."""
    alg = entry.algebra
    xp, g0, xm = _drawn_factors(entry, rng, scale)
    first, last = (xp, xm) if order == "+0-" else (xm, xp)
    return (xp, g0, xm), GroupElement.exp(alg, first) @ g0 @ GroupElement.exp(alg, last)


def _factor_error(f, drawn, g):
    """Largest relative error of accepted factors against the drawn ones, and
    the bound 1e-6 + 1e3·u·cond(g) it is held to."""
    err = max(float(np.linalg.norm(got - want) / np.linalg.norm(want))
              for got, want in zip((f.x_plus, f.g0.matrix, f.x_minus),
                                   (drawn[0], drawn[1].matrix, drawn[2])))
    return err, 1e-6 + 1e3 * np.finfo(float).eps * np.linalg.cond(g.matrix)


@pytest.mark.parametrize("name,scale,order", [
    pytest.param(name, scale, order, marks=[pytest.mark.xfail(
        strict=True, reason="accepts wrong factors (ROADMAP item 1)")]
        if (name, scale, order) in WRONG_ACCEPTS else [])
    for name in catalog.ENTRY_NAMES for scale in (2.0, 5.0, 10.0)
    for order in ("+0-", "-0+")])
def test_accepted_factors_match_drawn_factors(name, scale, order):
    entry = catalog.get_entry(name)
    rng = np.random.default_rng(0)
    for i in range(GUARD_DRAWS):
        drawn, g = _drawn_element(entry, rng, scale, order)
        if i == 0 and order == "+0-":  # the draws follow the sampler's
            sampled = catalog.sample_semigroup_element(entry, np.random.default_rng(0), scale)
            np.testing.assert_array_equal(g.matrix, sampled.matrix)
        try:
            f = triangular_factor(g, entry.grading, order)
        except (AdjointOutOfSpan, NotInOpenCell):
            continue
        err, bound = _factor_error(f, drawn, g)
        assert err <= bound, (i, err)


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_plus_first_order_mirrors_minus_first_order_of_inverse(name):
    # g^{-1} = exp(x-) g0 exp(x+) gives g = exp(-x+) g0^{-1} exp(-x-)
    entry = catalog.get_entry(name)
    rng = np.random.default_rng(0)
    for _ in range(20):
        _, g = _drawn_element(entry, rng, 0.5, "+0-")
        f = triangular_factor(g, entry.grading, "+0-")
        m = triangular_factor(g.inverse(), entry.grading, "-0+")
        np.testing.assert_array_equal(f.x_plus, -m.x_plus)
        np.testing.assert_array_equal(f.x_minus, -m.x_minus)
        np.testing.assert_array_equal(f.g0.matrix, m.g0.inverse().matrix)
        x = np.concatenate([f.x_plus, f.x_minus])
        assert not np.signbit(x[x == 0.0]).any()  # no -0.0 reaches the JSON


@pytest.mark.parametrize("name,index", [("poincare4", 3), ("poincare3", 187)])
def test_correct_factors_with_off_degree_trailing_roundoff_are_accepted(name, index):
    # Scale-5 '-0+' draws whose trailing conjugation Ad(g1^{-1})h carries
    # roundoff off g^1 above the 1e-9 relative gate; the factors are right
    # all the same, and the middle-factor gate accepts them.
    entry = catalog.get_entry(name)
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        drawn, g = _drawn_element(entry, rng, 5.0, "-0+")
    err, bound = _factor_error(triangular_factor(g, entry.grading, "-0+"), drawn, g)
    assert err <= bound


@pytest.mark.parametrize("name", ["sl2", "poincare4", "jacobi2"])
@pytest.mark.parametrize("order", ["+0-", "-0+"])
def test_factor_does_not_rederive(name, order, monkeypatch):
    # per call: h is never turned into a matrix again (the grading holds its
    # matrix), the two factors are terminating sums with no exponential, and
    # the inverses of g, g1 and g0 are each computed once and then shared
    from grade3 import liealg, numkit

    e = catalog.get_entry(name)
    g = catalog.sample_semigroup_element(e, np.random.default_rng(5))
    triangular_factor(g, e.grading, order)  # anything built on first use is built
    counts = {"h": 0, "expm": 0, "inv": 0}
    to_matrix, expm, inv = liealg.LieAlgebraSpec.to_matrix, numkit.expm, np.linalg.inv

    def counted_to_matrix(self, x):
        counts["h"] += np.array_equal(np.asarray(x, dtype=float), e.grading.h)
        return to_matrix(self, x)

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(liealg.LieAlgebraSpec, "to_matrix", counted_to_matrix)
    monkeypatch.setattr(numkit, "expm", counted("expm", expm))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
    g = catalog.sample_semigroup_element(e, np.random.default_rng(6))
    counts.update(h=0, expm=0, inv=0)  # the sampler's own exponentials
    triangular_factor(g, e.grading, order)
    assert counts["h"] == 0
    assert counts["expm"] == 0
    assert counts["inv"] <= 3


def test_overflowing_x_minus_system_is_not_in_the_open_cell(sl2):
    # Ad(g)h is finite, but 2 w_-1 overflows in the right side of the solve
    g = GroupElement(sl2.algebra, np.array([[1.0, 0.0], [1.5e308, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        for order in ("+0-", "-0+"):
            with pytest.raises(NotInOpenCell):
                triangular_factor(g, sl2.grading, order)
        assert member_decomposed(g, sl2.grading, sl2.cone) is False
