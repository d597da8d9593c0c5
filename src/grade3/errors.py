"""Error types shared across the package.

Every domain error raised by the library derives from Grade3Error so the CLI
can map it to a JSON error report with exit code 1.  Usage problems (malformed
input, unknown names) deliberately do not use these classes.
"""


class Grade3Error(Exception):
    """Base class for domain errors."""


class BranchCutError(Grade3Error):
    """Matrix logarithm requested for a spectrum touching (-inf, 0]."""


class NotSelfAdjoint(Grade3Error):
    """Loewner comparison of a matrix that is not self-adjoint within tol."""


class NotThreeGraded(Grade3Error):
    """ad(h)^3 differs from ad(h), or a power of ad(h) overflows."""


class AdjointOutOfSpan(Grade3Error):
    """Conjugation by a group element leaves the span of the algebra basis."""


class NoTauImplementation(Grade3Error):
    """Group-level involution requested but the algebra's tau_matrix is
    missing or does not implement the grading's tau."""


class AmbientMismatch(Grade3Error):
    """Cone operation applied to a vector of the wrong ambient dimension."""


class NotCartan(Grade3Error):
    """Candidate Cartan subspace is not abelian, not self-centralizing, or
    not compactly embedded (roots off the imaginary axis)."""


class NotRegular(Grade3Error):
    """Cartan element annihilated by some root; no positive system."""


class NotAdapted(Grade3Error):
    """Positive system defined by x0 is not adapted."""


class NonReducedRootSystem(Grade3Error):
    """A root space of dimension > 1 was found; only multiplicity-free root
    decompositions are supported."""


class NotInOpenCell(Grade3Error):
    """Group element admits no triangular factorization within tolerance."""


class NotPolar(Grade3Error):
    """Group element admits no polar factorization g0 * exp(x) with
    tau(x) = -x and g0 in the unit group."""


class NotStandard(Grade3Error):
    """Subspace fails the standardness test (V + iV = C^n, V cap iV = 0)."""


class ModularRelationViolated(Grade3Error):
    """Candidate modular pair violates J Delta J = Delta^{-1} or J^2 = 1."""


class DomainError(Grade3Error):
    """Scalar function evaluated outside its domain (e.g. log integral with
    Re z <= 0)."""


class PreconditionViolated(Grade3Error):
    """Monotonicity check invoked on operators that are not Loewner-ordered."""


class UnknownSuite(Grade3Error):
    """Verification suite name not recognized."""
