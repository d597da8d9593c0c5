import numpy as np
import pytest

from grade3 import catalog, verify
from grade3.errors import UnknownSuite
from grade3.liealg import LieAlgebraSpec, grade_by


def test_suite_names():
    assert verify.SUITE_NAMES == ("grading", "cones", "semigroup", "modular",
                                  "roots", "all")


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        verify.run_suite("nosuch")


@pytest.mark.parametrize("suite", ["grading", "cones", "semigroup", "modular",
                                   "roots"])
def test_single_suite_passes(suite):
    rep = verify.run_suite(suite, seed=11, samples=40)
    assert rep["suite"] == suite
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]
    for check in rep["checks"]:
        assert set(check) == {"name", "statistic", "value", "threshold", "pass"}
        assert check["statistic"] in ("max_violation", "min_margin", "failures")


def test_all_aggregates():
    rep = verify.run_suite("all", seed=2, samples=25)
    assert rep["pass"]
    assert [s["suite"] for s in rep["sections"]] == ["grading", "cones",
                                                     "semigroup", "modular",
                                                     "roots"]


def test_deterministic_given_seed():
    a = verify.run_suite("modular", seed=9, samples=30)
    b = verify.run_suite("modular", seed=9, samples=30)
    assert a == b


def _tau_bracket_reference(c, tau):
    """max |tau [b_i, b_j] - [tau b_i, tau b_j]| over i < j, one pair at a time."""
    eye = np.eye(len(c))
    worst = 0.0
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            lhs = tau @ np.einsum("i,j,ijk->k", eye[i], eye[j], c)
            rhs = np.einsum("i,j,ijk->k", tau @ eye[i], tau @ eye[j], c)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_tau_bracket_defect_with_non_diagonal_tau():
    # Every catalog tau is diagonal, where a transposed index goes unseen.
    # In the sheared sl2 basis (h + e, e + 2f, f - h) tau is far from it.
    h = np.diag([0.5, -0.5])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = LieAlgebraSpec("sl2_sheared", [h + e, e + 2 * e.T, e.T - h])
    tau = grade_by(alg, alg.coords(h)).tau
    assert np.abs(tau - np.diag(np.diag(tau))).max() > 1.0
    perturbed = tau + 1e-6 * np.random.default_rng(5).normal(size=tau.shape)
    c = alg.structure_constants
    for t, automorphism in ((tau, True), (tau.T, False), (perturbed, False)):
        got = verify._tau_bracket_defect(alg.ad_tensor, t)
        assert got == pytest.approx(_tau_bracket_reference(c, t), rel=1e-9, abs=1e-12)
        assert (got <= 1e-10) == automorphism


@pytest.mark.parametrize("name", catalog.ENTRY_NAMES)
def test_tau_bracket_defect_matches_the_optimized_einsum_bit_for_bit(name):
    entry = catalog.get_entry(name)
    c, tau = entry.algebra.structure_constants, entry.grading.tau
    rhs = np.einsum("ai,bj,abk->ijk", tau, tau, c, optimize=True)
    want = float(np.abs(c @ tau.T - rhs)[np.triu_indices(len(c), 1)].max(initial=0.0))
    assert verify._tau_bracket_defect(entry.algebra.ad_tensor, tau) == want
