import numpy as np
import pytest

from liecohom import mc_numeric
from liecohom.catalog import CATALOG_KEYS, catalog_entry
from liecohom.ce_complex import ExteriorForm, ce_differential, horizontal_basis, index_tuples
from liecohom.errors import DegreeOutOfRange, DimensionMismatch, InvalidParameter, SingularMatrix
from liecohom.field_arith import QQ
from liecohom.lie_core import LieAlgebra, Subspace
from liecohom.mc_numeric import (
    DEFAULT_STEP,
    DEFAULT_TOL,
    DET_THRESHOLD,
    PERTURBATION,
    MatrixGroupPoint,
    NumericCheckResult,
    commutator_dtheta,
    maurer_cartan_check,
    numeric_dtheta,
    one_form_sign_check,
    theta,
)


def E(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


# ---------------------------------------------------------------------------
# theta

def test_theta_at_identity_is_identity_map():
    g = np.eye(2)
    dg = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(theta(g, dg), dg)


def test_theta_diagonal_example():
    g = np.diag([1.0, 2.0])
    assert np.allclose(theta(g, E(2, 1, 1)), 0.5 * E(2, 1, 1))


def test_theta_singular_point_rejected():
    with pytest.raises(SingularMatrix):
        theta(np.zeros((2, 2)), np.eye(2))


def test_theta_shape_errors():
    with pytest.raises(DimensionMismatch):
        theta(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        theta(np.ones((2, 3)), np.ones((2, 3)))


def test_matrix_group_point_wrapper():
    p = MatrixGroupPoint(np.eye(3))
    assert p.n == 3
    assert np.allclose(theta(p, E(3, 0, 1)), E(3, 0, 1))
    with pytest.raises(SingularMatrix):
        MatrixGroupPoint(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# dTheta against the commutator

def test_hand_case_at_identity():
    # at g = I with v = E11, w = E12:
    # [Theta(w), Theta(v)] = E12 E11 - E11 E12 = -E12
    g = np.eye(2)
    v, w = E(2, 0, 0), E(2, 0, 1)
    exact = commutator_dtheta(g, v, w)
    assert np.allclose(exact, -E(2, 0, 1))
    numeric = numeric_dtheta(g, v, w, step=1e-4)
    assert np.max(np.abs(numeric - exact)) < 1e-7


def test_numeric_matches_commutator_generic_point():
    rng = np.random.default_rng(3)
    g = np.eye(3) + 0.1 * rng.uniform(-1, 1, size=(3, 3))
    v = rng.uniform(-1, 1, size=(3, 3))
    w = rng.uniform(-1, 1, size=(3, 3))
    err = np.max(np.abs(numeric_dtheta(g, v, w) - commutator_dtheta(g, v, w)))
    assert err < 1e-6


def test_antisymmetry_in_arguments():
    rng = np.random.default_rng(4)
    g = np.eye(2) + 0.1 * rng.uniform(-1, 1, size=(2, 2))
    v = rng.uniform(-1, 1, size=(2, 2))
    w = rng.uniform(-1, 1, size=(2, 2))
    assert np.allclose(numeric_dtheta(g, v, w), -numeric_dtheta(g, w, v))
    assert np.allclose(commutator_dtheta(g, v, w), -commutator_dtheta(g, w, v))


def test_maurer_cartan_check_n_1_to_3():
    for n in (1, 2, 3):
        result = maurer_cartan_check(n, samples=100, tol=1e-6, step=1e-4, seed=7)
        assert result.passed, "n=%d err=%g" % (n, result.max_abs_error)
        assert result.samples == 100
        assert result.step == 1e-4
        assert result.tol == 1e-6


def test_abelian_case_error_is_tiny():
    # n = 1 is commutative, so the commutator side vanishes and the numeric
    # side only carries truncation error
    result = maurer_cartan_check(1, samples=50, seed=11)
    assert result.max_abs_error < 1e-8


def test_second_order_convergence():
    # halving the step should cut the error by about four
    errs = []
    for step in (1e-2, 5e-3, 2.5e-3):
        r = maurer_cartan_check(2, samples=25, tol=1.0, step=step, seed=5)
        errs.append(r.max_abs_error)
    for bigger, smaller in zip(errs, errs[1:]):
        ratio = bigger / smaller
        assert 3.0 <= ratio <= 5.0, ratio


def test_determinism():
    a = maurer_cartan_check(2, samples=30, seed=19)
    b = maurer_cartan_check(2, samples=30, seed=19)
    assert a.max_abs_error == b.max_abs_error
    assert a.resampled == b.resampled
    c = maurer_cartan_check(2, samples=30, seed=20)
    assert c.max_abs_error != a.max_abs_error


def loop_check(n, samples, step, seed, threshold):
    """Reference for maurer_cartan_check: the same draws, one sample at a
    time through the public one-sample functions, a draw whose determinant
    is at most threshold redrawn."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    resampled = 0
    for _ in range(samples):
        while True:
            g = np.eye(n) + PERTURBATION * rng.uniform(-1.0, 1.0, size=(n, n))
            if abs(np.linalg.det(g)) > threshold:
                break
            resampled += 1
        v = rng.uniform(-1.0, 1.0, size=(n, n))
        w = rng.uniform(-1.0, 1.0, size=(n, n))
        err = np.max(np.abs(numeric_dtheta(g, v, w, step) - commutator_dtheta(g, v, w)))
        if err > max_err:
            max_err = float(err)
    return max_err, resampled


def test_stacked_check_equals_one_sample_loop_bit_for_bit(monkeypatch):
    steps = [DEFAULT_STEP] + [DEFAULT_STEP * f for f in (10.0, 5.0, 2.5, 1.25)]
    for n in (1, 2, 3, 4):
        for seed in (0, 1, 7, 2**62 + 5):
            for step in steps:
                result = maurer_cartan_check(n, samples=30, tol=1e-6, step=step, seed=seed)
                assert ((result.max_abs_error, result.resampled)
                        == loop_check(n, 30, step, seed, DET_THRESHOLD))
    # a raised threshold makes some draws redraw, which must match too
    monkeypatch.setattr(mc_numeric, "DET_THRESHOLD", 0.95)
    for seed in range(5):
        result = maurer_cartan_check(1, samples=20, tol=1e-6, seed=seed)
        assert result.resampled > 0
        assert ((result.max_abs_error, result.resampled)
                == loop_check(1, 20, DEFAULT_STEP, seed, 0.95))


def test_singular_displaced_point_raises():
    # the first draw is g = 1 + 0.1 u, v, w for n = 1; a step of |g / v|
    # puts g - step v or g + step v on the singular locus
    seed = 3
    rng = np.random.default_rng(seed)
    g = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)
    v = rng.uniform(-1.0, 1.0)
    step = abs(g / v)
    with pytest.raises(SingularMatrix):
        loop_check(1, 5, step, seed, DET_THRESHOLD)
    with pytest.raises(SingularMatrix):
        maurer_cartan_check(1, samples=5, step=step, seed=seed)


@pytest.mark.parametrize("n", [0, -1])
def test_check_rejects_a_matrix_size_below_one(n, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw may happen
    with pytest.raises(DimensionMismatch):
        maurer_cartan_check(n, samples=5)


@pytest.mark.parametrize("samples", [0, -3])
def test_check_rejects_a_sample_count_below_one(samples, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(InvalidParameter):
        maurer_cartan_check(2, samples=samples)


@pytest.mark.parametrize("name", ["step", "tol"])
@pytest.mark.parametrize("value", [0.0, -1e-4, float("inf"), float("nan")])
def test_check_rejects_a_bad_step_or_tolerance(name, value, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(InvalidParameter) as info:
        maurer_cartan_check(2, samples=5, **{name: value})
    assert isinstance(info.value, ValueError)


SO3 = LieAlgebra("so3", 3, QQ, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


@pytest.mark.parametrize("call, error", [
    (lambda: maurer_cartan_check(2.5), DimensionMismatch),
    (lambda: maurer_cartan_check(True), DimensionMismatch),
    (lambda: maurer_cartan_check("2"), DimensionMismatch),
    (lambda: maurer_cartan_check(2, samples=True), InvalidParameter),
    (lambda: maurer_cartan_check(2, samples=2.5), InvalidParameter),
    (lambda: ce_differential(SO3, 1.5), DegreeOutOfRange),
    (lambda: horizontal_basis(SO3, Subspace.zero(3, QQ), 1.5), DegreeOutOfRange),
    (lambda: ExteriorForm(3, 1.5, QQ), DegreeOutOfRange),
    (lambda: ExteriorForm(3, True, QQ), DegreeOutOfRange),
    (lambda: index_tuples(3, 1.5), DegreeOutOfRange),
], ids=["mc_n_float", "mc_n_bool", "mc_n_str", "mc_samples_bool", "mc_samples_float",
        "ce_differential", "horizontal_basis", "form_float", "form_bool", "index_tuples"])
def test_non_integer_arguments_raise_typed_errors(call, error, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", None)  # no draw may happen
    with pytest.raises(error):
        call()


def test_integer_types_other_than_int_are_accepted():
    assert maurer_cartan_check(np.int64(1), samples=np.int64(2)).samples == 2
    assert ExteriorForm(3, np.int64(1), QQ, {(2,): 1}).degree == 1


def test_result_fields():
    r = NumericCheckResult(2e-6, 1e-4, 10, 1e-6)
    assert not r.passed
    assert r.max_abs_error == 2e-6
    assert r.resampled == 0
    ok = NumericCheckResult(5e-7, 1e-4, 10, 1e-6, resampled=2)
    assert ok.passed
    assert ok.resampled == 2
    assert "passed=True" in repr(ok)


def test_defaults_are_the_documented_ones():
    assert DEFAULT_TOL == 1e-6
    assert DEFAULT_STEP == 1e-4


# ---------------------------------------------------------------------------
# the exact sign bridge

def test_one_form_sign_catalog():
    for key in CATALOG_KEYS:
        entry = catalog_entry(key)
        assert one_form_sign_check(entry.algebra) is None, key


def test_one_form_sign_pins_the_sign():
    L = LieAlgebra("heis", 3, QQ, {(1, 2): {3: 1}})
    assert one_form_sign_check(L) is None
    cb = ce_differential(L, 1)
    # row (1,2), column 3 must be -1, not +1
    assert cb.matrix.entry(0, 2) == -1
