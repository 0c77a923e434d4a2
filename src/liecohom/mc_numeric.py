"""Floating-point check that d of the tautological 1-form is a commutator.

On GL_n the matrix-valued 1-form Theta(g)(dg) = g^-1 dg satisfies

    d Theta (v, w) = [Theta(w), Theta(v)]

for constant tangent directions v, w.  The left side is computed by second
order central differences of the ordinary exterior derivative, the right
side exactly from two matrix products, and the two are compared entrywise.
At the identity this reduces to d Theta (Z0, Z1) = [Z1, Z0], which is the
sign bridge behind the exact coboundary: d t (Z0, Z1) = -t([Z0, Z1]) for
every left-invariant 1-form t.  one_form_sign_check verifies that exact
statement degree by degree against the structure constants.

maurer_cartan_check draws its samples one at a time, in a fixed order,
then computes both sides for all of them at once with the private kernels
behind numeric_dtheta and commutator_dtheta.  A stacked det, solve or
product makes the same LAPACK or BLAS call per matrix as one point does,
so the result is bit for bit that of a loop over the samples.

numpy is imported inside the functions that use it, not at module level:
the package imports this module on every command, and the exact commands
(cohomology, quotient, validate, catalog) never load numpy.
"""

import math

from .ce_complex import ce_differential, index_tuples
from .errors import DimensionMismatch, InvalidParameter, SingularMatrix
from .field_arith import _integral

DET_THRESHOLD = 1e-8
DEFAULT_TOL = 1e-6
DEFAULT_STEP = 1e-4
PERTURBATION = 0.1


class MatrixGroupPoint:
    """A safely invertible real n x n matrix."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        entries = _as_array(entries)
        self.n = entries.shape[0]
        self.entries = entries

    def __repr__(self):
        return "MatrixGroupPoint(n=%d)" % self.n


class NumericCheckResult:
    """Outcome of a sampled numeric identity check."""

    __slots__ = ("max_abs_error", "step", "samples", "passed", "tol", "resampled")

    def __init__(self, max_abs_error, step, samples, tol, resampled=0):
        self.max_abs_error = float(max_abs_error)
        self.step = float(step)
        self.samples = int(samples)
        self.tol = float(tol)
        self.passed = self.max_abs_error <= self.tol
        self.resampled = int(resampled)

    def __repr__(self):
        return "NumericCheckResult(max_abs_error=%.3e, step=%g, samples=%d, passed=%r)" % (
            self.max_abs_error,
            self.step,
            self.samples,
            self.passed,
        )


def _as_array(g):
    """g as a float array, checked square and safely invertible."""
    import numpy as np

    if isinstance(g, MatrixGroupPoint):
        return g.entries
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch("group point must be a square matrix")
    _check_invertible(g)
    return g


def _check_invertible(g):
    """Raise SingularMatrix unless g, one matrix or a stack, is safely invertible."""
    import numpy as np

    if np.any(np.abs(np.linalg.det(g)) <= DET_THRESHOLD):
        raise SingularMatrix("matrix determinant too close to zero")


def _tangent(g, dg):
    """dg as a float array of g's shape."""
    import numpy as np

    dg = np.asarray(dg, dtype=float)
    if dg.shape != g.shape:
        raise DimensionMismatch("tangent matrix shape %r, expected %r" % (dg.shape, g.shape))
    return dg


def _difference_quotient(g, v, w, step):
    """Central-difference d Theta (v, w) at g: one point, or a stack of
    points with matching stacks of directions.

    The four displaced points g +- step v and g +- step w are det-checked
    together and then solved against in one stacked call.
    """
    import numpy as np

    displaced = np.stack([g + step * v, g - step * v, g + step * w, g - step * w])
    _check_invertible(displaced)
    x = np.linalg.solve(displaced, np.stack([w, w, v, v]))
    return (x[0] - x[1]) / (2.0 * step) - (x[2] - x[3]) / (2.0 * step)


def _commutator(g, v, w):
    """[Theta(w), Theta(v)] at g, one point or a stack, from one stacked solve."""
    import numpy as np

    tv, tw = np.linalg.solve(np.stack([g, g]), np.stack([v, w]))
    return tw @ tv - tv @ tw


def theta(g, dg):
    """The tautological form at g applied to a tangent matrix: g^-1 dg."""
    import numpy as np

    g = _as_array(g)
    return np.linalg.solve(g, _tangent(g, dg))


def numeric_dtheta(g, v, w, step=DEFAULT_STEP):
    """Central-difference d Theta (v, w) at g, for constant directions v, w.

    Second order: the truncation error scales as step squared.
    """
    g = _as_array(g)
    return _difference_quotient(g, _tangent(g, v), _tangent(g, w), step)


def commutator_dtheta(g, v, w):
    """The exact right side [Theta(w), Theta(v)] at g."""
    g = _as_array(g)
    return _commutator(g, _tangent(g, v), _tangent(g, w))


def maurer_cartan_check(n, samples=100, tol=DEFAULT_TOL, step=DEFAULT_STEP, seed=0):
    """Compare numeric d Theta with the exact commutator on random samples.

    Sample points are I + 0.1 * R with R uniform in [-1, 1]; draws too close
    to the singular locus are rejected and redrawn (counted in the result).
    The draw sequence depends only on the seed, not on the step, so the
    same samples can be re-run at several steps.

    Each sample is drawn in the order g (redrawn while too close to
    singular), v, w; then all samples are checked at once, bit for bit as
    a loop over numeric_dtheta and commutator_dtheta would.  Raises
    SingularMatrix if a displaced point g +- step v, g +- step w is too
    close to singular, DimensionMismatch if n is not an integer of at
    least 1, and InvalidParameter if samples is not an integer of at least
    1, step or tol is not positive and finite, or seed is not a
    nonnegative integer.  A bool is not an integer here.
    """
    if not _integral(n) or n < 1:
        raise DimensionMismatch("matrix size must be an integer of at least 1, got %r" % (n,))
    if not _integral(samples) or samples < 1:
        raise InvalidParameter("sample count must be an integer of at least 1, got %r"
                               % (samples,))
    for name, value in (("tolerance", tol), ("step", step)):
        if not (0 < value < math.inf):
            raise InvalidParameter("%s must be positive and finite, got %r" % (name, value))
    if not _integral(seed) or seed < 0:
        raise InvalidParameter("seed must be a nonnegative integer, got %r" % (seed,))
    import numpy as np

    rng = np.random.default_rng(seed)
    resampled = 0
    g = np.empty((samples, n, n))
    v = np.empty((samples, n, n))
    w = np.empty((samples, n, n))
    for s in range(samples):
        while True:
            g[s] = np.eye(n) + PERTURBATION * rng.uniform(-1.0, 1.0, size=(n, n))
            if abs(np.linalg.det(g[s])) > DET_THRESHOLD:
                break
            resampled += 1
        v[s] = rng.uniform(-1.0, 1.0, size=(n, n))
        w[s] = rng.uniform(-1.0, 1.0, size=(n, n))
    errs = np.abs(_difference_quotient(g, v, w, step) - _commutator(g, v, w)).max(axis=(1, 2))
    # fmax skips a NaN error, as a running maximum kept with > does
    max_err = float(np.fmax.reduce(errs, initial=0.0))
    return NumericCheckResult(max_err, step, samples, tol, resampled)


def one_form_sign_check(L):
    """Exact check that d t[m] (e_i, e_j) = -c^m_ij for all m and i < j.

    Returns None when every entry matches, else the first counterexample
    (m, i, j, got, expected).
    """
    cb = ce_differential(L, 1)
    rows = index_tuples(L.dim, 2)
    for r, (i, j) in enumerate(rows):
        for m in range(1, L.dim + 1):
            got = cb.matrix.entry(r, m - 1)
            expected = -L.structure_constant(i, j, m)
            if got != expected:
                return (m, i, j, got, expected)
    return None
