"""Property suites behind the selftest command.

Each suite draws its randomness from a child of one master seed and reports
a deterministic check count, so the printed report is byte-identical across
runs with the same seed.  Exact suites admit no tolerance at all; the
numeric suite uses the configured tolerance and step.  A package internal
check that fails inside a suite (InternalCheckFailed) fails that suite.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

from .catalog import selftest_entries
from .ce_complex import (
    ExteriorForm,
    basis_form,
    cohomology,
    ce_differential,
    d_apply,
    evaluate,
    horizontal_basis,
    index_tuples,
    leibniz_check,
    shuffle_eval,
    wedge,
)
from .errors import InternalCheckFailed, InvalidParameter, SingularMatrix
from .field_arith import (
    Matrix,
    QQ,
    _bareiss,
    _cleared,
    _echelon,
    _echelon_insert,
    format_scalar,
    parse_scalar,
    rank,
    rank_and_kernel,
)
from .lie_core import (
    LieAlgebra,
    Subspace,
    bracket,
    ideal_check,
    jacobi_check,
    quotient_algebra,
)
from .mc_numeric import DEFAULT_STEP, DEFAULT_TOL, maurer_cartan_check, one_form_sign_check
from .quotient_pipeline import (
    DenseQuotientInput,
    chain_iso_check,
    dense_quotient_cohomology,
)


class SuiteFailure(Exception):
    pass


def _random_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_matrix(rng, field, rows, cols):
    return Matrix.from_rows(
        field,
        [[_random_fraction(rng) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def _random_form(rng, field, n, degree):
    coeffs = {idx: _random_fraction(rng) for idx in index_tuples(n, degree)}
    return ExteriorForm(n, degree, field, coeffs)


def _random_vector(rng, n):
    return [_random_fraction(rng) for _ in range(n)]


def _entry_ideal(entry):
    if entry.ideal is not None:
        return entry.ideal
    return Subspace.zero(entry.algebra.dim, entry.algebra.field)


def suite_scalar_field(rng, tol, step):
    checks = 0
    for _ in range(200):
        a, b = _random_fraction(rng), _random_fraction(rng)
        if (a + b) - b != a:
            raise SuiteFailure("rational add/sub not exact")
        text = format_scalar(a)
        if parse_scalar(text, QQ) != a:
            raise SuiteFailure("rational parse/format round trip broke at %r" % text)
        checks += 2
    from .field_arith import Field

    F = Field("a")
    gen = F.generator()
    for _ in range(100):
        c0, c1 = _random_fraction(rng), _random_fraction(rng)
        x = gen * c1 + c0
        y = gen * _random_fraction(rng) + 1
        z = x / y
        if z * y != x:
            raise SuiteFailure("rational-function field ops not exact")
        if parse_scalar(format_scalar(z), F) != z:
            raise SuiteFailure("rational-function round trip broke at %r" % format_scalar(z))
        checks += 2
    return checks


def suite_linear_algebra(rng, tol, step):
    checks = 0
    for _ in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = _random_matrix(rng, QQ, rows, cols)
        r, kernel = rank_and_kernel(m)
        if r != _bareiss([_cleared(QQ, row)[0] for row in m.to_rows()])[0]:
            raise SuiteFailure("echelon rank and fraction-free rank disagree")
        if r != rank(Matrix.from_rows(QQ, [m.col(j) for j in range(m.cols)], cols=m.rows)):
            raise SuiteFailure("rank differs from rank of the transpose")
        if r + len(kernel) != cols:
            raise SuiteFailure("rank plus kernel dimension misses the column count")
        for v in kernel:
            if any(m.mul_vec(v)):
                raise SuiteFailure("kernel vector not annihilated")
            checks += 1
        checks += 3
    return checks


def suite_jacobi(rng, tol, step):
    checks = 0
    entries = selftest_entries()
    for entry in entries:
        if jacobi_check(entry.algebra):
            raise SuiteFailure("catalog algebra %s fails Jacobi" % entry.algebra.name)
        checks += 1
    # single-entry corruptions must be caught unless they happen to
    # preserve the identity, which the Jacobiator itself decides
    for entry in entries:
        L = entry.algebra
        n = L.dim
        if n < 3:
            continue
        for _ in range(10):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            k = rng.randint(1, n)
            table = {pair: dict(terms) for pair, terms in L.brackets.items()}
            slot = table.setdefault((i, j), {})
            slot[k] = slot.get(k, L.field.zero) + L.field.one
            corrupted = LieAlgebra(L.name + "_corrupt", n, L.field, table)
            violations = jacobi_check(corrupted)
            if not violations and not _jacobi_holds_direct(corrupted):
                raise SuiteFailure("corruption slipped past jacobi_check")
            checks += 1
    return checks


def _jacobi_holds_direct(L):
    # independent expansion straight from structure constants; the
    # Jacobiator is alternating in (i, j, k), so i < j < k covers every
    # triple.  The nonzero c^mid_ij of every ordered pair are read once
    # through structure_constant, not from the bracket table that
    # jacobi_check walks, and zero products are skipped
    n = L.dim
    basis = range(1, n + 1)
    products = {}
    for i in basis:
        for j in basis:
            terms = [(mid, L.structure_constant(i, j, mid)) for mid in basis]
            products[(i, j)] = [(mid, c) for mid, c in terms if c]
    for i, j, k in combinations(basis, 3):
        acc = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, c in products[(x, y)]:
                for m, c2 in products[(mid, z)]:
                    prev = acc.get(m)
                    acc[m] = c * c2 if prev is None else prev + c * c2
        if any(acc.values()):
            return False
    return True


def suite_quotient(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        L = entry.algebra
        h = _entry_ideal(entry)
        if ideal_check(L, h) is not None:
            raise SuiteFailure("catalog ideal fails ideal_check for %s" % L.name)
        qd = quotient_algebra(L, h)
        if jacobi_check(qd.quotient):
            raise SuiteFailure("quotient of %s fails Jacobi" % L.name)
        for b in range(1, qd.quotient.dim + 1):
            if qd.projection.mul_vec(qd.section.col(b - 1)) != qd.quotient.basis_vector(b):
                raise SuiteFailure("projection is not a left inverse of the section")
        for w in h.basis:
            if any(qd.projection.mul_vec(w)):
                raise SuiteFailure("projection does not kill the ideal")
        for _ in range(5):
            x = _random_vector(rng, L.dim)
            y = _random_vector(rng, L.dim)
            lhs = qd.projection.mul_vec(bracket(L, x, y))
            rhs = bracket(qd.quotient, qd.projection.mul_vec(x), qd.projection.mul_vec(y))
            if lhs != rhs:
                raise SuiteFailure("projection is not a Lie algebra map for %s" % L.name)
            checks += 1
        checks += 3
    return checks


def suite_d_squared(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        L = entry.algebra
        d = [ce_differential(L, k).matrix for k in range(L.dim + 1)]
        for k, (dk, dk1) in enumerate(zip(d, d[1:])):
            if any(any(dk1.mul_vec(dk.col(j))) for j in range(dk.cols)):
                raise SuiteFailure("d squared nonzero on %s in degree %d" % (L.name, k))
            checks += 1
    return checks


def suite_shuffle(rng, tol, step):
    checks = 0
    for _ in range(1000):
        n = rng.randint(2, 5)
        beta_deg = rng.randint(0, n - 1)
        alpha = _random_form(rng, QQ, n, 2)
        beta = _random_form(rng, QQ, n, beta_deg)
        args = [_random_vector(rng, n) for _ in range(beta_deg + 2)]
        direct = evaluate(wedge(alpha, beta), args)
        shuffled = shuffle_eval(alpha, beta, args)
        if direct != shuffled:
            raise SuiteFailure("shuffle evaluation disagrees with the wedge")
        checks += 1
    return checks


def suite_leibniz(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        L = entry.algebra
        n = L.dim
        for k in range(1, n + 1):
            for idx in combinations(range(1, n + 1), k):
                forms = [basis_form(L.field, n, (a,)) for a in idx]
                if leibniz_check(L, forms) is not None:
                    raise SuiteFailure(
                        "Leibniz fails on %s for 1-forms %r" % (L.name, idx)
                    )
                checks += 1
    return checks


def suite_wedge_commutation(rng, tol, step):
    checks = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(0, n)
        alpha = _random_form(rng, QQ, n, 2)
        beta = _random_form(rng, QQ, n, k)
        if wedge(alpha, beta) != wedge(beta, alpha):
            raise SuiteFailure("2-forms must commute with everything")
        a1 = _random_form(rng, QQ, n, 1)
        b1 = _random_form(rng, QQ, n, 1)
        lhs = wedge(a1, b1)
        if lhs != -wedge(b1, a1):
            raise SuiteFailure("1-forms must anticommute")
        checks += 2
    return checks


def suite_horizontal(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        L = entry.algebra
        h = _entry_ideal(entry)
        n, m = L.dim, h.size
        bases = [horizontal_basis(L, h, k) for k in range(n + 1)]
        for k, hor in enumerate(bases):
            if len(hor) != comb(n - m, k):
                raise SuiteFailure("horizontal dimension wrong for %s" % L.name)
            if k < n:
                echelon = _echelon(g.coeffs for g in bases[k + 1])
                for f in hor:
                    if _echelon_insert(echelon, d_apply(L, f).coeffs) is not None:
                        raise SuiteFailure(
                            "d leaves the horizontal subcomplex on %s" % L.name
                        )
                    checks += 1
            checks += 1
    return checks


def suite_chain_iso(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        failure = chain_iso_check(entry.algebra, _entry_ideal(entry))
        if failure is not None:
            raise SuiteFailure(
                "chain isomorphism fails for %s: %r" % (entry.algebra.name, failure)
            )
        checks += 1
    return checks


def suite_betti(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        if entry.ideal is None:
            betti = cohomology(entry.algebra).betti
        else:
            inp = DenseQuotientInput(entry.algebra, entry.ideal, entry.note)
            betti = dense_quotient_cohomology(inp, check_chain_iso=False).report.betti
        if betti != entry.expected_betti:
            raise SuiteFailure(
                "%s: betti %r, expected %r" % (entry.key, betti, entry.expected_betti)
            )
        if len(betti) > 1 and sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
            raise SuiteFailure("Euler characteristic nonzero for %s" % entry.key)
        checks += 2
    return checks


def suite_one_form_sign(rng, tol, step):
    checks = 0
    for entry in selftest_entries():
        if one_form_sign_check(entry.algebra) is not None:
            raise SuiteFailure("1-form sign bridge fails for %s" % entry.algebra.name)
        checks += 1
    return checks


def _mc_check(n, samples, tol, step, seed):
    """maurer_cartan_check, with its errors reported as a suite failure: a
    step near the float range overflows when scaled up, and a large one can
    put a displaced point on the singular locus."""
    try:
        return maurer_cartan_check(n, samples=samples, tol=tol, step=step, seed=seed)
    except (InvalidParameter, SingularMatrix) as exc:
        raise SuiteFailure("n=%d: %s" % (n, exc)) from exc


def suite_maurer_cartan(rng, tol, step):
    checks = 0
    seed = rng.getrandbits(63)
    for n in (1, 2, 3):
        res = _mc_check(n, 100, tol, step, seed)
        if not res.passed:
            raise SuiteFailure(
                "n=%d: max error %.3e exceeds tolerance %g" % (n, res.max_abs_error, tol)
            )
        # one decade of successive halvings; second-order scaling means
        # each halving divides the error by about four
        errs = [_mc_check(n, 50, tol, step * f, seed).max_abs_error
                for f in (10.0, 5.0, 2.5, 1.25)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b if b else float("inf")
            if not (3.0 <= ratio <= 5.0):
                raise SuiteFailure("n=%d: halving ratio %.2f outside [3, 5]" % (n, ratio))
            checks += 1
        checks += 1
    return checks


SUITES = (
    ("scalar_field_ops", suite_scalar_field),
    ("rational_linear_algebra", suite_linear_algebra),
    ("jacobi_identity", suite_jacobi),
    ("quotient_construction", suite_quotient),
    ("d_squared_zero", suite_d_squared),
    ("shuffle_evaluation", suite_shuffle),
    ("graded_leibniz", suite_leibniz),
    ("wedge_commutation", suite_wedge_commutation),
    ("horizontal_subcomplex", suite_horizontal),
    ("chain_isomorphism", suite_chain_iso),
    ("catalog_betti", suite_betti),
    ("one_form_sign", suite_one_form_sign),
    ("maurer_cartan_numeric", suite_maurer_cartan),
)


def run_selftest(seed=0, tol=DEFAULT_TOL, step=DEFAULT_STEP, out=None):
    """Run all suites; print one line per suite; return True when all pass."""
    if out is None:
        out = sys.stdout
    master = random.Random(seed)
    print("selftest seed=%d tol=%g step=%g" % (seed, tol, step), file=out)
    all_ok = True
    for name, fn in SUITES:
        child = random.Random(master.getrandbits(64))
        try:
            count = fn(child, tol, step)
        except (SuiteFailure, InternalCheckFailed) as exc:
            print("suite %s: FAIL (%s)" % (name, exc), file=out)
            all_ok = False
        else:
            print("suite %s: PASS (%d checks)" % (name, count), file=out)
    print("selftest: %s" % ("PASS" if all_ok else "FAIL"), file=out)
    return all_ok
