"""Traced replay: per-layer times and counts for one pass of a workload.

The replay calls each liecohom module's public functions from outside, in
the order the CLI path calls them, and records a span around each call:
name, start, end, parent span and request id.  Spans are kept in memory
and written out when the run ends.  Where a public call repeats the calls
beneath it (``cohomology`` runs Jacobi, the build of d and the
elimination again; ``chain_iso_check`` runs the quotient construction,
the horizontal bases and the pullbacks again), those calls are also
replayed one by one and the caller's self time is its span minus theirs.

The harness scales the summed times of a pass by the machine-speed probe
(see probe.py); counts are exact.

The replay's report bytes must equal the CLI's stdout for the same input,
and a selftest replay must reproduce the CLI's per-suite check counts, so
the trace measures the same work the untimed checks verify.
"""

import json
import random
import time

# metric names, in the order BENCHMARK.json lists them; times are seconds
TIMED_LAYERS = (
    "cli.format_s",
    "lie_core.parse_s",
    "lie_core.jacobi_s",
    "lie_core.quotient_s",
    "ce_complex.build_s",
    "field_arith.eliminate_s",
    "ce_complex.cohomology_rest_s",
    "ce_complex.horizontal_s",
    "quotient_pipeline.pullback_s",
    "quotient_pipeline.chain_iso_s",
    "quotient_pipeline.chain_iso_rest_s",
)
COUNTS = (
    "lie_core.bracket_terms",
    "field_arith.d_entries",
    "field_arith.d_nnz",
    "field_arith.d_rank_sum",
    "field_arith.max_coeff_bits",
    "field_arith.max_poly_degree",
    "ce_complex.representatives",
    "ce_complex.rep_terms",
    "ce_complex.horizontal_dim_sum",
)


def suite_metric(name):
    return "selftest.%s_s" % name


def _scalar_size(x):
    """(bit length, polynomial degree) of an exact scalar."""
    if hasattr(x, "num"):  # RationalFunction: polynomials over Q
        bits = max(_scalar_size(c)[0] for c in x.num.coeffs + x.den.coeffs)
        return bits, max(x.num.degree, x.den.degree)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length()), 0


class Tracer:
    """Spans of one run, as [id, name, parent, request, start, end]."""

    def __init__(self):
        self.spans = []

    def open(self, name, parent, request):
        span = [len(self.spans), name, parent, request, time.perf_counter(), None]
        self.spans.append(span)
        return span

    def close(self, span):
        span[5] = time.perf_counter()
        return span[5] - span[4]

    def timed(self, name, parent, fn, *args):
        """Call fn(*args) inside a span; return (result, seconds)."""
        span = self.open(name, parent[0], parent[3])
        try:
            result = fn(*args)
        finally:
            seconds = self.close(span)
        return result, seconds

    def to_json(self):
        keys = ("id", "name", "parent", "request", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


def nesting_problems(spans):
    """Spans (as written by Tracer.to_json) that leave their parent or request."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] is None:
            problems.append("span %s never closed" % s["name"])
            continue
        node = s
        while node["parent"] is not None:
            node = by_id[node["parent"]]
            if s["start"] < node["start"] or s["end"] > node["end"]:
                problems.append("span %s of request %s exceeds %s"
                                % (s["name"], s["request"], node["name"]))
        if node["name"] != "request" or node["request"] != s["request"]:
            problems.append("span %s is not under its request" % s["name"])
    children = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    for sid, total in children.items():
        p = by_id[sid]
        if total > p["end"] - p["start"]:
            problems.append("children of %s in request %s exceed it" % (p["name"], p["request"]))
    return problems


class Replay:
    """Replays requests through the package's public functions."""

    def __init__(self, modules, tracer):
        self.m = modules
        self.tracer = tracer

    def new_pass(self, selftest_suites):
        metrics = {name: 0.0 for name in TIMED_LAYERS}
        metrics.update({name: 0 for name in COUNTS})
        metrics.update({suite_metric(name): 0.0 for name in selftest_suites})
        return metrics

    def _count_algebra(self, L, metrics):
        metrics["lie_core.bracket_terms"] += sum(len(t) for t in L.brackets.values())

    def _count_sizes(self, values, metrics):
        for x in values:
            if x:
                bits, degree = _scalar_size(x)
                if bits > metrics["field_arith.max_coeff_bits"]:
                    metrics["field_arith.max_coeff_bits"] = bits
                if degree > metrics["field_arith.max_poly_degree"]:
                    metrics["field_arith.max_poly_degree"] = degree

    def _complex(self, parent, L, metrics):
        """cohomology(L) with its Jacobi, build and elimination replayed."""
        ce, fa, lc = self.m["ce_complex"], self.m["field_arith"], self.m["lie_core"]
        t = self.tracer
        _, covered = t.timed("lie_core.jacobi", parent, lc.jacobi_check, L)
        metrics["lie_core.jacobi_s"] += covered
        diffs = []
        for k in range(L.dim + 1):
            cb, s = t.timed("ce_complex.build", parent, ce.ce_differential, L, k)
            metrics["ce_complex.build_s"] += s
            covered += s
            diffs.append(cb.matrix)
        for d in diffs:
            (r, _), s = t.timed("field_arith.eliminate", parent, fa.rank_and_kernel, d)
            metrics["field_arith.eliminate_s"] += s
            covered += s
            metrics["field_arith.d_entries"] += d.rows * d.cols
            metrics["field_arith.d_nnz"] += sum(1 for x in d.entries if x)
            metrics["field_arith.d_rank_sum"] += r
            self._count_sizes(d.entries, metrics)
        report, s = t.timed("ce_complex.cohomology", parent, ce.cohomology, L)
        metrics["ce_complex.cohomology_rest_s"] += s - covered
        for forms in report.representatives:
            metrics["ce_complex.representatives"] += len(forms)
            for form in forms:
                metrics["ce_complex.rep_terms"] += len(form.coeffs)
                self._count_sizes(form.coeffs.values(), metrics)
        return report

    def _parse(self, request, path, fn, metrics):
        def load():
            with open(path, "r", encoding="utf-8") as fh:
                return fn(json.load(fh))

        parsed, s = self.tracer.timed("lie_core.parse", request, load)
        metrics["lie_core.parse_s"] += s
        return parsed

    def _format(self, request, report, metrics):
        text, s = self.tracer.timed(
            "cli.format", request, lambda: json.dumps(report.to_json(), indent=2))
        metrics["cli.format_s"] += s
        return text + "\n"

    def cohomology(self, rid, path, metrics):
        """Replay of ``cohomology <path> --json``; returns the stdout text."""
        request = self.tracer.open("request", None, rid)
        try:
            L = self._parse(request, path, self.m["lie_core"].algebra_from_json, metrics)
            self._count_algebra(L, metrics)
            report = self._complex(request, L, metrics)
            return self._format(request, report, metrics)
        finally:
            self.tracer.close(request)

    def quotient(self, rid, path, metrics):
        """Replay of ``quotient <path> --json`` with the chain-iso check."""
        lc, ce, qp = self.m["lie_core"], self.m["ce_complex"], self.m["quotient_pipeline"]
        t = self.tracer
        request = t.open("request", None, rid)
        try:
            inp = self._parse(request, path, qp.pipeline_input_from_json, metrics)
            L, h = inp.algebra, inp.ideal
            self._count_algebra(L, metrics)
            _, s = t.timed("lie_core.jacobi", request, lc.jacobi_check, L)
            metrics["lie_core.jacobi_s"] += s
            qd, s = t.timed("lie_core.quotient", request, lc.quotient_algebra, L, h)
            metrics["lie_core.quotient_s"] += s
            Q = qd.quotient
            self._count_algebra(Q, metrics)
            report = self._complex(request, Q, metrics)

            _, chain_s = t.timed("quotient_pipeline.chain_iso", request,
                                 qp.chain_iso_check, L, h)
            metrics["quotient_pipeline.chain_iso_s"] += chain_s
            # the calls chain_iso_check makes beneath it, one by one
            _, covered = t.timed("lie_core.quotient", request, lc.quotient_algebra, L, h)
            metrics["lie_core.quotient_s"] += covered
            for k in range(L.dim + 1):
                hor, s = t.timed("ce_complex.horizontal", request,
                                 ce.horizontal_basis, L, h, k)
                metrics["ce_complex.horizontal_s"] += s
                metrics["ce_complex.horizontal_dim_sum"] += len(hor)
                covered += s
            for k in range(Q.dim + 1):
                for I in ce.index_tuples(Q.dim, k):
                    sigma = ce.basis_form(Q.field, Q.dim, I)
                    _, s = t.timed("quotient_pipeline.pullback", request,
                                   qp.pullback_form, qd.projection, sigma)
                    covered += s
                    d_sigma = ce.d_apply(Q, sigma)
                    _, s2 = t.timed("quotient_pipeline.pullback", request,
                                    qp.pullback_form, qd.projection, d_sigma)
                    covered += s2
                    metrics["quotient_pipeline.pullback_s"] += s + s2
            metrics["quotient_pipeline.chain_iso_rest_s"] += chain_s - covered

            out = qp.DenseQuotientReport(
                algebra=L.name, quotient_dim=Q.dim, abelian_quotient=Q.is_abelian,
                report=report, chain_iso_verified=True, note=inp.note)
            return self._format(request, out, metrics)
        finally:
            t.close(request)

    def selftest(self, rid, seed, metrics):
        """Replay of ``selftest --seed <seed>``: each suite with its child seed.

        Returns {suite: check count}.  The Jacobi layer is timed on the
        catalog entries the suites sweep over.
        """
        st, lc, cat = self.m["selftest"], self.m["lie_core"], self.m["catalog"]
        mc = self.m["mc_numeric"]
        t = self.tracer
        request = t.open("request", None, rid)
        try:
            for entry in cat.selftest_entries():
                _, s = t.timed("lie_core.jacobi", request, lc.jacobi_check, entry.algebra)
                metrics["lie_core.jacobi_s"] += s
            master = random.Random(seed)
            counts = {}
            for name, fn in st.SUITES:
                child = random.Random(master.getrandbits(64))
                counts[name], s = t.timed("selftest." + name, request, fn, child,
                                          mc.DEFAULT_TOL, mc.DEFAULT_STEP)
                metrics[suite_metric(name)] += s
            return counts
        finally:
            t.close(request)

