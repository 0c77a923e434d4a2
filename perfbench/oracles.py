"""Output checks for benchmark requests.

A request fails on a nonzero exit, an exception, output on stderr, a wrong
Betti vector, or a digest mismatch.  The Betti oracles are closed forms
(binomials, Santharoubane, Kostant, Kunneth, Poincare duality, Euler
characteristic) plus the rule that a rebased algebra has the Betti numbers
of its graded class.  Digests pin the exact stdout bytes of every request
at the recorded seed; at other seeds a request whose input document equals
a recorded one is held to the recorded bytes too.
"""

import hashlib
import json
from math import comb
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
SELFTEST_SUITES = 13


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digest(req):
    """Digest of what the program receives: the document, or the argv."""
    payload = req["doc"] if req["doc"] is not None else req["argv"]
    return sha256(json.dumps(payload, sort_keys=True))


def load_digests():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _betti_problems(report, expect):
    problems = []
    betti, ranks, n = report["betti"], report["ranks"], report["dimension"]
    if len(betti) != n + 1 or len(ranks) != n + 1:
        return ["betti/ranks length does not match dimension %d" % n]
    for k in range(n + 1):
        if betti[k] != comb(n, k) - ranks[k] - (ranks[k - 1] if k else 0):
            problems.append("betti_%d inconsistent with ranks" % k)
    degrees = [rep["degree"] for rep in report["representatives"]]
    if [degrees.count(k) for k in range(n + 1)] != betti:
        problems.append("representative count differs from betti")
    if n >= 1 and sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
        problems.append("Euler characteristic nonzero")
    if "betti" in expect and betti != expect["betti"]:
        problems.append("betti %r, expected %r" % (betti, expect["betti"]))
    if "b1" in expect and (n < 1 or betti[1] != expect["b1"]):
        problems.append("b1 %r, expected %d" % (betti[1:2], expect["b1"]))
    if "sum" in expect and sum(betti) != expect["sum"]:
        problems.append("sum of betti %d, expected %d" % (sum(betti), expect["sum"]))
    if expect.get("duality") and betti != betti[::-1]:
        problems.append("Poincare duality fails: %r" % (betti,))
    if "graded_betti" in expect and betti != expect["graded_betti"]:
        problems.append("betti %r differ from the graded class %r"
                        % (betti, expect["graded_betti"]))
    return problems


def _report_problems(req, stdout, expect):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return ["stdout is not JSON: %s" % exc], None
    if req["kind"] == "quotient":
        problems = []
        if doc.get("chain_iso_verified") is not True:
            problems.append("chain isomorphism not verified")
        if doc.get("quotient_dim") != expect["quotient_dim"]:
            problems.append("quotient_dim %r, expected %d"
                            % (doc.get("quotient_dim"), expect["quotient_dim"]))
        if doc.get("abelian_quotient") is not expect["abelian"]:
            problems.append("abelian_quotient %r" % (doc.get("abelian_quotient"),))
        report = doc.get("report", {})
        return problems + _betti_problems(report, expect), report["betti"]
    return _betti_problems(doc, expect), doc["betti"]


def _selftest_problems(stdout):
    lines = stdout.splitlines()
    passed = [line for line in lines if line.startswith("suite ") and ": PASS (" in line]
    problems = []
    if len(passed) != SELFTEST_SUITES:
        problems.append("%d of %d suites passed" % (len(passed), SELFTEST_SUITES))
    if not lines or lines[-1] != "selftest: PASS":
        problems.append("last line is not 'selftest: PASS'")
    return problems


def check(workload, req, outcome, digests):
    """Problems with one request's outcome; an empty list means it passed.

    outcome has keys rc, stdout, stderr and error (a string or None).
    """
    if outcome["error"] is not None:
        return ["raised %s" % outcome["error"]]
    problems = []
    if outcome["rc"] != 0:
        problems.append("exit code %r" % (outcome["rc"],))
    if outcome["stderr"]:
        problems.append("stderr: %s" % outcome["stderr"].strip()[:200])
    stdout = outcome["stdout"]
    recorded = digests["workloads"].get(workload, {}).get(req["name"])
    same_input = recorded is not None and recorded["input_sha256"] == input_digest(req)
    if same_input and sha256(stdout) != recorded["stdout_sha256"]:
        problems.append("stdout digest mismatch")
    if digests["seed"] == req["seed"] and not same_input:
        problems.append("input differs from the one recorded at seed %d" % digests["seed"])
    if req["kind"] == "selftest":
        return problems + _selftest_problems(stdout)
    expect = dict(req["expect"])
    if expect.pop("same_as_graded", False):
        expect["graded_betti"] = digests["workloads"]["q_graded"][req["cls"]]["betti"]
    try:
        more, _ = _report_problems(req, stdout, expect)
    except (KeyError, TypeError, IndexError) as exc:
        more = ["malformed report: %r" % (exc,)]
    return problems + more


def betti_of(req, stdout):
    """The Betti vector a report states (of g/h for a quotient)."""
    return _report_problems(req, stdout, req["expect"])[1]
