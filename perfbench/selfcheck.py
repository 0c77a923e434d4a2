"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. The metric names in BENCHMARK.json, layers.json and the harness agree.
2. The checker counts a doctored report as failed: a wrong Betti vector,
   wrong bytes with the right Betti numbers, and a failing selftest.  The
   doctoring is done to the checker's input only.
3. Two traced runs of every workload at seed 0 are correct, give identical
   counts, and keep every span inside its parent and its request.

Prints one line per check and exits nonzero when any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
TRACE_SECONDS = "1"


def _report(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    return ok


def check_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    suites = [name for name, _ in sys.modules["liecohom.selftest"].SUITES]
    harness_layers = (list(run.tracing.TIMED_LAYERS) + list(run.tracing.COUNTS)
                      + [run.tracing.suite_metric(s) for s in suites])
    per_layer = [m["name"] for m in bench["per_layer"]]
    ok = _report(sorted(per_layer) == sorted(harness_layers),
                 "BENCHMARK.json per_layer names match the traced metrics")
    ok &= _report(sorted(per_layer) == sorted(m["name"] for m in layers),
                  "layers.json maps every per_layer metric")
    ok &= _report([(m["name"], m["unit"]) for m in bench["end_to_end"]]
                  == list(run.END_TO_END),
                  "BENCHMARK.json end_to_end names and units match the harness")
    ok &= _report([w["name"] for w in bench["workloads"]] == list(run.gen.WORKLOADS),
                  "BENCHMARK.json workloads match the generators")
    return ok


def _doctor_betti(stdout):
    doc = json.loads(stdout)
    doc["betti"][1] += 1
    return json.dumps(doc, indent=2) + "\n"


def check_doctored():
    digests = run.oracles.load_digests()
    no_digests = {"seed": -1, "workloads": {}}
    ok = True
    cases = []
    for workload, name in (("q_graded", "h_5"), ("selftest", "selftest")):
        cli, reqs, _ = run.setup(workload, digests["seed"],
                                 run.OUT / "docs-selfcheck" / workload)
        req = next(r for r in reqs if r["name"] == name)
        cases.append((workload, req, run.run_request(cli, req["cli_argv"])))

    (wq, rq, good), (ws, rs, good_st) = cases
    ok &= _report(not run.oracles.check(wq, rq, good, digests),
                  "a correct report passes")
    wrong_betti = dict(good, stdout=_doctor_betti(good["stdout"]))
    ok &= _report(bool(run.oracles.check(wq, rq, wrong_betti, no_digests)),
                  "a wrong Betti vector fails the oracles alone")
    ok &= _report(bool(run.oracles.check(wq, rq, wrong_betti, digests)),
                  "a wrong Betti vector fails with digests")
    wrong_bytes = dict(good, stdout=good["stdout"].replace("\n", " \n", 1))
    ok &= _report(not run.oracles.check(wq, rq, wrong_bytes, no_digests)
                  and bool(run.oracles.check(wq, rq, wrong_bytes, digests)),
                  "wrong bytes with the right Betti numbers fail on the digest")
    failing = dict(good_st, stdout=good_st["stdout"].replace("selftest: PASS", "selftest: FAIL"))
    ok &= _report(bool(run.oracles.check(ws, rs, failing, no_digests)),
                  "a failing selftest report fails")
    crashed = dict(good, rc=None, error="RuntimeError('doctored')")
    p = {"outcomes": [good, wrong_betti, wrong_bytes, crashed]}
    failures = []
    failed = run.check_pass(wq, [rq] * 4, p, digests, failures, 0)
    ok &= _report(failed == 3, "a pass with three doctored outcomes of four counts 3 failed")
    return ok


def check_traced():
    ok = True
    for workload in run.gen.WORKLOADS:
        results = []
        for _ in range(2):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", TRACE_SECONDS, "--trace", "1"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        ok &= _report(all(r["correct"] and r["failed"] == 0 for r in results),
                      "%s: two traced runs are correct" % workload)
        counts = [{n: r["metrics"][n]["value"] for n in run.tracing.COUNTS} for r in results]
        ok &= _report(counts[0] == counts[1], "%s: counts repeat exactly" % workload)
        spans = json.loads((run.OUT / ("spans-%s-seed0-trace1.json" % workload)).read_text())
        ok &= _report(spans and not run.tracing.nesting_problems(spans),
                      "%s: %d spans stay inside their parents and request"
                      % (workload, len(spans)))
        stretched = [dict(s) for s in spans]
        child = next(s for s in stretched if s["parent"] is not None)
        child["end"] = max(s["end"] for s in stretched) + 1.0
        ok &= _report(bool(run.tracing.nesting_problems(stretched)),
                      "%s: a span stretched past its request is caught" % workload)
        timed = {n: results[0]["metrics"][n]["value"] for n in results[0]["metrics"]
                 if n.endswith("_s") and not n.endswith("_rest_s")}
        print("     %s: largest timed layer %s" % (workload, max(timed, key=timed.get)))
    return ok


def main():
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    run._import_fresh()
    ok = check_names()
    ok &= check_doctored()
    ok &= check_traced()
    print("selfcheck: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
