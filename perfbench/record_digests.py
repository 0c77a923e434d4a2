"""Record the stdout digest of every request at the default seed.

    python3 perfbench/record_digests.py

Runs each workload's requests once at seed 0, checks them against the
closed-form oracles, and writes perfbench/digests.json: per workload and
request, the sha256 of the input document, the sha256 of stdout, and the
Betti numbers stated.  Run it only when a change is meant to alter report
bytes; the benchmark then holds every later run to the new bytes.
"""

import json
import sys

import run

SEED = 0


def main():
    sys.path.insert(0, str(run.SRC))
    digests = {"seed": SEED, "workloads": {}}
    for workload in run.gen.WORKLOADS:  # q_graded first: q_rebased checks against it
        cli, reqs, _ = run.setup(workload, SEED, run.OUT / "docs-record" / workload)
        records = {}
        for req in reqs:
            outcome = run.run_request(cli, req["cli_argv"])
            records[req["name"]] = {
                "input_sha256": run.oracles.input_digest(req),
                "stdout_sha256": run.oracles.sha256(outcome["stdout"]),
                "betti": (None if req["kind"] == "selftest"
                          else run.oracles.betti_of(req, outcome["stdout"])),
            }
        digests["workloads"][workload] = records
        for req, outcome in zip(reqs, [run.run_request(cli, r["cli_argv"]) for r in reqs]):
            problems = run.oracles.check(workload, req, outcome, digests)
            if problems:
                print("%s %s: %s" % (workload, req["name"], problems), file=sys.stderr)
                return 1
        print("%s: %d requests recorded" % (workload, len(reqs)))
    with open(run.oracles.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
