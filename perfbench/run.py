"""Benchmark harness for liecohom: exact cohomology end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload q_graded --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One workload runs in one process, single-threaded, as one closed-loop
client: ``liecohom.cli.main([...])`` is called in-process on JSON documents
generated from --seed, one request after the other, and stdout is
captured.  A pass is one run over the workload's request list; passes
repeat until --seconds would be exceeded.  Output checks run after each
pass, outside the timed spans.  Before each pass the set-up (a fresh
import of the package from src/, generating the documents from the seed
and writing them) is made and timed again; setup_s is the median.

Times are scaled to a nominal machine speed by a probe sampled throughout
each pass (see probe.py), because the shared machine's speed drifts by up
to a factor of two; raw times go to the result file.  Traced passes sample
the probe between requests only, so that no probe falls inside a span.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, then traced replays (see tracing.py) until --seconds, and prints the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.  A result
file with machine stamps, every sample and every failure is written under
.bench_out/ in the checkout, next to the trace's spans.

``--workload all`` runs every workload in its own child process, one after
another, and prints each one's summary.
"""

import os

# one thread: keep numpy's BLAS pool from starting worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
import oracles
import probe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-ups measured before each timed pass; spreading them over the run
# keeps one slow stretch of a shared machine from setting their median
SETUPS_PER_PASS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("pass_cpu_s", "s"),
    ("max_request_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
)


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up

def _import_fresh():
    """Import liecohom from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "liecohom" or m.startswith("liecohom.")]:
        del sys.modules[name]
    cli = importlib.import_module("liecohom.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError("liecohom imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def _write_documents(reqs, docdir):
    docdir.mkdir(parents=True, exist_ok=True)
    for req in reqs:
        if req["kind"] == "selftest":
            req["cli_argv"] = ["selftest"] + req["argv"]
            continue
        path = docdir / (re.sub(r"[^A-Za-z0-9_.-]", "_", req["name"]) + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(req["doc"], fh, indent=2)
        req["path"] = str(path)
        req["cli_argv"] = [req["kind"], str(path)] + req["argv"]


def setup(workload, seed, docdir):
    """Import the package, generate the requests, write their documents.

    Returns (cli module, requests, seconds taken).
    """
    start = time.perf_counter()
    cli = _import_fresh()
    reqs = gen.requests(workload, seed)
    _write_documents(reqs, docdir)
    return cli, reqs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# timed passes

def run_request(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        error = repr(exc)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error,
            "wall": time.perf_counter() - start, "cpu": time.process_time() - cpu}


def run_pass(cli, reqs):
    """One pass, with the machine's speed sampled throughout (see probe.py)."""
    outcomes = []
    with probe.Sampler() as sampler:
        for req in reqs:
            paused, paused_cpu = sampler.paused, sampler.paused_cpu
            outcome = run_request(cli, req["cli_argv"])
            outcome["wall"] -= sampler.paused - paused
            outcome["cpu"] -= sampler.paused_cpu - paused_cpu
            outcomes.append(outcome)
    scale, cpu_scale = probe.scales(sampler.probes)
    return {"wall": sum(o["wall"] for o in outcomes), "cpu": sum(o["cpu"] for o in outcomes),
            "scale": scale, "cpu_scale": cpu_scale, "probes": len(sampler.probes),
            "outcomes": outcomes}


def check_pass(workload, reqs, p, digests, failures, index):
    """Check every outcome of a pass; return the number of failed requests."""
    failed = 0
    for req, outcome in zip(reqs, p["outcomes"]):
        problems = oracles.check(workload, req, outcome, digests)
        if problems:
            failed += 1
            failures.append({"pass": index, "request": req["name"], "problems": problems})
    return failed


def loop(seconds, one_pass):
    """Call one_pass() until the next pass would end after the deadline."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


# ---------------------------------------------------------------------------
# traced replay

def _modules():
    names = ("lie_core", "ce_complex", "field_arith", "quotient_pipeline",
             "selftest", "catalog", "mc_numeric")
    return {n: sys.modules["liecohom." + n] for n in names}


def traced_pass(replay, reqs, index, reference, failures):
    """One traced replay pass; checks it against the untraced pass's stdout."""
    suites = [name for name, _ in replay.m["selftest"].SUITES]
    metrics = replay.new_pass(suites)
    failed = 0
    wall = 0.0
    probes = [probe.probe()]
    for req, ref in zip(reqs, reference):
        start = time.perf_counter()
        rid = "%d:%s" % (index, req["name"])
        problem = "traced replay differs from the CLI output"
        try:
            if req["kind"] == "selftest":
                counts = replay.selftest(rid, req["seed"], metrics)
                shown = dict(re.findall(r"^suite (\S+): PASS \((\d+) checks\)$",
                                        ref["stdout"], re.M))
                ok = shown == {k: str(v) for k, v in counts.items()}
            else:
                replay_fn = (replay.cohomology if req["kind"] == "cohomology"
                             else replay.quotient)
                ok = replay_fn(rid, req["path"], metrics) == ref["stdout"]
        except Exception:  # a failed request is counted, the run goes on
            ok, problem = False, traceback.format_exc()
        wall += time.perf_counter() - start
        probes.append(probe.probe())
        if not ok:
            failed += 1
            failures.append({"pass": index, "request": req["name"], "problems": [problem]})
    scale, _ = probe.scales(probes)
    for name in metrics:
        if name not in tracing.COUNTS:
            metrics[name] *= scale
    return metrics, wall * scale, failed


# ---------------------------------------------------------------------------
# reporting

def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamps(load_at_start):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


def _summary_line(name, value, unit, samples):
    if samples:
        return "%-40s %14.6g %-6s median of %d (min %.6g, max %.6g)" % (
            name, value, unit, len(samples), min(samples), max(samples))
    return "%-40s %14.6g %-6s" % (name, value, unit)


def run_workload(args):
    load_at_start = os.getloadavg()
    cli = reqs = None
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    digests = oracles.load_digests()
    docdir = OUT / ("docs-" + tag)
    setup_times = []
    failures = []
    failed = 0

    def untraced(index):
        nonlocal failed, cli, reqs
        for _ in range(SETUPS_PER_PASS):
            cli, reqs, seconds = setup(args.workload, args.seed, docdir)
            setup_times.append(seconds)
        p = run_pass(cli, reqs)
        failed += check_pass(args.workload, reqs, p, digests, failures, index)
        return p

    if args.trace:
        reference = untraced(0)
        tracer = tracing.Tracer()
        replay = tracing.Replay(_modules(), tracer)

        def traced(index):
            nonlocal failed
            metrics, wall, bad = traced_pass(replay, reqs, index + 1,
                                             reference["outcomes"], failures)
            failed += bad
            return metrics, wall

        traced_passes = loop(args.seconds - reference["wall"], traced)
        spans = tracer.to_json()
        for problem in tracing.nesting_problems(spans):
            failed += 1
            failures.append({"pass": None, "request": None, "problems": [problem]})
        attempted = len(reqs) * (1 + len(traced_passes))
        names = list(traced_passes[0][0])
        samples = {n: [m[n] for m, _ in traced_passes] for n in names}
        for name in tracing.COUNTS:
            if len(set(samples[name])) != 1:
                failed += 1
                failures.append({"pass": None, "request": None,
                                 "problems": ["count %s differs between passes" % name]})
        metrics = {}
        for name in names:
            unit = "count" if name in tracing.COUNTS else "s"
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        untraced_s = reference["wall"] * reference["scale"]
        overhead = statistics.median(w for _, w in traced_passes) - untraced_s
        extra = {"tracing_overhead_s": overhead, "untraced_pass_s": untraced_s,
                 "traced_pass_s": [w for _, w in traced_passes]}
        with open(OUT / ("spans-%s.json" % tag), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    else:
        passes = loop(args.seconds, untraced)
        attempted = len(reqs) * len(passes)
        raw = {
            "setup_s": setup_times,
            "pass_s": [p["wall"] for p in passes],
            "pass_cpu_s": [p["cpu"] for p in passes],
            "max_request_s": [max(o["wall"] for o in p["outcomes"]) for p in passes],
        }
        # a set-up is scaled by the probes of the pass it precedes
        setup_scales = [p["scale"] for p in passes for _ in range(SETUPS_PER_PASS)]
        samples = {
            "setup_s": [t * f for t, f in zip(setup_times, setup_scales)],
            "pass_s": [p["wall"] * p["scale"] for p in passes],
            "pass_cpu_s": [p["cpu"] * p["cpu_scale"] for p in passes],
            "max_request_s": [m * p["scale"] for m, p in zip(raw["max_request_s"], passes)],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["success_ratio"] = (attempted - failed) / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {"raw_samples": raw, "scales": [p["scale"] for p in passes],
                 "probes_per_pass": [p["probes"] for p in passes],
                 "raw_request_s": {r["name"]: [p["outcomes"][i]["wall"] for p in passes]
                                   for i, r in enumerate(reqs)}}

    print("workload %s seed %d trace %d: %d requests attempted, %d failed"
          % (args.workload, args.seed, args.trace, attempted, failed))
    for name, m in metrics.items():
        print(_summary_line(name, m["value"], m["unit"], samples.get(name)))
    if args.trace:
        print(_summary_line("tracing_overhead_s", extra["tracing_overhead_s"], "s", None))
    for f in failures[:20]:
        print("FAILED %s" % json.dumps(f), file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, stamps=stamps(load_at_start),
                  samples=samples, failures=failures, **extra)
    with open(OUT / ("result-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("workload %s exited with %d" % (workload, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liecohom" / "cli.py").is_file():
        print("error: no liecohom sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
