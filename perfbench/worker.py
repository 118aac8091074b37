"""One measuring process: repeated passes of a workload, untraced or traced.

Run by ``run.py`` in a fresh interpreter with ``src`` on the path:

    python3 perfbench/worker.py --workload opcalc-random --seed 1 --seconds 35 \
        --mode plain --out perfbench/out/w.json

``--mode plain`` repeats passes for ``--seconds`` and reports each pass;
``--mode trace`` runs one untraced and one traced pass (for
verify-suite only the traced one; its untraced passes are CLI processes).
Results go to the ``--out`` JSON file; stdout stays quiet.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

OPCALC_RANDOM = 1000  # random n=6 instances per operation-calculus pass
VERIFY_ARGV = ["verify", "--suite", "all", "--max-n", "5"]
SETUP_PROBES = 16


def keep_going(pass_times: list, elapsed: float, seconds: float, min_passes: int = 2) -> bool:
    """Start another pass while a typical one would end no later than half a
    pass after the time budget, so that runs last ``seconds`` on average."""
    if len(pass_times) < min_passes:
        return True
    return elapsed + 0.5 * statistics.median(pass_times) <= seconds


def setup_probe() -> float:
    """Seconds from a fresh interpreter until dmx and dmx.cli are imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dmx, dmx.cli"], check=True, timeout=60)
    return time.perf_counter() - t0


class SetupSampler:
    """Spreads the set-up probes evenly over a run's passes.  The machine's
    speed drifts in phases of seconds, so probes taken all at once would
    sample one phase only."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.times: list = []

    def catch_up(self, elapsed: float) -> None:
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / self.seconds))
        while len(self.times) < due:
            self.times.append(setup_probe())

    def finish(self) -> list:
        self.catch_up(self.seconds)
        return self.times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- passes ------------------------------------------------------------------------


def opcalc_pass(seed: int) -> dict:
    import dmx.verify

    r = dmx.verify.check_operation_calculus(max_n=3, seed=seed, random_count=OPCALC_RANDOM)
    return {
        "name": r.name,
        "tested": r.tested,
        "failed": len(r.counterexamples),
        "verdict": r.verdict,
    }


def cli_call(argv: list) -> tuple:
    """One in-process CLI call; returns (exit code, stdout, stderr, seconds)."""
    import dmx.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = dmx.cli.main(argv)
        except Exception:  # a traceback is a failed request, not a crash of the pass
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def classify_pass(requests: list) -> list:
    return [cli_call(argv) for argv in requests]


def _digest(calls) -> str:
    h = hashlib.sha256()
    for rc, out, err, _ in calls:
        h.update(("%s\0%s\0%s\0" % (rc, out, err)).encode("utf-8"))
    return h.hexdigest()


# -- modes -------------------------------------------------------------------------


def run_plain(args, requests) -> dict:
    times, passes = [], []
    latencies: list = []
    first_calls = None
    digests = []
    setup = SetupSampler(args.seconds)
    start = time.perf_counter()
    while keep_going(times, time.perf_counter() - start, args.seconds):
        setup.catch_up(time.perf_counter() - start)
        t0 = time.perf_counter()
        if args.workload == "opcalc-random":
            passes.append(opcalc_pass(args.seed))
        else:
            calls = classify_pass(requests)
        times.append(time.perf_counter() - t0)
        if args.workload == "classify-files":
            latencies.extend(c[3] for c in calls)
            digests.append(_digest(calls))
            if first_calls is None:
                first_calls = [c[:3] for c in calls]
    return {
        "setup_s": setup.finish(),
        "pass_s": times,
        "passes": passes,
        "latency_s": latencies,
        "calls": first_calls,
        "digests": digests,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_trace(args, requests, spans_path: str) -> dict:
    import dmx.cli  # noqa: F401  (imported before wrapping, as the CLI would be)

    import tracer as tracing

    untraced_s = None
    if args.workload != "verify-suite":
        t0 = time.perf_counter()
        run_once(args, requests)
        untraced_s = time.perf_counter() - t0
    tr = tracing.Tracer(pass_id=1)
    uninstall = tracing.install(tr)
    try:
        t0 = time.perf_counter()
        result = tr.root(run_once, args, requests)
        traced_s = time.perf_counter() - t0
    finally:
        uninstall()
    metrics = tr.metrics()
    tr.write(spans_path)
    self_total = sum(metrics[n + ".self_s"] for n in tracing.SPAN_NAMES)
    return {
        "metrics": metrics,
        "self_total_s": self_total,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "result": result,
        "spans": len(tr.start),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_once(args, requests):
    import dmx.cli

    if args.workload == "opcalc-random":
        return opcalc_pass(args.seed)
    if args.workload == "classify-files":
        return [c[:3] for c in classify_pass(requests)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dmx.cli.main(VERIFY_ARGV + ["--seed", str(args.seed)])
    return [rc, out.getvalue(), err.getvalue()]


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("verify-suite", "opcalc-random", "classify-files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("plain", "trace"), required=True)
    p.add_argument("--requests", help="JSON list of CLI argv lists (classify-files)")
    p.add_argument("--spans", help="where the traced pass writes its spans")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    requests = None
    if args.requests:
        with open(args.requests, encoding="utf-8") as fh:
            requests = json.load(fh)
    if args.mode == "plain":
        result = run_plain(args, requests)
    else:
        result = run_trace(args, requests, args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
