"""The dmx benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md for why each exists):

  verify-suite    `dmx verify --suite all --max-n 5 --seed S`, each pass a
                  fresh interpreter, as every CLI run is
  opcalc-random   check_operation_calculus(max_n=3, seed=S, random_count=1000)
  classify-files  100 generated .dm/.gf2/.rg files through dmx.cli.main

``--trace 0`` reports the end-to-end metrics from untraced passes; ``--trace
1`` runs one untraced and one traced pass and reports the per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Each run also writes
perfbench/out/result-<workload>-seed<S>-trace<T>.json with the environment.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gen
import oracle
import tracer
from worker import OPCALC_RANDOM, VERIFY_ARGV, SetupSampler, keep_going

WORKLOADS = ("verify-suite", "opcalc-random", "classify-files")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
RUN_LIMIT_S = 170.0  # a run that takes longer gives up without a result

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def judge_verify(texts) -> tuple[list, int]:
    """Oracle over (exit code, report) pairs; every report must equal the first."""
    problems, failed = [], 0
    for rc, text in texts:
        bad = oracle.check_verify(text, rc)
        if text != texts[0][1]:
            bad.append("report differs from the first pass")
        failed += bool(bad)
        problems += bad
    return problems, failed


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.digest = None  # of the generated inputs, for classify-files
        # every child (CLI passes, workers, set-up probes) imports dmx from ./src
        inherited = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src")] + ([inherited] if inherited else []))

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("run exceeded its %d s limit" % RUN_LIMIT_S)
        return left

    def spawn(self, argv, stdout=subprocess.PIPE) -> tuple:
        """Run a child to completion; returns (exit code, stdout, stderr, seconds)."""
        t0 = time.perf_counter()
        try:
            p = subprocess.run(
                argv, stdout=stdout, stderr=subprocess.PIPE, timeout=self.remaining(), text=True
            )
        except subprocess.TimeoutExpired:
            raise BenchError("child timed out: %s" % " ".join(argv)) from None
        return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0

    def worker(self, mode: str, **extra) -> dict:
        out = os.path.join(OUT, "worker-%s.json" % self.args.workload)
        argv = [
            sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--mode", mode, "--out", out,
        ]
        for key, value in extra.items():
            argv += ["--" + key, value]
        rc, _, err, _ = self.spawn(argv, stdout=subprocess.DEVNULL)
        if rc != 0:
            raise BenchError("worker failed (exit %d):\n%s" % (rc, err))
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    # -- set-up -----------------------------------------------------------------

    def check_import(self) -> None:
        """dmx must come from ./src, never from an installed copy."""
        probe = "import dmx, dmx.cli; print(dmx.__file__)"
        rc, out, err, _ = self.spawn([sys.executable, "-c", probe])
        if rc != 0 or not out.strip().startswith(os.path.abspath("src") + os.sep):
            raise BenchError("cannot import dmx from ./src:\n%s" % err)

    # -- workloads ---------------------------------------------------------------

    def verify_cli(self, *extra) -> tuple:
        argv = [sys.executable, "-m", "dmx"] + VERIFY_ARGV + ["--seed", str(self.args.seed)]
        return self.spawn(argv + list(extra))

    def verify_suite(self) -> dict:
        items = sum(oracle.VERIFY_TESTED.values())
        if self.args.trace:
            rc, text, err, wall = self.verify_cli()
            w = self.worker("trace", spans=self.spans_path())
            texts = [(rc, text), tuple(w["result"][:2]), self.verify_cli("--shards", "2")[:2]]
            problems, failed = judge_verify(texts)
            return self.traced(w, wall, attempted=len(texts), failed=failed, problems=problems)
        walls, texts = [], []
        setup = SetupSampler(self.args.seconds)
        start = time.perf_counter()
        while keep_going(walls, time.perf_counter() - start, self.args.seconds):
            setup.catch_up(time.perf_counter() - start)
            rc, text, err, wall = self.verify_cli()
            walls.append(wall)
            texts.append((rc, text))
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        problems, failed = judge_verify(texts)
        return {
            "attempted": len(texts),
            "failed": failed,
            "problems": problems,
            "setup_s": setup.finish(),
            "pass_s": walls,
            "items_per_pass": items,
            "request_s": walls,
            "peak_rss_mb": rss_mb,
        }

    def opcalc_random(self) -> dict:
        if self.args.trace:
            w = self.worker("trace", spans=self.spans_path())
            problems = oracle.check_opcalc(w["result"], OPCALC_RANDOM)
            return self.traced(w, w["untraced_s"], attempted=1, failed=int(bool(problems)), problems=problems)
        w = self.worker("plain")
        problems, failed = [], 0
        for r in w["passes"]:
            bad = oracle.check_opcalc(r, OPCALC_RANDOM)
            failed += bool(bad)
            problems += bad
        return {
            "attempted": len(w["passes"]),
            "failed": failed,
            "problems": problems,
            "setup_s": w["setup_s"],
            "pass_s": w["pass_s"],
            "items_per_pass": oracle.OPCALC_EXHAUSTIVE + OPCALC_RANDOM,
            "request_s": w["pass_s"],
            "peak_rss_mb": w["peak_rss_mb"],
        }

    def classify_files(self) -> dict:
        specs = gen.generate(self.args.seed)
        self.digest = gen.digest(specs)
        directory = os.path.join(OUT, "classify-files")
        shutil.rmtree(directory, ignore_errors=True)
        gen.write(specs, directory)
        rel = os.path.relpath(directory)
        requests = [list(s.argv) + [os.path.join(rel, s.name)] for s in specs]
        manifest = os.path.join(OUT, "requests.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(requests, fh)

        def judge(calls) -> tuple[list, int]:
            problems, failed = [], 0
            for spec, (rc, out, err) in zip(specs, calls):
                bad = oracle.check_classify(spec, rc, out, err)
                failed += bool(bad)
                problems += ["%s: %s" % (spec.name, p) for p in bad]
            return problems, failed

        if self.args.trace:
            w = self.worker("trace", requests=manifest, spans=self.spans_path())
            problems, failed = judge(w["result"])
            return self.traced(w, w["untraced_s"], attempted=len(specs), failed=failed, problems=problems)
        w = self.worker("plain", requests=manifest)
        problems, failed = judge(w["calls"])
        for d in w["digests"][1:]:
            if d != w["digests"][0]:
                problems.append("a later pass printed different outputs")
                failed += len(specs)
        return {
            "attempted": len(specs) * len(w["pass_s"]),
            "failed": min(failed, len(specs) * len(w["pass_s"])),
            "problems": problems,
            "setup_s": w["setup_s"],
            "pass_s": w["pass_s"],
            "items_per_pass": len(specs),
            "request_s": w["latency_s"],
            "peak_rss_mb": w["peak_rss_mb"],
        }

    # -- traced pass ---------------------------------------------------------------

    def spans_path(self) -> str:
        return os.path.join(OUT, "spans-%s.bin" % self.args.workload)

    def traced(self, w: dict, untraced_s: float, attempted: int, failed: int, problems: list) -> dict:
        metrics = dict(w["metrics"])
        metrics["trace.overhead"] = w["traced_s"] / untraced_s
        wall = metrics["trace.wall_s"]
        gap = abs(w["self_total_s"] - wall)
        if gap > 1e-6 * wall + 1e-9 * w["spans"]:
            problems = problems + ["span self times sum to %.6f s, pass took %.6f s" % (w["self_total_s"], wall)]
            failed += 1
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "per_layer": metrics,
            "spans": w["spans"],
        }


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of ./.git when the working directory is a git checkout, else 'unknown'."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args) -> dict:
    runner = Runner(args)
    os.makedirs(OUT, exist_ok=True)
    runner.check_import()
    r = getattr(runner, args.workload.replace("-", "_"))()
    if args.trace:
        units = tracer.per_layer_units()
        metrics = {k: {"value": r["per_layer"][k], "unit": u} for k, u in units.items()}
    else:
        passes = r["pass_s"]
        values = {
            "wall_s": statistics.median(passes),
            "items_per_s": statistics.median(r["items_per_pass"] / t for t in passes),
            "request_p50_ms": percentile(r["request_s"], 50) * 1000.0,
            "request_p90_ms": percentile(r["request_s"], 90) * 1000.0,
            "setup_s": statistics.median(r["setup_s"]),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        r["samples"] = {
            "passes": len(passes),
            "requests": len(r["request_s"]),
            "setup_probes": len(r["setup_s"]),
            "pass_s": passes,
        }
    return {
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "inputs_digest": runner.digest,
        "problems": r["problems"][:20],
        "samples": r.get("samples"),
        "spans": r.get("spans"),
    }


def report(result: dict) -> None:
    env = result["environment"]
    print("# workload %s, trace %d, seed %d" % (result["workload"], result["trace"], env["seed"]))
    print("# python %s, nproc %s, cpu %s, commit %s" % (env["python"], env["nproc"], env["cpu"], env["commit"]))
    if result["inputs_digest"]:
        print("# classify-files inputs digest %s" % result["inputs_digest"])
    if result["samples"]:
        print("# samples: %(passes)d passes, %(requests)d requests, %(setup_probes)d set-up probes" % result["samples"])
    for p in result["problems"]:
        print("# problem: %s" % p)
    error_rate = result["failed"] / result["attempted"]
    print("%-36s %14.6g %s" % ("error_rate", error_rate, "ratio"))
    for name, m in result["metrics"].items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))


def collect(path: str) -> None:
    """Gather every result file under perfbench/out into one trajectory point."""
    results = []
    for f in sorted(glob.glob(os.path.join(OUT, "result-*.json"))):
        with open(f, encoding="utf-8") as fh:
            results.append(json.load(fh))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--collect", metavar="PATH", help="write out/result-*.json as one trajectory file")
    args = p.parse_args()
    if args.collect:
        collect(args.collect)
        return 0
    if not args.workload:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join("src", "dmx", "cli.py")):
        print("error: run from the repository root; ./src/dmx is missing", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
