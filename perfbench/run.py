#!/usr/bin/env python3
"""qhinf benchmark: three workloads, checked against an independent checker.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

--workload is design, gamma_search, cli_certify or all (each workload in its
own child process, one after the other).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs half its time untraced and half
with every listed qhinf function wrapped, and reports per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 means the run finished; 2 means
the repository's qhinf sources are missing or an input was rejected.
"""

import os

# BLAS and OpenMP thread pools read these when numpy is first imported.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("design", "gamma_search", "cli_certify")
SETUPS = 3        # set-ups before the first round; one more after each
MIN_OPS = 100     # so that ten latencies lie beyond p90


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_version(module) -> str:
    """Name and version of the BLAS a numpy or scipy build links."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def header(args) -> None:
    pins = " ".join(f"{k}={os.environ.get(k)}" for k in PINS)
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()}  numpy {np.__version__} "
          f"({blas_version(np)})  scipy {scipy.__version__} "
          f"({blas_version(scipy)})")
    print(f"# nproc {os.cpu_count()}  affinity "
          f"{len(os.sched_getaffinity(0))}  {pins}")


class Runner:
    """Runs whole rounds of ops; checks each op's first output against the
    checker and every later output against that checked first one."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)    # (digest, verdict)
        self.correct = True
        self.problems: list[str] = []

    def _verdict(self, i, out) -> bool:
        op = self.ops[i]
        digest = op.digest(out)
        if self.first[i] is None:
            try:
                ok = bool(op.check(out))
            except workloads.Mismatch as exc:
                ok = self._wrong(f"{op.kind} [{op.label}]: {exc}")
            self.first[i] = (digest, ok)
            return ok
        (text, nums), ok = self.first[i]
        if digest[0] != text or not np.allclose(digest[1], nums, rtol=1e-8,
                                                atol=1e-12, equal_nan=True):
            ok = self._wrong(f"{op.kind} [{op.label}]: output changed "
                             "between rounds")
        return ok

    def _wrong(self, why: str) -> bool:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(why)
        return False

    def rounds(self, seconds: float, min_ops: int = 0, tracer=None,
               between=None):
        """Whole rounds until the ops' summed wall time reaches seconds and
        at least min_ops ops ran; between() runs after each round, untimed.
        Returns (latencies, failed, round times, uncovered seconds)."""
        clock = time.perf_counter
        lat, failed, per_round, uncovered = [], 0, [], 0.0
        gc.collect()
        while True:
            start = len(lat)
            for i, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op_id = len(lat)
                t0 = clock()
                try:
                    out = op.run()
                except Exception as exc:  # any raise is a wrong answer
                    out = exc
                t1 = clock()
                lat.append(t1 - t0)
                if isinstance(out, Exception):
                    ok = self._wrong(f"{op.kind} [{op.label}]: raised "
                                     f"{type(out).__name__}: {out}")
                else:
                    ok = self._verdict(i, out)
                failed += not ok
            per_round.append(sum(lat[start:]))
            if between is not None:
                between()
            if sum(lat) >= seconds and len(lat) >= min_ops:
                break
        if tracer is not None:
            top = tracer.summary()["top_s"]
            uncovered = sum(lat) - sum(top.values())
        return lat, failed, per_round, uncovered


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "qhinf", "__init__.py")):
        sys.stderr.write(f"error: qhinf sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    header(args)

    t0 = time.perf_counter()
    specs = workloads.SPECS[args.workload](args.seed)
    print(f"# checker set-up {time.perf_counter() - t0:.3f} s (not timed)")

    t0 = time.perf_counter()
    import qhinf
    import qhinf.cli  # noqa: F401  (the CLI module is not imported by qhinf)
    if not os.path.abspath(qhinf.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: imported qhinf from {qhinf.__file__}, "
                         f"not from {SRC}\n")
        return 2
    print(f"# qhinf import {time.perf_counter() - t0:.4f} s (not in setup_s)")

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    setups = []

    def setup():
        """Build the round's inputs through qhinf and run one warm-up op."""
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        gc.collect()
        t0 = time.perf_counter()
        ops = workloads.OPS[args.workload](qhinf, specs, workdir)
        ops[0].run()
        setups.append(time.perf_counter() - t0)
        return ops

    try:
        for _ in range(SETUPS):
            ops = setup()
        if len(ops) != workloads.ROUND_OPS:
            sys.stderr.write(f"error: {len(ops)} ops per round, expected "
                             f"{workloads.ROUND_OPS}\n")
            return 2
        runner = Runner(ops)
        if args.trace:
            result = traced(args, runner)
        else:
            result = untraced(args, runner, setups, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in runner.problems:
        print(f"# WRONG: {why}")
    result = {"correct": runner.correct, **result}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(result, fh, indent=1)
    for key, m in result["metrics"].items():
        print(f"{args.workload:13s} {key:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:13s} attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


def untraced(args, runner, setups, setup) -> dict:
    """End-to-end metrics.  A shared host's CPU speed can drift by tens of
    percent from second to second, so set-ups are spread over the run (one
    after each round) and throughput uses the median round time."""
    lat, failed, per_round, _ = runner.rounds(args.seconds, MIN_OPS,
                                              between=setup)
    print(f"# {len(per_round)} rounds of {len(runner.ops)} ops, "
          f"round s {[round(s, 3) for s in per_round]}")
    print(f"# setups s {[round(s, 4) for s in setups]}")
    return {
        "attempted": len(lat), "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(len(runner.ops) / statistics.median(per_round),
                                "ops/s"),
            "p50_ms": metric(1e3 * quantile(lat, 50), "ms"),
            "p90_ms": metric(1e3 * quantile(lat, 90), "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        },
    }


def traced(args, runner) -> dict:
    lat0, fail0, per_round0, _ = runner.rounds(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        lat1, fail1, per_round1, uncovered = runner.rounds(
            args.seconds / 2, tracer=tracer)
    finally:
        tracer.remove()
    rounds1 = len(per_round1)
    summary = tracer.summary()
    calls = {k: v / rounds1 for k, v in summary["calls"].items()}
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = metric(calls[name], "count")
        metrics[f"{name}.self_ms"] = metric(
            1e3 * summary["self_s"][name] / rounds1, "ms")

    def ratio(num, den):
        return calls[num] / calls[den] if calls[den] else 0.0

    metrics["ratio.compute_ax_ay_per_synthesize"] = metric(
        ratio("plant.compute_ax_ay", "synth.synthesize"), "ratio")
    metrics["ratio.synthesize_per_op"] = metric(
        calls["synth.synthesize"] / len(runner.ops), "ratio")
    metrics["ratio.gain_at_per_certificate"] = metric(
        ratio("linalg.gain_at", "verify.attenuation_certificate"), "ratio")
    metrics["trace.uncovered_ms"] = metric(1e3 * uncovered / rounds1, "ms")
    metrics["trace.overhead_pct"] = metric(
        100.0 * (statistics.median(per_round1)
                 / statistics.median(per_round0) - 1.0), "%")
    metrics["trace.absent_functions"] = metric(len(tracer.absent), "count")
    for name in tracer.absent:
        print(f"# absent: {name}")
    print(f"# untraced {len(per_round0)} rounds, traced {rounds1} rounds, "
          f"{len(tracer.spans)} spans")
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    return {"attempted": len(lat0) + len(lat1), "failed": fail0 + fail1,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
