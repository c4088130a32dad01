"""Benchmark of granulex: one workload per run, checked outputs, JSON result.

    python3 bench/run.py --workload <protocol|train|serve|meta> --seed N \
        --seconds S --trace <0|1>

Run it from the repository root; it imports the package from `src/` and
writes its inputs under `.bench_run/`, which it removes again.

Every workload runs all four user-facing operations (`ops.OPS`): its own one
at full size for about `--seconds` seconds, and each other one as a small
probe, so every end-to-end metric exists on every workload.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the workload's own operation runs once untraced and once traced,
and the last line holds the per-layer metrics.  Both print earlier lines with
the machine description and the output digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("protocol", "train", "serve", "meta")
# Every matrix here is small; BLAS threads would add only scheduling noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
PROBE_ROUNDS_FIRST = 4
PROBE_SEED = 0
SINGLE_ROW_BURST = 25
# The traced serve run makes as many single-row calls as one untraced run
# makes in about eight bursts.
TRACED_SINGLE_ROWS = 200
# Wall time of one calibrate() call at the reference speed (a 2.1 GHz Xeon
# vCPU whose sibling is idle); reported times are scaled to that speed.
CALIBRATION_S = 0.016

E2E_UNITS = {
    "setup_s": "s",
    "protocol_s": "s",
    "train_s": "s",
    "predict_rows_per_s": "1/s",
    "predict_1row_p50_ms": "ms",
    "predict_1row_p95_ms": "ms",
    "combine_s": "s",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Operations attempted and failed; each failure's reasons go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            print(f"FAIL {what}: {p}", file=sys.stderr)


def _info(key: str, value) -> None:
    print(f"{key} {json.dumps(value, sort_keys=True)}")


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work,
    in about the proportions of granulex's own."""
    import numpy as np

    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(120_000):
        acc += i * 0.5
        table[i & 255] = acc
    a = np.arange(2000.0)
    for _ in range(300):
        a = np.sort(a[::-1]) * 1.0
    return time.perf_counter() - start


class Speed:
    """The machine's speed around each timed step, from a calibration
    before and after it.  A shared machine can switch between speeds about
    1.5x apart for minutes at a time; scaling each step's wall time by
    CALIBRATION_S over the mean of its two calibrations removes that switch
    from the reported times, while a change in granulex still shows."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list[float] = []

    def factor(self) -> float:
        """Call right after a timed step: reference over current speed."""
        now = calibrate()
        f = CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f


def _timed_setup(ops, workload: str, seed: int, work: Path, ledger: Ledger, speed: Speed):
    """Set up every operation SETUP_REPEATS times in fresh directories;
    return the last inputs and the median scaled set-up time.  Probes take
    PROBE_SEED, so their work is the same whatever the workload seed."""
    walls, digests = [], []
    for r in range(SETUP_REPEATS):
        rep = work / f"setup{r}"
        rep.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        inputs = {
            name: op.setup(str(rep), seed, ops.SIZES[name]["full"]) if name == workload
            else op.setup(str(rep), PROBE_SEED, ops.SIZES[name]["probe"])
            for name, op in ops.OPS.items()
        }
        walls.append((time.perf_counter() - start) * speed.factor())
        digests.append(_dir_digest(rep))
    same = len(set(digests)) == 1
    ledger.record("setup", [] if same else ["inputs differ between set-ups of one seed"])
    return inputs, statistics.median(walls)


class Series:
    """The iterations of one operation's parts in a run."""

    def __init__(self, op, parts: list[dict]) -> None:
        self.op, self.parts = op, parts
        self.timings: list[list[dict]] = [[] for _ in parts]
        self.digests: list[list[str]] = [[] for _ in parts]
        self.first: list = [None] * len(parts)

    def step(self, part: int, speed: Speed) -> None:
        gc.collect()
        out, timing = self.op.run(self.parts[part])
        f = speed.factor()
        self.timings[part].append({k: v * f if k.endswith("_s") else v for k, v in timing.items()})
        self.digests[part].append(self.op.digest(out))
        if self.first[part] is None:
            self.first[part] = out

    def check(self, name: str, ledger: Ledger) -> None:
        """Check each part's first output, and that every iteration of the
        part reproduces it; print the digests and known-defect counts."""
        mismatch = 0
        for i, inp in enumerate(self.parts):
            checked = self.op.check(inp, self.first[i])
            problems = list(checked.failures)
            if len(set(self.digests[i])) != 1:
                problems.append("outputs differ between iterations")
            for _ in self.timings[i]:
                ledger.record(name, problems)
            mismatch += checked.decision_mismatch
        _info(f"digest.{name}", {"sha256": [d[0] for d in self.digests],
                                 "iterations": [len(t) for t in self.timings],
                                 "decision_mismatch": mismatch})

    def metrics(self) -> dict[str, float]:
        """Timings: the sum over parts of each part's mean.  Throughput: rows
        over seconds of all iterations.  Means, not medians: a shared machine
        can switch between speeds about 1.5x apart, and a median of samples
        from both jumps to whichever speed held a little more of the run."""
        flat = [t for part in self.timings for t in part]
        if "rows" in flat[0]:
            rows = sum(t["rows"] for t in flat)
            return {"predict_rows_per_s": rows / sum(t["predict_s"] for t in flat)}
        (key,) = flat[0]
        return {key: sum(statistics.fmean(t[key] for t in part) for part in self.timings)}


class SingleRows:
    """Single-row predicts, a short burst after every step of the run, so
    that the latency samples cover all of it."""

    def __init__(self, ops, inp: dict) -> None:
        self.ops, self.inp = ops, inp
        self.rows: list[int] = []
        self.details: list = []
        self.latencies: list[float] = []

    def burst(self, speed: Speed) -> None:
        n = len(self.inp["x"])
        rows = [(len(self.rows) + i) % n for i in range(SINGLE_ROW_BURST)]
        details, latencies = self.ops.predict_rows(self.inp, rows)
        f = speed.factor()
        self.rows += rows
        self.details += details
        self.latencies += [v * f for v in latencies]

    def check(self, serve_out, ledger: Ledger) -> None:
        checked = self.ops.check_rows(self.inp, serve_out, self.rows, self.details)
        ledger.record("single-row", checked.failures)
        _info("predict_1row", {"samples": len(self.latencies),
                               "single_row_mismatch": checked.single_row_mismatch})

    def metrics(self) -> dict[str, float]:
        return {
            "predict_1row_p50_ms": statistics.median(self.latencies),
            "predict_1row_p95_ms":
                statistics.quantiles(self.latencies, n=20, method="inclusive")[18],
        }


def run_timed(ops, workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The workload's own operation for `seconds`, with probe rounds before
    it and after each of its parts, so that the samples of every metric
    spread over the whole run rather than one moment of it."""
    ledger = Ledger()
    speed = Speed()
    inputs, setup_s = _timed_setup(ops, workload, seed, work, ledger, speed)
    series = {name: Series(op, inputs[name]) for name, op in ops.OPS.items()}
    home = series[workload]
    probes = [series[name] for name in ops.OPS if name != workload]
    single = SingleRows(ops, inputs["serve"][0])

    def step(s: Series, part: int) -> None:
        s.step(part, speed)
        single.burst(speed)

    def probe_rounds(count: int) -> None:
        for _ in range(count):
            for s in probes:
                step(s, 0)

    probe_rounds(PROBE_ROUNDS_FIRST)
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        for part in range(len(home.parts)):
            step(home, part)
            probe_rounds(1)
        now = time.perf_counter()
        if (now - start) + (now - cycle) > seconds:  # the next cycle would overrun
            break

    metrics = {"setup_s": setup_s}
    for name, s in series.items():
        s.check(name, ledger)
        metrics.update(s.metrics())
    single.check(series["serve"].first[0], ledger)
    metrics.update(single.metrics())
    q = statistics.quantiles(speed.factors, n=4)
    _info("speed", {"calibrations": len(speed.factors), "factor_quartiles": q})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _result(ledger, {k: (metrics[k], E2E_UNITS[k]) for k in E2E_UNITS})


def run_traced(ops, tracer_mod, workload: str, seed: int, work: Path) -> dict:
    """Run the workload's own operation untraced, then traced; the traced
    outputs must hash the same and every wrapper must be removed again."""
    ledger = Ledger()
    op = ops.OPS[workload]
    work.mkdir(parents=True)
    parts = op.setup(str(work), seed, ops.SIZES[workload]["full"])

    rows = range(TRACED_SINGLE_ROWS if workload == "serve" else 0)

    def one_pass():
        outs = [op.run(p)[0] for p in parts]
        return outs, ops.predict_rows(parts[0], rows)[0] if rows else []

    def digest(outs, details):
        return [op.digest(o) for o in outs] + ([ops.digest_rows(details)] if rows else [])

    gc.collect()
    start = time.perf_counter()
    plain, plain_rows = one_pass()
    untraced = time.perf_counter() - start

    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    gc.collect()
    root = tracer.enter(f"bench.{workload}")
    try:
        traced_out, traced_rows = one_pass()
    finally:
        tracer.exit(root)
        left = tracer.restore()
    traced = tracer.spans[root][2] - tracer.spans[root][1]

    digests = (digest(plain, plain_rows), digest(traced_out, traced_rows))
    _info(f"digest.{workload}", {"untraced": digests[0], "traced": digests[1]})
    ledger.record("trace-parity", [] if digests[0] == digests[1] else ["traced outputs differ"])
    ledger.record("trace-restore", [f"{a} still wrapped" for a in left])
    layers = tracer_mod.layer_metrics(tracer, root)
    layers["combiners.decision_mismatch"] = 0
    layers["training.predict_1row_mismatch"] = 0
    for inp, out in zip(parts, plain):
        checked = op.check(inp, out)
        ledger.record(workload, checked.failures)
        layers["combiners.decision_mismatch"] += checked.decision_mismatch
    if rows:
        checked = ops.check_rows(parts[0], plain[0], rows, plain_rows)
        ledger.record("single-row", checked.failures)
        layers["training.predict_1row_mismatch"] = checked.single_row_mismatch
    layers["trace.overhead_s"] = traced - untraced
    return _result(ledger, {k: (v, tracer_mod.unit_of(k)) for k, v in layers.items()})


def _result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "granulex" / "__init__.py").is_file():
        print(f"error: no granulex package under {src}", file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(here)]
    import numpy

    import ops
    import tracer

    _info("machine", {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "granulex_threads": os.environ.get("GRANULEX_THREADS"),
    })
    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(ops, tracer, args.workload, args.seed, work)
        else:
            result = run_timed(ops, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
