"""End-to-end benchmark of the omzd CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload splice --seed 1 --seconds 15 --trace 0

One process and one client drive ``omzd.cli.run`` in a closed loop: each
op starts when the previous one has returned, and its stdout goes to an
in-memory buffer.  Every output is checked by ``checker``, which does not
use ``omzd.verify``.  The loop runs whole rounds (see ``workloads``) until
it has spent ``--seconds`` of scaled time (below) inside ``cli.run`` and
has done at least ``MIN_OPS`` ops, or until the op list ends.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

- ``setup_s``: median of three set-ups, each a new interpreter importing
  the CLI plus this process building the op list, writing the verify pool
  and warming up;
- ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: throughput, and median and
  p90 latency of one ``cli.run`` call (Harrell-Davis estimates, see
  ``quantile``);
- ``ok_ratio``: share of attempted ops that exited as expected, raised
  nothing and passed the checker, i.e. 1 - error ratio;
- ``peak_rss_mb``: peak resident memory of this process, read before the
  limits probe;
- ``min_offdiag_rel``: smallest |entry| at a position the claim requires
  to be nonzero, over max|entry|, across round 0 or the verify pool.

Times are scaled by an interleaved calibration kernel (see ``calibrate``);
raw wall-clock figures and the error ratio are in the details line.

With ``--trace 1`` the last line holds the per-layer metrics (see
``tracing``) of a traced pass over the first ``MIN_OPS`` ops, rounded up
to whole rounds, after an untraced pass over the same ops that gives the
trace overhead.  The line before the last holds run details: versions,
BLAS threads, nproc, op-list digests, sample counts and the limits probe.
The program is imported from ``src/`` beside this directory; without it
the script exits with 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1  # one client and no extra threads: steadier on a shared 2-core host
SETUP_REPS = 3
MIN_OPS = 100  # so that ten samples lie beyond p90
# Reported times are scaled to a host on which ``calibrate`` takes this long.
CAL_REF_S = 0.004

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "min_offdiag_rel": "ratio",
}

# Sizes that are too slow or broken for the timed mixes; run once per
# invocation, after the timed loop, and never gated.
PROBE = (
    ("gen", "--kind", "omzd", "--n", "2001"),
    ("gen", "--kind", "ompzd", "--n", "1201", "--k", "600"),
    ("gen", "--kind", "omzd", "--n", "401"),
    ("gen", "--kind", "conference", "--q", "729"),
    ("certify-graph", "--family", "knn", "--n", "80"),
)

# Warm-up ops outside every workload's ranges.  The first BLAS-backed call
# after import runs several times slower than its repeats, and the first
# large matrices grow the heap; the order-400 op does the latter.
WARMUP = (
    ("gen", "--kind", "omzd", "--n", "9", "--out", "{work}/warmup.json"),
    ("verify", "--in", "{work}/warmup.json", "--claim", "omzd"),
    ("gen", "--kind", "ompzd", "--n", "12", "--k", "5"),
    ("gen", "--kind", "conference", "--q", "11"),
    ("gen", "--kind", "skew-hadamard", "--q", "7", "--t", "1"),
    ("certify-graph", "--family", "gnk", "--n", "6", "--k", "2"),
    ("certify-graph", "--family", "multipartite", "--n", "3", "--m", "6"),
    ("gen", "--kind", "symmetric-omzd", "--n", "400"),
)


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch omzd: tuple-keyed
    dict lookups, small matrix products, elementwise passes over a larger
    array and float formatting, as the program's own ops mix them.

    On a shared host the CPU speed swings by tens of percent within
    seconds.  The kernel runs between ops, and each op's time is scaled
    by CAL_REF_S over the mean of the kernel times either side of it, so
    that the swings do not read as program changes; raw wall times are
    reported beside the scaled ones.
    """
    import numpy as np

    small = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    big = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
    table = {(i % 97, i % 89): i for i in range(2000)}
    t0 = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += table.get((i % 97, i % 89), 0)
    a = small
    for _ in range(20):
        a = np.tanh(a @ small.T)
    b = big
    for _ in range(6):
        b = np.abs(b - b.T) * 0.5
    ",".join("%.17g" % x for x in big[:12].ravel())
    return time.perf_counter() - t0


def _parse_args(argv):
    p = argparse.ArgumentParser(description="omzd end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=("splice", "paley", "graphs", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """Set-up, op execution and output checking for one workload."""

    def __init__(self, cli, checker, workloads, name: str, seed: int, work: Path):
        self.cli, self.checker, self.workloads = cli, checker, workloads
        self.name, self.seed, self.work = name, seed, work
        self.workload = None
        self.pool_rel: dict[str, float] = {}

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = self.cli.run(list(argv), out, err)
            exc = None
        except Exception as e:  # an op that raises out of cli.run counts as failed
            rc, exc = None, e
        return time.perf_counter() - t0, rc, exc, out.getvalue(), err.getvalue()

    def set_up(self) -> None:
        """Build the op list, write the verify pool and warm up."""
        self.workload = self.workloads.build(self.name, self.seed)
        self.work.mkdir(parents=True, exist_ok=True)
        for pf in self.workload.pool:
            self.pool_rel[pf.name] = self._write_pool_file(pf)
        for argv in WARMUP:
            self._call([a.replace("{work}", str(self.work)) for a in argv])

    def _write_pool_file(self, pf) -> float:
        """Generate and check one verify input, then tamper with it if
        asked; returns the margin of the generated matrix."""
        import numpy as np

        _, rc, exc, out, err = self._call(pf.gen_argv())
        if rc != 0:
            raise RuntimeError(f"set-up gen {pf.gen_argv()} failed: rc={rc} {exc!r} {err.strip()}")
        rel = self.checker.check_gen_output(pf.kind, dict(pf.params), out)
        if pf.tamper:
            doc = json.loads(out)
            rng = random.Random(f"{self.name}:{self.seed}:{pf.name}")
            a = np.array(doc["entries"], dtype=np.float64)
            nonzero = np.abs(a) > self.checker.ZERO_TOL * np.max(np.abs(a))
            if pf.tamper == "zero":
                i, j = rng.choice(np.argwhere(nonzero).tolist())
                doc["entries"][i][j] = 0.0
            else:
                # a required-zero entry: a 1e-6 relative change of a nonzero
                # entry of a large real matrix is inside the certificate's
                # 1e-9·c·n residual tolerance, so it is not a failure
                i, j = rng.choice(np.argwhere(~nonzero if np.any(~nonzero) else nonzero).tolist())
                doc["entries"][i][j] = float(a[i, j] + 1e-6 * np.max(np.abs(a)))
            out = json.dumps(doc)
            try:
                self.checker.check_matrix(pf.kind, self.checker.matrix_from_file_text(out), dict(pf.params))
            except self.checker.CheckFailed:
                pass
            else:
                raise RuntimeError(f"tampered file {pf.name} still passes the checker")
        (self.work / pf.name).write_text(out)
        return rel

    def run_op(self, op):
        """Run one op; returns (seconds, failure reason or None, min_rel)."""
        argv = op.argv
        if op.command == "verify":
            argv = ("verify", "--in", str(self.work / argv[2])) + argv[3:]
        dt, rc, exc, out, err = self._call(argv)
        if exc is not None:
            return dt, f"{' '.join(op.argv)}: raised {type(exc).__name__}: {exc}", None
        try:
            if op.command == "verify":
                self.checker.check_verify_output(op.expect_rc, rc, out)
                rel = None
            else:
                if rc != op.expect_rc:
                    raise self.checker.CheckFailed(f"exit code {rc} != {op.expect_rc}: {err.strip()[:200]}")
                if op.command == "gen":
                    rel = self.checker.check_gen_output(op.kind, op.param_dict, out)
                else:
                    rel = self.checker.check_graph_output(op.kind, op.param_dict, out)
        except self.checker.CheckFailed as e:
            return dt, f"{' '.join(op.argv)}: {e}", None
        return dt, None, rel

    def run_rounds(self, rounds, seconds: float | None):
        """Run whole rounds until ``seconds`` of scaled time spent in cli.run
        and at least MIN_OPS ops, or until the rounds end (``seconds`` None:
        all).  Counting scaled time keeps the ops run, and so the mix, the
        same when the host slows down.  Returns raw and scaled latencies,
        failures and margins."""
        lat, scaled, failures, rels = [], [], [], []
        busy = 0.0
        cal_before = calibrate()
        for r in rounds:
            for op in r:
                dt, failure, rel = self.run_op(op)
                cal_after = calibrate()
                lat.append(dt)
                scaled.append(dt * 2.0 * CAL_REF_S / (cal_before + cal_after))
                cal_before = cal_after
                busy += scaled[-1]
                rels.append(rel)
                if failure:
                    failures.append(failure)
            if seconds is not None and busy >= seconds and len(lat) >= MIN_OPS:
                break
        return lat, scaled, failures, rels

    def probe(self) -> list[dict]:
        out = []
        for argv in PROBE:
            dt, rc, exc, _, _ = self._call(argv)
            rec = {"argv": " ".join(argv), "seconds": round(dt, 4)}
            if exc is not None:
                rec["exception"] = type(exc).__name__
            else:
                rec["exit"] = rc
            out.append(rec)
        return out


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  It
    varies less from run to run than one or two order statistics, which
    on a noisy host move with a single slow op."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 64 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def _fresh_import() -> None:
    """Start a new interpreter that imports the CLI, and wait for it."""
    subprocess.run(
        [sys.executable, "-c", "import omzd.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        check=True,
    )


def _prefix_rounds(rounds, min_ops: int):
    count = 0
    for i, r in enumerate(rounds):
        count += len(r)
        if count >= min_ops:
            return rounds[: i + 1]
    return rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "omzd" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC / 'omzd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import omzd
    from omzd import cli

    if Path(omzd.__file__).resolve().parent != (SRC / "omzd").resolve():
        print(f"benchmark: imported omzd from {omzd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checker
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    bench = Bench(cli, checker, workloads, args.workload, args.seed, work)
    try:
        # Each set-up: a new interpreter imports the CLI, then this process
        # builds the op list, writes the verify pool and warms up.
        reps, scaled_reps = [], []
        for _ in range(SETUP_REPS):
            cal = calibrate()
            t0 = time.perf_counter()
            _fresh_import()
            bench.set_up()
            reps.append(time.perf_counter() - t0)
            scaled_reps.append(reps[-1] * 2.0 * CAL_REF_S / (cal + calibrate()))
        setup_s = statistics.median(scaled_reps)
        rounds = bench.workload.rounds

        if args.trace:
            prefix = _prefix_rounds(rounds, MIN_OPS)
            lat, scaled, failures, _ = bench.run_rounds(prefix, None)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                lat2, scaled2, failures2, _ = bench.run_rounds(prefix, None)
            finally:
                tracer.uninstall()
            untraced, traced = sum(scaled), sum(scaled2)
            lat += lat2
            failures += failures2
            units = tracing.metric_units()
            values = tracer.metrics(traced / untraced)
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            details = {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}
        else:
            lat, scaled, failures, rels = bench.run_rounds(rounds, args.seconds)
            peak = _peak_rss_mb()
            # the margin is taken where every seed runs the same ops
            if bench.pool_rel:
                checked = list(bench.pool_rel.values())
            else:
                checked = [r for r in rels[: len(rounds[0])] if r is not None]
            values = {
                "setup_s": setup_s,
                "ops_per_s": len(scaled) / sum(scaled),
                "op_p50_ms": 1e3 * quantile(scaled, 0.5),
                "op_p90_ms": 1e3 * quantile(scaled, 0.9),
                "ok_ratio": (len(lat) - len(failures)) / len(lat),
                "peak_rss_mb": peak,
                "min_offdiag_rel": min(checked) if checked else 0.0,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            details = {
                "op_samples": len(lat),
                "error_ratio": len(failures) / len(lat),
                "wall_ops_per_s": len(lat) / sum(lat),
                "wall_op_p50_ms": 1e3 * quantile(lat, 0.5),
                "wall_op_p90_ms": 1e3 * quantile(lat, 0.9),
            }
        probe = bench.probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "op_list_digests": {w: workloads.build(w, args.seed).digest() for w in workloads.WORKLOADS},
        "setup_reps_wall_s": reps,
        "failures": failures[:5],
        "probe": probe,
        **details,
    }
    print(json.dumps({"info": info}))
    result = {"correct": not failures, "attempted": len(lat), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
