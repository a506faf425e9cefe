"""Throughput benchmark of spinmix's Monte Carlo pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload wishart_n5 --seed 0 --seconds 30 --trace 0
    python3 -m pytest -q perfbench          # tests of the benchmark itself

The package is imported from ``src/`` next to this directory; the run fails
with exit code 2 when it is not there.  All workloads use d=2 and β=1, and
every operation is one call into a public entry point with a seed derived
from ``--seed``:

wishart_n5  ``spectra.ensemble_pools`` on a Wishart r=4 chain, N=5 (m=32),
            all three kinds, no sample retention, as ``spinmix reproduce``
            calls it.  8192 trials per call are one chunk, so per-matrix call
            overhead and the small einsum kernels dominate.
wishart_n9  the same call at N=9 (m=512), 32 trials per call, one chunk: the
            O(m³) LAPACK regime, and the largest arrays (the memory workload).
pm1_run_n7  ``cli.main(["run", "--ensemble", "pm1", "--n-sites", "7", ...])``
            into a temporary directory, 512 trials per call, one chunk: the
            whole CLI path, with Haar eigenvectors drawn for every bond.

``--trace 0`` reports the end-to-end metrics: median trials per second over
the calls, the process's peak resident memory, and the set-up time (import
plus a tiny warm-up call, median of fresh interpreters started after each
call).  ``--trace 1`` alternates untraced and traced calls on the same seeds
and reports per-layer metrics from the spans of ``tracer.Tracer``;
``tracing.overhead_frac`` is the traced calls' wall time over the untraced
calls' minus 1, including the sampled layer-boundary identity checks.  Every
call passes through the correctness gate in ``gate.py``.  The last line of
standard output is the JSON result; the lines before it are a readable report
and the provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_STRIDE = 10_000

# set-up as a user pays it: a fresh interpreter imports the package and makes
# its first tiny call, which initialises BLAS and LAPACK
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from spinmix import ChainSpec, LocalEnsemble, Rng, spectra
spectra.ensemble_pools(ChainSpec(3, 2, LocalEnsemble.wishart(4)), 2, Rng(0))
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Workload:
    n_sites: int
    trials: int          # per call; each workload's call is exactly one chunk
    cli_run: bool = False


WORKLOADS = {
    "wishart_n5": Workload(5, 8192),
    "wishart_n9": Workload(9, 32),
    "pm1_run_n7": Workload(7, 512, cli_run=True),
}


class SetupError(RuntimeError):
    """The package cannot be loaded from this checkout."""


def load_package():
    """Import spinmix from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "spinmix" / "__init__.py").is_file():
        raise SetupError(f"no spinmix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinmix

    origin = Path(spinmix.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"spinmix was imported from {origin}, not from {SRC}")


def setup_time() -> float:
    """Set-up seconds of one fresh interpreter running the probe."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# operations


class Operation:
    """One workload call plus its correctness gate."""

    def __init__(self, workload: Workload, scratch: Path):
        from spinmix import ChainSpec, LocalEnsemble

        self.workload = workload
        self.scratch = scratch
        ens = LocalEnsemble.pm1() if workload.cli_run else LocalEnsemble.wishart(4)
        self.spec = ChainSpec(n_sites=workload.n_sites, site_dim=2, ensemble=ens, beta=1)
        self.closed_form_outside = 0
        self.closed_form_rows = 0

    def call(self, seed: int, tracer=None):
        """Run once; return the output the gate needs."""
        from spinmix import Rng, cli, spectra

        if not self.workload.cli_run:
            return spectra.ensemble_pools(self.spec, self.workload.trials, Rng(seed),
                                          keep_samples=False)
        out = self.scratch / f"run_{seed}"
        argv = ["run", "--ensemble", "pm1", "--n-sites", str(self.workload.n_sites),
                "--d", "2", "--trials", str(self.workload.trials),
                "--seed", str(seed), "--out", str(out)]
        if tracer is None:
            return cli.main(argv), out
        with tracer.span("cli.cmd_run"):
            return cli.main(argv), out

    def check(self, result) -> list:
        if not self.workload.cli_run:
            outside, rows = gate.closed_form_misses(result, self.workload.n_sites)
            self.closed_form_outside += outside
            self.closed_form_rows += rows
            return gate.check_pools(result)
        code, out = result
        try:
            if code != 0:
                return [f"spinmix run exited with {code}"]
            return gate.check_run_dir(out, self.spec.n_bonds)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def call_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


class Counter:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, op: Operation, seed: int, tracer=None):
        """Call and gate one operation; return its wall time in seconds."""
        self.attempted += 1
        before = len(tracer.failures) if tracer is not None else 0
        try:
            t0 = time.perf_counter()
            result = op.call(seed, tracer)
            wall = time.perf_counter() - t0
            problems = op.check(result)
        except Exception as exc:  # a raising operation is a failed operation
            self._fail(f"seed {seed}: {type(exc).__name__}: {exc}")
            return None
        if tracer is not None:
            problems += tracer.failures[before:]
        if problems:
            self._fail(f"seed {seed}: " + "; ".join(problems))
        return wall

    def _fail(self, message):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def keep_going(started: float, seconds: float, durations) -> bool:
    """Start another call only if a typical one still ends in time."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


# ---------------------------------------------------------------------------
# modes


def run_untraced(op: Operation, seed: int, seconds: float, counter: Counter):
    counter.run(op, call_seed(seed, SEED_STRIDE - 1))      # warm-up, untimed
    # a set-up probe after every call, so that each one finds the machine in
    # the same state: measured after idle time, set-up reads up to 1.5x slower
    setup = [setup_time()]
    walls, rounds = [], []
    started = time.perf_counter()
    i = 0
    while keep_going(started, seconds, rounds):
        t0 = time.perf_counter()
        wall = counter.run(op, call_seed(seed, i))
        i += 1
        if wall is None:
            break
        walls.append(wall)
        setup.append(setup_time())
        rounds.append(time.perf_counter() - t0)
    rates = [op.workload.trials / w for w in walls]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    report = [f"calls: {len(rates)} x {op.workload.trials} trials; trials/s per call: "
              + ", ".join(f"{r:.4g}" for r in rates),
              f"setup samples (s): {', '.join(f'{t:.4f}' for t in setup)}"]
    return metrics, report, {"call_seeds": [call_seed(seed, j) for j in range(i)]}


def dgemm_peak_gflops(n: int = 1024, repeats: int = 5) -> float:
    import numpy as np

    gen = np.random.default_rng(0)
    a, b = gen.standard_normal((n, n)), gen.standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n ** 3 / best / 1e9


def run_traced(op: Operation, seed: int, seconds: float, counter: Counter):
    counter.run(op, call_seed(seed, SEED_STRIDE - 1))      # warm-up, untimed
    peak = dgemm_peak_gflops()
    tr = tracing.Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    i = 0
    while keep_going(started, seconds, [p + t for p, t in zip(plain, traced)]):
        s = call_seed(seed, i)
        walls = {}
        # alternate which call goes first, so warming favours neither
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tr.new_operation()
                with tr.installed():
                    walls[True] = counter.run(op, s, tr)
            else:
                walls[False] = counter.run(op, s)
        i += 1
        if None in walls.values():
            break
        plain.append(walls[False])
        traced.append(walls[True])
    trials = max(1, len(traced) * op.workload.trials)
    units = {"gflops": "GFLOP/s", "bytes_per_trial": "B/trial",
             "matrices_per_trial": "count", "calls_per_trial": "count",
             "chunks": "count", "chunk_trials": "count"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[-1], "ms"))
               for name, value in tracing.layer_metrics(tr.spans, trials).items()}
    roots = sum(s.duration for s in tr.spans if s.parent < 0)
    metrics["tracing.overhead_frac"] = (
        sum(traced) / sum(plain) - 1.0 if traced else 0.0, "fraction")
    metrics["tracing.unaccounted_frac"] = (
        1.0 - roots / sum(traced) if traced else 0.0, "fraction")
    metrics["blas.dgemm_peak_gflops"] = (peak, "GFLOP/s")
    metrics["tracing.layer_checks"] = (float(tr.checks), "count")
    shares = tracing.stage_shares(tr.spans) if tr.spans else {}
    report = [f"calls: {len(traced)} traced + {len(plain)} untraced x "
              f"{op.workload.trials} trials",
              "stage shares of traced wall time (self time):"]
    report += [f"  {name:<34} {share:7.2%}" for name, share in
               sorted(shares.items(), key=lambda kv: -kv[1])]
    if tr.missing:
        report.append(f"layers not found in the package: {', '.join(tr.missing)}")
    return metrics, report, {"call_seeds": [call_seed(seed, j) for j in range(i)],
                             "observed_chunk_trials": metrics["spectra.chunk_trials"][0]}


# ---------------------------------------------------------------------------
# provenance


def blas_threads() -> dict:
    """OpenBLAS thread count of the numpy and scipy builds, as loaded."""
    out = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg] = fn()
                    break
    return out


def blas_versions() -> dict:
    out = {}
    for pkg in ("numpy", "scipy"):
        try:
            dep = importlib.import_module(pkg).show_config(mode="dicts")["Build Dependencies"]
            out[pkg] = f"{dep['blas']['name']} {dep['blas']['version']}"
        except (KeyError, TypeError):
            out[pkg] = None
    return out


def git_revision():
    """HEAD of the checkout's git metadata, if it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spinmix").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, op: Operation, extra: dict) -> dict:
    import numpy
    import scipy
    from spinmix import spectra

    chunk_fn = getattr(spectra, "_chunk_trials", None)
    return {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "seed": args.seed, **extra,
        "n_sites": op.spec.n_sites, "m": op.spec.m,
        "trials_per_call": op.workload.trials,
        "chunk_trials": chunk_fn(op.spec.m, op.workload.trials) if chunk_fn else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_versions(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counter = Counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        op = Operation(WORKLOADS[args.workload], Path(scratch))
        try:
            mode = run_traced if args.trace else run_untraced
            metrics, report, extra = mode(op, args.seed, args.seconds, counter)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"workload {args.workload} (N={op.spec.n_sites}, m={op.spec.m}), "
          f"seed {args.seed}, trace {args.trace}")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:14.6g} {unit}")
    if op.closed_form_rows:
        print(f"closed form (reported, not gated): {op.closed_form_outside} of "
              f"{op.closed_form_rows} rows outside 3 s.e.")
    print(f"operations: {counter.failed} failed of {counter.attempted} attempted")
    for message in counter.messages:
        print(f"  failure: {message}")
    print("provenance " + json.dumps(provenance(args, op, extra), sort_keys=True))
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
