"""Benchmark of quasirep's three user paths, run from the root of a checkout.

    python3 bench/run.py --workload irreps_cold --seed 0 --seconds 10 --trace 0

Workloads (one process each, closed loop, one client, no extra threads or
processes; every op is a documented CLI command run in-process through
`quasirep.cli.main`):

  irreps_cold  `irreps <spec>` over the order ladder, on an empty cache
  study_warm   irreps, sweeps, maps and `file <path>` specs on a primed cache
  verify_full  `verify full`, the A1-A10 battery

With --trace 0 the last stdout line carries the end-to-end metrics of timed
passes repeated for --seconds; with --trace 1 it carries per-layer metrics
from one untraced pass, one traced pass and one pass at a single BLAS thread.
The package is imported from the checkout's src/; the run exits 1 without a
result when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from spans import Tracer, install, uninstall

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# OpenBLAS starts as many threads as cores; on a 2-core box that is 2, which
# is what a user gets by default. The count is fixed here, before numpy loads.
E2E_BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
STARTUP_REPEATS = 5        # fresh interpreters timed for start and import
REBUILD_NOTE = "note: rebuilding stale cache"


def _startup_s() -> list[float]:
    """Interpreter start and package import, timed in fresh interpreters."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import quasirep.cli"
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-B", "-c", code, SRC], check=True)
        times.append(time.perf_counter() - t0)
    return times


class Blas:
    """The OpenBLAS numpy loaded, found in this process's memory map."""

    def __init__(self):
        import numpy as np

        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        if not paths:
            raise RuntimeError("numpy is not linked against OpenBLAS")
        self.lib = ctypes.CDLL(paths[0])
        self._get = self._function("get_num_threads", ctypes.c_int, [])
        self._set = self._function("set_num_threads", None, [ctypes.c_int])
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        self.name, self.version = build["name"], build["version"]

    def _function(self, stem, restype, argtypes):
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(self.lib, prefix + stem + suffix, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, argtypes
                    return fn
        raise RuntimeError(f"OpenBLAS exports no {stem}")

    @property
    def threads(self) -> int:
        return int(self._get())

    @threads.setter
    def threads(self, count: int) -> None:
        self._set(count)


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _import_package():
    """Import quasirep from the checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "quasirep", "cli.py")):
        raise SystemExit(f"error: no quasirep sources under {SRC}")
    sys.path.insert(0, SRC)
    import quasirep
    from quasirep import cli

    if os.path.commonpath([os.path.abspath(quasirep.__file__), SRC]) != SRC:
        raise SystemExit(f"error: imported {quasirep.__file__}, not the checkout")
    return cli.main


def _snapshot(directory) -> dict:
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            st = os.stat(os.path.join(base, name))
            files[os.path.join(base, name)] = (st.st_size, st.st_mtime_ns)
    return files


class Outcome:
    def __init__(self, op, rc, stdout, stderr, elapsed, cache_state):
        self.op, self.rc, self.stdout, self.stderr = op, rc, stdout, stderr
        self.elapsed = elapsed
        self.cache_state = cache_state   # "hit", "miss" or None
        self.rebuilds = stderr.count(REBUILD_NOTE)
        self.info = workloads.parse(stdout)
        self.error = None                # set by the output check


class Runner:
    """Runs ops through the CLI entry point, optionally inside trace spans."""

    def __init__(self, main, tracer=None):
        self.main, self.tracer = main, tracer

    def run(self, op) -> Outcome:
        cache = op.argv[op.argv.index("--cache-dir") + 1]
        before = _snapshot(cache) if op.cached else None
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.tracer is None:
                    rc = self.main(op.argv)
                else:
                    rc = self.tracer.call(f"cli.{op.command}", self.main, op.argv)[0]
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing op is a failed op, not a failed benchmark
            rc = None
            err.write(traceback.format_exc().splitlines()[-1] + "\n")
        elapsed = time.perf_counter() - t0
        state = None
        if op.cached and rc == 0:
            state = "hit" if _snapshot(cache) == before else "miss"
        return Outcome(op, rc, out.getvalue(), err.getvalue(), elapsed, state)


class Pass:
    """One timed pass over a workload's op list."""

    def __init__(self, runner, ops):
        t0 = time.perf_counter()
        self.outcomes = [runner.run(op) for op in ops]
        self.wall_s = time.perf_counter() - t0
        for o in self.outcomes:
            o.error = _check(o.op, o.info)

    def failed(self):
        return [o for o in self.outcomes if o.rc != 0 or o.error is not None]

    def wrong(self):
        """Ops that printed their JSON output and failed its check, whatever
        their exit code; an op that printed none has failed but said nothing
        wrong."""
        return [o for o in self.outcomes
                if o.info is not None and o.error is not None]

    def count(self, state) -> int:
        return sum(o.cache_state == state for o in self.outcomes)


def _check(op, info):
    if info is None:
        return "no JSON output"
    try:
        return op.check(info)
    except (KeyError, TypeError) as exc:
        return f"malformed output: missing or mistyped {exc}"


# --- workloads -------------------------------------------------------------


class IrrepsCold:
    """`irreps` over the ladder, each pass on a fresh, empty cache directory."""

    def prepare(self, seed, work, runner):
        self.seed, self.root, self.count = seed, os.path.join(work, "caches"), 0
        os.makedirs(self.root)

    def ops(self):
        self.count += 1
        cache = os.path.join(self.root, f"pass-{self.count}")
        os.makedirs(cache)
        return workloads.irreps_ops(self.seed, cache)

    def after(self, p):
        shutil.rmtree(os.path.join(self.root, f"pass-{self.count}"))
        misses = p.count("miss")
        if misses != len(p.outcomes):
            return f"{misses} cache misses on {len(p.outcomes)} cold ops"
        return None


class StudyWarm:
    """Studies against a cache primed in set-up, so timed ops only read it."""

    def prepare(self, seed, work, runner):
        self.seed, self.cache = seed, os.path.join(work, "cache")
        os.makedirs(self.cache)
        self.group_file = os.path.join(work, "inputs", "relabelled.grp")
        os.makedirs(os.path.dirname(self.group_file))
        self.digest = workloads.save_relabelled_group(seed, self.group_file)
        for op in workloads.prime_ops(seed, self.cache):
            o = runner.run(op)
            if o.rc != 0 or _check(op, o.info):
                raise RuntimeError(f"priming {op.label} failed: rc={o.rc} "
                                   f"{o.stderr.strip()[:200]}")

    def ops(self):
        return workloads.study_ops(self.seed, self.cache, self.group_file, self.digest)

    def after(self, p):
        cold = [o.op.label for o in p.outcomes
                if o.op.cached and not o.op.is_file_spec and o.cache_state != "hit"]
        return f"expected cache hits, not on {cold}" if cold else None


class VerifyFull:
    """The A1-A10 battery, which keeps its tables in memory only."""

    def prepare(self, seed, work, runner):
        self.seed, self.cache = seed, os.path.join(work, "cache")
        os.makedirs(self.cache)

    def ops(self):
        return workloads.verify_ops(self.seed, self.cache)

    def after(self, p):
        return None


WORKLOADS = {"irreps_cold": IrrepsCold, "study_warm": StudyWarm,
             "verify_full": VerifyFull}


# --- metrics ---------------------------------------------------------------


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, tracer, plain, traced, single, failed_frac):
    """Per-layer metrics from one untraced, one traced and one 1-thread pass."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    m = {}

    def seconds(key):
        m[key + ".s"] = _metric(s.get(key, 0.0), "s")

    def ncalls(key):
        m[key + ".calls"] = _metric(calls.get(key, 0), "count")

    for key in ("groups.named", "groups.from_table"):
        seconds(key)
        for n in workloads.LADDER_ORDERS:
            seconds(f"{key}.o{n}")
    ncalls("groups.from_table")
    for key in ("groups.load_group", "groups.save_group", "groups.group_hash"):
        seconds(key)
    ncalls("groups.group_hash")

    seconds("irreps.decompose")
    ncalls("irreps.decompose")
    for n in workloads.LADDER_ORDERS:
        seconds(f"irreps.decompose.o{n}")
    for key in ("irreps.validate", "irreps.save_irreps", "irreps.load_irreps"):
        seconds(key)
    m["irreps.cache.bytes_written"] = _metric(counts["irreps.cache.bytes_written"], "B")
    m["irreps.cache.bytes_read"] = _metric(counts["irreps.cache.bytes_read"], "B")
    m["irreps.load_irreps.mb_per_s"] = _metric(_ratio(
        counts["irreps.cache.bytes_read"] / 1e6,
        tracer.total_s.get("irreps.load_irreps", 0.0)), "MB/s")

    for key in ("fourier.transform_matrix", "fourier.transform_scalar",
                "fourier.invert_scalar"):
        seconds(key)
        ncalls(key)

    seconds("approx.defect_direct")
    ncalls("approx.defect_direct")
    for key in ("approx.defect_via_fourier", "approx.minor_construction",
                "approx.polar_construction"):
        seconds(key)
    scan_s = s.get("approx.defect_direct", 0.0) + s.get("approx.defect_via_fourier", 0.0)
    m["approx.pair_scan.pairs"] = _metric(counts["approx.pair_scan.pairs"], "count")
    m["approx.pair_scan.gflop"] = _metric(counts["approx.pair_scan.gflop"], "GFLOP")
    m["approx.pair_scan.gflop_per_s"] = _metric(
        _ratio(counts["approx.pair_scan.gflop"], scan_s), "GFLOP/s")

    seconds("homs.evaluate")
    seconds("homs.agreement_probability")
    ncalls("homs.evaluate")

    seconds("twirl.twirl_monte_carlo")
    m["twirl.samples_per_s"] = _metric(_ratio(
        counts["twirl.samples"], tracer.total_s.get("twirl.twirl_monte_carlo", 0.0)), "1/s")
    seconds("twirl.twirl_exact")

    for i in range(1, 11):
        seconds(f"verify.A{i}")
        m[f"verify.A{i}.total_s"] = _metric(tracer.total_s.get(f"verify.A{i}", 0.0), "s")

    for command in ("irreps", "sweep", "hom", "group", "verify"):
        seconds(f"cli.{command}")
    # the north star's cold and warm `irreps psl2 11`, timed in the untraced pass
    o660 = sum(o.elapsed for o in plain.outcomes
               if o.op.command == "irreps" and o.op.order == 660)
    m["cli.irreps.cold.o660.s"] = _metric(o660 if workload == "irreps_cold" else 0.0, "s")
    m["cli.irreps.warm.o660.s"] = _metric(o660 if workload == "study_warm" else 0.0, "s")
    hits, misses = traced.count("hit"), traced.count("miss")
    m["cli.cache.hits"] = _metric(hits, "count")
    m["cli.cache.misses"] = _metric(misses, "count")
    m["cli.cache.rebuilds"] = _metric(sum(o.rebuilds for o in traced.outcomes), "count")
    m["cli.cache.hit_ratio"] = _metric(_ratio(hits, hits + misses), "1")

    m["failed_frac"] = _metric(failed_frac, "1")
    m["trace.overhead_ratio"] = _metric(traced.wall_s / plain.wall_s, "1")
    m["trace.unattributed_frac"] = _metric(
        max(0.0, traced.wall_s - tracer.covered_s) / traced.wall_s, "1")
    m["blas_1t.wall_s"] = _metric(single.wall_s, "s")
    return m


def _print_spans(tracer, wall_s):
    """Every span key by self time; with the unattributed rest they sum to wall_s."""
    print(f"spans of the traced pass (self seconds; sum plus unattributed = {wall_s:.3f} s):")
    keys = sorted((k for k in tracer.calls), key=lambda k: -tracer.self_s[k])
    for k in keys:
        print(f"  {k:34s} self {tracer.self_s[k]:9.4f} s  {tracer.self_s[k] / wall_s:6.1%}"
              f"  total {tracer.total_s[k]:9.4f} s  calls {tracer.calls[k]}")
    rest = wall_s - sum(tracer.self_s[k] for k in keys)
    print(f"  {'(unattributed)':34s} self {rest:9.4f} s  {rest / wall_s:6.1%}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("QUASIREP_CACHE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(E2E_BLAS_THREADS)
    sys.dont_write_bytecode = True       # leave the checkout as it was found
    cli_main = _import_package()
    import numpy as np

    blas = Blas()
    blas.threads = E2E_BLAS_THREADS
    env = {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.name} {blas.version}",
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas.threads,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
    }
    print("env " + json.dumps(env), flush=True)

    work = os.path.join(WORK, str(os.getpid()))
    try:
        start_s = _startup_s()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, work, Runner(cli_main))
        prepare_s = time.perf_counter() - t0
        setup_s = statistics.median(start_s) + prepare_s
        print(f"setup_s {setup_s:.4f} s: median start and import "
              f"{[round(x, 4) for x in start_s]} + preparation {prepare_s:.4f}")
        return _measure(args, workload, cli_main, blas, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def _run_pass(workload, runner, label, problems):
    p = Pass(runner, workload.ops())
    problem = workload.after(p)
    if problem:
        problems.append(f"{label}: {problem}")
    return p


def _measure(args, workload, cli_main, blas, setup_s) -> int:
    problems, passes = [], []
    if args.trace == 0:
        t_end = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < t_end:
            passes.append(_run_pass(workload, Runner(cli_main),
                                    f"pass {len(passes) + 1}", problems))
    else:
        passes.append(_run_pass(workload, Runner(cli_main), "untraced pass", problems))
        tracer = Tracer()
        undo = install(tracer)
        try:
            passes.append(_run_pass(workload, Runner(cli_main, tracer),
                                    "traced pass", problems))
        finally:
            uninstall(undo)
        blas.threads = 1
        passes.append(_run_pass(workload, Runner(cli_main), "1-thread pass", problems))

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failed()) for p in passes)
    for i, p in enumerate(passes, 1):
        for o in p.failed():
            first = (o.stderr.strip().splitlines() or [""])[0]
            print(f"FAILED pass {i} op [{o.op.label}] rc={o.rc}"
                  f" check={o.error!r} stderr: {first}")
        problems.extend(f"pass {i} op [{o.op.label}] output check: {o.error}"
                        for o in p.wrong())
    for problem in problems:
        print(f"INCORRECT {problem}")

    walls = [p.wall_s for p in passes]
    lo, hi = _quartiles(walls)
    failed_frac = failed / attempted
    print(f"wall_s median {statistics.median(walls):.4f} s over {len(walls)} passes"
          f" (quartiles {lo:.4f}..{hi:.4f} s); ops per pass {len(passes[0].outcomes)}")
    print(f"failed_frac {failed_frac:.6f} ({failed} of {attempted} ops)")

    if args.trace == 0:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_frac": _metric(1.0 - failed_frac, "1"),
        }
    else:
        plain, traced, single = passes
        _print_spans(tracer, traced.wall_s)
        metrics = layer_metrics(args.workload, tracer, plain, traced, single, failed_frac)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
