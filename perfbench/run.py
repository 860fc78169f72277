"""Layered benchmark of mshist.

    python3 perfbench/run.py --workload fit-30k --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with one client (each operation starts
when the previous one ends) for at least ``--seconds`` (fit-30k and
analyze-3k also until they have walked their input pool once), checks every
output against the references in ``perfbench/refs``, prints a report and,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones, taken from spans around the
benchmark's calls into each ``src/mshist`` module.  ``--smoke`` runs the
same code at n = 1000.

Exit codes: 0 result printed, 2 set-up error (missing program, table or
reference), 1 anything else.  See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread: numpy must not oversubscribe a small shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import bench  # noqa: E402

#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 5
#: fresh ``import mshist`` processes per traced run; cli.import_s is their median
IMPORT_PROBES = 3
TABLE_LOADS = 20
TAIL_MIN_BEYOND = 10

# end-to-end metrics, in BENCHMARK.json order
E2E_UNITS = {"setup_s": "s", "a_median_s": "s", "b_median_s": "s",
             "ops_per_s": "1/s"}

# per-layer metric -> (span name, count key or None for the duration); each is
# the median over operations of the per-operation sum
LAYER_SPANS = {
    "intervals.build_s": ("intervals.build", None),
    "intervals.size": ("intervals.build", "size"),
    "bounds.roots_s": ("bounds.roots", None),
    "bounds.unique_masses": ("bounds.roots", "unique_masses"),
    "bounds.empty_bands": ("bounds.roots", "empty_bands"),
    "dp.fit_s": ("dp.fit", None),
    "dp.blocks": ("dp.fit", "blocks"),
    "dp.bins": ("dp.fit", "bins"),
    "inference.features_s": ("inference.features", None),
    "inference.features": ("inference.features", "features"),
    "inference.modes_lb": ("inference.features", "modes_lb"),
    "inference.troughs_lb": ("inference.features", "troughs_lb"),
    "evaluate.violations_s": ("evaluate.violations", None),
    "evaluate.removable_s": ("evaluate.removable", None),
    "evaluate.merge_checks": ("evaluate.audit", "merge_checks"),
    "multiscale.statistic_s": ("multiscale.statistic", None),
    "multiscale.table_load_s": ("multiscale.table_load", None),
    "io.read_sample_s": ("io.read_sample", None),
    "io.write_json_s": ("io.write_json", None),
    "cli.main_s": ("cli.main", None),
    "cli.import_s": ("cli.import", None),
}
# derived per-layer metrics, computed in layer_metrics()
DERIVED_UNITS = {"dp.self_s": "s", "evaluate.removable_ratio": "ratio",
                 "bench.self_s": "s", "trace.overhead_s": "s"}


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bench.ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(bench.ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or lines[0] != str(bench.ROOT):
        return None
    return lines[1]


def environment() -> dict:
    import scipy

    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def speed_reference() -> float:
    """Median seconds of a fixed numpy and Python kernel that never calls the
    program: on a shared machine it shows how fast the machine was."""
    x = np.random.default_rng(0).random(100_000)
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        np.sort(x)
        sum(i * i for i in range(20_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# measurement helpers


def timed_process(argv: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=bench.subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise bench.SetupError(f"{' '.join(argv)} failed:\n{proc.stderr}")
    return elapsed


def setup_times(spec: bench.Spec, probes: int) -> list[float]:
    tables = [str(bench.TABLES[spec.table_n])] if spec.table_n else []
    argv = [sys.executable, str(bench.BENCH / "setup_probe.py"), str(spec.n), *tables]
    return [timed_process(argv) for _ in range(probes)]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of the usual percentiles with at least
    ten samples above it, or the maximum (100) with too few samples."""
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        q = float(np.percentile(values, p))
        if sum(v > q for v in values) >= TAIL_MIN_BEYOND:
            return p, q
    return 100.0, max(values)


def schedule(spec: bench.Spec, seed: int):
    """Endless (kind, what, inputs) sequence: the spec's pattern, each what
    walking its pool in a seed-chosen order."""
    rng = np.random.default_rng(seed)
    orders = {what: rng.permutation(size) for what, size in spec.pools.items()}
    used = defaultdict(int)
    while True:
        for kind, what in spec.pattern:
            order = orders[what]
            i = int(order[used[what] % order.size])
            used[what] += 1
            if what in ("analysis", "cli"):
                inputs = [(f, i) for f in spec.families]
            elif what in ("single", "block"):
                inputs = [("uniform", i)]
            else:
                inputs = [(what, i)]
            yield kind, what, inputs


def call(runner: bench.Runner, tr, what: str, family: str, index: int,
         spec: bench.Spec | None = None) -> tuple[bool, float, int]:
    """One program operation: (ok, seconds per unit of work, units)."""
    try:
        if what in ("single", "block"):
            reps = 1 if what == "single" else bench.CALIB_BLOCK
            ok, t = runner.calibrate(tr, index, reps, spec)
            return ok, t / reps, reps
        if what == "analysis":
            ok, t = runner.analysis(tr, family, index, spec)
        elif what == "cli":
            ok, t = runner.cli(tr, family, index, spec)
        else:
            ok, t = runner.fit(tr, family, index)
        return ok, t, 1
    except bench.SetupError:
        raise
    except Exception as exc:  # a failed operation is counted, the run goes on
        print(f"operation failed: {what} {family}[{index}]: {exc!r}", file=sys.stderr)
        return False, float("nan"), 0


class Tally:
    """Operations attempted and failed, and the latencies of those that
    succeeded, per kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency = defaultdict(list)
        self.units = 0

    def add(self, kind: str | None, results: list[tuple[bool, float, int]]) -> None:
        self.attempted += len(results)
        bad = sum(1 for ok, _, _ in results if not ok)
        self.failed += bad
        if bad == 0:
            self.units += sum(u for _, _, u in results)
            if kind is not None:
                # a claw/harp pair counts as the mean of its two operations
                self.latency[kind].append(statistics.fmean(t for _, t, _ in results))


def untraced_loop(runner, spec, seed, seconds) -> tuple[Tally, float]:
    """Runs until ``seconds`` have passed and every pool was walked once
    (``spec.cover``) or at least entered; attempts count, not successes, so
    a run whose operations all fail still ends."""
    tally = Tally()
    done = defaultdict(int)
    null = bench.NullTracer()
    start = time.perf_counter()
    for kind, what, inputs in schedule(spec, seed):
        covered = all(done[w] >= (n if spec.cover else 1) for w, n in spec.pools.items())
        if time.perf_counter() - start >= seconds and covered:
            break
        tally.add(kind, [call(runner, null, what, f, i) for f, i in inputs])
        done[what] += 1
    return tally, time.perf_counter() - start


def traced_loop(runner, spec, seed, seconds, tr: bench.Tracer) -> tuple[Tally, list]:
    """Each operation runs twice on the same input, once traced and once not,
    in alternating order; the difference, less the probe spans, is the
    tracing overhead."""
    tally = Tally()
    overhead = []
    null = bench.NullTracer()
    kinds = set()
    start = time.perf_counter()
    for step, (kind, what, inputs) in enumerate(schedule(spec, seed)):
        if time.perf_counter() - start >= seconds and len(kinds) == 2:
            break
        kinds.add(kind)
        for family, index in inputs:
            tr.op = (step, family)
            runs = {}
            for traced in ((False, True) if step % 2 == 0 else (True, False)):
                runs[traced] = call(runner, tr if traced else null, what, family, index)
            tally.add(None, [runs[False], runs[True]])
            if not (runs[False][0] and runs[True][0]):
                continue
            probes = tr.probe_seconds(tr.op)
            units = runs[True][2]
            overhead.append((runs[True][1] * units - probes) / units - runs[False][1])
    return tally, overhead


def sweep(runner: bench.Runner, tr: bench.Tracer, seed: int, tally: Tally,
          imports: int) -> None:
    """Trace, once, every layer the workload's own loop bypasses: an analysis
    and a CLI run of analyze-3k's size, a replication of calibrate-10k's size,
    table loads and fresh ``import mshist`` processes."""
    import mshist

    tr.phase = "sweep"
    rng = np.random.default_rng([seed, 1])
    seen = {s["name"] for s in tr.spans}
    analyze, calib = runner.specs["analyze-3k"], runner.specs["calibrate-10k"]
    ops = []
    if "inference.features" not in seen:
        i = int(rng.integers(analyze.pools["cli"]))
        ops += [("analysis", "claw", i, analyze), ("cli", "claw", i, analyze)]
    if "multiscale.statistic" not in seen:
        ops.append(("single", "uniform", int(rng.integers(calib.items)), calib))
    for what, family, index, spec in ops:
        tr.op = ("sweep", what)
        tally.add(None, [call(runner, tr, what, family, index, spec)])
    table = bench.TABLES[runner.spec.table_n or runner.spec.n]
    for k in range(TABLE_LOADS):
        tr.op = ("table_load", k)
        with tr.span("multiscale.table_load"):
            mshist.load_table(table)
    for k in range(imports):
        tr.op = ("import", k)
        with tr.span("cli.import"):
            timed_process([sys.executable, "-c", "import mshist"])


# ---------------------------------------------------------------------------
# metrics


def per_op(spans: list[dict], name: str, key: str | None) -> dict:
    """Per-operation sums of a span's duration (key None) or count, from the
    loop when the loop recorded that span, else from the sweep."""
    group = [s for s in spans if s["name"] == name]
    loop = [s for s in group if s["phase"] == "loop"]
    sums = defaultdict(float)
    for s in loop or group:
        sums[s["op"]] += s["end"] - s["start"] if key is None else s["counts"][key]
    return dict(sums)


def layer_metrics(spans: list[dict], overhead: list[float]) -> dict:
    """name -> (value, unit, samples) for every per-layer metric."""
    values = {name: list(per_op(spans, *src).values())
              for name, src in LAYER_SPANS.items()}
    fit = per_op(spans, "dp.fit", None)
    roots = per_op(spans, "bounds.roots", None)
    values["dp.self_s"] = [fit[op] - roots[op] for op in fit if op in roots]
    removable = per_op(spans, "evaluate.audit", "removable")
    interior = per_op(spans, "evaluate.audit", "interior")
    values["evaluate.removable_ratio"] = [
        removable[op] / interior[op] for op in removable if interior[op] > 0
    ]
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    values["bench.self_s"] = [
        s["end"] - s["start"] - children[s["id"]] for s in spans
        if s["parent"] is None and s["name"].startswith("op.") and s["phase"] == "loop"
    ]
    values["trace.overhead_s"] = overhead
    return medians(values, layer_unit)


def medians(values: dict, unit) -> dict:
    """name -> (median, unit, samples); a metric without samples (every
    operation that feeds it failed) is left out and named on stderr."""
    out = {}
    for name, v in values.items():
        if v:
            out[name] = (float(statistics.median(v)), unit(name), len(v))
        else:
            print(f"no successful samples for {name}; left out", file=sys.stderr)
    return out


def e2e_metrics(setup: list[float], tally: Tally, loop_s: float) -> dict:
    """name -> (value, unit, samples)."""
    out = medians({"setup_s": setup, "a_median_s": tally.latency.get("a", []),
                   "b_median_s": tally.latency.get("b", [])}, E2E_UNITS.get)
    if tally.units:
        out["ops_per_s"] = (tally.units / loop_s, E2E_UNITS["ops_per_s"], tally.units)
    return out


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench.FULL))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="n = 1000 for every workload, one set-up and one import probe")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = bench.specs(args.smoke)[args.workload]
    out_dir = bench.BENCH / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workdir = out_dir / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment()
        env["loadavg_before"] = os.getloadavg()
        env["speed_ref_s_before"] = speed_reference()
        runner = bench.Runner(spec, args.smoke, workdir)
        setup = setup_times(spec, 1 if args.smoke else SETUP_PROBES)
        runner.warm(spec.n)
        spans, overhead = [], []
        if args.trace:
            tr = bench.Tracer()
            tally, overhead = traced_loop(runner, spec, args.seed, args.seconds, tr)
            sweep(runner, tr, args.seed, tally, 1 if args.smoke else IMPORT_PROBES)
            spans = tr.spans
            metrics = layer_metrics(spans, overhead)
        else:
            tally, loop_s = untraced_loop(runner, spec, args.seed, args.seconds)
            metrics = e2e_metrics(setup, tally, loop_s)
        env["loadavg_after"] = os.getloadavg()
        env["speed_ref_s_after"] = speed_reference()
    except bench.SetupError as exc:
        print(f"set-up error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    print(f"perfbench {tag} n={spec.n} seconds={args.seconds:g}")
    print("env " + json.dumps(env))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} n={samples}")
    # a tail needs many operations per run, which only calibrate-10k has, so
    # it is reported here rather than as a bounded metric
    for kind, values in sorted(tally.latency.items()):
        pct, value = tail(values)
        print(f"  {kind + '_tail_s':<26} {value:>14.6g} s      n={len(values)} (p{pct:g})")
    print(f"  {'failed_frac':<26} {failed_frac:>14.6g} ratio  "
          f"({tally.failed}/{tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps({
        "env": env, "result": result, "failed_frac": failed_frac,
        "samples": {k: n for k, (_, _, n) in metrics.items()},
        "latency": tally.latency, "spans": spans, "trace_overhead": overhead,
    }, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
