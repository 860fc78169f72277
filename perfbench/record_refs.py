"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [workload ...]

Runs every pool input of the named workloads (all by default, full and smoke
sizes) through the program once and writes ``perfbench/refs/<workload>-n<n>.json``
plus ``perfbench/refs/tables.json``, the sha256 pins of the kappa tables.
The references pin the outputs of the commit they were recorded at; rerun
this only when a change is meant to alter those outputs.

The capped n = 10000 table is made here, once, if it is missing:
``simulate_quantiles(10000, reps=5000, seed=20250823)`` into
``perfbench/tables``.  This takes about a minute on one core.
"""
from __future__ import annotations

import json
import sys
import time

import bench
import numpy as np


def _versions() -> dict:
    import scipy

    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def record_fit(spec: bench.Spec, mshist) -> dict:
    table = bench.load_table(spec.table_n)
    items = {}
    for family in spec.families:
        items[family] = []
        for i in range(spec.items):
            x = bench.draw(family, spec.n, i)
            sample = mshist.SortedSample(x)
            t = time.perf_counter()
            fit = mshist.essential_histogram(sample, bench.ALPHA, table)
            print(f"{spec.name} {family}[{i}] fit {time.perf_counter() - t:.3f}s",
                  file=sys.stderr, flush=True)
            items[family].append({
                "index": i,
                "fingerprint": bench.fingerprint(x),
                "cuts": list(fit.cut_indices),
                "breaks": [float(b) for b in fit.breaks],
                "counts": [int(c) for c in fit.counts],
            })
    return {"items": items}


def record_analysis(spec: bench.Spec, mshist) -> dict:
    out = record_fit(spec, mshist)
    table = bench.load_table(spec.table_n)
    for family in spec.families:
        for i, ref in enumerate(out["items"][family]):
            sample = mshist.SortedSample(bench.draw(family, spec.n, i))
            fit = mshist.essential_histogram(sample, bench.ALPHA, table)
            t = time.perf_counter()
            feats = mshist.significant_feature_intervals(sample, bench.ALPHA, table)
            modes, troughs = mshist.lower_bound_modes(feats)
            estimators = [fit] + [
                mshist.classical_histogram(sample, r) for r in bench.CLASSICAL_RULES
            ]
            reports = [mshist.audit(sample, e, bench.ALPHA, table) for e in estimators]
            print(f"{spec.name} {family}[{i}] features+audits "
                  f"{time.perf_counter() - t:.3f}s", file=sys.stderr, flush=True)
            ref.update({
                "features": [[f.hull[0], f.hull[1], f.direction, f.margin]
                             for f in feats],
                "modes_lb": modes,
                "troughs_lb": troughs,
                "audits": [[len(r.violations), len(r.removable)] for r in reports],
            })
    return out


def record_calibration(spec: bench.Spec, mshist) -> dict:
    stats = []
    t = time.perf_counter()
    for i in range(spec.items):
        got = mshist.simulate_statistics(spec.n, bench.CALIB_BLOCK, bench.calib_seed(i))
        stats.append([float(v) for v in got])
    print(f"{spec.name} {spec.items} x {bench.CALIB_BLOCK} reps "
          f"{time.perf_counter() - t:.1f}s", file=sys.stderr, flush=True)
    return {"block": bench.CALIB_BLOCK,
            "seeds": [bench.calib_seed(i) for i in range(spec.items)],
            "stats": stats}


def main(names: list[str]) -> None:
    sys.path.insert(0, str(bench.SRC))
    import mshist

    bench.REFS.mkdir(exist_ok=True)
    capped = bench.TABLES[10000]
    if not capped.exists():
        capped.parent.mkdir(exist_ok=True)
        mshist.simulate_quantiles(10000, reps=bench.TABLE_REPS, seed=bench.TABLE_SEED,
                                  cache_dir=capped.parent)
    pins = {p.name: bench.sha256_file(p) for p in bench.TABLES.values()}
    (bench.REFS / "tables.json").write_text(json.dumps(pins, indent=1) + "\n")

    recorders = {"fit-30k": record_fit, "analyze-3k": record_analysis,
                 "calibrate-10k": record_calibration}
    for smoke in (True, False):
        for name, spec in bench.specs(smoke).items():
            if names and name not in names:
                continue
            doc = {"workload": name, "n": spec.n, "alpha": bench.ALPHA,
                   "recorded_with": _versions(), **recorders[name](spec, mshist)}
            bench.ref_path(spec).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
