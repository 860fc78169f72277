"""Command-line interface.

Subcommands: quantile (calibrate thresholds), fit (estimate the histogram),
evaluate (audit an estimator), simulate (benchmark harness), plot-data
(convert documents to plotting CSV).  Exit codes: 0 success, 1 usage error,
2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import densities, evaluate, inference, io, multiscale
from .dp import essential_histogram
from .intervals import levels

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

log = logging.getLogger("mshist")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _alpha_list(text: str) -> list[float]:
    return [float(a) for a in text.split(",")]


def _table(n: int, args, instead: str):
    """The threshold table for n, or None with a warning saying what is done
    ``instead`` when n is too small for the interval system."""
    if levels(n):
        return multiscale.simulate_quantiles(
            n, reps=args.reps, seed=args.seed, cache_dir=args.cache_dir
        )
    log.warning(f"n={n} is too small for multiscale calibration; {instead}")
    return None


def cmd_quantile(args) -> int:
    table = multiscale.simulate_quantiles(
        args.n, reps=args.reps, seed=args.seed, cache_dir=args.cache_dir
    )
    for a, k in zip(multiscale.DEFAULT_ALPHAS, table.kappas):
        print(f"alpha={a:<6g} kappa={k:.6f}")
    return EXIT_OK


def _out_path(base: str, alpha: float, many: bool, suffix: str = "") -> Path:
    p = Path(base)
    if many:
        p = p.with_name(f"{p.stem}_alpha{alpha:g}{suffix}{p.suffix}")
    elif suffix:
        p = p.with_name(f"{p.stem}{suffix}{p.suffix}")
    return p


def cmd_fit(args) -> int:
    names = [f"{alpha:g}" for alpha in args.alpha]
    alike = [repr(a) for a, name in zip(args.alpha, names) if names.count(name) > 1]
    if alike:
        print(f"error: --alpha values {', '.join(alike)} print alike, so their documents "
              "would share one file", file=sys.stderr)
        return EXIT_USAGE
    sample = io.read_sample(args.input)
    table = _table(sample.n, args, "returning a single-bin histogram")
    many = len(args.alpha) > 1
    for alpha in args.alpha:
        fit = essential_histogram(sample, alpha, table)
        doc = io.histogram_document(fit, alpha)
        out = _out_path(args.out, alpha, many)
        io.write_json(doc, out)
        print(f"alpha={alpha:g}: {fit.nbins} bins -> {out}")
        if args.features:
            feats = inference.significant_feature_intervals(sample, alpha, table)
            bounds = inference.lower_bound_modes(feats)
            fdoc = io.feature_document(feats, alpha, bounds)
            fout = _out_path(args.out, alpha, many, suffix=".features")
            io.write_json(fdoc, fout)
            print(
                f"alpha={alpha:g}: {len(feats)} certified features, "
                f">= {bounds[0]} modes, >= {bounds[1]} troughs -> {fout}"
            )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    sample = io.read_sample(args.input)
    estimator = io.read_histogram(args.hist)
    table = _table(sample.n, args, "the audit checks no interval")
    report = evaluate.audit(sample, estimator, args.alpha, table)
    doc = io.audit_document(report, sample)
    if args.out:
        io.write_json(doc, args.out)
    print(
        f"violations={len(report.violations)} removable={len(report.removable)} "
        f"clean={report.clean}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    density = densities.get_density(args.density)
    methods = args.methods.split(",")
    table = None
    if "essential" in methods:
        table = _table(args.n, args, "the essential rows are single-bin fits")
    rows = densities.benchmark_rows(
        density, args.n, args.bench_reps, methods, args.alpha, args.seed, table=table
    )
    io.write_benchmark_csv(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    doc, fit = io.read_document(args.input)
    io.write_plot_data(doc, args.out, fit)
    print(f"{doc['type']} -> {args.out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="mshist", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--reps", type=int, default=multiscale.DEFAULT_REPS)

    q = sub.add_parser("quantile", help="calibrate and cache thresholds")
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(func=cmd_quantile)

    f = sub.add_parser("fit", help="fit the fewest-bins feasible histogram")
    f.add_argument("--input", required=True)
    f.add_argument(
        "--alpha", type=_alpha_list, default=[0.1], help="comma list; one output per alpha"
    )
    f.add_argument("--out", required=True)
    f.add_argument("--features", action="store_true")
    common(f)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("evaluate", help="audit a histogram against the data")
    e.add_argument("--input", required=True)
    e.add_argument("--hist", required=True)
    e.add_argument("--alpha", type=float, default=0.1)
    e.add_argument("--out", default=None)
    common(e)
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("simulate", help="benchmark methods on a known density")
    s.add_argument("--density", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--bench-reps", type=int, default=100, help="benchmark replications")
    s.add_argument("--methods", default="essential")
    s.add_argument("--alpha", type=_alpha_list, default=[0.1], help="comma list")
    s.add_argument("--out", required=True)
    common(s)
    s.set_defaults(func=cmd_simulate)

    d = sub.add_parser("plot-data", help="convert a JSON document to plotting CSV")
    d.add_argument("--input", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_plot_data)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # warnings reach stderr as "warning: ..." for this call only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    log.addHandler(handler)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ArithmeticError, RuntimeError) as e:
        print(f"error: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
