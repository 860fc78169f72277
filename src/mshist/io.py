"""File formats: sample input, JSON documents for fits/features/audits, and
CSV emitters for plotting and benchmarks."""
from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .densities import BENCHMARK_COLUMNS
from .dp import HistogramModel
from .evaluate import AuditReport
from .inference import FeatureInterval
from .sample import SortedSample


def read_sample(path) -> SortedSample:
    """One numeric value per line; a single non-numeric first line is a
    header.  Decimal point only, independent of locale; ties as in ``SortedSample``."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: empty input")
    start = 0
    try:
        float(lines[0])
    except ValueError:
        start = 1  # single header line
    try:
        values = np.array([float(t) for t in lines[start:]], dtype=float)
    except ValueError as e:
        raise ValueError(f"{path}: non-numeric value ({e})") from None
    return SortedSample(values)


# ---------------------------------------------------------------------------
# JSON documents


def histogram_document(fit: HistogramModel, alpha: float | None = None) -> dict:
    doc = {"type": "histogram", "n": fit.n, "breaks": fit.breaks.tolist(),
           "heights": fit.heights.tolist()}
    if fit.counts is not None:
        doc["counts"] = fit.counts.tolist()
    if fit.cut_indices is not None:
        doc["cut_indices"] = list(fit.cut_indices)
    if alpha is not None:
        doc["alpha"] = alpha
    return doc


def histogram_from_document(doc: dict) -> HistogramModel:
    """The model of a histogram document: :func:`histogram_document`'s keys,
    ``counts`` and ``cut_indices`` optional; cut indices must be integers
    rising strictly from 0 to n.  A document with another ``type`` is refused."""
    if doc.get("type", "histogram") != "histogram":
        raise ValueError(f"expected a 'histogram' document, got type {doc['type']!r}")
    n = int(doc["n"])
    cuts = doc.get("cut_indices")
    if "cut_indices" in doc:
        ints = isinstance(cuts, (list, tuple)) and all(
            isinstance(c, int) and not isinstance(c, bool) for c in cuts
        )
        if not (ints and len(cuts) >= 2 and cuts[0] == 0 and cuts[-1] == n
                and all(a < b for a, b in zip(cuts, cuts[1:]))):
            raise ValueError(
                f"cut_indices must be integers rising strictly from 0 to n={n}"
            )
        cuts = tuple(cuts)
    return HistogramModel(doc["breaks"], doc["heights"], n, doc.get("counts"), cuts)


def read_histogram(path) -> HistogramModel:
    return histogram_from_document(json.loads(Path(path).read_text()))


def write_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc) + "\n")  # no indent: json's C encoder


def feature_document(
    features: Sequence[FeatureInterval], alpha: float, bounds: tuple[int, int]
) -> dict:
    return {
        "type": "features",
        "alpha": alpha,
        "modes_lb": bounds[0],
        "troughs_lb": bounds[1],
        "features": [
            {
                "left": f.hull[0],
                "right": f.hull[1],
                "direction": f.direction,
                "margin": f.margin,
                "witnesses": [
                    {"j": w.j, "k": w.k, "scale": w.scale} for w in f.witnesses
                ],
            }
            for f in features
        ],
    }


def audit_document(report: AuditReport, sample: SortedSample) -> dict:
    v, x = report.violations, sample.values  # read by column: no object per row
    cols = (v.j, v.k, v.scale, x[v.j - 1], x[v.k - 1])
    return {
        "type": "audit",
        "alpha": report.alpha,
        "kappa": report.kappa,
        "clean": report.clean,
        "violations": [
            {"j": j, "k": k, "scale": s, "left": left, "right": right}
            for j, k, s, left, right in zip(*(c.tolist() for c in cols))
        ],
        "removable": [
            {"index": cp, "multiplicity": mult} for cp, mult in report.removable
        ],
    }


# ---------------------------------------------------------------------------
# plot-ready CSV


def histogram_steps(fit: HistogramModel) -> list[tuple[float, float]]:
    """2K step coordinates (x, height) tracing the histogram left to right."""
    return list(zip(fit.breaks.repeat(2)[1:-1].tolist(), fit.heights.repeat(2).tolist()))


def write_plot_data(doc: dict, path) -> None:
    """Step CSV for histogram documents, interval CSV for the others."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if doc["type"] == "histogram":
            w.writerow(["x", "y"])
            for x, y in histogram_steps(histogram_from_document(doc)):
                w.writerow([repr(x), repr(y)])
        elif doc["type"] == "features":
            w.writerow(["left", "right", "direction", "margin"])
            for f in doc["features"]:
                w.writerow(
                    [repr(f["left"]), repr(f["right"]), f["direction"], repr(f["margin"])]
                )
        elif doc["type"] == "audit":
            w.writerow(["kind", "left", "right", "multiplicity"])
            for v in doc["violations"]:
                w.writerow(["violation", repr(v["left"]), repr(v["right"]), ""])
            for r in doc["removable"]:
                w.writerow(["removable", r["index"], "", r["multiplicity"]])
        else:
            raise ValueError(f"unknown document type {doc.get('type')!r}")


def write_benchmark_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS)
        w.writeheader()
        w.writerows(rows)
