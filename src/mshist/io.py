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
    header, and a UTF-8 byte order mark is dropped.  Decimal point only,
    independent of locale; ties and scale as in ``SortedSample``."""
    lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8-sig").splitlines()]
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
    ``counts`` and ``cut_indices`` optional, all checked by the model.  A
    document with another ``type`` is refused."""
    if doc.get("type", "histogram") != "histogram":
        raise ValueError(f"expected a 'histogram' document, got type {doc['type']!r}")
    # an explicit null is refused, as an empty list is
    cuts = (doc["cut_indices"] or ()) if "cut_indices" in doc else None
    return HistogramModel(doc["breaks"], doc["heights"], doc["n"], doc.get("counts"), cuts)


#: the keys that reading each type of document requires, and the keys that
#: plot-data reads in each row of a list of rows
_DOCUMENT_KEYS = {"histogram": ("n", "breaks", "heights"), "features": ("features",),
                  "audit": ("violations", "removable")}
_ROW_KEYS = {"features": ("left", "right", "direction", "margin"),
             "violations": ("left", "right"), "removable": ("index", "multiplicity")}


def read_document(path) -> tuple[dict, HistogramModel | None]:
    """The JSON document in ``path`` and, for a histogram document, its
    model, which checks the histogram's fields; the document must be an
    object whose ``type`` is histogram, features or audit, holding the keys
    that type's readers and plot-data read, down to each row.  Anything
    else raises ValueError naming the file and what is wrong."""
    try:
        doc = json.loads(Path(path).read_text())
        kinds = list(_DOCUMENT_KEYS)
        if not (isinstance(doc, dict) and doc.get("type") in kinds):
            raise ValueError(f"expected a JSON object whose 'type' is one of {kinds}")
        for key in _DOCUMENT_KEYS[doc["type"]]:
            if key not in doc:
                raise ValueError(f"a {doc['type']} document needs the key {key!r}")
            need, rows = _ROW_KEYS.get(key), doc[key]
            if need and not (isinstance(rows, list) and all(
                    isinstance(r, dict) and all(k in r for k in need) for r in rows)):
                raise ValueError(f"{key!r} must be a list of objects with the keys {need}")
        fit = histogram_from_document(doc) if doc["type"] == "histogram" else None
    except ValueError as e:  # a JSON decoding error is one
        raise ValueError(f"{path}: {e}") from None
    return doc, fit


def read_histogram(path) -> HistogramModel:
    """The model of the histogram document in ``path``, refusing others by name."""
    doc, fit = read_document(path)
    if fit is None:
        raise ValueError(f"{path}: expected a 'histogram' document, got type {doc['type']!r}")
    return fit


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


def write_plot_data(doc: dict, path, fit: HistogramModel | None = None) -> None:
    """Step CSV for histogram documents, interval CSV for the others; every
    row is built before ``path`` is opened, so a failure writes no file.
    A histogram document's model is built from it unless ``fit``, the model
    :func:`read_document` returned with it, is given."""
    kind = doc["type"]
    if kind == "histogram":
        steps = histogram_steps(histogram_from_document(doc) if fit is None else fit)
        rows = [("x", "y")] + [(repr(x), repr(y)) for x, y in steps]
    elif kind == "features":
        rows = [("left", "right", "direction", "margin")] + [
            (repr(f["left"]), repr(f["right"]), f["direction"], repr(f["margin"]))
            for f in doc["features"]
        ]
    elif kind == "audit":
        rows = [("kind", "left", "right", "multiplicity")] + [
            ("violation", repr(v["left"]), repr(v["right"]), "") for v in doc["violations"]
        ] + [("removable", r["index"], "", r["multiplicity"]) for r in doc["removable"]]
    else:
        raise ValueError(f"unknown document type {kind!r}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_benchmark_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=BENCHMARK_COLUMNS)
        w.writeheader()
        w.writerows(rows)
