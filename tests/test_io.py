import csv
import inspect
import json

import numpy as np
import pytest

from mshist.densities import CLASSICAL_RULES, classical_histogram, get_density
from mshist.dp import HistogramModel, essential_histogram
from mshist.evaluate import audit
from mshist.inference import lower_bound_modes, significant_feature_intervals
from mshist.io import (
    audit_document,
    feature_document,
    histogram_document,
    histogram_from_document,
    histogram_steps,
    read_histogram,
    read_sample,
    write_json,
    write_plot_data,
)
from mshist.sample import DuplicateValuesError, SortedSample

from reference import audit_document_reference, histogram_steps_reference, read_features


class TestReadSample:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.5\n0.1\n0.9\n")
        s = read_sample(p)
        assert s.values.tolist() == [0.1, 0.5, 0.9]

    def test_header_detected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("value\n0.5\n0.1\n")
        assert read_sample(p).n == 2

    def test_byte_order_mark_dropped(self, tmp_path):
        """A UTF-8 byte order mark before a numeric first line is not a
        header: every value is read."""
        p = tmp_path / "d.txt"
        p.write_bytes(b"\xef\xbb\xbf0.5\n0.1\n0.9\n0.3\n")
        assert read_sample(p).values.tolist() == [0.1, 0.3, 0.5, 0.9]
        p.write_bytes(b"\xef\xbb\xbfvalue\n0.5\n0.1\n")
        assert read_sample(p).n == 2

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("\n0.5\n\n0.1\n\n")
        assert read_sample(p).n == 2

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.5\nabc\n0.1\n")
        with pytest.raises(ValueError):
            read_sample(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            read_sample(p)

    def test_ties_derounded_or_rejected(self, tmp_path):
        """Ties on a grid are de-rounded with no option to ask for it; a
        repeat off the grid raises."""
        p = tmp_path / "d.txt"
        p.write_text("1.0\n1.0\n2.0\n")
        v = read_sample(p).values
        assert v.size == 3 and np.all(np.diff(v) > 0)
        assert list(inspect.signature(read_sample).parameters) == ["path"]
        p.write_text("0.0\n0.3\n0.3\n1.0\n")
        with pytest.raises(DuplicateValuesError, match="0.3 \\(2 times\\)"):
            read_sample(p)


class TestDocuments:
    def test_histogram_roundtrip(self, tmp_path):
        m = HistogramModel(
            np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25]), 10,
            counts=np.array([5, 5]),
        )
        path = tmp_path / "h.json"
        write_json(histogram_document(m, 0.1), path)
        assert read_histogram(path) == m
        assert json.loads(path.read_text())["alpha"] == 0.1

    @pytest.mark.parametrize("kind", ["features", "audit", None])
    def test_reader_refuses_a_document_of_another_type(self, kind):
        """A document whose ``type`` is not histogram is refused by that
        type, even when it holds a histogram's keys."""
        doc = {"type": kind, "n": 1, "breaks": [0.0, 1.0], "heights": [1.0]}
        with pytest.raises(ValueError, match=f"^expected a 'histogram' document, got "
                                             f"type {kind!r}$"):
            histogram_from_document(doc)

    def test_feature_roundtrip(self, tables, tmp_path):
        sample = get_density("bimodal").sampler(7, 900)
        feats = significant_feature_intervals(sample, 0.1, tables(900))
        doc = feature_document(feats, 0.1, lower_bound_modes(feats))
        path = tmp_path / "f.json"
        write_json(doc, path)
        assert read_features(path) == feats

    def test_written_document_is_one_compact_line(self, tables, tmp_path):
        sample = get_density("harp").sampler(0, 500)
        fit = essential_histogram(sample, 0.1, tables(500))
        feats = significant_feature_intervals(sample, 0.1, tables(500))
        report = audit(sample, classical_histogram(sample, "sturges"), 0.1, tables(500))
        docs = [
            histogram_document(fit, 0.1),
            feature_document(feats, 0.1, lower_bound_modes(feats)),
            audit_document(report, sample),
        ]
        assert feats and report.violations
        for i, doc in enumerate(docs):
            path = tmp_path / f"{i}.json"
            write_json(doc, path)
            text = path.read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            assert json.loads(text) == doc

    def test_audit_document_fields(self, tables):
        sample = get_density("uniform").sampler(1, 300)
        fit = essential_histogram(sample, 0.1, tables(300))
        doc = audit_document(audit(sample, fit, 0.1, tables(300)), sample)
        assert doc["clean"] is True
        assert doc["violations"] == [] and doc["removable"] == []

    @pytest.mark.parametrize("density", ["claw", "harp"])
    def test_audit_document_matches_row_writer(self, tables, density):
        """The column writer's text equals the one-row-at-a-time writer's,
        for the fit and the three classical rules."""
        sample = get_density(density).sampler(0, 3000)
        estimators = [essential_histogram(sample, 0.1, tables(3000))] + [
            classical_histogram(sample, r) for r in ("sturges", "scott_width", "scott_area")
        ]
        flagged = 0
        for est in estimators:
            report = audit(sample, est, 0.1, tables(3000))
            flagged += len(report.violations)
            got = json.dumps(audit_document(report, sample), indent=1)
            assert got == json.dumps(audit_document_reference(report, sample), indent=1)
        assert flagged > 1000

    def test_small_sample_audit_document_matches_row_writer(self):
        sample = SortedSample(np.linspace(0.0, 1.0, 7))
        est = HistogramModel(np.array([0.0, 1.0]), np.array([1.0]), 7)
        report = audit(sample, est, 0.1, None)
        assert report.kappa is None
        got = json.dumps(audit_document(report, sample), indent=1)
        assert got == json.dumps(audit_document_reference(report, sample), indent=1)


class TestPlotData:
    def test_histogram_steps(self):
        m = HistogramModel(np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25]), 10)
        pts = histogram_steps(m)
        assert len(pts) == 4
        assert pts[0] == (0.0, 0.5) and pts[-1] == (3.0, 0.25)

    def test_histogram_steps_match_reference(self, tables):
        """Fits and the classical rules, zero-height bins included, and
        random models: the same Python floats, point for point."""
        rng = np.random.default_rng(24)
        models = []
        for name in ("uniform", "claw", "harp"):
            sample = get_density(name).sampler(0, 1000)
            models.append(essential_histogram(sample, 0.1, tables(1000)))
            models += [classical_histogram(sample, r) for r in CLASSICAL_RULES]
        for nb in range(1, 40):
            breaks = np.unique(rng.normal(size=nb + 1))
            heights = rng.random(breaks.size - 1) * (rng.random(breaks.size - 1) < 0.7)
            heights[0] = 1.0
            heights /= np.sum(heights * np.diff(breaks))
            models.append(HistogramModel(breaks, heights, 9))
        assert any(np.any(m.heights == 0.0) for m in models)
        for m in models:
            got = histogram_steps(m)
            assert got == histogram_steps_reference(m)
            assert len(got) == 2 * m.nbins
            assert {type(v) for pt in got for v in pt} == {float}

    def test_single_bin_two_points(self, tmp_path):
        m = HistogramModel(np.array([0.0, 2.0]), np.array([0.5]), 10)
        path = tmp_path / "h.csv"
        write_plot_data(histogram_document(m), path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["x", "y"]
        assert len(rows) == 3

    def test_feature_csv_roundtrip(self, tables, tmp_path):
        sample = get_density("bimodal").sampler(7, 900)
        feats = significant_feature_intervals(sample, 0.1, tables(900))
        doc = feature_document(feats, 0.1, lower_bound_modes(feats))
        path = tmp_path / "f.csv"
        write_plot_data(doc, path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == len(feats)
        for row, f in zip(rows, feats):
            assert (float(row["left"]), float(row["right"])) == f.hull
            assert row["direction"] == f.direction

    def test_audit_csv(self, tables, tmp_path):
        """One row per violation, then one per removable break."""
        sample = get_density("harp").sampler(0, 500)
        report = audit(sample, classical_histogram(sample, "sturges"), 0.1, tables(500))
        path = tmp_path / "a.csv"
        write_plot_data(audit_document(report, sample), path)
        rows = list(csv.DictReader(path.read_text().splitlines()))
        v, x = report.violations, sample.values
        assert len(v) > 0 and len(report.removable) > 0
        assert [r["kind"] for r in rows] == (
            ["violation"] * len(v) + ["removable"] * len(report.removable)
        )
        for row, j, k in zip(rows, v.j, v.k):
            assert (float(row["left"]), float(row["right"])) == (x[j - 1], x[k - 1])
            assert row["multiplicity"] == ""
        for row, (index, mult) in zip(rows[len(v):], report.removable):
            assert (int(row["left"]), int(row["multiplicity"])) == (index, mult)

    def test_unknown_type(self, tmp_path):
        with pytest.raises(ValueError):
            write_plot_data({"type": "wat"}, tmp_path / "x.csv")
