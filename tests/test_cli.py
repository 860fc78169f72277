import csv
import json
import logging
import math
import runpy
import sys

import numpy as np
import pytest

import mshist
from mshist import cli
from mshist.cli import _build_parser, main
from mshist.densities import get_density
from mshist.io import read_histogram

from conftest import TABLES_DIR
from reference import read_features


@pytest.fixture
def workdir(tmp_path):
    sample = get_density("bimodal").sampler(7, 900)
    data = tmp_path / "data.txt"
    np.savetxt(data, sample.values)
    return tmp_path, data


def run(*args):
    return main([str(a) for a in args])


CACHE = ["--cache-dir", str(TABLES_DIR), "--reps", "5000", "--seed", "20250823"]
CACHE2K = ["--cache-dir", str(TABLES_DIR), "--reps", "2000", "--seed", "20250823"]


class TestQuantile:
    def test_prints_ordered_kappas(self, capsys):
        assert run("quantile", "--n", "500", *CACHE) == 0
        out = capsys.readouterr().out
        kappas = [float(l.split("kappa=")[1]) for l in out.strip().splitlines()]
        assert kappas == sorted(kappas, reverse=True)

    def test_idempotent(self, tmp_path, capsys):
        """The first call calibrates and says so; the second, a cache hit,
        says nothing and leaves the file as it was."""
        args = ["quantile", "--n", "30", "--reps", "150", "--seed", "3",
                "--cache-dir", tmp_path]
        assert run(*args) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: no calibrated thresholds at ")
        assert "simulating now (150 replications)" in err
        assert err.count("\n") == 1
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run(*args) == 0
        assert capsys.readouterr().err == ""
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second

    def test_small_n_is_data_error(self, capsys):
        assert run("quantile", "--n", "4", *CACHE) == 2

    def test_too_few_reps_fails_without_announcing_a_simulation(
        self, tmp_path, capsys, caplog
    ):
        args = ["quantile", "--n", "20", "--reps", "50", "--cache-dir", tmp_path]
        assert run(*args) == 2
        assert capsys.readouterr().err == "error: reps must be >= 100\n"
        assert [r for r in caplog.records if r.name == "mshist"] == []
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_fit_and_features(self, workdir, capsys):
        tmp, data = workdir
        out = tmp / "fit.json"
        code = run("fit", "--input", data, "--alpha", "0.1", "--out", out,
                   "--features", *CACHE2K)
        assert code == 0
        fit = read_histogram(out)
        assert fit.nbins >= 2
        feats = read_features(tmp / "fit.features.json")
        assert feats
        fdoc = json.loads((tmp / "fit.features.json").read_text())
        assert fdoc["modes_lb"] == 2 and fdoc["troughs_lb"] == 1

    def test_document_round_trips_the_cut_indices(self, workdir, tables):
        """The fit document records the fit's cut indices, and reading it
        back gives them; the model compares equal either way."""
        from mshist.dp import essential_histogram
        from mshist.io import read_sample

        tmp, data = workdir
        out = tmp / "fit.json"
        assert run("fit", "--input", data, "--out", out, *CACHE2K) == 0
        want = essential_histogram(read_sample(data), 0.1, tables(900))
        assert len(want.cut_indices) > 2
        assert json.loads(out.read_text())["cut_indices"] == list(want.cut_indices)
        fit = read_histogram(out)
        assert fit.cut_indices == want.cut_indices and fit == want

    def test_alpha_sweep_monotone(self, workdir):
        tmp, data = workdir
        out = tmp / "fit.json"
        assert run("fit", "--input", data, "--alpha", "0.05,0.1,0.5,0.9",
                   "--out", out, *CACHE2K) == 0
        bins = [
            read_histogram(tmp / f"fit_alpha{a}.json").nbins
            for a in ("0.05", "0.1", "0.5", "0.9")
        ]
        assert bins == sorted(bins)

    def test_alpha_list_with_features_names_four_files(self, workdir, tables):
        """Each alpha of a list gets its own fit and features documents, and
        each features document holds the features certified at its alpha."""
        from mshist.inference import significant_feature_intervals
        from mshist.io import read_sample

        tmp, data = workdir
        assert run("fit", "--input", data, "--alpha", "0.05,0.1", "--features",
                   "--out", tmp / "fit.json", *CACHE2K) == 0
        names = {f"fit_alpha{a}{kind}.json" for a in ("0.05", "0.1")
                 for kind in ("", ".features")}
        assert names <= {p.name for p in tmp.iterdir()}
        sample = read_sample(data)
        for alpha in (0.05, 0.1):
            want = significant_feature_intervals(sample, alpha, tables(900))
            assert want
            assert read_features(tmp / f"fit_alpha{alpha:g}.features.json") == want

    @pytest.mark.parametrize(
        "alphas, alike",
        [("0.1,0.1000001", "0.1, 0.1000001"), ("0.1,0.1", "0.1, 0.1"),
         ("0.1,0.05,0.1", "0.1, 0.1")],
    )
    def test_alphas_that_print_alike_exit_1(self, workdir, capsys, alphas, alike):
        """Each alpha's documents are named by the alpha as printed, so a
        list of two that print alike is refused before any fit, and no
        document is written."""
        tmp, data = workdir
        assert run("fit", "--input", data, "--alpha", alphas, "--features",
                   "--out", tmp / "fit.json", *CACHE2K) == 1
        err = capsys.readouterr().err
        assert err == (f"error: --alpha values {alike} print alike, so their documents "
                       "would share one file\n")
        assert sorted(p.name for p in tmp.iterdir()) == ["data.txt"]

    def test_tiny_sample_single_bin(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.4\n0.6\n0.9\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", data, "--out", out, *CACHE2K) == 0
        assert read_histogram(out).nbins == 1
        assert "too small" in capsys.readouterr().err

    def test_tiny_sample_alpha_outside_unit_interval_exit_2(self, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.4\n0.6\n0.9\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", data, "--out", out, "--alpha", "2", *CACHE2K) == 2
        assert not out.exists()

    def test_too_small_is_a_logged_warning(self, tmp_path, caplog):
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.4\n0.6\n0.9\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", data, "--out", out, *CACHE2K) == 0
        warned = [
            r for r in caplog.records
            if r.name == "mshist" and r.levelno == logging.WARNING
        ]
        assert any("too small" in r.getMessage() for r in warned)

    def test_tiny_sample_features_certify_nothing(self, tmp_path, capsys):
        """The feature search on a sample too small for the system writes
        the features document with no features, as the fit writes one bin."""
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.3\n0.4\n0.6\n0.9\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", data, "--out", out, "--features",
                   *CACHE2K) == 0
        assert capsys.readouterr().err.count("too small") == 1
        fdoc = json.loads((tmp_path / "fit.features.json").read_text())
        assert fdoc["modes_lb"] == 0 and fdoc["troughs_lb"] == 0
        assert read_features(tmp_path / "fit.features.json") == []

    @pytest.mark.parametrize("e", [-1040, 1015])
    def test_sample_out_of_scale_exit_2(self, tmp_path, capsys, e):
        """A sample whose scale the fit cannot compute at is a data error,
        raised before any band: exit 2 and no document."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 1, 600), rng.normal(4, 0.5, 400)])
        data = tmp_path / "d.txt"
        data.write_text("\n".join(map(repr, np.ldexp(x, e).tolist())) + "\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", data, "--out", out, "--features", *CACHE) == 2
        assert capsys.readouterr().err.startswith("error: sample scale out of range")
        assert not out.exists()

    def test_tied_sample_out_of_scale_exit_2_without_a_warning(self, tmp_path, capsys):
        """The raw spread is refused before de-rounding, so stderr holds the
        one error line and no de-rounding warning."""
        data = tmp_path / "d.txt"
        data.write_text("-1.7e308\n-1.7e308\n1.7e308\n")
        assert run("fit", "--input", data, "--out", tmp_path / "fit.json", *CACHE) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sample scale out of range"), err

    def test_missing_input_exit_2(self, tmp_path):
        assert run("fit", "--input", tmp_path / "nope.txt",
                   "--out", tmp_path / "o.json", *CACHE2K) == 2


class TestEvaluate:
    def test_self_evaluation_clean(self, workdir, capsys):
        tmp, data = workdir
        out = tmp / "fit.json"
        run("fit", "--input", data, "--alpha", "0.1", "--out", out, *CACHE2K)
        rep = tmp / "audit.json"
        assert run("evaluate", "--input", data, "--hist", out, "--alpha", "0.1",
                   "--out", rep, *CACHE2K) == 0
        doc = json.loads(rep.read_text())
        assert doc["clean"] is True

    def test_single_bin_on_bimodal_dirty(self, workdir, tmp_path):
        tmp, data = workdir
        from mshist.io import read_sample, write_json, histogram_document
        from mshist.dp import HistogramModel

        s = read_sample(data)
        x = s.values
        single = HistogramModel(
            breaks=np.array([x[0], x[-1]]),
            heights=np.array([1.0 / (x[-1] - x[0])]),
            n=s.n,
        )
        hp = tmp / "single.json"
        write_json(histogram_document(single), hp)
        rep = tmp / "audit.json"
        assert run("evaluate", "--input", data, "--hist", hp, "--alpha", "0.1",
                   "--out", rep, *CACHE2K) == 0
        assert json.loads(rep.read_text())["violations"]

    def test_non_finite_histogram_exit_2(self, workdir, capsys):
        tmp, data = workdir
        hp = tmp / "nan.json"
        # json.loads parses the bare NaN token
        hp.write_text('{"type": "histogram", "breaks": [-9.0, NaN, 9.0], '
                      '"heights": [0.05, 0.05], "n": 900}')
        assert run("evaluate", "--input", data, "--hist", hp, *CACHE2K) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_histogram_document_exit_2(self, workdir, capsys):
        """A features or an audit document given as the histogram is refused
        by its type, not by the first histogram key it lacks."""
        tmp, data = workdir
        out, rep = tmp / "fit.json", tmp / "audit.json"
        assert run("fit", "--input", data, "--out", out, "--features", *CACHE2K) == 0
        assert run("evaluate", "--input", data, "--hist", out, "--out", rep, *CACHE2K) == 0
        for doc, kind in ((tmp / "fit.features.json", "features"), (rep, "audit")):
            capsys.readouterr()
            assert run("evaluate", "--input", data, "--hist", doc, *CACHE2K) == 2
            err = capsys.readouterr().err
            assert err == f"error: {doc}: expected a 'histogram' document, got type {kind!r}\n"

    @pytest.mark.parametrize(
        "cuts", [[0, 450.0, 900], [1, 450, 900], [0, 450, 899], [0, 450, 450, 900],
                 [0, 600, 450, 900], [0, True, 900], [0], [0, 900], "0,900", {"0": 900},
                 None],
    )
    def test_malformed_cut_indices_exit_2(self, workdir, capsys, cuts):
        tmp, data = workdir
        hp = tmp / "cuts.json"
        doc = {"type": "histogram", "n": 900, "breaks": [-9.0, 0.0, 9.0],
               "heights": [1 / 18, 1 / 18], "cut_indices": [0, 450, 900]}
        hp.write_text(json.dumps(doc))
        assert run("evaluate", "--input", data, "--hist", hp, *CACHE2K) == 0
        hp.write_text(json.dumps({**doc, "cut_indices": cuts}))
        capsys.readouterr()
        assert run("evaluate", "--input", data, "--hist", hp, *CACHE2K) == 2
        assert "cut_indices" in capsys.readouterr().err

    def test_commands_build_the_model_once(self, workdir, monkeypatch):
        """evaluate --hist and plot-data each build the histogram document's
        model once, in the reader that checks it."""
        from mshist import io

        tmp, data = workdir
        out = tmp / "fit.json"
        assert run("fit", "--input", data, "--out", out, *CACHE2K) == 0
        built = []
        build = io.histogram_from_document

        def counted(doc):
            built.append(doc["type"])
            return build(doc)

        monkeypatch.setattr(io, "histogram_from_document", counted)
        for argv in (["evaluate", "--input", data, "--hist", out, *CACHE2K],
                     ["plot-data", "--input", out, "--out", tmp / "fit.csv"]):
            built.clear()
            assert run(*argv) == 0
            assert built == ["histogram"], argv[0]

    def test_small_sample_gets_the_empty_report(self, tmp_path, capsys, caplog):
        """A sample too small for the system is audited against no interval:
        a warning, the empty report, and no table read or calibrated."""
        data = tmp_path / "d.txt"
        data.write_text("\n".join(str(0.1 * i) for i in range(1, 8)) + "\n")
        hp = tmp_path / "h.json"
        hp.write_text('{"type": "histogram", "breaks": [0.0, 1.0], '
                      '"heights": [1.0], "n": 7}')
        cache = tmp_path / "cache"
        cache.mkdir()
        rep = tmp_path / "audit.json"
        assert run("evaluate", "--input", data, "--hist", hp, "--out", rep,
                   "--cache-dir", cache, "--reps", "150") == 0
        assert "too small" in capsys.readouterr().err
        warned = [r for r in caplog.records if r.name == "mshist"]
        assert [r.levelno for r in warned] == [logging.WARNING]
        assert list(cache.iterdir()) == []
        doc = json.loads(rep.read_text())
        assert doc["kappa"] is None and doc["clean"] is True
        assert doc["violations"] == [] and doc["removable"] == []

    def test_evaluates_its_own_small_fit(self, tmp_path):
        """fit and evaluate agree on a five-point file: both exit 0."""
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.3\n0.4\n0.6\n0.9\n")
        out = tmp_path / "fit.json"
        rep = tmp_path / "audit.json"
        assert run("fit", "--input", data, "--out", out, *CACHE2K) == 0
        assert run("evaluate", "--input", data, "--hist", out, "--out", rep,
                   *CACHE2K) == 0
        assert json.loads(rep.read_text())["kappa"] is None


class TestTies:
    def test_rounded_ties_fit_with_one_warning(self, tmp_path, capsys):
        """Five copies of 1.0 among the integers 2-19 lie on the unit grid:
        the fit de-rounds them to 0.6, 0.8, ..., 1.4 with no flag, and says
        so once."""
        data = tmp_path / "d.txt"
        data.write_text("\n".join(["1.0"] * 5 + [str(i) for i in range(2, 20)]))
        out = tmp_path / "fit.json"
        local = ["--cache-dir", tmp_path, "--reps", "150", "--seed", "1"]
        assert run("fit", "--input", data, "--out", out, *local) == 0
        doc = json.loads(out.read_text())
        assert doc["breaks"] == [0.6, 19.0] and doc["cut_indices"] == [0, 23]
        err = capsys.readouterr().err
        assert err.count("warning: de-rounded 5 tied values of 23 ") == 1

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_repeated_record_exit_2(self, workdir, capsys, command):
        """A record repeated in unrounded data is no rounding: both commands
        reject the sample, naming the repeated value."""
        tmp, data = workdir
        x = np.loadtxt(data)
        x[1:4] = x[0]
        data.write_text("\n".join(map(repr, x.tolist())) + "\n")
        hist = tmp / "one_bin.json"
        hist.write_text(json.dumps({"type": "histogram", "n": 900,
                                    "breaks": [x.min(), x.max()],
                                    "heights": [1.0 / (x.max() - x.min())]}))
        args = {"fit": ["--out", tmp / "fit.json"], "evaluate": ["--hist", hist]}
        assert run(command, "--input", data, *args[command], *CACHE2K) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repeated values ")
        assert f"{float(x[0])!r} (4 times)" in err
        assert not (tmp / "fit.json").exists()

    @pytest.mark.parametrize(
        "argv, options",
        [(["fit", "--input", "d", "--out", "o"],
          {"input", "alpha", "out", "features"}),
         (["evaluate", "--input", "d", "--hist", "h"],
          {"input", "hist", "alpha", "out"})],
        ids=["fit", "evaluate"],
    )
    def test_no_tie_option(self, argv, options):
        """Ties are decided from the data, so neither command has an option
        for them; an option they do not have is a usage error."""
        args = _build_parser().parse_args(argv)
        common = {"command", "func", "seed", "cache_dir", "reps"}
        assert set(vars(args)) == options | common
        assert run(*argv, "--no-such-option") == 1


class TestSimulateAndPlot:
    def test_benchmark_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("simulate", "--density", "uniform", "--n", "100",
                   "--bench-reps", "2", "--methods", "essential,sturges",
                   "--alpha", "0.1", "--out", out, *CACHE2K) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("density,method,alpha,n,rep")
        assert len(lines) == 1 + 4

    def test_tiny_sample_essential_rows_are_single_bin(self, tmp_path, capsys):
        """At n < 9 the essential rows are one-bin fits, as ``fit`` gives,
        with one warning and no table read or calibrated."""
        out = tmp_path / "bench.csv"
        assert run("simulate", "--density", "claw", "--n", "8", "--bench-reps", "3",
                   "--methods", "essential", "--alpha", "0.1,0.5", "--out", out,
                   "--cache-dir", tmp_path / "cache") == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        assert {(r["method"], r["n_bins"]) for r in rows} == {("essential", "1")}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: n=8 is too small"), err
        assert not (tmp_path / "cache").exists()

    def test_plot_data_roundtrip(self, workdir):
        tmp, data = workdir
        out = tmp / "fit.json"
        run("fit", "--input", data, "--alpha", "0.1", "--out", out,
            "--features", *CACHE2K)
        assert run("plot-data", "--input", out, "--out", tmp / "fit.csv") == 0
        steps = (tmp / "fit.csv").read_text().strip().splitlines()
        assert len(steps) == 1 + 2 * read_histogram(out).nbins
        assert run("plot-data", "--input", tmp / "fit.features.json",
                   "--out", tmp / "f.csv") == 0
        feats = read_features(tmp / "fit.features.json")
        rows = (tmp / "f.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == len(feats)


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["mshist", "mshist.cli"])
    def test_module_exits_with_the_code_of_main(self, module, monkeypatch, capsys):
        """``python -m mshist`` and ``python -m mshist.cli`` run ``main`` on
        the command line and exit with its code."""
        # a fresh copy runs as __main__, so runpy finds no imported one to warn
        # of; the package's attribute and sys.modules get this one back after
        monkeypatch.delitem(sys.modules, "mshist.cli")
        monkeypatch.setattr(mshist, "cli", cli)
        monkeypatch.setattr(sys, "argv", [module, "quantile", "--n", "500", *CACHE])
        with pytest.raises(SystemExit) as exit:
            runpy.run_module(module, run_name="__main__")
        assert exit.value.code == 0
        assert capsys.readouterr().out.count("kappa=") == 8


class TestExitCodes:
    def test_usage_error(self):
        assert run("fit") == 1  # missing required flags
        assert run("frobnicate") == 1

    def test_bad_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("plot-data", "--input", bad, "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize("command", ["plot-data", "evaluate"])
    @pytest.mark.parametrize(
        "text, message",
        [("[1, 2]", "expected a JSON object whose 'type' is one of "
                    "['histogram', 'features', 'audit']"),
         ('{"type": "features"}', "a features document needs the key 'features'"),
         ('{"type": "histogram", "n": 9}', "a histogram document needs the key 'breaks'"),
         ("{bad", "Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
         ('{"type": "audit", "violations": 5, "removable": []}',
          "'violations' must be a list of objects with the keys ('left', 'right')"),
         ('{"type": "features", "features": '
          '[{"left": 0, "right": 1, "direction": "increase"}]}',
          "'features' must be a list of objects with the keys "
          "('left', 'right', 'direction', 'margin')"),
         ('{"type": "histogram", "n": null, "breaks": [0, 1], "heights": [1]}',
          "n must be an integer, got None"),
         ('{"type": "histogram", "n": 9.5, "breaks": [0, 1], "heights": [1]}',
          "n must be an integer, got 9.5"),
         ('{"type": "histogram", "n": true, "breaks": [0, 1], "heights": [1]}',
          "n must be an integer, got True"),
         ('{"type": "histogram", "n": 9, "breaks": {"a": 1}, "heights": [1]}',
          "breaks must be an array of numbers"),
         ('{"type": "histogram", "n": 2, "breaks": [0, 1, 2], "heights": [0.5, 0.5], '
          '"counts": [1.9, 0.1]}', "counts must match bins and be nonnegative integers"),
         ('{"type": "histogram", "n": 2, "breaks": [0, 1, 2], "heights": [0.5, 0.5], '
          '"counts": [3, -1]}', "counts must match bins and be nonnegative integers")],
        ids=["list", "features-without-rows", "histogram-without-breaks", "not-json",
             "violations-not-rows", "row-without-margin", "null-n", "fractional-n",
             "boolean-n", "breaks-not-numbers", "fractional-counts", "negative-counts"],
    )
    def test_document_not_an_object_of_a_known_type_exit_2(
        self, workdir, capsys, command, text, message
    ):
        """A document is read as JSON, an object with a known type, that
        type's keys and rows, and a histogram's fields as its model takes
        them, or refused as one data error naming the file, before any
        output is written."""
        tmp, data = workdir
        doc, out = tmp / "doc.json", tmp / "o.csv"
        doc.write_text(text)
        if command == "plot-data":
            argv = ["plot-data", "--input", doc, "--out", out]
        else:
            argv = ["evaluate", "--input", data, "--hist", doc, "--out", out, *CACHE2K]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {doc}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: json.dumps({**d, "kappas": d["kappas"][:2] + [math.nan] + d["kappas"][3:]}),
          "kappas must be finite"),
         (lambda d: json.dumps({**d, "kappas": d["kappas"][:7] + [-math.inf]}),
          "kappas must be finite"),
         (lambda d: json.dumps({**d, "kappas": [math.inf] + d["kappas"][1:]}),
          "kappas must be finite"),
         (lambda d: "[1, 2]", "a table is a JSON object, got list"),
         (lambda d: json.dumps({k: v for k, v in d.items() if k != "kappas"}),
          "a table needs the keys ['kappas']"),
         (lambda d: "{bad", "Expecting property name enclosed in double quotes"),
         (lambda d: json.dumps({**d, "n": 1000.9}), "n must be an integer, got 1000.9")],
        ids=["nan-at-0.1", "-inf-at-0.9", "inf-at-0.01", "list", "no-kappas", "not-json",
             "fractional-n"],
    )
    def test_corrupt_table_exit_2(self, tmp_path, capsys, edit, message):
        """A corrupt copy of the committed n = 1000 table in the cache is one
        data error naming its file, and the fit writes no document."""
        committed = mshist.table_path(1000, 5000, 20250823, TABLES_DIR)
        path = mshist.table_path(1000, 5000, 20250823, tmp_path)
        path.write_text(edit(json.loads(committed.read_text())))
        data, out = tmp_path / "claw.txt", tmp_path / "fit.json"
        np.savetxt(data, get_density("claw").sampler(0, 1000).values)
        argv = ["fit", "--input", data, "--out", out, "--cache-dir", tmp_path,
                "--reps", "5000", "--seed", "20250823"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [({"reps": 123, "seed": 7}, "holds the table for n=500, reps=123, seed=7, not n=500, "),
         ({"n": 1000}, "holds the table for n=1000, reps=5000, seed=20250823, not n=500, "),
         ({"version": True}, "table format version True, expected 1")],
        ids=["reps-and-seed", "n", "boolean-version"],
    )
    def test_table_of_another_key_exit_2(self, tmp_path, capsys, edit, message):
        """A cached file holding another table than its name keys is one data
        error naming the file, and the fit writes no document."""
        committed = mshist.table_path(500, 5000, 20250823, TABLES_DIR)
        path = mshist.table_path(500, 5000, 20250823, tmp_path)
        path.write_text(json.dumps({**json.loads(committed.read_text()), **edit}))
        data, out = tmp_path / "harp.txt", tmp_path / "fit.json"
        np.savetxt(data, get_density("harp").sampler(0, 500).values)
        argv = ["fit", "--input", data, "--out", out, "--cache-dir", tmp_path,
                "--reps", "5000", "--seed", "20250823"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
        assert not out.exists()

    def test_numeric_failure_exit_3(self, workdir, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("no convergence")

        tmp, data = workdir
        monkeypatch.setattr(cli, "essential_histogram", fail)
        assert run("fit", "--input", data, "--out", tmp / "fit.json", *CACHE2K) == 3
        assert capsys.readouterr().err == "error: numeric failure: no convergence\n"
