"""Package structure: modules reach each other only through public names,
the reference implementations stay out of the public API, the demos and the
README examples call only what the public API and the CLI take, and
importing the package stays light."""
import ast
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mshist
from mshist import cli

SRC = Path(mshist.__file__).resolve().parent
MODULES = {p.stem for p in SRC.glob("*.py")}
REFERENCE = Path(__file__).resolve().parent / "reference.py"
DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = Path(__file__).resolve().parent.parent / "README.md"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Leading-underscore names of other mshist modules that ``source``
    imports or reads as module attributes."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if not (node.level or mod == "mshist" or mod.startswith("mshist.")):
                continue
            for a in node.names:
                if mod in ("", "mshist") and a.name in MODULES:
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    found.append(f"{mod}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("mshist."):
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if ast.unparse(node.value) in aliases:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_checker_flags_private_access():
    assert private_uses("from .dp import _single_bin") == ["dp._single_bin"]
    assert private_uses("from . import multiscale\nmultiscale._cache_path(1)") == [
        "multiscale._cache_path"
    ]
    assert private_uses("import mshist.dp as d\nd._backtrack") == ["d._backtrack"]
    assert private_uses("from .dp import HistogramModel\nimport os\nos._exit") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_names(path):
    assert private_uses(path.read_text()) == []


def test_reference_names_not_exported():
    tree = ast.parse(REFERENCE.read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "brute_force_histogram" in defined
    assert defined.isdisjoint(mshist.__all__)


def unknown_keywords(source: str) -> list[str]:
    """Calls ``mshist.<name>(...)`` in ``source`` that name a missing public
    callable or pass a keyword its signature does not take."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if not (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "mshist"
        ):
            continue
        target = getattr(mshist, func.attr, None)
        if target is None:
            found.append(f"mshist.{func.attr}")
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        found += [
            f"{func.attr}({kw.arg}=)"
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in params
        ]
    return found


def test_checker_flags_unknown_keywords():
    bad = "import mshist\nmshist.simulate_statistics(9, 100, distribution='x')"
    assert unknown_keywords(bad) == ["simulate_statistics(distribution=)"]
    assert unknown_keywords("mshist.no_such_function(1)") == ["mshist.no_such_function"]
    good = "mshist.simulate_quantiles(9, reps=100, seed=1)\nnp.sort(x, kind='stable')"
    assert unknown_keywords(good) == []


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demos_call_the_public_api(path):
    assert unknown_keywords(path.read_text()) == []


def readme_blocks(lang: str) -> list[str]:
    """Bodies of the README's fenced code blocks in ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def mshist_commands(script: str) -> list[list[str]]:
    """Argument lists of the ``mshist ...`` lines of a shell script, with
    backslash continuations joined and ``#`` comments stripped."""
    lines = script.replace("\\\n", " ").splitlines()
    words = (shlex.split(line, comments=True) for line in lines)
    return [w[1:] for w in words if w[:1] == ["mshist"]]


def rejected_commands(script: str) -> list[str]:
    """``mshist ...`` lines of a shell script that the CLI parser rejects;
    nothing is run."""
    parser = cli._build_parser()
    bad = []
    for argv in mshist_commands(script):
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    return bad


def test_checker_flags_rejected_commands():
    script = (
        "mshist fit --input a --out b --pruned\n"
        "mshist fit --input a \\\n    --out b   # a comment\n"
        "pip install -e .\n"
    )
    assert mshist_commands(script)[1] == ["fit", "--input", "a", "--out", "b"]
    assert rejected_commands(script) == ["fit --input a --out b --pruned"]


def test_readme_python_calls_the_public_api():
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        assert unknown_keywords(block) == []


def test_readme_commands_parse():
    blocks = readme_blocks("bash")
    assert sum(len(mshist_commands(b)) for b in blocks) >= 5
    for block in blocks:
        assert rejected_commands(block) == []


def test_import_leaves_out_scipy_stats_and_optimize():
    """Nor scipy.special, nor logging: the modules that need them import
    them where they are used."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, mshist; "
        "print(sorted({'scipy.stats', 'scipy.optimize', 'scipy.special', "
        "'logging'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_only_a_gaussian_mixture_cdf_loads_scipy_special():
    """Building the catalogue, drawing from every density and the cdf of
    each density that is not a Gaussian mixture leave ``scipy.special``
    out; a Gaussian mixture's cdf brings it in."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, mshist; ds = mshist.catalog(); "
        "[d.sampler(0, 50) for d in ds]; "
        "rest = [d for d in ds if d.name not in ('claw', 'harp', 'bimodal')]; "
        "[d.cdf(0.5) for d in rest]; "
        "print(len(rest), 'scipy.special' in sys.modules); "
        "mshist.get_density('harp').cdf(0.5); "
        "print('scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["5", "False", "True"]


def test_fit_from_a_file_leaves_out_numpy_ma(tmp_path):
    """``numpy.ma`` costs about 10 ms to import; ``np.unique`` without
    optional outputs imports it, so the fit, the feature search and the
    Sturges and Scott-width histograms keep clear of that call.  The claw
    sample misses n in the first round, so the fit also takes the bands of
    every (t, n]."""
    data = tmp_path / "claw.txt"
    sample = mshist.get_density("claw").sampler(0, 1000)
    data.write_text("\n".join(repr(float(v)) for v in sample.values))
    table = Path(__file__).resolve().parent.parent / "tables"
    table = table / "kappa_v1_n1000_reps5000_seed20250823.json"
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = (
        "import sys, mshist; from mshist.io import read_sample; "
        f"s = read_sample({str(data)!r}); t = mshist.load_table({str(table)!r}); "
        "fit = mshist.essential_histogram(s, 0.1, t); "
        "mshist.significant_feature_intervals(s, 0.1, t); "
        "[mshist.classical_histogram(s, r) for r in ('sturges', 'scott_width')]; "
        "print(fit.nbins > 1, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False"]
