"""Workload definitions, inputs, operations and reference checks.

Everything the benchmark calls in ``mshist`` goes through this module, so the
spans that time each ``src/mshist`` module are recorded here, around the
public calls, and nowhere inside the program.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFS = BENCH / "refs"

ALPHA = 0.1
TABLE_REPS = 5000
TABLE_SEED = 20250823
#: every table the benchmark reads; the n = 10000 one is the capped table that
#: every n >= 1e4 needs and is kept with the benchmark (see record_refs.py)
TABLES = {
    1000: ROOT / "tables" / "kappa_v1_n1000_reps5000_seed20250823.json",
    3000: ROOT / "tables" / "kappa_v1_n3000_reps5000_seed20250823.json",
    10000: BENCH / "tables" / "kappa_v1_n10000_reps5000_seed20250823.json",
}
#: margins and calibration statistics are float64 results of a few log/sqrt
#: steps per interval followed by a max or a difference; reordering that
#: arithmetic moves them by ~1e-13 relative, so 1e-9 leaves four orders of
#: margin while any change of definition still shows
REL_TOL = 1e-9
ABS_TOL = 1e-12
CLASSICAL_RULES = ("sturges", "scott_width", "scott_area")
#: replications per call in the batched calibration operation
CALIB_BLOCK = 16

_MIXTURES = {
    "claw": ([0.5] + [0.1] * 5, [0.0, -1.0, -0.5, 0.0, 0.5, 1.0], [1.0] + [0.1] * 5),
    "harp": ([0.2] * 5, [0.0, 5.0, 15.0, 30.0, 60.0], [0.5, 1.0, 2.0, 4.0, 8.0]),
}
_FAMILY_CODE = {"uniform": 1, "claw": 2, "harp": 3}
_CALIB_SEED_BASE = 7_000_000


class SetupError(RuntimeError):
    """The benchmark cannot run here: missing program, table or reference."""


@dataclass(frozen=True)
class Spec:
    """One workload: what its operations are and which inputs feed them.

    ``pattern`` is the repeating operation sequence of the closed loop, as
    (kind, what) pairs: kind "a" or "b" names the metrics the operation
    feeds; what is a family to fit, "analysis" or "cli" (one per family, a
    claw/harp pair), or "single"/"block" (one or CALIB_BLOCK replications).
    ``pools`` gives, per what, how many pool inputs it walks through; with
    ``cover`` an untraced run ends only after each pool was walked once.
    """

    name: str
    n: int
    families: tuple[str, ...]
    pattern: tuple[tuple[str, str], ...]
    pools: dict
    cover: bool
    table_n: int | None

    @property
    def items(self) -> int:
        """Recorded pool inputs per family."""
        return max(self.pools.values())


def _specs(n_fit: int, n_analyze: int, n_calib: int, pools) -> dict[str, Spec]:
    fit, analysis, cli, calib = pools
    return {
        "fit-30k": Spec("fit-30k", n_fit, ("uniform", "claw"),
                        (("a", "uniform"), ("b", "claw")),
                        {"uniform": fit, "claw": fit}, True, min(n_fit, 10000)),
        "analyze-3k": Spec("analyze-3k", n_analyze, ("claw", "harp"),
                           (("a", "analysis"), ("a", "analysis"), ("b", "cli")),
                           {"analysis": analysis, "cli": cli}, True, n_analyze),
        "calibrate-10k": Spec("calibrate-10k", n_calib, ("uniform",),
                              (("a", "single"), ("b", "block")),
                              {"single": calib, "block": calib}, False, None),
    }


FULL = _specs(30000, 3000, 10000, (2, 4, 2, 256))
#: the same workloads at n = 1000 with the committed table, for a quick check
SMOKE = _specs(1000, 1000, 1000, (2, 2, 1, 8))


def specs(smoke: bool) -> dict[str, Spec]:
    return SMOKE if smoke else FULL


def ref_path(spec: Spec) -> Path:
    return REFS / f"{spec.name}-n{spec.n}.json"


# ---------------------------------------------------------------------------
# inputs


def draw(family: str, n: int, index: int) -> np.ndarray:
    """Pool sample ``index`` of a family; depends on numpy's Philox only."""
    ss = np.random.SeedSequence([_FAMILY_CODE[family], n, index])
    rng = np.random.Generator(np.random.Philox(ss))
    if family == "uniform":
        return rng.random(n)
    w, mu, sd = (np.asarray(v) for v in _MIXTURES[family])
    comp = rng.choice(w.size, size=n, p=w)
    return rng.normal(mu[comp], sd[comp])


def fingerprint(values: np.ndarray) -> str:
    return hashlib.sha256(np.sort(values).tobytes()).hexdigest()[:16]


def calib_seed(index: int) -> int:
    return _CALIB_SEED_BASE + index


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory until the run ends.

    A span records its name, start and end, the span that was open when it
    began, the operation id shared by all spans of one operation, the phase
    (the workload's own loop, or the sweep over layers the loop bypasses)
    and counts taken at the same boundary.  Probe spans time calls that the
    untraced operation does not make; the outermost ones are the time an
    operation spends probing (see ``probe_seconds``).
    """

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None  # id shared by the spans of one operation
        self.phase = "loop"

    @contextlib.contextmanager
    def span(self, name: str, *, probe: bool = False):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "phase": self.phase,
            "parent": self._open[-1] if self._open else None,
            "probe": probe,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def probe_seconds(self, op) -> float:
        """Time operation ``op`` spent in probe spans not nested in another."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["op"] == op and s["probe"]
            and (s["parent"] is None or not self.spans[s["parent"]]["probe"])
        )


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext({})

    def span(self, name: str, *, probe: bool = False):
        return self._null


# ---------------------------------------------------------------------------
# operations


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _feature_rows(features) -> list:
    return [[f.hull[0], f.hull[1], f.direction, f.margin] for f in features]


def _features_match(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        g[:3] == w[:3] and _close(g[3], w[3]) for g, w in zip(got, want)
    )


class Runner:
    """Loaded program, tables and references for one workload, plus the
    operations its closed loop and its traced sweep call."""

    def __init__(self, spec: Spec, smoke: bool, workdir: Path):
        if not (SRC / "mshist" / "__init__.py").is_file():
            raise SetupError(f"program source not found at {SRC / 'mshist'}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import mshist  # noqa: F401  (fails here, not mid-run, if broken)

        self.mshist = mshist
        self.spec = spec
        self.specs = specs(smoke)
        self.workdir = workdir
        self._refs = {}
        self._tables = {}
        self.refs(spec)
        if spec.table_n is not None:
            self.table(spec.table_n)

    # -- helpers ------------------------------------------------------------

    def refs(self, spec: Spec) -> dict:
        if spec.name not in self._refs:
            self._refs[spec.name] = load_refs(spec)
        return self._refs[spec.name]

    def table(self, n: int):
        if n not in self._tables:
            self._tables[n] = load_table(n)
        return self._tables[n]

    def item(self, spec: Spec, family: str, index: int):
        """Sorted sample and reference of a pool item; the input must match
        the fingerprint the reference was recorded on."""
        x = draw(family, spec.n, index)
        ref = self.refs(spec)["items"][family][index]
        if fingerprint(x) != ref["fingerprint"]:
            raise SetupError(
                f"{spec.name} {family}[{index}] input differs from the recorded "
                "one; the references no longer apply"
            )
        return self.mshist.SortedSample(x), ref

    def warm(self, n: int) -> None:
        """Build the interval system for n, as the set-up does."""
        from mshist.intervals import interval_arrays

        interval_arrays(n)

    def _probe_layers(self, tr, sample, table) -> None:
        """Cold interval build and the band roots, timed apart (traced only)."""
        from mshist.bounds import mass_roots_batch
        from mshist.intervals import interval_arrays

        n = sample.n
        with tr.span("probe", probe=True):
            clear = getattr(interval_arrays, "cache_clear", None)
            if clear is not None:
                clear()
            with tr.span("intervals.build", probe=True) as c:
                j, k, _ = interval_arrays(n)
                c["size"] = int(j.size)
            masses, inverse = np.unique(k - j, return_inverse=True)
            kappa = self.mshist.lookup_kappa(table, ALPHA, n)
            with tr.span("bounds.roots", probe=True) as c:
                lo, _ = mass_roots_batch(masses / n, kappa, n)
            c["unique_masses"] = int(masses.size)
            c["empty_bands"] = int(np.isnan(lo)[inverse].sum())

    # -- fit ----------------------------------------------------------------

    def fit(self, tr, family: str, index: int) -> tuple[bool, float]:
        sample, ref = self.item(self.spec, family, index)
        table = self.table(self.spec.table_n)
        t0 = time.perf_counter()
        with tr.span("op.fit"):
            if tr.enabled:
                self._probe_layers(tr, sample, table)
            with tr.span("dp.fit") as c:
                fit = self.mshist.essential_histogram(sample, ALPHA, table)
        elapsed = time.perf_counter() - t0
        c["blocks"] = len(fit.cut_indices) - 1
        c["bins"] = fit.nbins
        return list(fit.cut_indices) == ref["cuts"], elapsed

    # -- analysis -----------------------------------------------------------

    def analysis(
        self, tr, family: str, index: int, spec: Spec | None = None
    ) -> tuple[bool, float]:
        m = self.mshist
        from mshist import io as mio
        from mshist.evaluate import MERGE_WINDOW

        spec = spec or self.spec
        sample, ref = self.item(spec, family, index)
        table = self.table(spec.table_n)
        out = self.workdir / "analysis"
        out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        with tr.span("op.analysis"):
            if tr.enabled:
                self._probe_layers(tr, sample, table)
            with tr.span("dp.fit") as cf:
                fit = m.essential_histogram(sample, ALPHA, table)
            with tr.span("inference.features") as ci:
                feats = m.significant_feature_intervals(sample, ALPHA, table)
            with tr.span("inference.modes"):
                bounds = m.lower_bound_modes(feats)
            with tr.span("densities.classical"):
                estimators = [fit] + [
                    m.classical_histogram(sample, r) for r in CLASSICAL_RULES
                ]
            reports = []
            for est in estimators:
                with tr.span("evaluate.audit") as ce:
                    reports.append(m.audit(sample, est, ALPHA, table))
                if tr.enabled:
                    # the two halves of audit(), timed apart
                    with tr.span("probe", probe=True):
                        with tr.span("evaluate.violations", probe=True):
                            m.violation_intervals(sample, est, ALPHA, table)
                        with tr.span("evaluate.removable", probe=True):
                            m.removable_changepoints(sample, est, ALPHA, table)
                    nb = est.nbins
                    ce["merge_checks"] = sum(
                        min(first + MERGE_WINDOW, nb) - first - 1 for first in range(nb)
                    )
                    ce["removable"] = len(reports[-1].removable)
                    ce["interior"] = nb - 1
            docs = (
                ("fit", mio.histogram_document(fit, ALPHA)),
                ("features", mio.feature_document(feats, ALPHA, bounds)),
                ("audit", mio.audit_document(reports[0], sample)),
            )
            for name, doc in docs:
                with tr.span("io.write_json"):
                    mio.write_json(doc, out / f"{name}.json")
        elapsed = time.perf_counter() - t0
        cf["blocks"] = len(fit.cut_indices) - 1
        cf["bins"] = fit.nbins
        ci["features"] = len(feats)
        ci["modes_lb"], ci["troughs_lb"] = bounds
        audits = [[len(r.violations), len(r.removable)] for r in reports]
        ok = (
            list(fit.cut_indices) == ref["cuts"]
            and _features_match(_feature_rows(feats), ref["features"])
            and list(bounds) == [ref["modes_lb"], ref["troughs_lb"]]
            and audits == ref["audits"]
        )
        return ok, elapsed

    # -- command line -------------------------------------------------------

    def cli(
        self, tr, family: str, index: int, spec: Spec | None = None
    ) -> tuple[bool, float]:
        """``python -m mshist fit --features`` on a sample file, in a fresh
        interpreter; traced runs also call ``cli.main`` in process."""
        from mshist import cli as mcli
        from mshist import io as mio

        spec = spec or self.spec
        sample, ref = self.item(spec, family, index)
        cache, table_file = self.cli_cache(spec.table_n)
        data = self.workdir / f"{family}-{index}.txt"
        data.write_text("\n".join(repr(float(v)) for v in sample.values) + "\n")

        def args(out: Path) -> list[str]:
            return ["fit", "--input", str(data), "--out", str(out), "--features",
                    "--alpha", repr(ALPHA), "--cache-dir", str(cache),
                    "--reps", str(TABLE_REPS), "--seed", str(TABLE_SEED)]

        out, out_main = self.workdir / "cli.json", self.workdir / "cli-main.json"
        code = 0
        t0 = time.perf_counter()
        with tr.span("op.cli"):
            with tr.span("cli.subprocess"):
                proc = subprocess.run(
                    [sys.executable, "-m", "mshist", *args(out)],
                    env=subprocess_env(), capture_output=True, text=True, timeout=150,
                )
            if tr.enabled:
                with tr.span("probe", probe=True):
                    with tr.span("io.read_sample", probe=True):
                        mio.read_sample(data)
                    with tr.span("cli.main", probe=True):
                        with contextlib.redirect_stdout(_stdio.StringIO()):
                            code = mcli.main(args(out_main))
        elapsed = time.perf_counter() - t0
        ok = (
            proc.returncode == 0 and self._cli_outputs_match(out, ref)
            and (not tr.enabled or code == 0 and self._cli_outputs_match(out_main, ref))
            # a CLI that calibrates says so, and writes a new table or
            # rewrites the pinned one
            and "simulating now" not in proc.stderr
            and sorted(p.name for p in cache.iterdir()) == [table_file]
            and sha256_file(cache / table_file) == load_pins()[table_file]
        )
        return ok, elapsed

    def cli_cache(self, n: int) -> tuple[Path, str]:
        """Private copy of the pinned table in the layout the CLI looks up."""
        src = TABLES[n]
        cache = self.workdir / f"cli-cache-{n}"
        if not cache.is_dir():
            cache.mkdir()
            shutil.copyfile(src, cache / src.name)
        return cache, src.name

    @staticmethod
    def _cli_outputs_match(out: Path, ref: dict) -> bool:
        fout = out.with_name(out.stem + ".features" + out.suffix)
        try:
            fit = json.loads(out.read_text())
            feats = json.loads(fout.read_text())
        except (OSError, ValueError):
            return False
        rows = [[f["left"], f["right"], f["direction"], f["margin"]]
                for f in feats["features"]]
        return (
            fit["breaks"] == ref["breaks"]
            and fit["counts"] == ref["counts"]
            and _features_match(rows, ref["features"])
            and [feats["modes_lb"], feats["troughs_lb"]]
            == [ref["modes_lb"], ref["troughs_lb"]]
        )

    # -- calibration --------------------------------------------------------

    def calibrate(
        self, tr, index: int, reps: int, spec: Spec | None = None
    ) -> tuple[bool, float]:
        spec = spec or self.spec
        n = spec.n
        want = self.refs(spec)["stats"][index][:reps]
        t0 = time.perf_counter()
        with tr.span("op.calibrate"):
            with tr.span("multiscale.simulate") as c:
                got = self.mshist.simulate_statistics(n, reps, calib_seed(index))
            c["reps"] = reps
            if tr.enabled:
                with tr.span("probe", probe=True):
                    # the per-replication core without the RNG and the sort
                    rng = np.random.default_rng(index)
                    u = self.mshist.SortedSample(rng.random(n))
                    with tr.span("multiscale.statistic", probe=True):
                        self.mshist.multiscale_statistic(u, cdf=_identity)
        elapsed = time.perf_counter() - t0
        ok = len(got) == reps and all(_close(g, w) for g, w in zip(got, want))
        return ok, elapsed


def _identity(v):
    return v


# ---------------------------------------------------------------------------
# pinned files


def load_pins() -> dict:
    path = REFS / "tables.json"
    if not path.is_file():
        raise SetupError(f"missing table pins {path}")
    return json.loads(path.read_text())


def load_table(n: int):
    """The pinned table for n, loaded with ``mshist.load_table``; a missing or
    altered table is a set-up error, never a reason to calibrate."""
    import mshist

    path = TABLES[n]
    if not path.is_file():
        raise SetupError(f"missing pinned table {path}")
    want = load_pins().get(path.name)
    if sha256_file(path) != want:
        raise SetupError(f"table {path} differs from its pinned sha256")
    return mshist.load_table(path)


def load_refs(spec: Spec) -> dict:
    path = ref_path(spec)
    if not path.is_file():
        raise SetupError(f"missing references {path}")
    return json.loads(path.read_text())
