"""The four benchmark workloads: inputs from a seed, the call, its checks.

Every workload is a closed loop with one caller.  Its first item is a
pinned reference input whose summary values are compared with
``reference.json`` (recorded from the unoptimised code); the items after it
are generated from the benchmark seed, and the library sees only those
generated inputs.  Each item's output is checked for internal consistency,
and the reference item's artifact must come out byte-identical when it is
produced again.

The coherlss import path must be set up before this module is imported.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys

import numpy as np

from coherlss import experiments, lss
from coherlss.signal import ModelSpec

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
CHILD = HERE / "child.py"

REFERENCE_SEED = 20200717
REFERENCE_NU = 0.1234567891  # off the N=2048 Fourier grid

DESK = {"N": 2048, "B": 256, "M": 128, "theta": 0.4}
HISTOGRAM = {"N": 1063, "B": 200, "M": 100, "theta": 0.4, "grid_stride": 9, "f": "log"}
HISTOGRAM_THREADS = 2
HISTOGRAM_REPLICATES = 2  # one per worker thread

# Reference comparison: ulp-level movement (ROADMAP item 2 reports 1e-15
# relative drift) passes with a wide margin; Monte Carlo spread between
# seeds is tens of percent, so any real change in the numbers fails.
REL_TOL = 1e-8
ABS_TOL = 1e-12
# finite sums, so a result may differ from the sum of its parts in the last bits
IDENTITY_TOL = 1e-12


def item_seeds(seed: int):
    """Endless stream of replicate seeds generated from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def seed_for_frequencies(seed: int) -> int:
    """Seed of the off-grid frequency stream, distinct from the panel's."""
    return seed + 0x9E3779B97F4A7C15


def _off_grid(nu: float, n: int) -> bool:
    pos = nu * n
    return abs(pos - round(pos)) > 1e-3


def compare(reference: dict, got: dict, abs_tols: dict | None = None) -> list[str]:
    """Problems found comparing summary values with their reference."""
    abs_tols = abs_tols or {}
    problems = []
    if set(reference) != set(got):
        problems.append(f"summary keys differ: missing {sorted(set(reference) - set(got))}, "
                        f"extra {sorted(set(got) - set(reference))}")
    for key in sorted(set(reference) & set(got)):
        ref, val = reference[key], got[key]
        if isinstance(ref, float):
            tol = abs_tols.get(key, ABS_TOL) + REL_TOL * abs(ref)
            if not (isinstance(val, (int, float)) and abs(val - ref) <= tol):
                problems.append(f"{key} = {val!r}, reference {ref!r} (tolerance {tol:.1e})")
        elif val != ref:
            problems.append(f"{key} = {val!r}, reference {ref!r}")
    return problems


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= IDENTITY_TOL * (1.0 + np.abs(b))))


class Workload:
    """One workload.  ``call`` is timed; everything else is not."""

    name = ""
    item_unit = ""       # what items_per_s counts
    items_per_call = 1
    threads = 1          # worker threads the library is asked to use
    setup_f = "square_centered"
    setup_c = DESK["M"] / (DESK["B"] + 1)
    abs_tols: dict = {}

    def __init__(self, work_dir: pathlib.Path, seed: int):
        self.work_dir = pathlib.Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.tracing = False
        self.child_sums: list[dict] = []

    def warm(self) -> None:
        """Lazy set-up a caller pays once per process (phi and MP integrals)."""
        lss.phi_value(self.setup_c, self.setup_f)
        lss.mp_integral_value(self.setup_c, self.setup_f)

    def inputs(self):
        """The reference input, then inputs generated from the seed."""
        yield REFERENCE_SEED
        yield from item_seeds(self.seed)

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Consistency problems of one output; empty when it is correct."""
        raise NotImplementedError

    def summarize(self, out) -> dict:
        """Values compared with the reference, for the reference input."""
        raise NotImplementedError

    def artifact(self, out) -> bytes:
        """Bytes that must repeat exactly for a repeated input."""
        raise NotImplementedError

    def reference(self) -> dict:
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[self.name]

    def reference_problems(self, out) -> list[str]:
        """Problems of the reference input's output against reference.json."""
        return compare(self.reference(), self.summarize(out), self.abs_tols)


class DeskSweep(Workload):
    name = "desk_sweep"
    item_unit = "replicates"
    abs_tols = {"fraction_improved": 1.5 / 512, "fraction_improved_pooled": 1.5 / 512}
    ROWS = (0, 64, 200, 511)  # grid points whose psi is pinned

    def call(self, seed):
        cfg = experiments.ExperimentConfig(**DESK, replicates=1, seed=seed, threads=1)
        result = experiments.frequency_sweep(cfg)
        paths = experiments.write_sweep_outputs(result, self.work_dir / "sweep")
        return result, paths

    def check(self, seed, out):
        result, (csv_path, json_path) = out
        s = result.summary
        problems = []
        if len(result.records) != 1 or len(result.records[0].rows) != 512:
            return ["expected one replicate of 512 grid rows"]
        if result.config["seed"] != seed:
            problems.append("config echo has the wrong seed")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        if body[0] != ",".join(experiments.SWEEP_HEADER) or len(body) != 1 + 2 * 512:
            return problems + ["sweep.csv has the wrong header or row count"]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in body[1:513]])
        nu, raw, vn, r_or, r_pl, phi, psi, psi_hat = rows[:, :8].T
        if not _finite(rows):
            problems.append("non-finite value in sweep.csv")
        if not _close(psi, raw - r_or * phi * vn) or not _close(psi_hat, raw - r_pl * phi * vn):
            problems.append("psi != raw - r * phi * v_N in sweep.csv")
        if np.any(r_or < 0) or np.any(r_pl < 0):
            problems.append("negative r term")
        if not np.array_equal(nu, np.arange(0, 2048, 4) / 2048):
            problems.append("wrong frequency grid")
        for key, col in (("median_sup_raw", raw), ("median_sup_psi", psi),
                         ("median_sup_psi_hat", psi_hat)):
            if not _close(s[key], np.max(np.abs(col))):
                problems.append(f"{key} does not match sweep.csv")
        if not 0.0 <= s["fraction_improved"] <= 1.0:
            problems.append("fraction_improved outside [0, 1]")
        on_disk = json.loads(json_path.read_text(encoding="utf-8"))["summary"]
        if on_disk != json.loads(json.dumps(s)):
            problems.append("sweep_summary.json does not match the returned summary")
        return problems

    def summarize(self, out):
        result, _ = out
        s = result.summary
        got = {key: s[key] for key in ("fraction_improved", "fraction_improved_pooled",
                                       "median_sup_raw", "median_sup_psi",
                                       "median_sup_psi_hat", "floored_total")}
        rows = result.records[0].rows
        for k in self.ROWS:
            got[f"row{k}.lss_raw"] = rows[k][1]
            got[f"row{k}.psi"] = rows[k][6]
            got[f"row{k}.psi_hat"] = rows[k][7]
        return got

    def artifact(self, out):
        _, paths = out
        return b"".join(p.read_bytes() for p in paths)


class HistogramLogMt(Workload):
    name = "histogram_log_mt"
    item_unit = "replicates"
    items_per_call = HISTOGRAM_REPLICATES
    threads = HISTOGRAM_THREADS
    setup_f = "log"
    setup_c = HISTOGRAM["M"] / (HISTOGRAM["B"] + 1)

    def call(self, seed):
        cfg = experiments.ExperimentConfig(**HISTOGRAM, replicates=HISTOGRAM_REPLICATES,
                                           seed=seed, threads=HISTOGRAM_THREADS)
        return experiments.histogram_study(cfg)

    def check(self, seed, out):
        problems = []
        if len(out.rows) != HISTOGRAM_REPLICATES:
            return ["wrong replicate count"]
        for i, row in enumerate(out.rows):
            if row[0] != i or row[1] != experiments.split_seed(seed, i):
                problems.append(f"row {i} has the wrong replicate seed")
            sups = row[2:]
            if not _finite(sups) or min(sups) < 0.0:
                problems.append(f"row {i} has a negative or non-finite sup")
        for name, qs in out.summary["quantiles"].items():
            values = [qs[k] for k in sorted(qs)]
            if values != sorted(values):
                problems.append(f"{name} quantiles are not monotone")
        return problems

    def summarize(self, out):
        got = {}
        for i, row in enumerate(out.rows):
            for j, key in enumerate(("sup_raw", "sup_psi", "sup_psi_hat")):
                got[f"replicate{i}.{key}"] = row[2 + j]
        got.update({f"flag.{k}": v for k, v in out.summary["flags"].items()})
        return got

    def artifact(self, out):
        paths = experiments.write_histogram_outputs(out, self.work_dir / "histogram")
        return b"".join(p.read_bytes() for p in paths)


class OffgridPsi(Workload):
    name = "offgrid_psi"
    item_unit = "calls"

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.cfg = lss.LssConfig(N=DESK["N"], B=DESK["B"], M=DESK["M"], correction_mode="plugin")
        model = ModelSpec.ar1(DESK["theta"])
        self.reference_panel = experiments.simulate_panel(model, DESK["M"], DESK["N"],
                                                          REFERENCE_SEED)
        self.panel = experiments.simulate_panel(model, DESK["M"], DESK["N"],
                                                next(item_seeds(seed)))

    def inputs(self):
        yield self.reference_panel, REFERENCE_NU
        rng = random.Random(seed_for_frequencies(self.seed))
        while True:
            nu = rng.random()
            if _off_grid(nu, DESK["N"]):
                yield self.panel, nu

    def call(self, inp):
        panel, nu = inp
        return lss.psi_at(panel, self.cfg, nu)

    def check(self, inp, rec):
        problems = []
        cfg = self.cfg
        if rec.nu != inp[1] or rec.mode != "plugin":
            problems.append("record has the wrong frequency or mode")
        values = (rec.lss_raw, rec.v_n, rec.u_n, rec.r_term, rec.phi, rec.psi)
        if not _finite(values):
            return problems + ["non-finite value in the record"]
        half = cfg.B // 2
        vn = float(np.mean((np.arange(-half, half + 1) / cfg.N) ** 2))
        if not _close(rec.v_n, vn):
            problems.append("v_N is wrong")
        if not _close(rec.psi, rec.lss_raw - rec.r_term * rec.phi * rec.v_n):
            problems.append("psi != raw - r * phi * v_N")
        if rec.r_term < 0.0 or rec.floored < 0:
            problems.append("negative r term or floored count")
        return problems

    def summarize(self, rec):
        return {"lss_raw": rec.lss_raw, "r_term": rec.r_term, "phi": rec.phi,
                "psi": rec.psi, "floored": rec.floored}

    def artifact(self, rec):
        return repr(rec).encode()


class ValidateCli(Workload):
    name = "validate_cli"
    item_unit = "runs"
    CHILD_TIMEOUT_S = 150

    def warm(self) -> None:
        pass  # every run starts a fresh interpreter, so its caches start cold

    def call(self, seed):
        out_dir = self.work_dir / "validate"
        summary = out_dir / "validate_summary.json"
        trace_path = self.work_dir / "trace.json"
        for stale in (summary, trace_path):  # never read an earlier run's output
            stale.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), "cli"]
        if self.tracing:
            cmd += ["--trace-out", str(trace_path)]
        cmd += ["--", "validate", "--out-dir", str(out_dir), "--seed", str(seed)]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self.CHILD_TIMEOUT_S, check=False)
        if self.tracing:
            self.child_sums.append(json.loads(trace_path.read_text(encoding="utf-8")))
        return proc.returncode, summary.read_bytes() if summary.exists() else b"", proc.stderr

    def check(self, seed, out):
        code, data, stderr = out
        if code != 0:
            return [f"validate exited {code}: {stderr.decode(errors='replace')[-300:]}"]
        payload = json.loads(data)
        checks = payload["summary"]["checks"]
        problems = [f"check failed: {name}" for name, c in checks.items() if not c["passed"]]
        if not payload["summary"]["all_passed"] or len(checks) != 14:
            problems.append("validate did not run and pass all 14 checks")
        if payload["config"]["seed"] != seed or payload["config"]["quick"]:
            problems.append("validate ran with the wrong seed or the quick config")
        return problems

    def summarize(self, out):
        code, data, _ = out
        summary = json.loads(data)["summary"]
        got = {"exit_code": code, "all_passed": summary["all_passed"]}
        got.update({f"check.{name}": c["passed"] for name, c in summary["checks"].items()})
        return got

    def artifact(self, out):
        return out[1]


WORKLOADS = {cls.name: cls for cls in (DeskSweep, HistogramLogMt, OffgridPsi, ValidateCli)}
