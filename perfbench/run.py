"""coherlss benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src/`` directory.  ``--workload all`` runs every workload in turn, each
in its own process.

The run sets up the package in fresh interpreters (``setup_s``, median of
three), then times the workload's calls back to back until S seconds of
calls have been measured.  With ``--trace 1`` it then installs the layer
wrappers, repeats the loop traced, uninstalls them and reports per-layer
metrics instead of end-to-end ones.  The reference input that starts each
loop is produced once more at the end and must give byte-identical output.

Output: a human-readable table, a JSON line of machine facts and run
details, and as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when a result was printed and 2 when the run could not start.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and (by inheritance) in children:
# a second BLAS thread made a desk sweep slower and noisier on two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COHERLSS_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MAX_ERRORS = 20
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)  # the usual p50/p90/p99/p99.9 set
WORKLOAD_NAMES = ("desk_sweep", "histogram_log_mt", "offgrid_psi", "validate_cli")
# run by name only, not listed in BENCHMARK.json: on a shared 2-core host their
# latencies spread wider than a 0.25 regression bound between runs
MANUAL_WORKLOADS = ("histogram_log_mt", "offgrid_psi")

# (name, unit, better) of every end-to-end metric; failed_fraction is
# reported through "attempted" and "failed" because it is 0 when all is well
END_TO_END = (
    ("items_per_s", "items/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _rank(pct: float, n: int) -> int:
    """Nearest rank of percentile ``pct`` among n samples: ceil(pct/100 * n)."""
    return max(1, -(-round(10 * pct) * n // 1000))


def median_latency(latencies) -> float:
    """Nearest-rank median, so that it never exceeds the tail."""
    xs = sorted(latencies)
    return xs[_rank(50.0, len(xs)) - 1]


def tail_latency(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail latency.

    The tail is the highest rung of TAIL_PERCENTILES, by nearest rank, that
    has at least ten samples beyond it; a percentile with fewer is mostly
    noise.  With fewer than twenty samples no rung qualifies and the median
    is reported, with fewer than ten beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = _rank(pct, n)
        if n - rank >= 10:
            return xs[rank - 1], pct, n - rank
    rank = _rank(50.0, n)
    return xs[rank - 1], 50.0, n - rank


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot, all CPUs."""
    with open("/proc/stat", encoding="utf-8") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def machine_facts(worker_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "worker_threads": worker_threads,
    }


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[pathlib.Path(path).name] = fn()
                break
    return out


class Pass:
    """Outcome of one timed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.completed_items = 0
        self.busy_s = 0.0
        self.reference_artifact = None
        self.errors: list[str] = []

    @property
    def items_per_s(self) -> float:
        return self.completed_items / self.busy_s if self.busy_s > 0 else 0.0


def run_item(wl, inp, tr=None):
    """Time one call; return (seconds, output, problems).  Never raises."""
    if tr is not None:
        tr.recording = True
    t0 = time.perf_counter()
    try:
        out = wl.call(inp)
        problems = None
    except Exception as exc:  # a library failure is a failed operation
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if tr is not None:
        tr.recording = False
    if problems is None:
        try:
            problems = wl.check(inp, out)
        except Exception as exc:  # malformed output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, out, problems


def timed_pass(wl, seconds: float, tr=None) -> Pass:
    """Calls back to back until ``seconds`` of call time are measured.

    Wall time is capped too, so calls that fail at once cannot spin the
    loop far past its budget on checking overhead.
    """
    p = Pass()
    deadline = time.perf_counter() + 2.0 * seconds + 30.0
    for k, inp in enumerate(wl.inputs()):
        elapsed, out, problems = run_item(wl, inp, tr)
        p.latencies.append(elapsed)
        p.busy_s += elapsed
        p.attempted += 1
        if k == 0 and not problems:
            try:
                problems = wl.reference_problems(out)
                p.reference_artifact = wl.artifact(out)
            except Exception as exc:
                problems = [f"reference check raised {type(exc).__name__}: {exc}"]
        if problems:
            p.failed += 1
            if len(p.errors) < MAX_ERRORS:
                p.errors.append(f"item {k}: " + "; ".join(problems))
        else:
            p.completed_items += wl.items_per_call
        if p.busy_s >= seconds or time.perf_counter() >= deadline:
            return p
    return p


def measure_setup(wl) -> tuple[float, str | None]:
    cmd = [sys.executable, str(HERE / "child.py"), "setup", repr(wl.setup_c), wl.setup_f]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return time.perf_counter() - t0, f"setup took over {SETUP_TIMEOUT_S} s"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"setup exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"
    return elapsed, None


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir) -> dict:
    import workloads  # needs the coherlss import path

    wl = workloads.WORKLOADS[name](work_dir, seed)
    steal_start = steal_seconds()
    attempted = failed = 0
    errors = []
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, err = measure_setup(wl)
        setups.append(elapsed)
        attempted += 1
        if err:
            failed += 1
            errors.append(err)

    try:
        wl.warm()
    except Exception as exc:  # a library failure; the timed calls will show it too
        attempted += 1
        failed += 1
        errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    plain = timed_pass(wl, seconds)
    passes = [plain]
    traced = sums = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
        wl.tracing = True
        try:
            traced = timed_pass(wl, seconds, tr)
        finally:
            wl.tracing = False
            tr.uninstall()
        passes.append(traced)
        sums = tracer.aggregate(tr.spans)
        for child in wl.child_sums:
            sums = tracer.add_sums(sums, child)

    # the reference input once more: its artifact must repeat byte for byte
    _, out, problems = run_item(wl, next(iter(wl.inputs())))
    attempted += 1
    if not problems:
        try:
            artifact = wl.artifact(out)
            if any(p.reference_artifact != artifact for p in passes):
                problems = ["reference artifact differs when produced again"]
        except Exception as exc:
            problems = [f"artifact raised {type(exc).__name__}: {exc}"]
    if problems:
        failed += 1
        errors.append("repeat: " + "; ".join(problems))

    for p in passes:
        attempted += p.attempted
        failed += p.failed
        errors.extend(p.errors)

    usage = resource.RUSAGE_CHILDREN if name == "validate_cli" else resource.RUSAGE_SELF
    tail, tail_pct, beyond = tail_latency(plain.latencies)
    e2e = {
        "items_per_s": plain.items_per_s,
        "item_p50_ms": 1e3 * median_latency(plain.latencies),
        "item_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "item_unit": wl.item_unit, "calls": len(plain.latencies),
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "failed_fraction": failed / attempted,
        "machine": machine_facts(wl.threads),
        "steal_s": steal_seconds() - steal_start,
        "errors": errors[:MAX_ERRORS],
    }
    if trace:
        overhead = 1.0 - traced.items_per_s / plain.items_per_s if plain.items_per_s else 0.0
        info["traced_items_per_s"] = traced.items_per_s
        values = tracer.layer_metrics(sums, traced.busy_s, overhead)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit, _ in tracer.LAYER_METRICS}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit, _ in END_TO_END}
    return {"info": info, "e2e": e2e, "metrics": metrics,
            "correct": failed == 0, "attempted": attempted, "failed": failed}


def print_report(res: dict) -> None:
    info = res["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  seconds {info['seconds']:g}  "
          f"trace {info['trace']}  ({info['calls']} timed calls)")
    units = {k: unit for k, unit, _ in END_TO_END}
    units["items_per_s"] = f"{info['item_unit']}/s"
    for key, value in res["e2e"].items():
        note = ""
        if key == "item_tail_ms":
            note = (f"  p{info['tail_percentile']:.1f} of {info['calls']} calls, "
                    f"{info['tail_samples_beyond']} beyond")
        elif key == "setup_s":
            note = f"  median of {len(info['setup_samples_s'])}"
        print(f"  {key:<18}{value:>14.4f}  {units[key]}{note}")
    print(f"  {'failed_fraction':<18}{info['failed_fraction']:>14.4f}  fraction"
          f"  {res['failed']} of {res['attempted']}")
    if info["trace"]:
        for key, m in res["metrics"].items():
            print(f"  {key:<32}{m['value']:>16.6g}  {m['unit']}")
    for err in info["errors"]:
        print(f"  error: {err}")


def _run_all(args) -> int:
    """Every workload in its own process; the last line sums their results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 2
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coherlss" / "__init__.py").is_file():
        print(f"error: no coherlss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import coherlss

    if pathlib.Path(coherlss.__file__).resolve().parent != ROOT / "src" / "coherlss":
        print(f"error: imported coherlss from {coherlss.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    print_report(res)
    print(json.dumps(res["info"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
