"""Tests of the benchmark itself (not of coherlss).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads first)
import tracer  # noqa: E402
import workloads  # noqa: E402
from coherlss import errors, experiments, lss, spectral  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_valid_unique_and_match_benchmark_json():
    spec = _spec()
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(tracer.LAYER_METRICS)
    names = [n for n, _, _ in e2e + layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in run.WORKLOAD_NAMES if n not in run.MANUAL_WORKLOADS]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_layer_metrics_report_every_name_with_zero_calls():
    values = tracer.layer_metrics({}, wall_s=1.0, overhead_frac=0.0)
    assert list(values) == [n for n, _, _ in tracer.LAYER_METRICS]
    assert values["lss.eigen_calls"] == 0 and values["other_s"] == 1.0


@pytest.mark.parametrize("n", [20, 21, 39, 40, 100, 199, 200, 360, 2000, 10000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct, beyond = run.tail_latency(reversed(xs))
    assert sum(x > value for x in xs) == beyond >= 10
    assert value == xs[math.ceil(pct * n / 100) - 1]
    # every higher rung leaves fewer than ten samples beyond it
    for higher in run.TAIL_PERCENTILES:
        if higher > pct:
            assert n - math.ceil(higher * n / 100 - 1e-9) < 10


@pytest.mark.parametrize("n", [1, 2, 7, 19])
def test_tail_falls_back_to_the_median_below_twenty_samples(n):
    xs = [float(i) ** 2 for i in range(n)]
    value, pct, beyond = run.tail_latency(xs)
    assert value == run.median_latency(xs) == xs[math.ceil(n / 2) - 1]
    assert pct == 50.0 and beyond < 10


def _module_state():
    mods = tracer._modules()
    state = {(name, key): value for name, mod in mods.items() for key, value in vars(mod).items()}
    state[("SpectralMatrix", "__post_init__")] = vars(spectral.SpectralMatrix)["__post_init__"]
    return state


def test_uninstall_restores_every_patched_attribute():
    before = _module_state()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert lss.sweep_panel is not before[("lss", "sweep_panel")]
        assert experiments.simulate_panel is not before[("experiments", "simulate_panel")]
        patched = list(tr.patched)
        assert len(patched) > 20
    finally:
        tr.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    after = _module_state()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def _traced(fn):
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.recording = True
        t0 = run.time.perf_counter()
        fn()
        wall = run.time.perf_counter() - t0
        tr.recording = False
    finally:
        tr.uninstall()
    return tracer.layer_metrics(tracer.aggregate(tr.spans), wall, 0.0)


@pytest.mark.parametrize("threads", [1, 2])
def test_layer_self_times_and_other_account_for_wall_time(threads):
    cfg = experiments.ExperimentConfig(N=256, B=48, M=16, theta=0.4, grid_stride=8,
                                       replicates=4, seed=3, threads=threads)
    m = _traced(lambda: experiments.histogram_study(cfg))
    covered = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert covered + m["other_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["other_s"] >= -1e-9
    assert m["signal.simulate_calls"] == 4
    assert m["lss.eigen_calls"] == m["spectral.periodogram_calls"] == 4 * 32
    assert 0.0 < m["experiments.pool_efficiency"] <= 1.0 + 1e-9


def test_offgrid_call_counts():
    cfg = lss.LssConfig(N=256, B=48, M=16, correction_mode="plugin")
    panel = experiments.simulate_panel(workloads.ModelSpec.ar1(0.4), 16, 256, 5)
    m = _traced(lambda: lss.psi_at(panel, cfg, 0.1234))
    assert m["spectral.periodogram_calls"] == 1 and m["spectral.dft_calls"] == 0
    assert m["spectral.lag_covariance_calls"] == 1 and m["lss.eigen_calls"] == 1
    assert m["spectral.periodogram_gflop"] > 8 * 16 * 256 * 49 / 1e9  # direct DFT counted


def test_compare_flags_perturbed_values_and_admits_ulps():
    ref = {"psi": 0.0123, "floored": 0, "all_passed": True}
    assert workloads.compare(ref, dict(ref)) == []
    assert workloads.compare(ref, dict(ref, psi=0.0123 * (1 + 1e-13))) == []
    assert workloads.compare(ref, dict(ref, psi=0.0123 * (1 + 1e-6)))
    assert workloads.compare(ref, dict(ref, floored=1))
    assert workloads.compare(ref, dict(ref, all_passed=False))
    assert workloads.compare(ref, {"psi": 0.0123})


@pytest.fixture(scope="module")
def offgrid(tmp_path_factory):
    return workloads.OffgridPsi(tmp_path_factory.mktemp("offgrid"), seed=1)


def test_reference_item_passes_and_a_perturbed_reference_fails(offgrid, monkeypatch):
    p = run.timed_pass(offgrid, seconds=0.0)
    assert (p.attempted, p.failed) == (1, 0) and p.reference_artifact
    bad = dict(offgrid.reference())
    bad["psi"] *= 1.0 + 1e-6
    monkeypatch.setattr(offgrid, "reference", lambda: bad)
    p = run.timed_pass(offgrid, seconds=0.0)
    assert (p.attempted, p.failed) == (1, 1) and "psi" in p.errors[0]


def test_library_exception_is_a_failed_operation(offgrid, monkeypatch):
    def boom(*args, **kwargs):
        raise errors.NumericalFailureError("injected")

    monkeypatch.setattr(lss, "psi_at", boom)
    p = run.timed_pass(offgrid, seconds=0.0)
    assert p.attempted >= 1 and p.failed == p.attempted and p.completed_items == 0
    assert "injected" in p.errors[0]


def _first_inputs(cls, seed, tmp_path, k=3):
    it = cls(tmp_path, seed).inputs()
    ref = next(it)
    items = [next(it) for _ in range(k)]
    if cls is workloads.OffgridPsi:
        return ref[1], [(panel.seed, nu) for panel, nu in items]
    return ref, items


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    ref1, one = _first_inputs(cls, 1, tmp_path)
    ref2, two = _first_inputs(cls, 2, tmp_path)
    assert ref1 == ref2  # the reference input is pinned
    assert one != two
    assert _first_inputs(cls, 1, tmp_path)[1] == one


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "offgrid_psi",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
