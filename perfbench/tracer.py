"""Span tracing of coherlss layers, installed from outside the package.

``Tracer.install`` replaces selected public functions of the coherlss
modules with timing wrappers, wherever the original function object is
bound (a function imported by name into another module is patched there
too), and ``Tracer.uninstall`` puts every original object back.  Nothing in
the package itself is edited.

Each wrapped call records a span: its family (for example
``spectral.periodogram``), start and end time, the span that caused it and
a few numbers computed from the call's array shapes.  Spans opened on a
worker thread with no open span of their own are attributed to the span
the installing thread has open, which is the study that started the pool.

``aggregate`` turns spans into additive sums (so sums from several
processes can be added) and ``layer_metrics`` turns those sums into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import collections
import functools
import os
import threading
import time

LAYERS = ("signal", "spectral", "lss", "rmt", "experiments", "cli")

# family -> (module, attribute names); the layer is the family's prefix
FAMILIES = {
    "signal.simulate": ("signal", ("simulate_panel",)),
    "spectral.dft": ("spectral", ("dft_grid", "renormalized_dft")),
    "spectral.periodogram": ("spectral", ("smoothed_periodogram",)),
    "spectral.coherency": ("spectral", ("coherency_matrix",)),
    "spectral.matrix_check": ("spectral", ("SpectralMatrix.__post_init__",)),
    "spectral.lag_window": ("spectral", ("lag_covariances", "lag_window_grid",
                                         "lag_window_estimate", "lag_window_derivative")),
    "lss.sweep": ("lss", ("sweep_panel",)),
    "lss.sup": ("lss", ("sup_over_grid",)),
    "lss.psi_at": ("lss", ("psi_at",)),
    "lss.trace": ("lss", ("trace_functional",)),
    "lss.eigen": ("lss", ("hermitian_eigenvalues",)),
    "lss.phi": ("lss", ("phi_value",)),
    "lss.mp": ("lss", ("mp_integral_value",)),
    "rmt.action": ("rmt", ("distribution_action",)),
    "rmt.mp_integral": ("rmt", ("mp_integral",)),
    "experiments.study": ("experiments", ("frequency_sweep", "histogram_study", "scaling_study",
                                          "eigenvalue_localization_check", "dft_covariance_check")),
    "experiments.write": ("experiments", ("write_sweep_outputs", "write_histogram_outputs",
                                          "write_scaling_outputs", "write_table_csv",
                                          "write_summary_json")),
    "cli.run": ("cli", ("run",)),
}

_GRID_TOL = 1e-9  # same on-grid test as spectral.smoothed_periodogram
_C16 = 16.0       # bytes per complex128


def _periodogram_extra(args, kwargs, result):
    """Computed work of one smoothed periodogram, from its array shapes.

    On the grid: gather M x (B+1) FFT columns, form W W^H (8 M^2 (B+1)
    flops) and symmetrize.  Off the grid the columns come first from a
    direct DFT, 8 M N (B+1) flops more.
    """
    panel, nu, B = args[0], float(args[1]), int(args[2] if len(args) > 2 else kwargs["B"])
    m, n, k = panel.M, panel.N, B + 1
    flops = 8.0 * m * m * k
    nbytes = _C16 * (2 * m * k + 4 * m * m)
    pos = nu * n
    if abs(pos - round(pos)) > _GRID_TOL * max(1.0, abs(pos)):
        flops += 8.0 * m * n * k
        nbytes += _C16 * (m * n + n * k + m * k)
    return {"flop": flops, "bytes": nbytes}


def _eigen_extra(args, kwargs, result):
    # eigenvalues only of a complex Hermitian matrix: Householder
    # tridiagonalisation, (4/3) M^3 complex multiply-adds ~ (16/3) M^3 flops
    m = len(result)
    return {"flop": 16.0 * m ** 3 / 3.0}


def _simulate_extra(args, kwargs, result):
    return {"samples": float(result.data.size)}


def _written_extra(args, kwargs, result):
    return {"bytes": float(os.path.getsize(args[0]))}


def _study_extra(args, kwargs, result):
    # an explicit threads argument wins over the config's, as in the studies
    threads = kwargs.get("threads")
    if threads is None and args:
        threads = getattr(args[0], "threads", None)
    return {"threads": float(threads or 1)}


_EXTRAS = {
    "smoothed_periodogram": _periodogram_extra,
    "hermitian_eigenvalues": _eigen_extra,
    "simulate_panel": _simulate_extra,
    "write_table_csv": _written_extra,
    "write_summary_json": _written_extra,
    "frequency_sweep": _study_extra,
    "histogram_study": _study_extra,
    "scaling_study": _study_extra,
    "eigenvalue_localization_check": _study_extra,
}


class Span:
    __slots__ = ("family", "name", "t0", "t1", "parent", "extra")

    def __init__(self, family, name, parent):
        self.family = family
        self.name = name
        self.t0 = self.t1 = 0.0
        self.parent = parent
        self.extra = None


def _modules():
    import coherlss
    from coherlss import cli, experiments, lss, rmt, signal, spectral
    return {"coherlss": coherlss, "signal": signal, "spectral": spectral, "rmt": rmt,
            "lss": lss, "experiments": experiments, "cli": cli}


class Tracer:
    """Collects spans while installed and ``recording`` is true."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._main_stack
        mods = _modules()
        for family, (mod_name, names) in FAMILIES.items():
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: patch the class attribute
                    owner = getattr(mods[mod_name], owner_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:  # a later refactor removed it: zero calls
                        continue
                    wrapper = self._wrap(family, name, original)
                    setattr(owner, attr, wrapper)
                    self.patched.append((owner, attr, original))
                    continue
                original = getattr(mods[mod_name], attr, None)
                if original is None:  # a later refactor removed it: zero calls
                    continue
                wrapper = self._wrap(family, attr, original)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self.patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []
        self.recording = False

    def _wrap(self, family, name, fn):
        extra_fn = _EXTRAS.get(name)
        spans = self.spans
        local = self._local
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:  # a pool worker: caused by what the main thread has open
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(family, name, parent)
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)
            if extra_fn is not None:
                span.extra = extra_fn(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)


def self_times(spans) -> dict:
    """Wall-clock share of each span: time while it is a leaf of the active
    span tree, split evenly among leaves active at the same moment.

    With one thread this is the classic self time (duration minus the time
    its children cover); with worker threads the shares still add up to
    the wall time covered by any span.
    """
    events = []
    for sp in spans:
        events.append((sp.t0, 1, id(sp), sp))
        events.append((sp.t1, 0, id(sp), sp))
    events.sort(key=lambda e: (e[0], e[1]))
    active_children = collections.Counter()
    active = set()
    leaves = set()
    out = collections.defaultdict(float)
    prev = None
    for t, kind, key, sp in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        parent = sp.parent
        pkey = id(parent) if parent is not None else None
        if kind == 1:
            active.add(key)
            if pkey in active:
                active_children[pkey] += 1
                leaves.discard(pkey)
            leaves.add(key)
        else:
            active.discard(key)
            leaves.discard(key)
            if pkey in active:
                active_children[pkey] -= 1
                if active_children[pkey] == 0:
                    leaves.add(pkey)
    return out


def _ancestor_in(span, prefix_fn, value) -> bool:
    p = span.parent
    while p is not None:
        if prefix_fn(p) == value:
            return True
        p = p.parent
    return False


def aggregate(spans) -> dict:
    """Additive sums over spans, keyed by flat names."""
    sums = collections.defaultdict(float)
    selfs = self_times(spans)
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[id(sp.parent)].append(sp)
    for sp in spans:
        dur = sp.t1 - sp.t0
        layer = sp.family.split(".", 1)[0]
        self_s = selfs.get(id(sp), 0.0)
        sums[f"{sp.family}.calls"] += 1
        sums[f"{sp.family}.self_s"] += self_s
        sums[f"{layer}.calls"] += 1
        sums[f"{layer}.self_s"] += self_s
        sums["covered_s"] += self_s
        if not _ancestor_in(sp, lambda s: s.family, sp.family):
            sums[f"{sp.family}.s"] += dur
        if not _ancestor_in(sp, lambda s: s.family.split(".", 1)[0], layer):
            sums[f"{layer}.s"] += dur
        if sp.name == "lag_covariances":
            sums["spectral.lag_covariance.calls"] += 1
        for key, value in (sp.extra or {}).items():
            if key != "threads":
                sums[f"{sp.family}.{key}"] += value
        if sp.family == "experiments.study":
            threads = (sp.extra or {}).get("threads", 1.0)
            sums["experiments.pool_capacity_s"] += dur * threads
            sums["experiments.pool_busy_s"] += sum(c.t1 - c.t0 for c in children[id(sp)])
    return dict(sums)


def add_sums(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    [(f"{layer}.{kind}", unit, "lower") for layer in LAYERS
     for kind, unit in (("total_s", "s"), ("calls", "count"), ("self_s", "s"))]
    + [
        ("signal.simulate_s", "s", "lower"),
        ("signal.simulate_calls", "count", "lower"),
        ("signal.samples_per_s", "samples/s", "higher"),
        ("spectral.dft_s", "s", "lower"),
        ("spectral.dft_calls", "count", "lower"),
        ("spectral.periodogram_s", "s", "lower"),
        ("spectral.periodogram_calls", "count", "lower"),
        ("spectral.periodogram_gflop", "GFLOP", "lower"),
        ("spectral.periodogram_gbytes", "GB", "lower"),
        ("spectral.coherency_s", "s", "lower"),
        ("spectral.matrix_check_s", "s", "lower"),
        ("spectral.lag_window_s", "s", "lower"),
        ("spectral.lag_covariance_calls", "count", "lower"),
        ("lss.sweep_s", "s", "lower"),
        ("lss.sweep_self_s", "s", "lower"),
        ("lss.trace_s", "s", "lower"),
        ("lss.eigen_s", "s", "lower"),
        ("lss.eigen_calls", "count", "lower"),
        ("lss.eigen_gflop", "GFLOP", "lower"),
        ("lss.psi_at_self_s", "s", "lower"),
        ("lss.phi_calls", "count", "lower"),
        ("rmt.action_s", "s", "lower"),
        ("rmt.action_calls", "count", "lower"),
        ("rmt.mp_integral_s", "s", "lower"),
        ("rmt.mp_integral_calls", "count", "lower"),
        ("rmt.phi_miss_ratio", "ratio", "lower"),
        ("experiments.study_s", "s", "lower"),
        ("experiments.reduce_self_s", "s", "lower"),
        ("experiments.pool_efficiency", "ratio", "higher"),
        ("experiments.write_s", "s", "lower"),
        ("experiments.bytes_written", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("other_s", "s", "lower"),
    ]
)


def layer_metrics(sums: dict, wall_s: float, overhead_frac: float) -> dict:
    """Per-layer metric values from aggregated sums and the traced wall time."""
    g = sums.get
    v = {}
    for layer in LAYERS:
        v[f"{layer}.total_s"] = g(f"{layer}.s", 0.0)
        v[f"{layer}.calls"] = g(f"{layer}.calls", 0.0)
        v[f"{layer}.self_s"] = g(f"{layer}.self_s", 0.0)
    v["signal.simulate_s"] = g("signal.simulate.s", 0.0)
    v["signal.simulate_calls"] = g("signal.simulate.calls", 0.0)
    v["signal.samples_per_s"] = _ratio(g("signal.simulate.samples", 0.0), v["signal.simulate_s"])
    v["spectral.dft_s"] = g("spectral.dft.s", 0.0)
    v["spectral.dft_calls"] = g("spectral.dft.calls", 0.0)
    v["spectral.periodogram_s"] = g("spectral.periodogram.s", 0.0)
    v["spectral.periodogram_calls"] = g("spectral.periodogram.calls", 0.0)
    v["spectral.periodogram_gflop"] = g("spectral.periodogram.flop", 0.0) / 1e9
    v["spectral.periodogram_gbytes"] = g("spectral.periodogram.bytes", 0.0) / 1e9
    v["spectral.coherency_s"] = g("spectral.coherency.s", 0.0)
    v["spectral.matrix_check_s"] = g("spectral.matrix_check.s", 0.0)
    v["spectral.lag_window_s"] = g("spectral.lag_window.s", 0.0)
    v["spectral.lag_covariance_calls"] = g("spectral.lag_covariance.calls", 0.0)
    v["lss.sweep_s"] = g("lss.sweep.s", 0.0)
    v["lss.sweep_self_s"] = g("lss.sweep.self_s", 0.0)
    v["lss.trace_s"] = g("lss.trace.s", 0.0)
    v["lss.eigen_s"] = g("lss.eigen.s", 0.0)
    v["lss.eigen_calls"] = g("lss.eigen.calls", 0.0)
    v["lss.eigen_gflop"] = g("lss.eigen.flop", 0.0) / 1e9
    v["lss.psi_at_self_s"] = g("lss.psi_at.self_s", 0.0)
    v["lss.phi_calls"] = g("lss.phi.calls", 0.0)
    v["rmt.action_s"] = g("rmt.action.s", 0.0)
    v["rmt.action_calls"] = g("rmt.action.calls", 0.0)
    v["rmt.mp_integral_s"] = g("rmt.mp_integral.s", 0.0)
    v["rmt.mp_integral_calls"] = g("rmt.mp_integral.calls", 0.0)
    v["rmt.phi_miss_ratio"] = _ratio(v["rmt.action_calls"], v["lss.phi_calls"])
    v["experiments.study_s"] = g("experiments.study.s", 0.0)
    v["experiments.reduce_self_s"] = g("experiments.study.self_s", 0.0)
    v["experiments.pool_efficiency"] = _ratio(g("experiments.pool_busy_s", 0.0),
                                              g("experiments.pool_capacity_s", 0.0))
    v["experiments.write_s"] = g("experiments.write.s", 0.0)
    v["experiments.bytes_written"] = g("experiments.write.bytes", 0.0)
    v["trace.wall_s"] = wall_s
    v["trace.overhead_frac"] = overhead_frac
    v["other_s"] = wall_s - g("covered_s", 0.0)
    return v
