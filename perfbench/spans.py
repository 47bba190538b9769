"""Span tracing of piezolab's public functions, installed from outside.

The tracer wraps module functions and methods at their layer boundaries and
rebinds every name under which a ``piezolab`` module refers to them, so the
real CLI path runs unchanged and each call into a layer becomes a span:
(name, grid size N, start, end, parent span, job).  Spans stay in memory and
are summarised once the pass ends.  Nothing in the program's source changes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute or Class.method, span name); the span name carries the
# module's layer as its prefix.  Private names are traced where a public
# function hides a step worth timing alone (the mode table, the ES CSV).
TARGETS = (
    ("piezolab.config", "load_config", "config.load"),
    ("piezolab.operators", "build_operators", "operators.build"),
    ("piezolab.operators", "energy", "operators.energy"),
    ("piezolab.generator", "assemble_generator", "generator.assemble"),
    ("piezolab.generator", "skewness_defect", "generator.skewness_defect"),
    ("piezolab.generator", "constraint_defect", "generator.constraint_defect"),
    ("piezolab.generator", "gauge_residual", "generator.gauge_residual"),
    ("piezolab.generator", "gauge_residual_interior",
     "generator.gauge_residual_interior"),
    ("piezolab.dynamics", "simulate", "dynamics.simulate"),
    ("piezolab.dynamics", "run", "dynamics.run"),
    ("piezolab.dynamics", "modal_state", "dynamics.modal_state"),
    ("piezolab.dynamics", "admissibility_estimate", "dynamics.admissibility"),
    ("piezolab.dynamics", "TimeSeries.write_csv", "cli.write"),
    ("piezolab.spectral", "compute_spectrum", "spectral.compute_spectrum"),
    ("piezolab.spectral", "closed_loop_spectrum",
     "spectral.closed_loop_spectrum"),
    ("piezolab.spectral", "closed_loop_mode_shifts", "spectral.mode_shifts"),
    ("piezolab.spectral", "kernel_basis", "spectral.kernel_basis"),
    ("piezolab.spectral", "_build_report", "spectral.build_report"),
    ("piezolab.spectral", "SpectrumReport.write_csv", "cli.write"),
    ("piezolab.variants", "assemble_electrostatic", "variants.assemble_es"),
    ("piezolab.variants", "assemble_charge_magnetic",
     "variants.assemble_charge_magnetic"),
    ("piezolab.variants", "electrostatic_spectrum", "variants.es_spectrum"),
    ("piezolab.variants", "electrostatic_energy", "variants.es_energy"),
    ("piezolab.variants", "boundary_feedback_simulate", "variants.es_simulate"),
    ("piezolab.cli", "ExperimentReport.write_json", "cli.write"),
    ("piezolab.cli", "_electrostatic_spectrum_csv", "cli.es_spectrum_csv"),
    ("scipy.linalg", "eig", "linalg.eig"),
)

STEPPER = ("piezolab.dynamics", "RankOneMidpoint")
ES_PARENT = "variants.es_simulate"


def _grid_size(args) -> int | None:
    """N of the first argument that is, or carries, a staggered grid."""
    for arg in args:
        n = getattr(getattr(arg, "grid", arg), "n_cells", None)
        if isinstance(n, int):
            return n
    return None


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        # each span: [name, n, start, end, parent index, job]
        self.spans: list = []
        self._stack: list = []
        self.job = None
        self.missing: list = []
        self._steppers: dict = {}

    def open(self, name: str, n) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, n, time.perf_counter(), 0.0, parent, self.job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, fn, name: str, sized: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, _grid_size(args) if sized else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return traced

    # -- the midpoint stepper: factor at construction, one span per step --

    def _wrap_stepper(self, cls) -> None:
        tracer = self
        init, step, step_closed = cls.__init__, cls.step, cls.step_closed

        @functools.wraps(init)
        def traced_init(obj, g, *args, **kwargs):
            d = g.shape[0]
            if tracer.inside(ES_PARENT):
                prefix, n = "variants.es", d // 2
            else:
                prefix, n = "dynamics", (d + 1) // 6
            idx = tracer.open(prefix + ".factor", n)
            try:
                init(obj, g, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer._steppers[id(obj)] = (prefix, n)

        def stepper_span(method, kind):
            @functools.wraps(method)
            def traced(obj, *args, **kwargs):
                prefix, n = tracer._steppers.get(id(obj), ("dynamics", None))
                idx = tracer.open(f"{prefix}.{kind}", n)
                try:
                    return method(obj, *args, **kwargs)
                finally:
                    tracer.close(idx)
            return traced

        cls.__init__ = traced_init
        cls.step = stepper_span(step, "step_open")
        cls.step_closed = stepper_span(step_closed, "step_closed")

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        import piezolab.acceptance  # noqa: F401  (load every layer first)
        import piezolab.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items()
                   if k == "piezolab" or k.startswith("piezolab.")]
        for mod_name, attr, span in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth, None)
            if owner is None or orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(orig, span, sized=span != "cli.write")
            setattr(owner, meth, wrapped)
            if not owner_name:
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)

        stepper = getattr(sys.modules.get(STEPPER[0]), STEPPER[1], None)
        if stepper is None:
            self.missing.append(".".join(STEPPER))
        else:
            self._wrap_stepper(stepper)

        acc = sys.modules["piezolab.acceptance"]
        checks = getattr(acc, "ALL_CHECKS", None)
        if checks is None:
            self.missing.append("piezolab.acceptance.ALL_CHECKS")
        else:
            acc.ALL_CHECKS = tuple(
                self.wrap(fn, "acceptance.check." + fn.__name__.removeprefix("check_"),
                          sized=False)
                for fn in checks)

    def summary(self) -> dict:
        """Per (name, N): count, busy and self seconds, median call seconds."""
        child = [0.0] * len(self.spans)
        for name, n, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        groups: dict = {}
        for i, (name, n, start, end, parent, job) in enumerate(self.spans):
            key = name if n is None else f"{name}.N{n}"
            g = groups.setdefault(key, {"name": name, "n": n, "count": 0,
                                        "busy_s": 0.0, "self_s": 0.0,
                                        "durations": []})
            g["count"] += 1
            g["busy_s"] += end - start
            g["self_s"] += end - start - child[i]
            g["durations"].append(end - start)
        for g in groups.values():
            g["median_s"] = statistics.median(g.pop("durations"))
        return groups

    def parents(self) -> dict:
        """Count of spans per (name, parent name), for layer attributions."""
        out: dict = {}
        for name, n, start, end, parent, job in self.spans:
            pname = self.spans[parent][0] if parent >= 0 else ""
            key = f"{name}<{pname}"
            out.setdefault(key, [0, 0.0])
            out[key][0] += 1
            out[key][1] += end - start
        return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, from wrapping a no-op."""
    def noop(*args):
        return None

    wrapped = Tracer().wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(None)
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped(None)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
