"""Memory and time of the dense spectral path, per model, traced with ``tracemalloc``.

    python3 scripts/dense_memory.py [--n-cells N]

For each actuation model (current, charge_magnetic, electrostatic) at
gamma = 0 and gamma = 1 on N cells (default 256, state dimension 4N - 1 of
the six-field models), it builds the assembly and prints, in MiB:

* ``ref_kept``: what the dense reference (``GeneratorAssembly.reference``:
  M, R, S and g) keeps once formed;
* ``ref_peak``: the traced peak while it is formed, above the traced memory
  before (so it includes ``ref_kept``);
* ``spectrum``, ``closed_loop``, ``modal`` and ``shifts``: the traced peak
  of ``compute_spectrum``, ``closed_loop_spectrum``, the modal start
  ``dynamics.modal_state(asm, 0)`` and ``closed_loop_mode_shifts`` at gain
  GAIN, each above the traced memory at its start, with the reference
  already formed.  The four share the assembly's one open-loop solve; it
  is dropped before each call, so each solves S as a first call on a new
  assembly would;
* beside each of those, ``s``: the wall seconds of one more call of it
  with tracing off, and ``by``: the route of its dense solve
  (``spectral.solve_route``): ``svd`` for a bipartite matrix and ``skew``
  for the skew part of any other, the two block routes joined by ``+``
  where S splits into its mechanical and field blocks; the closed loop
  adds ``+roots``, the secular solve that gives its eigenpairs from that
  solve.

``tracemalloc`` sees every numpy array, LAPACK's work arrays included, but
not the BLAS library's own buffers, so these are the transients of the
arrays the code forms.  A closed loop or shift solve that raises
``SecularNotConverged`` (a closed-loop root still moving after
``ABERTH_MAX_SWEEPS`` sweeps; none does on these models at N up to 256) is
marked ``*``; its peak is still the peak of the work done.  The seconds are single calls on a warm
process, so expect the noise of the machine.  A line with the versions and
the CPU count comes first.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

try:
    import piezolab
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import piezolab

from piezolab.dynamics import modal_state
from piezolab.errors import SecularNotConverged
from piezolab.generator import assemble_generator
from piezolab.model import build_grid, toy_parameters
from piezolab.spectral import (closed_loop_mode_shifts, closed_loop_spectrum,
                               compute_spectrum, solve_route)
from piezolab.variants import assemble_charge_magnetic, assemble_electrostatic

MODELS = {"current": assemble_generator, "charge_magnetic": assemble_charge_magnetic,
          "electrostatic": assemble_electrostatic}
COLUMNS = ("ref_kept", "ref_peak", "spectrum", "closed_loop", "modal", "shifts")
SOLVED = ("spectrum", "closed_loop", "modal", "shifts")  # the columns with a route beside
MIB = 2.0 ** 20
GAIN = 1.0


def _traced(call) -> tuple:
    """(traced peak of call() above the start in MiB, whether it raised)."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        call()
        raised = False
    except SecularNotConverged:
        raised = True
    return (tracemalloc.get_traced_memory()[1] - start) / MIB, raised


def _timed(call) -> float:
    """Wall seconds of one call() with tracing off."""
    tracemalloc.stop()
    try:
        start = time.perf_counter()
        try:
            call()
        except SecularNotConverged:
            pass
        return time.perf_counter() - start
    finally:
        tracemalloc.start()


def _routes(asm) -> tuple:
    """The dense solve routes of the SOLVED calls on one assembly."""
    route = solve_route(asm.reference.s, asm.reduction)
    return route, route + "+roots", route, route


def measure(n_cells: int) -> list:
    """One row per (model, gamma): model, gamma, dim, the COLUMNS, and
    whether each raised, the seconds and the routes of the SOLVED calls."""
    rows = []
    tracemalloc.start()
    try:
        for name, build in MODELS.items():
            for gamma in (0.0, 1.0):
                params = toy_parameters(gamma=gamma)
                asm = build(params, build_grid(params.L, n_cells))
                before = tracemalloc.get_traced_memory()[0]
                ref_peak, _ = _traced(lambda: asm.reference)
                ref_kept = (tracemalloc.get_traced_memory()[0] - before) / MIB
                calls = (lambda: compute_spectrum(asm),
                         lambda: closed_loop_spectrum(asm, GAIN),
                         lambda: modal_state(asm, 0),
                         lambda: closed_loop_mode_shifts(asm, GAIN))

                def cold(call):
                    asm.__dict__.pop("open_loop", None)  # the kept solve, before the start
                    return call
                peaks, raised = zip(*(_traced(cold(call)) for call in calls))
                seconds = tuple(_timed(cold(call)) for call in calls)
                rows.append((name, gamma, asm.reference.s.shape[0], ref_kept, ref_peak,
                             *peaks, raised, seconds, _routes(asm)))
                del asm, calls, cold
    finally:
        tracemalloc.stop()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-cells", type=int, default=256)
    args = parser.parse_args(argv)
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, piezolab {piezolab.__version__}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}")
    print(f"# N = {args.n_cells}, gain {GAIN:g}; MiB, traced peak above the start; "
          f"s, wall seconds untraced")
    print(f"{'model':<16} {'gamma':>5} {'dim':>5} "
          + " ".join(f"{c:>11}" + (f" {'s':>7} {'by':<13}" if c in SOLVED else "")
                     for c in COLUMNS))
    for name, gamma, dim, *values, raised, seconds, routes in measure(args.n_cells):
        cells = [f"{v:11.1f}" for v in values]
        solved = range(len(COLUMNS) - len(SOLVED), len(COLUMNS))
        for i, wall, route, failed in zip(solved, seconds, routes, raised):
            if failed:
                cells[i] = f"{values[i]:10.1f}*"
            cells[i] += f" {wall:7.3f} {route:<13}"
        print(f"{name:<16} {gamma:5g} {dim:5d} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
