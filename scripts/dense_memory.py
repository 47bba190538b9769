"""Memory and time of the dense spectral path, per model, traced with ``tracemalloc``.

    python3 scripts/dense_memory.py [--n-cells N]

For each actuation model (current, charge_magnetic, electrostatic) at
gamma = 0 and gamma = 1 on N cells (default 256, state dimension 4N - 1 of
the six-field models), it builds the assembly and prints ``halves``, the
sizes |P|x|Q| of the bipartite halves of each block that the dense solve
splits S into (``spectral._plan``; two blocks, joined by ``+``, where S
splits into its mechanical and field blocks), then, in MiB:

* ``pxi``: the traced peak of forming the dense P_xi (``p_dense``) on a
  fresh ``build_operators``, the operator-build layer, and beside it
  ``pxi_s``, the wall seconds of forming it on another with tracing off;
* ``ref_kept``: what the dense reference (``GeneratorAssembly.reference``:
  R, S and g, and the dense P_xi it reads, kept on the operators) keeps
  once formed;
* ``ref_peak``: the traced peak while it is formed, above the traced memory
  before (so it includes ``ref_kept``);
* ``ref_s``: the wall seconds of forming it once more with tracing off, as
  a first read on a new assembly would (the kept P_xi dropped too);
* ``spectrum``, ``closed_loop``, ``modal``, ``shifts`` and ``kernel``: the
  traced peak of ``compute_spectrum``, ``closed_loop_spectrum``, the modal
  start ``dynamics.modal_state(asm, 0)``, ``closed_loop_mode_shifts`` at
  gain GAIN and ``kernel_basis``, each above the traced memory at its
  start, with the reference already formed.  The five share the
  assembly's one open-loop solve (``spectral.open_loop_modes``); it is
  dropped before each call, so each solves S as a first call on a new
  assembly would;
* beside each of those, ``s``: the wall seconds of one more call of it
  with tracing off.

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
from piezolab.operators import build_operators
from piezolab import spectral
from piezolab.spectral import (closed_loop_mode_shifts, closed_loop_spectrum,
                               compute_spectrum, kernel_basis)
from piezolab.variants import assemble_charge_magnetic, assemble_electrostatic

MODELS = {"current": assemble_generator, "charge_magnetic": assemble_charge_magnetic,
          "electrostatic": assemble_electrostatic}
COLUMNS = ("pxi", "ref_kept", "ref_peak", "spectrum", "closed_loop", "modal", "shifts",
           "kernel")
SOLVED = COLUMNS[3:]  # the columns of the spectral calls
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


def _halves(asm) -> str:
    """|P|x|Q| of each block of the assembly's dense solve, joined by ``+``."""
    return "+".join(f"{len(p)}x{len(q)}"
                    for p, q in spectral._plan(asm.reference, asm.reduction.mechanical))


def _cold_reference(asm):
    """The reference formed again, with the kept one, its solve and P_xi dropped."""
    asm.__dict__.pop("reference", None)
    asm.__dict__.pop("open_loop", None)
    asm.ops.__dict__.pop("p_dense", None)
    return asm.reference


def measure(n_cells: int) -> list:
    """One row per (model, gamma): model, gamma, dim, halves, the COLUMNS,
    pxi_s, ref_s, and whether each SOLVED call raised and its seconds."""
    rows = []
    tracemalloc.start()
    try:
        for name, build in MODELS.items():
            for gamma in (0.0, 1.0):
                params = toy_parameters(gamma=gamma)
                grid = build_grid(params.L, n_cells)
                pxi, _ = _traced(lambda: build_operators(params, grid).p_dense)
                fresh = build_operators(params, grid)
                pxi_s = _timed(lambda: fresh.p_dense)
                asm = build(params, grid)
                before = tracemalloc.get_traced_memory()[0]
                ref_peak, _ = _traced(lambda: asm.reference)
                ref_kept = (tracemalloc.get_traced_memory()[0] - before) / MIB
                calls = (lambda: compute_spectrum(asm),
                         lambda: closed_loop_spectrum(asm, GAIN),
                         lambda: modal_state(asm, 0),
                         lambda: closed_loop_mode_shifts(asm, GAIN),
                         lambda: kernel_basis(asm))

                def cold(call):
                    asm.__dict__.pop("open_loop", None)  # the kept solve, before the start
                    return call
                peaks, raised = zip(*(_traced(cold(call)) for call in calls))
                ref_s = _timed(lambda: _cold_reference(asm))
                seconds = tuple(_timed(cold(call)) for call in calls)
                rows.append((name, gamma, asm.reference.s.shape[0], _halves(asm),
                             pxi, ref_kept, ref_peak, *peaks, pxi_s, ref_s, raised,
                             seconds))
                del asm, calls, cold, fresh
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
    print(f"{'model':<16} {'gamma':>5} {'dim':>5} {'halves':<15} "
          + " ".join(f"{c:>11}" + (f" {'s':>7}" if c in SOLVED
                                   else f" {'ref_s':>7}" if c == "ref_peak"
                                   else f" {'pxi_s':>7}" if c == "pxi" else "")
                     for c in COLUMNS))
    for (name, gamma, dim, halves, *values, pxi_s, ref_s, raised,
         seconds) in measure(args.n_cells):
        cells = [f"{v:11.1f}" for v in values]
        cells[COLUMNS.index("pxi")] += f" {pxi_s:7.3f}"
        cells[COLUMNS.index("ref_peak")] += f" {ref_s:7.3f}"
        solved = range(len(COLUMNS) - len(SOLVED), len(COLUMNS))
        for i, wall, failed in zip(solved, seconds, raised):
            if failed:
                cells[i] = f"{values[i]:10.1f}*"
            cells[i] += f" {wall:7.3f}"
        print(f"{name:<16} {gamma:5g} {dim:5d} {halves:<15} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
