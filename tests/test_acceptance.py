"""Acceptance gate: the thirteen headline checks, one pass/fail line each.

Each check pins its tolerance inside :mod:`piezolab.acceptance`; this file
only executes and reports.  A failing check prints its measured table so the
failure is diagnosable from the test log alone.
"""

import dataclasses

import numpy as np
import pytest

from piezolab import acceptance, spectral
from piezolab.generator import assemble_generator
from piezolab.model import build_grid, toy_parameters


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=[c.__name__.removeprefix("check_")
                              for c in acceptance.ALL_CHECKS])
def test_acceptance(check):
    result = check()
    print(result.line())
    if result.details:
        print(result.details)
    assert result.passed, result.line()


def test_closed_loop_checks_take_no_dense_spectrum(monkeypatch):
    # checks 7-9 read omega, Re lambda, |B*phi| and the dominant block from
    # the shifts alone, so none forms a spectrum
    calls = []
    compute_spectrum = acceptance.compute_spectrum

    def counting(*args, **kwargs):
        calls.append(args)
        return compute_spectrum(*args, **kwargs)

    monkeypatch.setattr(acceptance, "compute_spectrum", counting)
    for check in (acceptance.check_stabilizability,
                  acceptance.check_gain_perturbation,
                  acceptance.check_no_uniform_margin):
        check()
    assert calls == []


def test_imaginary_spectrum_sees_a_symmetric_defect(monkeypatch):
    # one entry of S_PQ off -S_QP^T keeps S bipartite, so the solve still
    # reads every real part as exactly 0; check 4 fails on ||sym S||_2
    params = toy_parameters(1.0)
    asm = assemble_generator(params, build_grid(params.L, 32))
    ref = asm.reference
    (p, q), = spectral._plan(ref, asm.reduction.mechanical)
    s = ref.s.copy()
    s[p[3], q[5]] += 1e-6 * np.abs(s).max()
    asm.__dict__["reference"] = dataclasses.replace(ref, s=s)
    monkeypatch.setattr(acceptance, "_assembly", lambda n_cells, gamma: asm)
    result = acceptance.check_imaginary_spectrum()
    assert spectral.compute_spectrum(asm).max_abs_real == 0.0
    assert not result.passed, result.line()
