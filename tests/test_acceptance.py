"""Acceptance gate: the thirteen headline checks, one pass/fail line each.

Each check pins its tolerance inside :mod:`piezolab.acceptance`; this file
only executes and reports.  A failing check prints its measured table so the
failure is diagnosable from the test log alone.
"""

import pytest

from piezolab import acceptance


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
