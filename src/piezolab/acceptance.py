"""Acceptance checks: the property suite that gates a release.

Each check builds what it needs, measures one quantitative property of the
discretization at a pinned tolerance, and returns a CheckResult.  The CLI
``paper-suite`` subcommand and ``scripts/cli_snapshot.py`` run
:func:`run_all`; tests/test_acceptance.py iterates :data:`ALL_CHECKS`.
Assemblies (keyed by N and gamma) and the trajectory that checks 2 and 3
share are cached (``functools.cache``); :func:`run_all` clears the
assemblies after each check, so none, nor the dense reference or the
open-loop solve kept on it, outlives the check that formed it.  The
closed-loop checks 7-9 read every per-mode fact (omega, Re lambda, |B*phi|
and the dominant block) from one
:func:`~piezolab.spectral.closed_loop_mode_shifts` call each, so no mode is
paired across two eigensolvers; check 8's two gains share one solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import time_steps
from .dynamics import (ENERGY_DRIFT_TOL, GAUGE_BOUND_TOL, admissibility_constant,
                       default_dt, modal_state, run)
from .errors import ConfigParseError
from .generator import assemble_generator, dense_skew_defect, gram_product
from .model import build_grid, toy_parameters, validate_parameters
from .operators import build_operators, p_xi_identity_check
from .spectral import (IMAGINARY_AXIS_TOL, STABILIZABLE_TOL, closed_loop_mode_shifts,
                       compute_spectrum, decay_rate_fit, kernel_basis,
                       symmetric_part_norm)
from .variants import assemble_charge_magnetic, assemble_electrostatic


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    details: str = ""

    def __post_init__(self):
        # checks compute their verdicts with numpy; reports need a plain bool
        object.__setattr__(self, "passed", bool(self.passed))

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.measured} (tolerance {self.tolerance})"


@functools.cache
def _assembly(n_cells: int, gamma: float):
    params = toy_parameters(gamma)
    return assemble_generator(params, build_grid(params.L, n_cells))


@functools.cache
def _conservation_series():
    """Shared 1e4-step open-loop trajectory for checks 2 and 3."""
    asm = _assembly(32, 1.0)
    rng = np.random.default_rng(7)
    y0 = np.zeros(asm.dim)
    for name in ("y1", "y2", "y4", "y5"):
        block = asm.blocks[name]
        y0[block] = rng.standard_normal(block.stop - block.start)
    dt = default_dt(asm.params, asm.grid)
    return run(asm, asm.lift(y0), 10_000, dt, record_stride=100)


def skewness_parameter_sets() -> list:
    """Toy units and the three seeded random parameter sets of check 1."""
    rng = np.random.default_rng(12345)
    param_sets = [toy_parameters()]
    for _ in range(3):
        raw = {name: float(rng.uniform(0.5, 2.0))
               for name in ("rho", "alpha", "eps1", "eps3", "mu", "h", "L")}
        raw["gamma"] = float(rng.uniform(-2.0, 2.0))
        param_sets.append(validate_parameters(raw))
    return param_sets


def check_skewness() -> CheckResult:
    """1: relative skewness defect of M G at machine level.

    The full-space ||M G + G^T M|| / ||M G|| on the dense reference; every
    assembly has already passed the probe certificate.
    """
    tol = 1e-12
    worst = 0.0
    for params in skewness_parameter_sets():
        for n in (16, 64):
            asm = assemble_generator(params, build_grid(params.L, n))
            worst = max(worst, dense_skew_defect(asm))
    return CheckResult("skewness", worst <= tol,
                       f"max defect {worst:.3e}", f"<= {tol:.0e}",
                       "toy units plus three seeded random parameter sets, "
                       "N in {16, 64}")


def check_conservation() -> CheckResult:
    """2: open-loop energy drift over 1e4 midpoint steps."""
    tol = ENERGY_DRIFT_TOL
    ts = _conservation_series()
    e = ts.total_energy()
    drift = float(np.max(np.abs(e - e[0])) / e[0])
    return CheckResult("conservation", drift <= tol,
                       f"relative drift {drift:.3e}", f"<= {tol:.0e}",
                       "toy units, N=32, random constrained data, default dt")


def check_gauge() -> CheckResult:
    """3: gauge residuals along the same 1e4-step trajectory."""
    tol = GAUGE_BOUND_TOL
    ts = _conservation_series()
    worst = float(max(ts.gauge_pos.max(), ts.gauge_vel.max()))
    return CheckResult("gauge", worst <= tol,
                       f"max residual {worst:.3e}", f"<= {tol:.0e}")


def check_imaginary_spectrum() -> CheckResult:
    """4: how far the spectrum of S at N=128 can lie off the imaginary axis.

    The bipartite solve gives real parts of exactly 0, so the check scores
    ||sym S||_2, sym S = (S + S^T)/2, relative to the spectral radius: a unit
    eigenvector x of S has Re lambda = x^H (sym S) x, so ||sym S||_2 bounds
    the spectral abscissa of S itself, and a defect that breaks
    S_PQ = -S_QP^T shows there. The computed max|Re| is scored too.
    """
    asm = _assembly(128, 1.0)
    rep = compute_spectrum(asm)
    rel = rep.max_abs_real / rep.g_norm
    sym = symmetric_part_norm(asm) / rep.g_norm
    tol = IMAGINARY_AXIS_TOL
    return CheckResult("imaginary_spectrum", max(rel, sym) <= tol,
                       f"||sym S||_2/max|lambda| {sym:.3e}, max|Re|/max|lambda| {rel:.3e}",
                       f"both <= {tol:.0e}",
                       f"max|Re| = {rep.max_abs_real:.3e}, "
                       f"max|lambda| = {rep.g_norm:.3e}")


def check_pxi_identity() -> CheckResult:
    """5: exact algebraic identity of the Helmholtz inverse, plus its range."""
    tol = 1e-12
    worst_id = 0.0
    spec_ok = True
    lo = hi = None
    params = toy_parameters()
    for n in (16, 64):
        ops = build_operators(params, build_grid(params.L, n))
        worst_id = max(worst_id, p_xi_identity_check(ops))
        ev = np.linalg.eigvalsh(ops.p_dense)
        lo, hi = float(ev.min()), float(ev.max())
        if lo <= 0.0 or hi > 1.0 + tol:
            spec_ok = False
    passed = worst_id <= tol and spec_ok
    return CheckResult("pxi_identity", passed,
                       f"identity {worst_id:.3e}, spectrum [{lo:.3e}, {hi:.10f}]",
                       f"identity <= {tol:.0e}, spectrum in (0, 1]")


def check_dispersion() -> CheckResult:
    """6: analytic dispersion at gamma=0 with second-order refinement."""
    p = toy_parameters(0.0)
    rep64, rep128 = (compute_spectrum(_assembly(n, 0.0)) for n in (64, 128))

    def freqs(rep, block):
        im = rep.eigenvalues.imag
        return np.sort(im[(rep.dominant_block == block) & (im > 1e-8)])

    ratios = []
    mech_t = [k * np.pi * np.sqrt(p.alpha / p.rho) / p.L for k in range(1, 6)]
    em_t = [np.sqrt(p.mu * (1 + p.xi * (k * np.pi / p.L) ** 2)
                    / (p.eps1 * p.h ** 2 / 12)) for k in range(1, 6)]
    for block, targets in (("mechanical", mech_t), ("electromagnetic", em_t)):
        f64, f128 = freqs(rep64, block), freqs(rep128, block)
        for k, t in enumerate(targets):
            ratios.append(abs(f64[k] - t) / abs(f128[k] - t))
    ratios = np.array(ratios)
    ok = bool(np.all((ratios >= 3.5) & (ratios <= 4.5)))
    return CheckResult("dispersion", ok,
                       f"ratios in [{ratios.min():.3f}, {ratios.max():.3f}]",
                       "4.0 +/- 0.5 under N doubling (64 to 128)",
                       "lowest five mechanical and electromagnetic modes")


def check_stabilizability() -> CheckResult:
    """7: even/odd electromagnetic split under unit collocated feedback.

    Even modes must be numerically invisible to the control and stay
    undamped; odd modes must move strictly left of -1e-6.  The high-odd
    tail has first-order shifts k*|B*phi|^2 that fall below that threshold
    on this grid no matter the solver, so the odd clause fails honestly
    there; the details table records every mode.
    """
    omega, lam, coupling, block = closed_loop_mode_shifts(_assembly(64, 0.0), 1.0)
    em = block == "electromagnetic"
    even_fail, odd_fail = [], []
    lines = []
    for k, (w, lam_k, c) in enumerate(zip(omega[em], lam[em], coupling[em]), start=1):
        if k % 2 == 0:
            ok = (c <= STABILIZABLE_TOL and abs(lam_k.real) <= 1e-8)
            if not ok:
                even_fail.append(k)
        else:
            ok = lam_k.real < -1e-6
            if not ok:
                odd_fail.append(k)
            lines.append(f"k={k:3d} omega={w:9.3f} "
                         f"|B*phi|={c:.3e} Re={lam_k.real:+.3e}"
                         + ("" if ok else "  below threshold"))
    passed = not even_fail and not odd_fail
    measured = (f"even failures {len(even_fail)}, odd failures {len(odd_fail)} "
                f"of {np.count_nonzero(em)} EM modes")
    return CheckResult("stabilizability", passed, measured,
                       "even: |B*phi| <= 1e-8 and |Re| <= 1e-8; odd: Re < -1e-6",
                       "\n".join(lines))


def check_gain_perturbation() -> CheckResult:
    """8: measured Re lambda(k) against the first-order collocated formula.

    The prediction is -k |B*phi|^2 for a mode phi of unit M-norm, in the
    Gram normalization in which the energy is half the squared norm; the
    shifts' coupling |c| is that |B*phi|.  The three lowest modes with
    |c| > STABILIZABLE_TOL are compared.
    """
    asm = _assembly(64, 1.0)
    worst = 0.0
    lines = []
    for gain in (1e-3, 1e-2):
        omega, lam, coupling, _ = closed_loop_mode_shifts(asm, gain)
        for j in np.flatnonzero(coupling > STABILIZABLE_TOL)[:3]:
            pred = -gain * coupling[j] ** 2
            rel = abs(lam[j].real - pred) / abs(pred)
            worst = max(worst, rel)
            lines.append(f"gain={gain:g} omega={omega[j]:.4f}: measured "
                         f"{lam[j].real:.6e} predicted {pred:.6e} "
                         f"rel {rel:.2e}")
    return CheckResult("gain_perturbation", worst <= 0.10,
                       f"worst relative error {worst:.3e}", "<= 10%",
                       "\n".join(lines))


def check_no_uniform_margin() -> CheckResult:
    """9: closed-loop damping of the top frequency decade shrinks with k.

    At gamma=0 the stabilizable family is exactly the odd electromagnetic
    branch; the per-mode decay |Re lambda| must decrease monotonically
    (5% jitter allowed) across the top decade at N=256, which is the
    discrete signature that no uniform exponential margin exists.
    """
    omega, lam, coupling, block = closed_loop_mode_shifts(_assembly(256, 0.0), 1.0)
    stab = (block == "electromagnetic") & (coupling > STABILIZABLE_TOL)
    ws, res = omega[stab], np.abs(lam[stab].real)
    sel = ws > ws.max() / 10.0
    top = res[sel]
    viol = int(sum(top[j + 1] > top[j] * 1.05 for j in range(top.size - 1)))
    return CheckResult("no_uniform_margin", viol == 0,
                       f"{viol} violations over {top.size} top-decade modes",
                       "monotone decrease, 5% jitter",
                       f"|Re| spans [{top.min():.3e}, {top.max():.3e}] "
                       f"for omega in ({ws.max()/10:.1f}, {ws.max():.1f}]")


def check_electrostatic_decay() -> CheckResult:
    """10: exponential decay of the boundary-damped clamped-free system."""
    params = toy_parameters()
    rates = {}
    r2 = {}
    for n in (64, 128):
        grid = build_grid(params.L, n)
        es = assemble_electrostatic(params, grid)
        n_steps, dt = time_steps(8.0, default_dt(params, grid), explicit=False)
        ts = run(es, modal_state(es, 0), n_steps, dt, gain=1.0, record_stride=4)
        fit = decay_rate_fit(ts, (0.5, 7.5))
        rates[n], r2[n] = fit.rate, fit.r_squared
    rel = abs(rates[64] - rates[128]) / rates[128]
    passed = (rates[64] > 0 and rates[128] > 0
              and r2[64] >= 0.99 and r2[128] >= 0.99 and rel <= 0.10)
    return CheckResult("electrostatic_decay", passed,
                       f"rates {rates[64]:.4f}/{rates[128]:.4f} "
                       f"(rel {rel:.3f}), R2 {r2[64]:.4f}/{r2[128]:.4f}",
                       "rate > 0, R2 >= 0.99, +/-10% under N doubling",
                       "toy units, k=1, first mode, fit window (0.5, 7.5)")


def check_admissibility() -> CheckResult:
    """11: the exact input-to-state constant of the midpoint step, stable under refinement.

    The charge-magnetic constant and the bound 1 + T ||g||^2 of a bounded
    control operator are reported beside it, not scored.
    """
    params, t_final = toy_parameters(), 1.0
    vals, bounds, charge = {}, {}, {}
    for n in (32, 64):
        asm = _assembly(n, 1.0)
        g = asm.reference.coupling
        vals[n] = admissibility_constant(asm, t_final)
        bounds[n] = 1.0 + t_final * float(g @ g)
        charge[n] = admissibility_constant(
            assemble_charge_magnetic(params, build_grid(params.L, n)), t_final)
    rel = abs(vals[64] - vals[32]) / vals[32]
    passed = np.isfinite(vals[32]) and np.isfinite(vals[64]) and rel <= 0.20
    return CheckResult("admissibility", bool(passed),
                       f"c(T) = {vals[32]:.4f} (N=32), {vals[64]:.4f} (N=64), "
                       f"spread {rel:.4f}", "finite, +/-20% across grids",
                       f"exact sup of the midpoint step, T=1; bound 1 + T||g||^2 = "
                       f"{bounds[32]:.4f} (N=32), {bounds[64]:.4f} (N=64); "
                       f"charge-magnetic c(T) = {charge[32]:.4f} (N=32), "
                       f"{charge[64]:.4f} (N=64), not scored")


def check_kernel_audit() -> CheckResult:
    """12: the zero mode is the rigid translation, reproducibly across N.

    The continuum argument suggests a much larger stationary set; the
    discrete constrained kernel measures exactly one dimension at every
    resolution, and that discrepancy is recorded here rather than scored.
    """
    dims = {}
    worst_proj = 0.0
    for n in (32, 64, 128):
        asm = _assembly(n, 1.0)
        basis = kernel_basis(asm)
        dims[n] = basis.shape[1]
        y_tr = np.zeros(asm.dim)
        y_tr[asm.blocks["y4"]] = 1.0
        m = functools.partial(gram_product, asm.energy_parts)  # y -> M y
        y_tr = y_tr / np.sqrt(float(y_tr @ m(y_tr)))
        coeff = basis.T @ m(y_tr)
        resid = y_tr - basis @ coeff
        worst_proj = max(worst_proj, float(np.sqrt(abs(resid @ m(resid)))))
    reproducible = len(set(dims.values())) == 1
    passed = reproducible and worst_proj <= 1e-8
    details = (f"measured kernel dimension {dims} on the constrained subspace; "
               "the unconstrained stationary set (constant eta with matching "
               "potential) is infinite-dimensional in the continuum limit, a "
               "documented discrepancy that is not scored")
    return CheckResult("kernel_audit", passed,
                       f"dims {sorted(set(dims.values()))}, translation "
                       f"residual {worst_proj:.3e}",
                       "same dimension across N, residual <= 1e-8", details)


def check_charge_norm_growth() -> CheckResult:
    """13: boundary charge influence norm grows under refinement."""
    params = toy_parameters()
    norms = []
    for n in (32, 64, 128, 256):
        asm = assemble_charge_magnetic(params, build_grid(params.L, n))
        norms.append(float(np.sqrt(asm.b @ asm.b_dual)))
    mono = all(norms[i] < norms[i + 1] for i in range(3))
    return CheckResult("charge_norm_growth", mono,
                       "norms " + ", ".join(f"{v:.2f}" for v in norms),
                       "strictly increasing over N in {32, 64, 128, 256}",
                       "||b||_M = (2|gamma|/(eps3 h)) / sqrt(rho dx)")


ALL_CHECKS = (
    check_skewness,
    check_conservation,
    check_gauge,
    check_imaginary_spectrum,
    check_pxi_identity,
    check_dispersion,
    check_stabilizability,
    check_gain_perturbation,
    check_no_uniform_margin,
    check_electrostatic_decay,
    check_admissibility,
    check_kernel_audit,
    check_charge_norm_growth,
)


def run_all(only: str | None = None) -> list:
    """Run every check, or those whose name contains ``only``.

    A filter that matches no check raises ConfigParseError before any runs.
    The cached assemblies are cleared after each check, so the memory a
    check's dense arrays take is freed before the next one runs.
    """
    names = [fn.__name__.removeprefix("check_") for fn in ALL_CHECKS]
    checks = [fn for fn, name in zip(ALL_CHECKS, names) if only is None or only in name]
    if not checks:
        raise ConfigParseError(f"no check matches {only!r}; available: {', '.join(names)}")
    results = []
    for check in checks:
        results.append(check())
        _assembly.cache_clear()
    return results
