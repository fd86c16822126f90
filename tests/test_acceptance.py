"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Criteria 2-7 and 9-12 run the shipped
verification suites at 50 points per chart and judge each returned residual
against the pinned tolerance, not the suite's own verdict; criteria 1 and 8
evaluate the spectra API directly.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import numpy as np

from surfquant import spectra as splib
from surfquant.verification import VerifyOptions, run_verification


def report(criterion, description, value, tolerance):
    ok = value <= tolerance
    print(
        f"criterion {criterion:02d} [{description}]: "
        f"value={value:.3e} tol={tolerance:.1e} -> {'PASS' if ok else 'FAIL'}"
    )
    assert ok, f"criterion {criterion} failed: {value} > {tolerance}"


def check_suites(criterion, pinned):
    """Run the suites of the identities in `pinned` ({name: (tolerance,
    number of checks)}) and report every residual against its tolerance."""
    checks = run_verification(
        VerifyOptions(points_per_chart=50, only=tuple(pinned))
    ).checks
    for name, (tolerance, count) in pinned.items():
        mine = [c for c in checks if c.identity_name == name]
        assert len(mine) == count, (name, len(mine))
        for c in mine:
            where = ", ".join(str(x) for x in (c.chart, c.field) if x is not None)
            report(criterion, f"{name} {where}".rstrip(), c.residual, tolerance)


def test_criterion_01_phi0_at_zero():
    residual = abs(splib.amplitude_quadrature(0, 0.0) - np.sqrt(np.pi) / 2.0)
    report(1, "phi_0(0) = sqrt(pi)/2", residual, 1e-8)


def test_criterion_02_closed_form_match():
    check_suites(2, {
        "amplitude_closed_density": (1e-8, 3),  # l = 0, 1, 2
        "amplitude_closed_signed": (1e-8, 3),  # up to the recorded sign
    })


def test_criterion_03_ground_state_fluctuation():
    check_suites(3, {
        "moment_second": (1e-8, 1),  # <p_z^2> = 1/3 for Y00
        "uncertainty_product": (1e-8, 1),  # dx_i * dp_i = 1/3 for Y00
    })


def test_criterion_04_parseval():
    check_suites(4, {"parseval": (1e-5, 9)})  # l <= 8


def test_criterion_05_commutator_suites():
    # 50 points per chart, Y_lm for l <= 3 plus three trig fields
    check_suites(5, {
        "position_momentum": (1e-10, 4 * 19),
        "position_kinetic": (1e-9, 4 * 19),
        "angular_momentum": (1e-10, 19),
    })


def test_criterion_06_geometry_oracles():
    # lap(r) = 2 M n on the four built-ins; V_gp = 0 on the sphere and
    # -1/(8 R^2) on the radius-2 cylinder
    check_suites(6, {
        "laplace_beltrami_coordinates": (1e-10, 4),
        "geometric_potential": (1e-12, 2),
    })


def test_criterion_07_confining_limit_slope():
    check_suites(7, {"confinement_slope": (0.05, 1)})


def test_criterion_08_delta_normalization():
    worst = 0.0
    for theta_min in (1e-3, 1e-5, 1e-7):
        L = -np.log(np.tan(0.5 * theta_min))
        for dp in np.linspace(0.0, 5.0, 26):
            value = splib.overlap_kernel(1.0 + dp, 1.0, theta_min)
            worst = max(worst, abs(value - splib.dirichlet_kernel(dp, L)))
    report(8, "Dirichlet kernel over three theta_min decades", worst, 1e-8)


def test_criterion_09_eigenvalue_relation():
    check_suites(9, {"eigenvalue_residual": (1e-10, 1)})  # 100 random samples


def test_criterion_10_rotation_relation():
    check_suites(10, {"rotation_relation": (1e-10, 3)})  # p_x, p_y from p_z


def test_criterion_11_hermiticity():
    check_suites(11, {"hermiticity": (1e-10, 3)})  # p_x, p_y, p_z at order 64


def test_criterion_12_oscillator_figure():
    comp = splib.sho_comparison(splib.symmetric_grid(4.0, 0.01))
    # the raw-density table must be present alongside the normalized one
    header = comp.to_csv().splitlines()[0].split(",")
    assert "density" in header and "sho_density" in header
    # peak-normalized |phi_0|^2 against the matched oscillator
    check_suites(12, {"sho_shape_match": (0.05, 1)})
