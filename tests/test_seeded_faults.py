"""Seeded faults: a verify identity must fail when what it checks is broken.

Each test monkeypatches one fault into the code behind an identity, runs
`run_verification` on that identity alone and asserts that the checks
the fault reaches fail.  Together they are the table of faults against the identities that
catch them:

| identity                  | seeded fault                                 |
| ------------------------- | -------------------------------------------- |
| `dirichlet_kernel`        | `overlap_kernel` returns NaN                 |
| `amplitude_surface_match` | `amplitude_surface_overlap` NaN at p = 0     |
| `eigenvalue_residual`     | p_z loses its M n term                       |
| `hermiticity`             | p loses its M n term                         |
| `confined_sum`            | `thin_shell` drops its normal-geometric part |
| `sphere_component_match`  | the general-chart p loses its M n term       |
| `rotation_relation`       | `rotation_matrix` turns the other way        |
| `angular_momentum`        | `_angular_jet` loses d_theta of its d_phi row |
| `parseval`                | `amplitude_recurrence` times sqrt((2l+1)/4pi) |
| `moment_second`           | the same                                     |
| `uncertainty_product`     | the same                                     |
| `position_kinetic`        | `laplace_beltrami_jets` doubled              |

Dropping M n from p is invisible to `angular_momentum` and
`rotation_relation` (their residuals stay at 6.7e-15 and 1.2e-15 with that
fault): -i hbar r^mu d_mu is still a vector operator, so [L_i, p_j] =
i hbar eps_ijk p_k and the rotation construction of p_x and p_y from p_z
both still hold.  Those two identities have faults of their own.  Nor
does shifting the amplitudes from l to l + 1 make a `parseval` fault:
every l has norm 1.
"""

import dataclasses

import numpy as np

from surfquant import operators as oplib
from surfquant import spectra as splib
from surfquant.verification import VerifyOptions, run_verification


def checks_of(name, count):
    report = run_verification(VerifyOptions(only=(name,)))
    assert [c.identity_name for c in report.checks] == [name] * count
    return report.checks


def assert_every_check_fails(name, count):
    for check in checks_of(name, count):
        assert not check.passed and np.isnan(check.residual), check


def without_normal_term(jet):
    """A coefficient jet of p / (-i hbar) without its scalar row -n, so that
    the operator is r^mu d_mu alone, without M n."""

    def faulty(theta, phi, derivatives=True):
        c, dc = jet(theta, phi, derivatives)
        c = c.copy()
        c[2] = 0.0
        if dc is not None:
            dc = dc.copy()
            dc[:, 2] = 0.0
        return c, dc

    return faulty


def test_dirichlet_kernel_fails_on_a_nan_overlap(monkeypatch):
    healthy = splib.overlap_kernel

    def faulty(p_prime, p, theta_min):
        return np.nan * healthy(p_prime, p, theta_min)

    monkeypatch.setattr(splib, "overlap_kernel", faulty)
    assert_every_check_fails("dirichlet_kernel", 3)  # one per theta_min


def test_amplitude_surface_match_fails_on_one_nan_amplitude(monkeypatch):
    # NaN at p = 0 only, in the middle of the p grid: a running Python
    # max() that already holds a finite residual keeps it and hides the NaN
    healthy = splib.amplitude_surface_overlap

    def faulty(l, p, **rule):
        return np.where(np.asarray(p) == 0.0, np.nan, healthy(l, p, **rule))

    monkeypatch.setattr(splib, "amplitude_surface_overlap", faulty)
    assert_every_check_fails("amplitude_surface_match", 5)  # l = 0..4


def test_eigenvalue_residual_fails_without_the_normal_term(monkeypatch):
    p = oplib.SPHERE_MOMENTUM
    monkeypatch.setattr(p, "jet", without_normal_term(p.jet))
    (check,) = checks_of("eigenvalue_residual", 1)
    assert not check.passed and check.residual > 1.0, check  # 5.3


def test_hermiticity_fails_without_the_normal_term(monkeypatch):
    monkeypatch.setattr(oplib, "_momentum_jet", without_normal_term(oplib._momentum_jet))
    for check in checks_of("hermiticity", 3):  # one per axis
        assert not check.passed and check.residual > 0.5, check  # 0.82 to 1.15


def test_confined_sum_fails_without_the_normal_geometric_part(monkeypatch):
    healthy = oplib.thin_shell

    def faulty(*args):
        parts, direct, deviation = healthy(*args)
        dropped = dataclasses.replace(parts, normal_geometric=0.0 * parts.normal_geometric)
        return dropped, direct, deviation

    monkeypatch.setattr(oplib, "thin_shell", faulty)
    checks = checks_of("confined_sum", 3)
    assert [c.chart for c in checks] == ["sphere", "torus", "plane"]
    assert not checks[0].passed and not checks[1].passed
    # the part is n (M - K q3) ..., zero on the plane, where M = K = 0
    assert checks[2].passed


def test_sphere_component_match_fails_without_the_general_normal_term(monkeypatch):
    # the closed form keeps -n; the general path's r^mu d_mu + M n loses M n
    healthy = oplib._momentum

    def faulty(frame, value, grad):
        flat = dataclasses.replace(frame, mean_curvature=0.0 * frame.mean_curvature)
        return healthy(flat, value, grad)

    monkeypatch.setattr(oplib, "_momentum", faulty)
    for check in checks_of("sphere_component_match", 19):  # every library field
        assert not check.passed and check.residual > 0.1, check  # 0.27 to 2.8


def test_rotation_relation_fails_when_the_rotations_turn_the_other_way(monkeypatch):
    healthy = oplib.rotation_matrix
    monkeypatch.setattr(oplib, "rotation_matrix", lambda axis, angle: healthy(axis, -angle))
    for check in checks_of("rotation_relation", 3):
        assert not check.passed and check.residual > 0.5, check  # up to 2.0


def test_angular_momentum_fails_without_a_coefficient_partial(monkeypatch):
    # d_theta of L's d_phi coefficient, zeroed: the nested images L (p f)
    # and p (L f) lose a term wherever f depends on phi
    healthy = oplib._angular_jet

    def faulty(theta, phi, derivatives=True):
        c, dc = healthy(theta, phi, derivatives)
        if dc is not None:
            dc = dc.copy()
            dc[0, 1] = 0.0
        return c, dc

    monkeypatch.setattr(oplib, "_angular_jet", faulty)
    checks = checks_of("angular_momentum", 19)
    axial = {"Y0+0", "Y1+0", "Y2+0", "Y3+0"}  # m = 0: d_phi f = 0
    assert {c.field for c in checks if c.passed} == axial
    assert max(c.residual for c in checks) > 10.0  # 21


def test_the_momentum_moments_fail_on_an_unnormalised_amplitude(monkeypatch):
    # phi_l times sqrt((2l+1)/4 pi), the Y_l0 normalisation applied twice
    healthy = splib.amplitude_recurrence

    def faulty(l, p):
        return np.sqrt((2 * l + 1) / (4.0 * np.pi)) * healthy(l, p)

    monkeypatch.setattr(splib, "amplitude_recurrence", faulty)
    for check in checks_of("parseval", 9):  # l = 0..8
        assert not check.passed and check.residual > 0.03, check  # 0.0345 to 0.92
    (check,) = checks_of("moment_second", 1)
    assert not check.passed and check.residual > 0.3, check  # 0.307
    (check,) = checks_of("uncertainty_product", 1)
    assert not check.passed and check.residual > 0.2, check  # 0.239


def test_position_kinetic_fails_on_a_doubled_laplacian(monkeypatch):
    # T = -Lap / 2 twice over; only Y_00 on the plane, where p f and both
    # Laplacians vanish, still passes
    healthy = oplib.laplace_beltrami_jets
    monkeypatch.setattr(oplib, "laplace_beltrami_jets",
                        lambda frame, grad, hess: 2.0 * healthy(frame, grad, hess))
    checks = checks_of("position_kinetic", 76)  # 19 library fields on 4 charts
    assert [(c.chart, c.field) for c in checks if c.passed] == [("plane", "Y0+0")]
    assert min(c.residual for c in checks if not c.passed) > 0.1  # 0.141
