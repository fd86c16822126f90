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

Dropping M n from p is invisible to `angular_momentum` and
`rotation_relation` (their residuals stay at 6.7e-15 and 1.2e-15 with that
fault): -i hbar r^mu d_mu is still a vector operator, so [L_i, p_j] =
i hbar eps_ijk p_k and the rotation construction of p_x and p_y from p_z
both still hold.
Those two identities need other faults.
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
    p_z = oplib.SPHERE_MOMENTUM["z"]
    monkeypatch.setattr(p_z, "jet", without_normal_term(p_z.jet))
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
