"""Seeded faults: a verify identity must fail when what it checks is broken.

Each test monkeypatches one fault into the code behind an identity, runs
`run_verification` on that identity alone and asserts that every one of its
checks fails.  Together they are the table of faults against the identities
that catch them:

| identity                  | seeded fault                              |
| ------------------------- | ----------------------------------------- |
| `dirichlet_kernel`        | `overlap_kernel` returns NaN              |
| `amplitude_surface_match` | `amplitude_surface_overlap` NaN at p = 0  |
"""

import numpy as np

from surfquant import spectra as splib
from surfquant.verification import VerifyOptions, run_verification


def assert_every_check_fails(name, count):
    report = run_verification(VerifyOptions(only=(name,)))
    assert [c.identity_name for c in report.checks] == [name] * count
    assert not report.all_pass
    for check in report.checks:
        assert not check.passed and np.isnan(check.residual), check


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
