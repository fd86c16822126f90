import json

import pytest

from surfquant import verification as ver


@pytest.fixture(scope="module")
def small_report():
    options = ver.VerifyOptions(
        points_per_chart=5,
        lmax=1,
        trig_count=1,
        hermiticity_order=32,
        parseval_lmax=1,
    )
    return ver.run_verification(options)


def test_full_small_run_passes(small_report):
    assert small_report.all_pass
    assert small_report.failed == 0
    names = {c.identity_name for c in small_report.checks}
    assert names == set(ver.IDENTITY_NAMES)


def test_report_serialization_round_trip(small_report):
    payload = json.loads(small_report.to_json())
    assert payload["total"] == small_report.total
    assert payload["all_pass"] is True
    entry = payload["checks"][0]
    assert list(entry) == [
        "identity_name", "chart", "field", "point", "residual", "tolerance", "pass",
    ]


def test_only_filter_restricts_suites():
    options = ver.VerifyOptions(only=("geometric_potential",))
    report = ver.run_verification(options)
    assert {c.identity_name for c in report.checks} == {"geometric_potential"}
    assert report.total == 2  # sphere and cylinder oracles


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identities"):
        ver.run_verification(ver.VerifyOptions(only=("bogus",)))


def test_tolerance_override_fails_everything():
    options = ver.VerifyOptions(
        only=("geometric_potential",), tolerance_override=1e-30
    )
    report = ver.run_verification(options)
    assert not report.all_pass
    assert all(c.tolerance == 1e-30 for c in report.checks)


@pytest.mark.parametrize("override", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerance_override_must_be_finite_and_positive(override):
    options = ver.VerifyOptions(only=("geometric_potential",), tolerance_override=override)
    with pytest.raises(ValueError, match="finite and positive"):
        ver.run_verification(options)


def test_results_are_deterministic():
    options = ver.VerifyOptions(only=("dirichlet_kernel",))
    a = ver.run_verification(options)
    b = ver.run_verification(options)
    assert a.to_json() == b.to_json()
