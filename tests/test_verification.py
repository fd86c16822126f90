import json

import pytest

from surfquant import _jets
from surfquant import fields as flib
from surfquant import verification as ver


@pytest.fixture
def jet_orders(monkeypatch):
    """The order of every _jets.partials evaluation made while it is active."""
    orders = []
    partials = _jets.partials

    def counting(fn, q1, q2, order):
        orders.append(order)
        return partials(fn, q1, q2, order)

    monkeypatch.setattr(_jets, "partials", counting)
    return orders


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


@pytest.mark.parametrize("only, charts, per_field", [
    (None, 4, 10),
    (("position_kinetic",), 4, 4),
    (("angular_momentum", "sphere_component_match"), 1, 2),
])
def test_commutator_suite_evaluates_each_field_once_per_point_set(
    only, charts, per_field, jet_orders
):
    # one frame per chart, and one jet evaluation per library field on each
    # chart's points, whose sphere jets also serve the sphere-only identities
    options = ver.VerifyOptions(points_per_chart=3, lmax=2, trig_count=2, only=only)
    fields = len(flib.field_library(2, 2))
    assert len(ver.commutator_suite(options)) == per_field * fields
    assert len(jet_orders) == charts * (1 + fields)


def test_confined_sum_builds_each_surface_once(jet_orders):
    report = ver.run_verification(ver.VerifyOptions(only=("confined_sum",)))
    assert report.total == 3 and report.all_pass
    # sphere, torus and plane, each at all four q3: one frame and one chi each
    assert jet_orders.count(3) == 3 and jet_orders.count(1) == 3
    assert len(jet_orders) == 6
