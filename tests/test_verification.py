import json
import tracemalloc

import numpy as np
import pytest

from surfquant import _jets
from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import operators as oplib
from surfquant import spectra as splib
from surfquant import verification as ver

# The library options at which the stacked suites are pinned to the public
# per-field residuals: 11 fields (9 Y_lm and 2 trig) at 4 points per chart.
PIN = ver.VerifyOptions(points_per_chart=4, lmax=2, trig_count=2)


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


@pytest.fixture
def kinetic_calls(monkeypatch):
    """The number of oplib._position_kinetic calls made while it is active."""
    calls = []
    kinetic = oplib._position_kinetic

    def counting(*args, **kwargs):
        calls.append(None)
        return kinetic(*args, **kwargs)

    monkeypatch.setattr(oplib, "_position_kinetic", counting)
    return calls


@pytest.fixture(scope="module")
def pinned_entries():
    """commutator_suite's entries at PIN, keyed by (identity, chart, field)."""
    return {(c.identity_name, c.chart, c.field): c for c in ver.commutator_suite(PIN)}


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
    only, charts, per_field, jet_orders, kinetic_calls
):
    # one frame per chart, and one stacked jet evaluation of the 11 library
    # fields (one block) on each chart's points, whose sphere jets also serve
    # the sphere-only identities; the block shares one [r, T] evaluation.
    # On the sphere, the coefficient jets of p and L are one evaluation each.
    options = ver.VerifyOptions(points_per_chart=3, lmax=2, trig_count=2, only=only)
    fields = len(flib.field_library(2, 2))
    assert len(ver.commutator_suite(options)) == per_field * fields
    assert len(jet_orders) == charts * (1 + 1) + 2
    assert len(kinetic_calls) == (charts if options.wants("position_kinetic") else 0)


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_stacked_entries_equal_the_public_per_field_residuals(name, pinned_entries):
    # each entry is, bit for bit, the worst point of the public residual
    # evaluated for its field alone
    chart = getattr(chlib, name)()
    pts = chlib.interior_points(chart, PIN.points_per_chart)
    q1, q2 = pts[:, 0], pts[:, 1]
    library = flib.field_library(PIN.lmax, PIN.trig_count)
    for fld in library:
        expected = {
            "position_momentum": np.abs(
                oplib.position_momentum_residuals(chart, fld, q1, q2)
            ).max(axis=(0, 1)),
            "position_kinetic": np.abs(
                oplib.commutator_position_kinetic(chart, fld, q1, q2)
            ).max(axis=0),
        }
        if name == "sphere":
            expected["angular_momentum"] = np.abs(
                oplib.angular_momentum_residuals(fld, q1, q2)
            ).max(axis=(0, 1))
            closed = oplib.SPHERE_MOMENTUM.value(fld, q1, q2)
            general = oplib.apply_geometric_momentum(chart, fld, q1, q2)
            expected["sphere_component_match"] = np.abs(closed - general).max(axis=0)
        for identity, residuals in expected.items():
            entry = pinned_entries[identity, name, fld.label]
            assert (entry.residual, entry.point) == ver._worst(residuals, pts)
    per_chart = 4 if name == "sphere" else 2
    assert sum(key[1] == name for key in pinned_entries) == per_chart * len(library)


@pytest.mark.parametrize("fields_per_block", [1, 2])
def test_library_blocks_do_not_change_the_report(fields_per_block, monkeypatch, kinetic_calls):
    # 11 fields in blocks of 2 leave a remainder of 1
    options = ver.VerifyOptions(
        points_per_chart=PIN.points_per_chart, lmax=PIN.lmax,
        trig_count=PIN.trig_count, only=ver.LIBRARY_IDENTITIES,
    )
    one_block = ver.run_verification(options).to_json()
    monkeypatch.setattr(ver, "_STACK_POINTS", (fields_per_block + 1) * PIN.points_per_chart - 1)
    assert ver.run_verification(options).to_json() == one_block
    fields = len(flib.field_library(PIN.lmax, PIN.trig_count))
    blocks = -(-fields // fields_per_block)
    assert len(kinetic_calls) == 4 * (1 + blocks)


def test_a_faulty_field_fails_only_its_own_entries(pinned_entries, monkeypatch):
    # Negative control for the field axis: a NaN in one gradient entry of a
    # field in the middle of the library.  A finite fault in the jets would
    # not do: each library identity is linear in the field's value, gradient
    # and Hessian at a point and holds whatever they are (a gradient scaled
    # by 1.001 passes all four).
    library = flib.field_library(PIN.lmax, PIN.trig_count)
    k = [fld.label for fld in library].index("Y2+1")
    library_blocks = flib.library_blocks

    def with_fault(healthy, row):
        def partials(q1, q2, order):
            jets = healthy.partials(q1, q2, order)
            grad = jets[1].copy()
            grad[0, row, 2] = np.nan  # d/dq1 at the third point
            return [jets[0], grad] + jets[2:]

        return flib.ScalarField(healthy.label, partials)

    def faulty_blocks(lmax, trig_count, size):
        for rows, block in library_blocks(lmax, trig_count, size):
            yield rows, with_fault(block, rows.index(k)) if k in rows else block

    monkeypatch.setattr(flib, "library_blocks", faulty_blocks)
    entries = ver.commutator_suite(PIN)
    assert len(entries) == len(pinned_entries)
    failed = set()
    for entry in entries:
        key = (entry.identity_name, entry.chart, entry.field)
        if entry.field == "Y2+1":
            pts = chlib.interior_points(getattr(chlib, entry.chart)(), PIN.points_per_chart)
            assert not entry.passed and np.isnan(entry.residual)
            assert entry.point == tuple(pts[2])
            failed.add(key)
        else:
            assert entry == pinned_entries[key] and entry.passed
    assert {name for name, _, _ in failed} == set(ver.LIBRARY_IDENTITIES)
    assert len(failed) == 2 * 4 + 2  # [x, p] and [r, T] on 4 charts, 2 on the sphere


def test_stacking_keeps_the_memory_of_one_field():
    # blocks hold at most _STACK_POINTS field-points, so at 5000 points the
    # 19 default fields go one at a time and peak no higher than one field
    def peak(**library):
        options = ver.VerifyOptions(points_per_chart=5000, **library)
        tracemalloc.start()
        try:
            ver.commutator_suite(options)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= 1.5 * peak(lmax=0, trig_count=0)


def test_spectra_suite_computes_each_grid_amplitude_once(monkeypatch):
    # the closed-form checks (l <= 2) and density_parity (l <= 8) share the
    # quadrature amplitudes on their p grid: one call over l = 0..8
    orders = []
    quadrature = splib.amplitude_quadrature

    def counting(l, p, *args, **kwargs):
        orders.append(list(l))
        return quadrature(l, p, *args, **kwargs)

    monkeypatch.setattr(splib, "amplitude_quadrature", counting)
    options = ver.VerifyOptions(
        only=("amplitude_closed_density", "amplitude_closed_signed", "density_parity")
    )
    assert len(ver.spectra_suite(options)) == 3 + 3 + 9
    assert orders == [list(range(9))]


@pytest.mark.parametrize("only, parseval_lmax, grid_orders", [
    (("amplitude_closed_signed",), 8, 3),
    (("density_parity",), 1, 2),
    (("density_parity",), 5, 6),
    (("amplitude_closed_density", "density_parity"), 0, 3),
])
def test_spectra_suite_asks_the_grid_for_the_orders_it_checks(
    only, parseval_lmax, grid_orders, monkeypatch
):
    orders = []
    quadrature = splib.amplitude_quadrature

    def counting(l, p, *args, **kwargs):
        orders.append(list(l))
        return quadrature(l, p, *args, **kwargs)

    monkeypatch.setattr(splib, "amplitude_quadrature", counting)
    ver.spectra_suite(ver.VerifyOptions(only=only, parseval_lmax=parseval_lmax))
    assert orders == [list(range(grid_orders))]


def test_spectra_suite_makes_one_call_per_family(monkeypatch):
    calls = []
    for name in ("amplitude_quadrature", "amplitude_surface_overlap", "moments"):
        entry = getattr(splib, name)
        monkeypatch.setattr(splib, name, lambda *a, _e=entry, _n=name, **k:
                            calls.append(_n) or _e(*a, **k))
    only = ("amplitude_surface_match", "density_parity", "parseval")
    report = ver.run_verification(ver.VerifyOptions(only=only))
    assert report.total == 5 + 9 + 9 and report.all_pass
    # the p grid, then the surface match's quadrature and overlap
    assert sorted(calls) == ["amplitude_quadrature"] * 2 + [
        "amplitude_surface_overlap", "moments"]


def test_parseval_passes_at_every_accepted_lmax():
    # a fixed |p| <= 16 window failed every l >= 10 (0.10 off at l = 16,
    # 0.84 at l = 64)
    options = ver.VerifyOptions(only=("parseval",), parseval_lmax=splib.LEGENDRE_MAX_ORDER)
    report = ver.run_verification(options)
    assert report.total == 65 and report.all_pass
    assert max(c.residual for c in report.checks) <= 1e-13


@pytest.mark.parametrize("only", [("parseval",), ("density_parity",), ("geometric_potential",)])
def test_a_parseval_lmax_past_the_amplitudes_is_refused_before_any_suite(only, monkeypatch):
    def no_suite(options):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(ver, "geometry_suite", no_suite)
    options = ver.VerifyOptions(only=only, parseval_lmax=splib.LEGENDRE_MAX_ORDER + 1)
    with pytest.raises(ValueError, match=r"parseval lmax \(--parseval-lmax\) must be at most 64"):
        ver.run_verification(options)


def _report_of_every_cell_kind():
    checks = [
        ver.CheckResult("a", None, None, None, float("nan"), 1e-10, False),
        ver.CheckResult("b", "sphere", 'f"%s\\', (-0.0, 0.5), -0.0, float("inf"), True),
        ver.CheckResult("a", "plane", None, (1e300, -1e-300), 5e-324, 1e-10, True),
        ver.CheckResult("c%", None, "x", (0.5, float("-inf")), 2.5, 0.0, False),
    ]
    return ver.VerificationReport(tuple(checks))


@pytest.mark.parametrize("report", [
    ver.VerificationReport(()),
    _report_of_every_cell_kind(),
    ver.VerificationReport(_report_of_every_cell_kind().checks[:1]),
], ids=["empty", "every-kind", "one-null-row"])
def test_report_json_is_the_dict_form(report):
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_default_report_json_is_the_dict_form(small_report):
    assert small_report.to_json() == json.dumps(small_report.to_dict(), indent=2) + "\n"


def test_confined_sum_builds_each_surface_once(jet_orders):
    report = ver.run_verification(ver.VerifyOptions(only=("confined_sum",)))
    assert report.total == 3 and report.all_pass
    # sphere, torus and plane, each at all four q3: one frame and one chi each
    assert jet_orders.count(3) == 3 and jet_orders.count(1) == 3
    assert len(jet_orders) == 6
