"""Array-first evaluation: one call over many points equals stacked scalar calls.

Points broadcast to a point shape S that goes last in every result
(frames, momenta, residual tensors).  These tests pin that convention, the
scalar return types, and the error paths that must name the first failing
point in input order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import operators as oplib
from surfquant import spectra as splib
from surfquant import verification as ver
from surfquant.cli import _cells, main
from surfquant.errors import ChartSingularityError, PoleProximityError
from surfquant.geometry import (
    _frame_with_gradients,
    evaluate_frame,
    laplace_beltrami,
    shell_frame,
)

# Batched and scalar paths run the same elementwise arithmetic; only
# reductions and array-vs-scalar libm calls may round differently.
RTOL = 1e-14

FRAME_ARRAYS = (
    "position",
    "tangents",
    "raised",
    "metric",
    "metric_inv",
    "normal",
    "second_form",
    "weingarten",
    "second_partials",
    "dginv",
    "dsqrt",
)
FRAME_SCALARS = ("sqrt_g", "mean_curvature", "gaussian_curvature")


def assert_stacked(batched, scalars):
    """batched[..., k] equals the k-th scalar result to RTOL (relative above 1)."""
    stacked = np.stack([np.asarray(s) for s in scalars], axis=-1)
    assert batched.shape == stacked.shape
    scale = np.maximum(1.0, np.abs(stacked))
    assert np.all(np.abs(batched - stacked) <= RTOL * scale)


def cli(args, capsys):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err.strip().splitlines()


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_batched_frame_matches_scalar(name, builtin_charts):
    chart = builtin_charts[name]
    pts = chlib.interior_points(chart, 25)
    batched = evaluate_frame(chart, pts[:, 0], pts[:, 1])
    frames = [evaluate_frame(chart, q1, q2) for q1, q2 in pts]
    for attr in FRAME_ARRAYS + FRAME_SCALARS:
        assert_stacked(getattr(batched, attr), [getattr(fr, attr) for fr in frames])
    assert_stacked(
        batched.completeness_residual(), [fr.completeness_residual() for fr in frames]
    )
    assert np.array_equal(batched.point[0], pts[:, 0])


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_batched_operators_match_scalar(name, builtin_charts, field_library):
    chart = builtin_charts[name]
    pts = chlib.interior_points(chart, 25)
    q1, q2 = pts[:, 0], pts[:, 1]
    for fld in field_library:
        cases = [
            (oplib.apply_geometric_momentum, (chart, fld)),
            (laplace_beltrami, (chart, fld)),
            (oplib.position_momentum_residuals, (chart, fld)),
            (oplib.commutator_position_kinetic, (chart, fld)),
        ]
        if name == "sphere":
            cases.append((oplib.angular_momentum_residuals, (fld,)))
        for fn, lead in cases:
            assert_stacked(fn(*lead, q1, q2), [fn(*lead, a, b) for a, b in pts])


def test_point_shape_goes_last(builtin_charts):
    torus = builtin_charts["torus"]
    q1 = np.linspace(0.1, 6.0, 4)[:, None]
    q2 = np.linspace(0.2, 5.0, 3)[None, :]
    fld = flib.spherical_harmonic(1, 1)
    position, tangents, second = torus.partials(q1, q2, 2)
    assert position.shape == (3, 4, 3)
    assert tangents.shape == (2, 3, 4, 3)
    assert second.shape == (2, 2, 3, 4, 3)
    frame = evaluate_frame(torus, q1, q2)
    assert frame.mean_curvature.shape == (4, 3)
    assert frame.metric.shape == (2, 2, 4, 3)
    assert oplib.apply_geometric_momentum(torus, fld, q1, q2).shape == (3, 4, 3)
    assert oplib.position_momentum_residuals(torus, fld, q1, q2).shape == (3, 3, 4, 3)
    assert oplib.commutator_position_kinetic(torus, fld, q1, q2).shape == (3, 4, 3)
    assert shell_frame(frame, 0.1).det.shape == (4, 3)
    # an offset axis broadcasts against the point axes
    assert shell_frame(frame, np.array([0.0, 0.1, 0.2])).det.shape == (4, 3)
    assert chlib.sphere().contains(np.array([1.0, 4.0, np.nan]), 0.5).tolist() == [
        True,
        False,
        False,
    ]


def test_scalar_calls_keep_their_types(builtin_charts):
    sphere = builtin_charts["sphere"]
    fld = flib.spherical_harmonic(2, 0)
    q1, q2 = 1.0, 0.5
    position, tangents, second = sphere.partials(q1, q2, 2)
    assert position.shape == (3,)
    assert tangents.shape == (2, 3)
    assert second.shape == (2, 2, 3)
    assert sphere.contains(q1, q2) is True
    frame = evaluate_frame(sphere, q1, q2)
    assert frame.point == (1.0, 0.5)
    for attr in FRAME_SCALARS:
        assert type(getattr(frame, attr)) is float
    assert frame.tangents.shape == (2, 3) and frame.dginv.shape == (2, 2, 2)
    assert frame.completeness_residual().shape == (3, 3)
    assert type(shell_frame(frame, 0.1).det) is float
    assert type(laplace_beltrami(sphere, fld, q1, q2)) is complex
    assert oplib.apply_geometric_momentum(sphere, fld, q1, q2).shape == (3,)
    assert oplib.SPHERE_MOMENTUM.value(fld, q1, q2).shape == (3,)
    assert oplib.SPHERE_MOMENTUM.value(oplib.SPHERE_ANGULAR.apply(fld), q1, q2).shape == (3, 3)
    assert oplib.position_momentum_residuals(sphere, fld, q1, q2).shape == (3, 3)
    assert oplib.commutator_position_kinetic(sphere, fld, q1, q2).shape == (3,)
    assert oplib.angular_momentum_residuals(fld, q1, q2).shape == (3, 3)
    assert type(flib.coordinate_field(sphere, 2).value(q1, q2)) is complex


def test_from_map_jets_stack_pointwise():
    chart = chlib.from_map(
        lambda u, v: np.array([u, v, np.sin(u) * np.cos(v)]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        name="wave",
    )
    pts = chlib.interior_points(chart, 7)
    batched = chart.partials(pts[:, 0], pts[:, 1], 3)
    single = [chart.partials(a, b, 3) for a, b in pts]
    for n, jet in enumerate(batched):
        assert np.array_equal(jet, np.stack([one[n] for one in single], axis=-1))


def test_rotation_relation_batch_matches_single_points():
    grid = oplib.rotation_sample_grid()[::40]
    fld = flib.spherical_harmonic(2, 2)
    single = np.max([oplib.rotation_relation_check(fld, [pt]) for pt in grid])
    assert abs(oplib.rotation_relation_check(fld, grid) - single) <= RTOL


def test_trig_library_is_cached_but_fresh():
    first = flib.trig_library(3)
    first.append("junk")
    second = flib.trig_library(3)
    assert len(second) == 3
    assert second is not first
    assert all(a is b for a, b in zip(second, first))
    assert flib.field_library(1, 3)[-3:] == second


def test_geom_batch_prints_the_rows_of_single_calls(capsys):
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 2.0 * np.pi, size=(500, 2)).tolist()
    base = ["geom", "--surface", "torus", "--param", "major_radius=2.3",
            "--param", "minor_radius=0.7", "--q3=-0.1,0.05,0.2"]
    argv = list(base)
    for q1, q2 in points:
        argv += ["--point", f"{q1!r},{q2!r}"]
    code, out, _ = cli(argv, capsys)
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 500
    for (q1, q2), row in zip(points, rows):
        code, single, _ = cli(base + ["--point", f"{q1!r},{q2!r}"], capsys)
        assert code == 0
        assert single.splitlines() == [header, row]


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("points", ["0", "-2"])
def test_verify_rejects_empty_point_sets(points, capsys):
    code, out, err = cli(["verify", "--points", points], capsys)
    assert code == 2
    assert out == ""
    assert len(err) == 1 and err[0].startswith("error: config:")
    with pytest.raises(ValueError):
        ver.run_verification(ver.VerifyOptions(points_per_chart=0))


def test_worst_reduction():
    pts = [(0.0, 0.1), (0.2, 0.3), (0.4, 0.5)]
    assert ver._worst([1.0, 3.0, 3.0], pts) == (3.0, (0.2, 0.3))  # first of a tie
    r, p = ver._worst([1.0, np.nan, 3.0], pts)
    assert np.isnan(r) and p == (0.2, 0.3)  # NaN wins, so the check fails
    with pytest.raises(ValueError):
        ver._worst([], [])
    # the same rules row by row, as commutator_suite reduces a block of fields
    rows = np.array([[1.0, 3.0, 3.0], [1.0, np.nan, 3.0], [np.nan, 0.0, np.nan]])
    assert ver._argworst(rows).tolist() == [1, 1, 0]
    with pytest.raises(ValueError):
        ver._argworst(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        oplib.rotation_relation_check(flib.constant(1.0), [])


@pytest.mark.parametrize(
    "args, tag, where",
    [
        (["--surface", "torus", "--point", "nan,0.5"], "chart-singularity", "(nan, 0.5)"),
        (["--surface", "sphere", "--point", "1,nan"], "chart-singularity", "(1.0, nan)"),
        (["--surface", "sphere", "--point", "5,0.5"], "config", "(5.0, 0.5)"),
        (["--surface", "sphere", "--point", "nan,0.5"], "config", "(nan, 0.5)"),
        (["--surface", "sphere", "--point", "0,0"], "chart-singularity", "(0.0, 0.0)"),
        (["--surface", "plane", "--point", "0.5,0.5", "--point", "2,0"],
         "config", "(2.0, 0.0)"),
        # the first failing point in input order decides the error
        (["--surface", "sphere", "--point", "1,0.5", "--point", "0,0", "--point", "5,0.5"],
         "chart-singularity", "(0.0, 0.0)"),
        (["--surface", "sphere", "--point", "1,0.5", "--point", "5,0.5", "--point", "0,0"],
         "config", "(5.0, 0.5)"),
        (["--surface", "sphere", "--q3", "-1", "--point", "1,0.5", "--point", "0,0"],
         "shell-fold", "q3=-1.0"),
        (["--surface", "sphere", "--q3", "-1", "--point", "0,0", "--point", "1,0.5"],
         "chart-singularity", "(0.0, 0.0)"),
        # an infinite coordinate on a periodic axis: one line, no numpy warning
        (["--surface", "sphere", "--point", "1,inf"], "chart-singularity", "(1.0, inf)"),
        (["--surface", "torus", "--point", "inf,1"], "chart-singularity", "(inf, 1.0)"),
    ],
)
def test_geom_rejects_bad_points(args, tag, where, capsys):
    code, out, err = cli(["geom"] + args, capsys)
    assert code == 2 if tag != "shell-fold" else code == 4
    assert out == ""
    assert len(err) == 1
    assert err[0].startswith(f"error: {tag}:") and where in err[0]


@pytest.mark.parametrize("point, tag", [("4,0.5", "config"), ("nan,0.5", "config"),
                                        ("1,inf", "chart-singularity")])
def test_confine_rejects_bad_points(point, tag, capsys):
    code, _, err = cli(["confine", "--surface", "sphere", "--point", point], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {tag}:")


@pytest.mark.parametrize("evaluate", [evaluate_frame, _frame_with_gradients])
@pytest.mark.parametrize("chart, q1, q2, point", [
    (chlib.sphere(), 1.0, np.inf, (1.0, np.inf)),
    (chlib.torus(), np.inf, 1.0, (np.inf, 1.0)),
    (chlib.torus(), np.array([1.0, -np.inf, np.nan]), 2.0, (-np.inf, 2.0)),
])
def test_a_non_finite_point_is_refused_before_the_map_runs(evaluate, chart, q1, q2, point):
    # the map's cos and sin would warn first (pytest makes the warning an error)
    with pytest.raises(ChartSingularityError, match="non-finite point") as err:
        evaluate(chart, q1, q2)
    assert err.value.point == point


def test_batched_errors_name_the_first_failing_point():
    sphere = chlib.sphere()
    with pytest.raises(ChartSingularityError) as err:
        evaluate_frame(sphere, np.array([1.0, 0.0, np.pi, 2.0]), np.array([0.5, 0.2, 0.3, 0.1]))
    assert err.value.point == (0.0, 0.2)
    with pytest.raises(ChartSingularityError) as err:
        evaluate_frame(chlib.torus(), np.array([1.0, 2.0, np.nan]), [0.5, np.nan, 0.1])
    assert err.value.point[0] == 2.0 and np.isnan(err.value.point[1])
    one = flib.constant(1.0)
    with pytest.raises(PoleProximityError) as err:
        oplib.SPHERE_MOMENTUM.value(one, np.array([1.0, 1e-12, 2e-12]), 0.0)
    assert err.value.theta == 1e-12
    with pytest.raises(PoleProximityError) as err:
        oplib.angular_momentum_residuals(one, np.array([1.0, np.pi - 3e-9]), 0.0)
    assert err.value.theta == np.pi - 3e-9
    rot = flib.rotation_matrix("y", np.pi / 2.0)
    pulled = flib.pullback_field(flib.spherical_harmonic(1, 1), rot)
    with pytest.raises(PoleProximityError):
        pulled.value(np.array([1.0, np.pi / 2.0]), np.array([0.3, np.pi]))


_Y11 = flib.spherical_harmonic(1, 1)
_Y21 = flib.spherical_harmonic(2, 1)
_ROT = flib.rotation_matrix("y", np.pi / 2.0)
SPHERE_PATHS = {
    "p_z": lambda t, p: oplib.SPHERE_MOMENTUM.value(_Y11, t, p)[2],
    "L_x": lambda t, p: oplib.SPHERE_ANGULAR.apply(_Y11).partials(t, p, 1)[1][:, 0],
    "[L, p]": lambda t, p: oplib.angular_momentum_residuals(_Y11, t, p),
    "rotation": lambda t, p: oplib.rotation_relation_check(_Y11, [(t, p)]),
    "pullback": lambda t, p: flib.pullback_field(_Y11, _ROT).partials(t, p, 1),
    "pullback value": lambda t, p: flib.pullback_field(_Y11, _ROT).partials(t, p, 0),
    "psi": lambda t, p: splib.psi(1.0, t),  # independent of phi
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path, theta, phi, error", [
    *((name, np.nan, 0.3, PoleProximityError) for name in SPHERE_PATHS
      if name != "pullback value"),
    *((name, 1.0, np.nan, ChartSingularityError)
      for name in ("p_z", "L_x", "[L, p]", "rotation", "pullback", "pullback value")),
    # the pullback refuses a non-finite input angle at both orders before it
    # rotates the point, which would turn it into a NaN theta (after a
    # RuntimeWarning from cos, for an infinite angle)
    *((name, theta, phi, error)
      for name in ("pullback", "pullback value")
      for theta, phi, error in ((np.inf, 0.3, PoleProximityError),
                                (1.0, np.inf, ChartSingularityError),
                                (1.0, -np.inf, ChartSingularityError))),
])
def test_closed_form_sphere_paths_refuse_a_nan_angle(path, theta, phi, error):
    # these returned NaN without an error (psi with a RuntimeWarning too)
    with pytest.raises(error):
        SPHERE_PATHS[path](theta, phi)


# ---------------------------------------------------------------------------
# Batch invariance: an entry's result for one item has the same bits
# whatever other items share its call.
# ---------------------------------------------------------------------------


def _frame_rows(chart):
    def rows(q):
        frame = evaluate_frame(chart, q[:, 0], q[:, 1])
        return np.concatenate([np.reshape(getattr(frame, name), (-1, len(q)))
                               for name in FRAME_ARRAYS + FRAME_SCALARS])
    return rows


def _library_rows(q):
    # every field of field_library(3, 2) to second order, in three blocks
    return np.concatenate([np.reshape(jet, (-1, len(q)))
                           for _, block in flib.library_blocks(3, 2, 7)
                           for jet in block.partials(q[:, 0], q[:, 1], 2)])


def _cell_rows(signed_zero):
    def rows(table):
        columns = {"a": table[:, 0], "s": "x", "b": table[:, 1], "c": table[:, 2]}
        count, cells = _cells(columns, signed_zero)
        return np.array(cells, dtype=object).reshape(count, 3).T
    return rows


# fields for the field-axis entries, by index: a batch of items is a stack
# of fields, or a pool, and each item's residual or pair's defect is read
# from its place
_FIELDS = (flib.constant(1.0), flib.spherical_harmonic(1, 0), flib.spherical_harmonic(2, 2),
           flib.spherical_harmonic(3, -1), flib.spherical_harmonic(1, 1), flib.trig_library(2)[1])
_ROTATION_POINTS = oplib.rotation_sample_grid()[::5]


def _rotation_residuals(rows):
    return oplib.rotation_relation_check(flib.stack(_FIELDS[k] for k in rows), _ROTATION_POINTS)


def _hermiticity_defects(rows):
    # the order verify runs at by default
    return oplib.hermiticity_defects([_FIELDS[k] for k in rows], order=64)


def _at_points(fn, *lead):
    def rows(q):
        return fn(*lead, q[:, 0], q[:, 1])
    return rows


TWO_PI = 2.0 * np.pi
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.5, -1.5, np.nan]))
TORUS_POINTS = st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI))
SPHERE_POINTS = st.tuples(st.floats(0.01, np.pi - 0.01), st.floats(0.0, TWO_PI))
BATCH_ENTRIES = {
    "evaluate_frame torus": (TORUS_POINTS, _frame_rows(chlib.torus())),
    "evaluate_frame cylinder": (st.tuples(st.floats(0.0, TWO_PI), st.floats(-1.0, 1.0)),
                                _frame_rows(chlib.cylinder())),
    "library_blocks": (SPHERE_POINTS, _library_rows),
    "position_momentum_residuals torus": (
        TORUS_POINTS, _at_points(oplib.position_momentum_residuals, chlib.torus(), _Y21)),
    "commutator_position_kinetic torus": (
        TORUS_POINTS, _at_points(oplib.commutator_position_kinetic, chlib.torus(), _Y21)),
    "angular_momentum_residuals": (
        SPHERE_POINTS, _at_points(oplib.angular_momentum_residuals, _Y21)),
    # p's coefficients to order 0 and L's to order 1, on a nested image
    "SPHERE_MOMENTUM.value": (SPHERE_POINTS, _at_points(
        oplib.SPHERE_MOMENTUM.value, oplib.SPHERE_ANGULAR.apply(_Y21))),
    "amplitude_closed": (st.floats(-splib.MAX_ABS_P, splib.MAX_ABS_P),
                         lambda p: np.array([splib.amplitude_closed(l, p) for l in (0, 1, 2)])),
    "amplitude_recurrence": (st.floats(-splib.MAX_ABS_P, splib.MAX_ABS_P),
                             lambda p: splib.amplitude_recurrence([0, 1, 5, 64], p)),
    # the theta rule is the same for every |p| <= 60
    "amplitude_surface_overlap": (st.floats(-60.0, 60.0),
                                  lambda p: splib.amplitude_surface_overlap([0, 3], p)),
    "rotation_relation_check stack": (st.integers(0, len(_FIELDS) - 1), _rotation_residuals),
    "hermiticity_defects pool": (st.integers(0, len(_FIELDS) - 1), _hermiticity_defects),
    "cli._cells": (st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), _cell_rows(False)),
    "cli._cells signed zero": (st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), _cell_rows(True)),
}
# entries whose last two axes both run over the items: one result per pair
PAIR_ENTRIES = {"hermiticity_defects pool"}


def _same_bits(a, b):
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()


@pytest.mark.parametrize("entry", sorted(BATCH_ENTRIES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_an_items_bits_do_not_depend_on_its_batch(entry, data):
    items, evaluate = BATCH_ENTRIES[entry]
    batch = np.array(data.draw(st.lists(items, min_size=1, max_size=6)))
    n = len(batch)
    full = evaluate(batch)
    subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                unique=True).map(sorted))
    permutation = data.draw(st.permutations(range(n)))
    single = [data.draw(st.integers(0, n - 1))]
    for selection in (subset, permutation, single):
        expected = full[..., selection]
        if entry in PAIR_ENTRIES:
            expected = expected[..., selection, :]
        assert _same_bits(evaluate(batch[selection]), expected), selection


@pytest.mark.xfail(strict=True, reason="BLAS rounds the quadrature's per-panel matmuls "
                   "by the chunk's row count (ROADMAP item 5)")
def test_amplitude_quadrature_bits_do_not_depend_on_its_batch():
    # 199 of the 241 values differ from one-p calls, by at most 3.3e-16
    grid = splib.symmetric_grid(6.0, 0.05)
    single = np.array([splib.amplitude_quadrature(0, p) for p in grid])
    assert _same_bits(splib.amplitude_quadrature(0, grid), single)
