import dataclasses
import re

import numpy as np
import pytest

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant.errors import ChartSingularityError, ShellFoldError
from surfquant.geometry import (
    _frame,
    evaluate_frame,
    geometric_potential,
    laplace_beltrami,
    shell_frame,
)

from conftest import chart_points


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_frame_invariants(name, builtin_charts):
    chart = builtin_charts[name]
    for q1, q2 in chart_points(chart, 100):
        fr = evaluate_frame(chart, q1, q2)
        # normal orthogonal to tangents and unit
        assert np.abs(fr.tangents @ fr.normal).max() < 1e-12
        assert abs(np.linalg.norm(fr.normal) - 1.0) < 1e-12
        # metric positive definite, inverse consistent
        assert np.linalg.eigvalsh(fr.metric).min() > 0.0
        assert np.abs(fr.metric_inv @ fr.metric - np.eye(2)).max() < 1e-12
        # raised tangents
        assert np.abs(fr.raised - fr.metric_inv @ fr.tangents).max() == 0.0
        # curvature invariants of the Weingarten map
        assert abs(fr.mean_curvature + 0.5 * np.trace(fr.weingarten)) < 1e-12
        assert abs(fr.gaussian_curvature - np.linalg.det(fr.weingarten)) < 1e-12
        # completeness: sum r^mu (x) r_mu + n (x) n = I
        assert np.abs(fr.completeness_residual()).max() < 1e-12


def test_frame_invariants_fd_adaptor():
    # A user map without derivatives gets exact partials from jets.
    chart = chlib.from_map(
        lambda u, v: np.array([u, v, np.sin(u) * np.cos(v)]),
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        name="wave",
    )
    for q1, q2 in chart_points(chart, 25):
        fr = evaluate_frame(chart, q1, q2)
        assert np.abs(fr.tangents @ fr.normal).max() < 1e-12
        assert abs(np.linalg.norm(fr.normal) - 1.0) < 1e-12
        assert np.abs(fr.metric_inv @ fr.metric - np.eye(2)).max() < 1e-12
        assert np.abs(fr.completeness_residual()).max() < 1e-12


def test_sphere_curvatures(builtin_charts):
    for q1, q2 in chart_points(builtin_charts["sphere"], 20):
        fr = evaluate_frame(builtin_charts["sphere"], q1, q2)
        assert abs(fr.mean_curvature + 1.0) < 1e-12
        assert abs(fr.gaussian_curvature - 1.0) < 1e-12


def test_plane_is_flat(builtin_charts):
    normals = []
    for q1, q2 in chart_points(builtin_charts["plane"], 10):
        fr = evaluate_frame(builtin_charts["plane"], q1, q2)
        assert fr.mean_curvature == 0.0
        assert fr.gaussian_curvature == 0.0
        normals.append(fr.normal)
    assert np.abs(np.diff(normals, axis=0)).max() == 0.0


@pytest.mark.parametrize("radius", [1.0, 2.0, 3.5])
def test_cylinder_curvatures(radius):
    chart = chlib.cylinder(radius=radius)
    fr = evaluate_frame(chart, 0.7, 0.2)
    assert abs(fr.gaussian_curvature) < 1e-14
    assert abs(fr.mean_curvature + 1.0 / (2.0 * radius)) < 1e-14


def test_torus_curvature_closed_forms(builtin_charts):
    chart = builtin_charts["torus"]
    a = chart.params["major_radius"]
    b = chart.params["minor_radius"]
    for u, v in chart_points(chart, 20):
        fr = evaluate_frame(chart, u, v)
        w = a + b * np.cos(v)
        assert abs(fr.mean_curvature + (a + 2 * b * np.cos(v)) / (2 * b * w)) < 1e-12
        assert abs(fr.gaussian_curvature - np.cos(v) / (b * w)) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus"])
def test_weingarten_reproduces_normal_derivative(name, builtin_charts):
    # Independent oracle: d_mu n must equal alpha_mu^nu r_nu.
    chart = builtin_charts[name]
    h = 1e-6

    def normal(q1, q2):
        return evaluate_frame(chart, q1, q2).normal

    for q1, q2 in chart_points(chart, 10):
        fr = evaluate_frame(chart, q1, q2)
        dn = np.array(
            [
                (normal(q1 + h, q2) - normal(q1 - h, q2)) / (2 * h),
                (normal(q1, q2 + h) - normal(q1, q2 - h)) / (2 * h),
            ]
        )
        assert np.abs(dn - fr.weingarten @ fr.tangents).max() < 1e-6


def test_geometric_potential_values(builtin_charts):
    fr = evaluate_frame(builtin_charts["sphere"], 1.0, 0.5)
    assert abs(geometric_potential(fr)) < 1e-12
    fr = evaluate_frame(builtin_charts["plane"], 0.1, -0.2)
    assert geometric_potential(fr) == 0.0
    for radius in (1.0, 2.0):
        fr = evaluate_frame(chlib.cylinder(radius=radius), 0.3, 0.1)
        assert abs(geometric_potential(fr) + 1.0 / (8.0 * radius**2)) < 1e-12
    # parameters enter quadratically / inversely
    fr = evaluate_frame(chlib.cylinder(radius=1.0), 0.3, 0.1)
    assert abs(geometric_potential(fr, hbar=2.0, mu=4.0) + 1.0 / 8.0) < 1e-12
    with pytest.raises(ValueError):
        geometric_potential(fr, hbar=-1.0)


@pytest.mark.parametrize("hbar, mu", [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0),
                                      (1.0, np.nan), (1.0, np.inf), (1.0, -2.0)])
def test_geometric_potential_needs_finite_positive_constants(hbar, mu):
    fr = evaluate_frame(chlib.cylinder(), 0.3, 0.1)
    with pytest.raises(ValueError, match="finite and positive"):
        geometric_potential(fr, hbar=hbar, mu=mu)


def test_shell_frame_zero_offset(builtin_charts):
    for chart in builtin_charts.values():
        q1, q2 = chart_points(chart, 3)[1]
        fr = evaluate_frame(chart, q1, q2)
        sf = shell_frame(fr, 0.0)
        assert sf.fold_factor == 1.0
        g = fr.metric
        assert sf.det == g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        assert abs(sf.det - fr.sqrt_g**2) < 1e-12 * max(1.0, fr.sqrt_g**2)


def test_shell_determinant_closed_form(builtin_charts):
    # det G = g (1 - 2 M q3 + K q3^2)^2 for |q3| <= 0.2 on all built-ins
    for chart in builtin_charts.values():
        for q1, q2 in chart_points(chart, 25):
            fr = evaluate_frame(chart, q1, q2)
            for q3 in (-0.2, -0.07, 0.0, 0.13, 0.2):
                sf = shell_frame(fr, q3)
                closed = fr.sqrt_g**2 * sf.fold_factor**2
                assert abs(sf.det - closed) < 1e-12 * max(1.0, closed)


def test_shell_sphere_example():
    fr = evaluate_frame(chlib.sphere(), 1.0, 0.5)
    sf = shell_frame(fr, 0.1)
    # M = -1, K = 1: det G = g * (1 + 2*0.1 + 0.01)^2 = g * 1.21^2
    assert abs(sf.det - fr.sqrt_g**2 * 1.21**2) < 1e-12


def test_shell_plane_is_offset_invariant():
    fr = evaluate_frame(chlib.plane(), 0.2, -0.4)
    for q3 in (0.0, 0.5, 5.0):
        sf = shell_frame(fr, q3)
        assert sf.det == fr.sqrt_g**2 == 1.0 and sf.fold_factor == 1.0


@pytest.mark.parametrize("q3, error", [(np.nan, ShellFoldError), (np.inf, ValueError),
                                       (-np.inf, ValueError)])
def test_shell_frame_refuses_non_finite_offsets(q3, error, builtin_charts):
    for chart in builtin_charts.values():
        q1, q2 = chart_points(chart, 3)[1]
        fr = evaluate_frame(chart, q1, q2)
        with pytest.raises(error):
            shell_frame(fr, q3)
        with pytest.raises(error):
            shell_frame(fr, np.array([0.1, q3]))


@pytest.mark.parametrize("name, q3", [("sphere", 1e200), ("cylinder", 1e160),
                                     ("torus", 1e200), ("sphere", 1e150)])
def test_shell_frame_refuses_overflowing_offsets(name, q3, builtin_charts):
    # these returned an inf or NaN determinant, with RuntimeWarnings
    fr = evaluate_frame(builtin_charts[name], 1.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(f"q3={q3} overflows the shell metric")):
        shell_frame(fr, q3)
    with pytest.raises(ValueError, match=re.escape(f"q3={q3} overflows")):
        shell_frame(fr, np.array([0.1, q3, np.nan]))  # the first failing entry
    with pytest.raises(ShellFoldError):
        shell_frame(fr, np.array([np.nan, q3]))


def test_shell_frame_keeps_a_far_plane_offset():
    # a flat chart has no fold factor to overflow
    fr = evaluate_frame(chlib.plane(), 0.2, -0.4)
    sf = shell_frame(fr, np.array([1e300, -1e300]))
    assert sf.fold_factor.tolist() == [1.0, 1.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_from_map_frame_that_overflows_is_refused():
    # a finite map whose tangents are finite but whose metric overflows at
    # the second point: refused there, with no RuntimeWarning
    steep = chlib.from_map(lambda u, v: [u, v, np.exp(u)], ((0.0, 800.0), (0.0, 1.0)),
                           name="steep")
    assert evaluate_frame(steep, 1.0, 0.5).sqrt_g > 0.0
    q1, q2 = np.array([1.0, 500.0, 600.0]), np.array([0.5, 0.25, 0.5])
    with pytest.raises(ValueError, match=re.escape(
            "the steep chart's frame is not finite at (500.0, 0.25)")):
        evaluate_frame(steep, q1, q2)
    with pytest.raises(ValueError, match="steep chart's frame is not finite"):
        _frame(steep, 500.0, 0.25, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_curvature_gradients_that_overflow_on_a_finite_frame_are_refused():
    # r = (u^3, v, 0) at u = 1e-62: g^-1 ~ 1e247 is finite but d_u g^-1 ~
    # 1e309 is not, so the frame is kept, but dM (inf * h, with h = 0) is NaN
    cubic = chlib.from_map(lambda u, v: [u**3, v, 0.0], ((-1.0, 1.0), (-1.0, 1.0)),
                           name="cubic")
    frame = evaluate_frame(cubic, 1e-62, 0.5)
    assert np.isfinite(frame.metric_inv).all() and frame.mean_curvature == 0.0
    with pytest.raises(ValueError, match=re.escape(
            "the cubic chart's frame is not finite at (1e-62, 0.5)")):
        _frame(cubic, np.array([0.5, 1e-62]), np.array([0.5, 0.5]), 3)


@pytest.mark.parametrize("scale", [1e-60, 1e-20, 1e20, 1e60])
def test_the_degeneracy_test_is_scale_free(scale):
    # a plane scaled by any factor whose frame is finite is regular, and
    # its pole-like collapse is a degeneracy at every scale
    plane = chlib.from_map(lambda u, v: [scale * u, scale * u * v, 0.0],
                           ((-1.0, 1.0), (-1.0, 1.0)), name="fan")
    assert evaluate_frame(plane, 0.5, 0.3).normal.tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ChartSingularityError, match="tangent degeneracy"):
        evaluate_frame(plane, 0.0, 0.3)


def test_geometric_potential_refuses_an_overflow():
    fr = evaluate_frame(chlib.cylinder(), np.array([0.1, 0.3]), np.array([0.2, 0.4]))
    with pytest.raises(ValueError, match=r"overflows at \(0.1, 0.2\)"):
        geometric_potential(fr, hbar=1e200)
    with pytest.raises(ValueError, match="overflows"):
        geometric_potential(fr, mu=1e-320)


def test_shell_fold_error():
    fr = evaluate_frame(chlib.sphere(), 1.0, 0.5)
    with pytest.raises(ShellFoldError):
        shell_frame(fr, -1.0)  # the center of the sphere is the focal point
    fr = evaluate_frame(chlib.cylinder(radius=0.5), 0.3, 0.1)
    with pytest.raises(ShellFoldError):
        shell_frame(fr, -0.5)


def test_laplace_beltrami_eigenfunction(builtin_charts):
    import sympy as sp
    from sympy_oracle import THETA, from_expr

    cos_theta = from_expr(sp.cos(THETA), label="cos")
    one = flib.constant(1.0)
    sphere = builtin_charts["sphere"]
    for q1, q2 in chart_points(sphere, 10):
        lap = laplace_beltrami(sphere, cos_theta, q1, q2)
        assert abs(lap + 2.0 * np.cos(q1)) < 1e-11
        assert abs(laplace_beltrami(sphere, one, q1, q2)) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_laplace_beltrami_coordinate_oracle(name, builtin_charts):
    # componentwise lap(r) = 2 M n fixes the curvature sign convention
    chart = builtin_charts[name]
    coords = [flib.coordinate_field(chart, i) for i in range(3)]
    for q1, q2 in chart_points(chart, 100):
        fr = evaluate_frame(chart, q1, q2)
        lap = np.array([laplace_beltrami(chart, c, q1, q2) for c in coords])
        assert np.abs(lap - 2.0 * fr.mean_curvature * fr.normal).max() < 1e-10


def _ellipsoid_map(u, v):
    # semi-axes 1, 1.5, 2: no symmetry, so every partial of M and K enters
    return [np.sin(u) * np.cos(v), 1.5 * np.sin(u) * np.sin(v), 2.0 * np.cos(u)]


def _twisted_sphere_map(u, v):
    # the unit sphere at (theta, phi + 0.7 theta): g_12 != 0, M and K constant
    return [np.sin(u) * np.cos(v + 0.7 * u), np.sin(u) * np.sin(v + 0.7 * u), np.cos(u)]


def test_curvature_gradients_match_finite_differences(builtin_charts):
    sphere = builtin_charts["sphere"]
    charts = [builtin_charts["torus"]] + [
        chlib.from_map(fn, sphere.domain, sphere.periodic, name=name)
        for fn, name in ((_ellipsoid_map, "ellipsoid"), (_twisted_sphere_map, "twisted"))]
    h = 1e-6
    for chart in charts:
        for u, v in chart_points(chart, 10):
            dM, dK = _frame(chart, u, v, 3)[1:]

            def mk(a, b):
                fr = evaluate_frame(chart, a, b)
                return np.array([fr.mean_curvature, fr.gaussian_curvature])

            fd = np.array([(mk(u + h, v) - mk(u - h, v)) / (2 * h),
                           (mk(u, v + h) - mk(u, v - h)) / (2 * h)])
            assert np.abs(np.stack([dM, dK], axis=1) - fd).max() < 1e-6, chart.name


def _torus_gradients(a, b, v):
    """Closed-form (d_mu M, d_mu K) of the torus chart; both vanish along u."""
    w = a + b * np.cos(v)
    zero = np.zeros_like(v)
    dM = np.array([zero, a * np.sin(v) / (2.0 * w * w)])
    dK = np.array([zero, -a * np.sin(v) / (b * w * w)])
    return dM, dK


@pytest.mark.parametrize("a, b", [(2.0, 0.5), (3.1, 0.7)])
def test_curvature_gradients_match_the_torus_closed_forms(a, b):
    torus = chlib.torus(a, b)
    for u, v in chart_points(torus, 50):
        dM, dK = _frame(torus, u, v, 3)[1:]
        exact_dM, exact_dK = _torus_gradients(a, b, v)
        assert np.abs(dM - exact_dM).max() < 1e-14
        assert np.abs(dK - exact_dK).max() < 1e-14


@pytest.mark.parametrize("name", ["sphere", "cylinder", "plane"])
def test_constant_curvature_gradients_vanish(name, builtin_charts):
    chart = builtin_charts[name]
    pts = chart_points(chart, 50)
    dM, dK = _frame(chart, pts[:, 0], pts[:, 1], 3)[1:]
    assert np.abs(dM).max() < 1e-14 and np.abs(dK).max() < 1e-14


def test_curvature_gradients_exact_on_a_mapped_torus():
    # a from_map chart gets its third partials from the same jets as a
    # built-in one, so its gradients are the closed forms to rounding
    torus = chlib.torus()
    a, b = torus.params["major_radius"], torus.params["minor_radius"]

    def torus_map(u, v):
        w = a + b * np.cos(v)
        return [w * np.cos(u), w * np.sin(u), b * np.sin(v)]

    mapped = chlib.from_map(torus_map, torus.domain, torus.periodic, name="mapped")
    for u, v in chart_points(torus, 20):
        dM, dK = _frame(mapped, u, v, 3)[1:]
        exact_dM, exact_dK = _torus_gradients(a, b, v)
        assert np.abs(dM - exact_dM).max() < 1e-13
        assert np.abs(dK - exact_dK).max() < 1e-13


def test_curvature_gradients_need_the_third_partials(monkeypatch):
    # negative control: with the chart's third partials zeroed, the torus's
    # closed-form check fails
    partials_of = chlib.ParametricChart.partials

    def without_third(chart, q1, q2, order):
        partials = partials_of(chart, q1, q2, order)
        return partials[:3] + [np.zeros_like(x) for x in partials[3:]]

    monkeypatch.setattr(chlib.ParametricChart, "partials", without_third)
    torus = chlib.torus()
    pts = chart_points(torus, 50)
    dM, dK = _frame(torus, pts[:, 0], pts[:, 1], 3)[1:]
    exact_dM, exact_dK = _torus_gradients(2.0, 0.5, pts[:, 1])
    assert np.abs(dM - exact_dM).max() > 1e-2 and np.abs(dK - exact_dK).max() > 1e-2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e-80, 1e77])
def test_curvature_gradients_vanish_on_a_sphere_near_the_ends_of_the_float_range(radius):
    # det g is about 1e-320 and 1e308 here: the gradients are taken on
    # partials scaled near 1, so they stay finite and zero to rounding
    # (8e-3 / radius at 1e-80 on unscaled partials)
    sphere = chlib.sphere(radius)
    pts = chart_points(sphere, 50)
    dM, dK = _frame(sphere, pts[:, 0], pts[:, 1], 3)[1:]
    assert np.isfinite(dM).all() and np.isfinite(dK).all()
    assert np.abs(dM).max() * radius < 1e-14
    assert np.abs(dK).max() * radius * radius < 1e-14



@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", [1e-80, 1e-100, 1e100, 1e-150, 1e150])
def test_the_frame_of_a_sphere_near_the_ends_of_the_float_range_keeps_its_digits(radius):
    # det g is about radius^4, subnormal or past the float range here: the
    # frame is taken on tangents scaled near 1, so M = -1/R and K = 1/R^2 keep
    # every digit (unscaled, 1e-80 read M and K 1.6e-4 and 3.3e-4 off, and
    # 1e-100 and 1e100 were refused) and n is the unit sphere's
    sphere = chlib.sphere(radius)
    pts = chart_points(sphere, 50)
    frame = evaluate_frame(sphere, pts[:, 0], pts[:, 1])
    assert np.abs(frame.mean_curvature * radius + 1.0).max() < 1e-15
    assert np.abs(frame.gaussian_curvature * radius * radius - 1.0).max() < 1e-15
    unit = evaluate_frame(chlib.sphere(1.0), pts[:, 0], pts[:, 1])
    assert np.abs(frame.normal - unit.normal).max() < 1e-15
    assert np.abs(frame.sqrt_g / (radius * radius) - unit.sqrt_g).max() < 1e-15


def _twisted_torus_map(u, v, a=2.0, b=0.5):
    # the default torus at (u + v, v)
    w = a + b * np.cos(v)
    return [w * np.cos(u + v), w * np.sin(u + v), b * np.sin(v)]


def test_curvature_gradients_on_a_twisted_torus():
    # r(u + v, v) has g_12 = (a + b cos v)^2, up to 6.25 here, so the
    # off-diagonal terms of g and its partials enter; by the chain rule its gradients
    # are the torus's (d_u + d_v, d_v), that is (0, d_v M) and (0, d_v K)
    torus = chlib.torus()
    a, b = torus.params["major_radius"], torus.params["minor_radius"]
    twisted = chlib.from_map(_twisted_torus_map, torus.domain, torus.periodic, name="twisted")
    pts = chart_points(torus, 50)
    frame, dM, dK = _frame(twisted, pts[:, 0], pts[:, 1], 3)
    assert np.abs(frame.metric[0, 1]).max() > 6.0
    exact_dM, exact_dK = _torus_gradients(a, b, pts[:, 1])
    assert np.abs(dM - exact_dM).max() < 1e-13
    assert np.abs(dK - exact_dK).max() < 1e-13


def _frame_charts():
    torus, sphere = chlib.torus(), chlib.sphere()
    return [chlib.sphere(), chlib.cylinder(), torus, chlib.plane(),
            chlib.from_map(_twisted_torus_map, torus.domain, torus.periodic, name="twisted"),
            chlib.from_map(_ellipsoid_map, sphere.domain, sphere.periodic, name="ellipsoid")]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chart", _frame_charts(), ids=lambda chart: chart.name)
def test_the_jet_frame_has_the_bits_of_the_array_frame(chart):
    # one body runs on arrays at order 2 and on order-1 jets at order 3; the
    # jets' values are the arrays' own, field by field and bit for bit
    pts = chart_points(chart, 12)
    points = [(q1, q2) for q1, q2 in pts[:3]] + [
        (pts[:, 0], pts[:, 1]), (pts[:4, 0, None], pts[None, :3, 1])]
    for q1, q2 in points:
        (array_frame,) = _frame(chart, q1, q2, 2)
        jet_frame, dM, dK = _frame(chart, q1, q2, 3)
        assert dM.shape == dK.shape == (2,) + np.broadcast_shapes(np.shape(q1), np.shape(q2))
        for field in dataclasses.fields(array_frame):
            a, b = getattr(array_frame, field.name), getattr(jet_frame, field.name)
            assert type(a) is type(b), field.name
            if field.name == "point":
                assert all(_same_bits(x, y) for x, y in zip(a, b))
            else:
                assert _same_bits(a, b), field.name


def test_curvature_gradients_on_array_points():
    torus = chlib.torus()
    q1 = np.linspace(0.1, 6.0, 4)[:, None]
    q2 = np.linspace(0.2, 5.0, 3)[None, :]
    dM, dK = _frame(torus, q1, q2, 3)[1:]
    assert dM.shape == dK.shape == (2, 4, 3)
    for i in range(4):
        for j in range(3):
            one_dM, one_dK = _frame(torus, q1[i, 0], q2[0, j], 3)[1:]
            assert np.allclose(dM[:, i, j], one_dM, rtol=1e-14, atol=1e-15)
            assert np.allclose(dK[:, i, j], one_dK, rtol=1e-14, atol=1e-15)


def test_shell_frame_offset_axes_match_single_offsets():
    # extra offset axes lead the point axes; every entry is bit for bit the
    # one-offset, one-point result
    torus = chlib.torus()
    q3 = np.array([-0.2, 0.1, 0.3])
    fr = evaluate_frame(torus, 0.8, 2.0)
    sf = shell_frame(fr, q3)
    single = [shell_frame(fr, q) for q in q3]
    assert np.array_equal(sf.det, [s.det for s in single])
    assert np.array_equal(sf.fold_factor, [s.fold_factor for s in single])
    q1, q2 = np.array([0.8, 1.3]), np.array([2.0, 0.4])
    sf = shell_frame(evaluate_frame(torus, q1, q2), q3[:, None])
    assert sf.det.shape == sf.fold_factor.shape == (3, 2)
    for k, q in enumerate(q3):
        for m in range(2):
            one = shell_frame(evaluate_frame(torus, q1[m], q2[m]), q)
            assert sf.det[k, m] == one.det
            assert sf.fold_factor[k, m] == one.fold_factor
