import numpy as np
import pytest
import sympy as sp

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import operators as oplib
from surfquant.errors import PoleProximityError, ShellFoldError
from surfquant.geometry import evaluate_frame

from conftest import chart_points
from sympy_oracle import THETA, from_expr


def cos_theta_field():
    return from_expr(sp.cos(THETA), label="cos_theta")


# ---------------------------------------------------------------------------
# geometric momentum
# ---------------------------------------------------------------------------


def test_momentum_of_constant_on_sphere():
    # tangential part vanishes; -i hbar M n with M = -1 gives +i hbar n
    sphere = chlib.sphere()
    one = flib.constant(1.0)
    theta, phi = 1.2, 0.4
    p = oplib.apply_geometric_momentum(sphere, one, theta, phi, hbar=2.0)
    n = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    assert np.abs(p - 2.0j * n).max() < 1e-14


def test_momentum_of_plane_wave_on_plane():
    plane = chlib.plane()
    k = 3.0
    wave = flib.plane_wave(k)
    u, v = 0.3, -0.1
    p = oplib.apply_geometric_momentum(plane, wave, u, v)
    expected = k * wave.value(u, v) * np.array([1.0, 0.0, 0.0])
    assert np.abs(p - expected).max() < 1e-13
    assert abs(p[2]) == 0.0  # no normal component on a flat chart


def test_momentum_z_component_of_constant():
    # p_z 1 = i hbar cos(theta): the closed form's scalar term alone
    for theta, phi in ((0.4, 0.0), (2.1, 1.3)):
        value = oplib.SPHERE_MOMENTUM["z"].value(flib.constant(1.0), theta, phi)
        assert abs(value - 1j * np.cos(theta)) < 1e-15


def test_momentum_z_component_of_cos_theta():
    # p_z cos(theta) = i hbar cos(2 theta); at theta = pi/2 this is -i hbar
    sphere = chlib.sphere()
    fld = cos_theta_field()
    for theta in (0.3, 1.0, np.pi / 2.0):
        closed = oplib.SPHERE_MOMENTUM["z"].value(fld, theta, 0.7)
        general = oplib.apply_geometric_momentum(sphere, fld, theta, 0.7)[2]
        assert abs(closed - 1j * np.cos(2.0 * theta)) < 1e-13
        assert abs(closed - general) < 1e-13
    assert abs(oplib.SPHERE_MOMENTUM["z"].value(fld, np.pi / 2.0, 0.0) + 1j) < 1e-13


def test_sphere_components_match_general_operator(field_library, sphere_points):
    # one array call per field and axis, reduced with np.max so that a NaN fails
    sphere = chlib.sphere()
    q1, q2 = sphere_points.T
    residuals = []
    for fld in field_library:
        general = oplib.apply_geometric_momentum(sphere, fld, q1, q2)
        for k, axis in enumerate("xyz"):
            val = oplib.SPHERE_MOMENTUM[axis].value(fld, q1, q2)
            residuals.append(np.abs(val - general[k]))
    assert np.max(residuals) < 1e-12


def test_sphere_component_pole_error():
    with pytest.raises(PoleProximityError):
        oplib.SPHERE_MOMENTUM["z"].value(flib.constant(1.0), 1e-12, 0.0)


def test_momentum_chart_singularity_error():
    from surfquant.errors import ChartSingularityError

    with pytest.raises(ChartSingularityError):
        oplib.apply_geometric_momentum(
            chlib.sphere(), flib.constant(1.0), 0.0, 0.3
        )


def test_angular_commutator_pole_error():
    with pytest.raises(PoleProximityError):
        oplib.angular_momentum_residuals(flib.constant(1.0), 1e-10, 0.0)


def test_momentum_scales_with_hbar():
    sphere = chlib.sphere()
    fld = flib.spherical_harmonic(1, 0)
    a = oplib.apply_geometric_momentum(sphere, fld, 1.0, 0.5, hbar=1.0)
    b = oplib.apply_geometric_momentum(sphere, fld, 1.0, 0.5, hbar=3.0)
    assert np.abs(b - 3.0 * a).max() < 1e-13


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_position_momentum_commutator_suite(name, builtin_charts, field_library):
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 50).T
    res = [oplib.position_momentum_residuals(chart, fld, q1, q2) for fld in field_library]
    assert np.max(np.abs(res)) < 1e-10


def test_position_momentum_examples(builtin_charts):
    sphere = builtin_charts["sphere"]
    y21 = flib.spherical_harmonic(2, 1)
    assert abs(oplib.position_momentum_residuals(sphere, y21, 1.3, 0.9)[2, 2]) < 1e-10
    # constant field: the commutator itself equals -i hbar n_x n_y
    one = flib.constant(1.0)
    theta, phi = 1.1, 0.6
    from surfquant.geometry import evaluate_frame

    fr = evaluate_frame(sphere, theta, phi)
    x_field = flib.product(flib.coordinate_field(sphere, 0), one)
    commutator = fr.position[0] * oplib.apply_geometric_momentum(
        sphere, one, theta, phi
    )[1] - oplib.apply_geometric_momentum(sphere, x_field, theta, phi)[1]
    assert abs(commutator + 1j * fr.normal[0] * fr.normal[1]) < 1e-14
    # flat chart: canonical relation [x, p_x] = i hbar f exactly
    plane = builtin_charts["plane"]
    wave = flib.plane_wave(2.0)
    residual = oplib.position_momentum_residuals(plane, wave, 0.2, 0.1)[0, 0]
    assert abs(residual) < 1e-14


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_position_kinetic_commutator_suite(name, builtin_charts, field_library):
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 50).T
    res = [oplib.commutator_position_kinetic(chart, fld, q1, q2) for fld in field_library]
    assert np.max(np.abs(res)) < 1e-9


def test_position_kinetic_constant_reduces_to_curvature_identity():
    # [r, T] 1 = -(hbar^2/2m) lap(r) ... both sides equal (hbar^2/m) M n
    sphere = chlib.sphere()
    res = oplib.commutator_position_kinetic(sphere, flib.constant(1.0), 0.9, 0.3)
    assert np.abs(res).max() < 1e-13


def test_position_kinetic_plane_wave():
    plane = chlib.plane()
    res = oplib.commutator_position_kinetic(plane, flib.plane_wave(1.5), 0.1, 0.4)
    assert np.abs(res).max() < 1e-13


def test_angular_momentum_commutator_suite(field_library, sphere_points):
    theta, phi = sphere_points.T
    res = [oplib.angular_momentum_residuals(fld, theta, phi) for fld in field_library]
    assert np.max(np.abs(res)) < 1e-10


def test_angular_momentum_examples():
    y11 = flib.spherical_harmonic(1, 1)
    theta, phi = 1.2, 0.8
    # [L_z, p_x] f = i hbar p_y f
    res = oplib.angular_momentum_residuals(y11, theta, phi)[2, 0]
    assert abs(res) < 1e-12
    lz = oplib.SPHERE_ANGULAR["z"]
    px = oplib.SPHERE_MOMENTUM["x"]
    commutator = lz.value(px.apply(y11), theta, phi) - px.value(
        lz.apply(y11), theta, phi
    )
    p_y = oplib.SPHERE_MOMENTUM["y"].value(y11, theta, phi)
    assert abs(commutator - 1j * p_y) < 1e-12
    # [L_z, p_z] f = 0 exactly for any field
    arbitrary = flib.spherical_harmonic(3, -2)
    assert abs(oplib.angular_momentum_residuals(arbitrary, theta, phi)[2, 2]) < 1e-13
    # constant field, mixed axes
    one = flib.constant(1.0)
    assert abs(oplib.angular_momentum_residuals(one, theta, phi)[0, 1]) < 1e-10


def test_angular_momentum_eigenvalue_sanity():
    # L_z Y_lm = m hbar Y_lm verifies the imported differential realization
    y32 = flib.spherical_harmonic(3, 2)
    theta, phi = 0.9, 1.4
    lz = oplib.SPHERE_ANGULAR["z"]
    assert abs(lz.value(y32, theta, phi) - 2.0 * y32.value(theta, phi)) < 1e-13


# ---------------------------------------------------------------------------
# rotation relation
# ---------------------------------------------------------------------------


def test_rotation_relation_constant():
    assert oplib.rotation_relation_check(flib.constant(1.0)) < 1e-12


@pytest.mark.parametrize("lm", [(1, 0), (2, 2)])
def test_rotation_relation_harmonics(lm):
    fld = flib.spherical_harmonic(*lm)
    assert oplib.rotation_relation_check(fld) < 1e-10


def test_rotation_grid_avoids_poles():
    grid = oplib.rotation_sample_grid()
    assert len(grid) > 600
    rot_y = flib.rotation_matrix("y", -np.pi / 2.0)
    for theta, phi in grid:
        vec = flib.sphere_point(theta, phi)
        assert min(theta, np.pi - theta) > 1e-3
        assert abs((rot_y @ vec)[2]) <= np.cos(1e-3)


# ---------------------------------------------------------------------------
# confining procedure
# ---------------------------------------------------------------------------


def test_confined_gradient_parts_sum_to_direct_gradient(builtin_charts):
    profile = oplib.gaussian_profile()
    chi = flib.spherical_harmonic(1, 0)
    cases = [
        ("sphere", (1.0, 0.5)),
        ("torus", (0.8, 2.0)),
        ("cylinder", (0.4, 0.2)),
        ("plane", (0.2, -0.3)),
    ]
    for name, (q1, q2) in cases:
        chart = builtin_charts[name]
        parts, direct, _ = oplib.thin_shell(chart, chi, profile, q1, q2, [0.0, 0.01, 0.1, 0.15])
        assert np.abs(parts.total() - direct).max() < 1e-10, name


def test_confined_gradient_on_a_skew_weingarten_map():
    # the built-in charts are principal (alpha diagonal); on this graph alpha
    # is not even symmetric, so a transposed adjugate would miss the oracle
    graph = chlib.from_map(
        lambda u, v: [u, v, 0.3 * u * u + 0.5 * u * v - 0.2 * v * v + 0.1 * u * u * u],
        ((-1.0, 1.0), (-1.0, 1.0)),
    )
    alpha = evaluate_frame(graph, 0.4, -0.3).weingarten
    assert abs(alpha[0, 1] - alpha[1, 0]) > 0.05
    chi, profile = flib.spherical_harmonic(2, 1), oplib.gaussian_profile(0.5)
    parts, direct, _ = oplib.thin_shell(graph, chi, profile, 0.4, -0.3, [0.05, 0.2, -0.3])
    assert np.abs(parts.total() - direct).max() < 1e-12


def test_confined_gradient_zero_offset_coefficient_is_mean_curvature():
    # normal_geometric = n * M * chi * phi exactly at q3 = 0
    for chart in (chlib.sphere(), chlib.torus()):
        chi = flib.spherical_harmonic(1, 1)
        profile = oplib.gaussian_profile()
        q1, q2 = 1.0, 0.5
        parts = oplib.thin_shell(chart, chi, profile, q1, q2, [0.0])[0]
        fr = evaluate_frame(chart, q1, q2)
        expected = (
            fr.normal * fr.mean_curvature * chi.value(q1, q2) * profile.value(0.0)
        )
        assert np.abs(parts.normal_geometric[:, 0] - expected).max() == 0.0


def test_confined_gradient_plane_cases():
    plane = chlib.plane()
    chi = flib.trig_library(1)[0]
    profile = oplib.gaussian_profile()
    q3s = np.array([0.0, 0.2, 0.8])
    parts = oplib.thin_shell(plane, chi, profile, 0.3, -0.2, q3s)[0]
    assert np.abs(parts.normal_geometric).max() == 0.0
    # tangential direction is q3-independent on a flat chart (the profile
    # factor scales it; normalize it away)
    tangentials = parts.tangential / profile.value(q3s)
    assert np.abs(np.diff(tangentials, axis=1)).max() < 1e-15


def test_confinement_slope_sphere():
    slope, rows = oplib.confinement_slope(
        chlib.sphere(),
        flib.spherical_harmonic(1, 0),
        oplib.gaussian_profile(),
        1.0,
        0.5,
        np.logspace(-4, -1, 13),
    )
    assert 0.95 <= slope <= 1.05
    deviations = [dev for _, dev in rows]
    assert all(d > 0 for d in deviations)
    assert deviations == sorted(deviations)  # monotone growth in q3


@pytest.mark.parametrize("q3s", [[0.01], [0.01, 0.01], [0.0], [0.0, 0.01],
                                 [-0.01, 0.02], [0.01, np.inf], [0.01, np.nan], []])
def test_confinement_slope_needs_two_distinct_positive_offsets(q3s):
    with pytest.raises(ValueError, match="at least two distinct, finite, positive q3"):
        oplib.confinement_slope(chlib.sphere(), flib.spherical_harmonic(1, 0),
                                oplib.gaussian_profile(), 1.0, 0.5, q3s)


def test_confinement_deviation_vanishes_at_zero_and_on_plane():
    chi = flib.spherical_harmonic(1, 0)
    profile = oplib.gaussian_profile()
    assert oplib.thin_shell(chlib.sphere(), chi, profile, 1.0, 0.5, [0.0])[2][0] < 1e-15
    trig = flib.trig_library(1)[0]
    assert oplib.thin_shell(chlib.plane(), trig, profile, 0.1, 0.2, [0.3])[2][0] < 1e-15


def test_confined_gradient_fold_error():
    with pytest.raises(ShellFoldError):
        oplib.thin_shell(
            chlib.sphere(),
            flib.constant(1.0),
            oplib.flat_profile(),
            1.0,
            0.5,
            [-1.0],
        )


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
@pytest.mark.parametrize("q3, error", [(np.nan, ShellFoldError), (np.inf, ValueError),
                                       (-np.inf, ValueError)])
def test_shell_point_refuses_non_finite_offsets(name, q3, error, builtin_charts):
    # these used to return NaN parts for a NaN q3 (and warn too at +inf)
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 3)[1]
    chi, profile = flib.spherical_harmonic(1, 0), oplib.gaussian_profile()
    with pytest.raises(error):
        oplib.thin_shell(chart, chi, profile, q1, q2, [q3])


@pytest.mark.parametrize("q3", [0.1, [[0.1, 0.2]]], ids=["scalar", "2-D"])
def test_thin_shell_needs_a_1d_array_of_offsets(q3):
    # a scalar offset raised numpy's IndexError from deep inside
    with pytest.raises(ValueError, match="q3 must be a 1-D array of offsets"):
        oplib.thin_shell(chlib.sphere(), flib.spherical_harmonic(1, 0),
                         oplib.gaussian_profile(), 1.0, 0.5, q3)


@pytest.mark.parametrize("q3s", [[0.01, np.inf], [np.nan, 0.01], [-np.inf, 0.01, 0.02]])
def test_confinement_slope_checks_finiteness_before_any_row(q3s, monkeypatch):
    built = []
    monkeypatch.setattr(oplib, "_frame_with_gradients", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="at least two distinct, finite, positive q3"):
        oplib.confinement_slope(chlib.sphere(), flib.spherical_harmonic(1, 0),
                                oplib.gaussian_profile(), 1.0, 0.5, q3s)
    assert built == []


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_confinement_slope_builds_the_surface_frame_once(name, builtin_charts, monkeypatch):
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 3)[1]
    chi, profile = flib.spherical_harmonic(1, 0), oplib.gaussian_profile()
    q3s = np.logspace(-4, -1, 13)
    expected = [(q3, float(oplib.thin_shell(chart, chi, profile, q1, q2, [q3])[2][0]))
                for q3 in q3s]
    frames, chis = [], []
    build = oplib._frame_with_gradients
    monkeypatch.setattr(oplib, "_frame_with_gradients",
                        lambda *a: frames.append(a) or build(*a))
    counted = flib.ScalarField(
        chi.label, lambda *a: chis.append(a) or chi.partials(*a), chi.order
    )
    _, rows = oplib.confinement_slope(chart, counted, profile, q1, q2, q3s)
    assert len(frames) == 1
    assert len(chis) == 1  # chi's jets do not depend on q3
    assert rows == expected  # the per-q3 deviations, bit for bit


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_thin_shell_offsets_match_single_offsets(name, builtin_charts):
    # every offset of a multi-offset evaluation equals a one-offset call bit
    # for bit: an offset's result does not depend on the batch it is in
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 3)[1]
    chi, profile = flib.spherical_harmonic(2, 1), oplib.gaussian_profile(0.3)
    q3s = [0.0, 0.02, 0.1, 0.15]
    parts, direct, deviation = oplib.thin_shell(chart, chi, profile, q1, q2, q3s)
    assert parts.tangential.shape == direct.shape == (3, 4)
    assert deviation.shape == (4,)
    for k, q3 in enumerate(q3s):
        one, one_direct, one_deviation = oplib.thin_shell(chart, chi, profile, q1, q2, [q3])
        for part in ("tangential", "normal_geometric", "normal_derivative"):
            assert np.array_equal(getattr(one, part)[:, 0], getattr(parts, part)[:, k])
        assert one.point[:2] == (q1, q2) and one.point[2].tolist() == [q3]
        assert np.array_equal(one_direct[:, 0], direct[:, k])
        assert one_deviation.tolist() == [deviation[k]]


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_gaussian_profile_needs_a_finite_positive_width(width):
    with pytest.raises(ValueError, match="width must be finite and positive"):
        oplib.gaussian_profile(width)


@pytest.mark.parametrize("width", [1e-200, 1e-160, 1e200])
def test_gaussian_profile_needs_a_normal_square_width(width):
    # 1e-200 squares to 0.0, 1e-160 to a subnormal and 1e200 to inf
    with pytest.raises(ValueError, match="its square is not a normal float"):
        oplib.gaussian_profile(width)


def test_gaussian_profile_is_silent_past_the_float_range():
    profile = oplib.gaussian_profile(1e-150)
    q3 = np.array([0.0, 1e10, 1e300])
    assert profile.value(q3).tolist() == [1.0, 0.0, 0.0]
    assert profile.derivative(q3).tolist() == [0.0, 0.0, 0.0]


def test_confinement_deviation_limit_is_the_geometric_momentum():
    # on the sphere the fold factor f is constant, so psi = chi f^{-1/2} phi(q3)
    # is a multiple of chi and the limit operator is i/hbar times its momentum
    sphere, chi = chlib.sphere(), flib.spherical_harmonic(2, 1)
    profile = oplib.gaussian_profile()
    q1, q2 = 1.0, 0.5
    for q3 in (0.01, 0.1):
        scale = (1.0 + 2.0 * q3 + q3 * q3) ** -0.5 * profile.value(q3)
        limit = 1j * scale * oplib.apply_geometric_momentum(sphere, chi, q1, q2)
        parts, _, (deviation,) = oplib.thin_shell(sphere, chi, profile, q1, q2, [q3])
        expected = np.linalg.norm(parts.tangential[:, 0] + parts.normal_geometric[:, 0] - limit)
        assert deviation > 1e-3
        assert abs(deviation - expected) < 1e-14 * expected


# ---------------------------------------------------------------------------
# hermiticity
# ---------------------------------------------------------------------------


def test_hermiticity_defect_matrix():
    pool = [
        flib.spherical_harmonic(0, 0),
        flib.spherical_harmonic(1, 0),
        flib.spherical_harmonic(1, 1),
        flib.spherical_harmonic(2, 0),
    ]
    defects = oplib.hermiticity_defects(pool, order=64)
    assert defects.shape == (3, 4, 4)
    assert np.max(np.abs(defects)) < 1e-10


def test_hermiticity_defect_constant_antisymmetry():
    one = flib.constant(1.0)
    assert abs(oplib.hermiticity_defects([one], order=32)[2, 0, 0]) < 1e-12


# ---------------------------------------------------------------------------
# closed-form sphere operators
# ---------------------------------------------------------------------------


def _loop_rotation_sample_grid(n_theta=20, n_phi=40, band=1e-3):
    """Point-by-point reference for rotation_sample_grid."""
    thetas = np.linspace(band, np.pi - band, n_theta + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    rotations = [
        flib.rotation_matrix("y", -np.pi / 2.0),
        flib.rotation_matrix("x", np.pi / 2.0),
    ]
    points = []
    for t in thetas:
        for p in phis:
            vec = flib.sphere_point(t, p)
            ok = min(t, np.pi - t) > band
            for rot in rotations:
                if abs((rot @ vec)[2]) > np.cos(band):
                    ok = False
            if ok:
                points.append((t, p))
    return points


@pytest.mark.parametrize("args", [(), (7, 13, 0.2), (50, 80, 1e-3)])
def test_rotation_grid_matches_point_loop(args):
    grid = oplib.rotation_sample_grid(*args)
    reference = _loop_rotation_sample_grid(*args)
    assert len(grid) == len(reference)
    assert np.array_equal(np.array(grid), np.array(reference))


SPHERE_OPERATORS = [
    *oplib.SPHERE_MOMENTUM.values(),
    *oplib.SPHERE_ANGULAR.values(),
]


@pytest.mark.parametrize("op", SPHERE_OPERATORS, ids=lambda op: op.name)
@pytest.mark.parametrize("theta", [0.0, 1e-12, np.pi - 1e-12])
def test_sphere_operators_refuse_the_poles(op, theta):
    y11 = flib.spherical_harmonic(1, 1)
    image = op.apply(y11)
    for evaluate in (
        lambda: op.value(y11, theta, 0.3),
        lambda: image.value(theta, 0.3),
        lambda: image.grad(theta, 0.3),
        lambda: op.value(y11, np.array([1.0, theta]), 0.3),
    ):
        with pytest.raises(PoleProximityError):
            evaluate()


def _random_sphere_points(n=50, seed=11, margin=0.05):
    rng = np.random.default_rng(seed)
    return rng.uniform(margin, np.pi - margin, n), rng.uniform(0.0, 2.0 * np.pi, n)


@pytest.mark.parametrize("lm", [(2, 1), (3, -2)])
def test_sphere_momentum_dirac_bracket(lm):
    # [p_i, p_j] f = -i hbar eps_ijk L_k f with nested closed-form operators
    fld = flib.spherical_harmonic(*lm)
    theta, phi = _random_sphere_points()
    hbar = 1.0
    p, L = oplib.SPHERE_MOMENTUM, oplib.SPHERE_ANGULAR
    for i, j, k in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        p_i_p_j = p[i].value(p[j].apply(fld, hbar), theta, phi, hbar)
        p_j_p_i = p[j].value(p[i].apply(fld, hbar), theta, phi, hbar)
        l_k = L[k].value(fld, theta, phi, hbar)
        assert np.abs(p_i_p_j - p_j_p_i + 1j * hbar * l_k).max() < 1e-13
        assert np.abs(p_i_p_j - p_j_p_i).max() > 0.1  # not vacuous


@pytest.mark.parametrize("op", SPHERE_OPERATORS, ids=lambda op: op.name)
def test_sphere_operator_image_partials_match_differences(op, field_library):
    theta, phi = _random_sphere_points(n=20, seed=5, margin=0.3)
    h = 1e-6
    residuals = []
    for fld in field_library:
        image = op.apply(fld)
        grad = image.grad(theta, phi)
        d_theta = (image.value(theta + h, phi) - image.value(theta - h, phi)) / (2 * h)
        d_phi = (image.value(theta, phi + h) - image.value(theta, phi - h)) / (2 * h)
        assert grad.shape == (2,) + theta.shape
        residuals.append(np.abs(grad - np.array([d_theta, d_phi])))
    assert np.max(residuals) < 1e-8
