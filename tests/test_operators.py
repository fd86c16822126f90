import numpy as np
import pytest
import sympy as sp

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import operators as oplib
from surfquant.errors import PoleProximityError, ShellFoldError

from conftest import chart_points


def cos_theta_field():
    return flib.from_expr(sp.cos(flib.THETA), (flib.THETA, flib.PHI), "cos_theta")


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
        value = oplib.sphere_momentum_component("z", flib.constant(1.0), theta, phi)
        assert abs(value - 1j * np.cos(theta)) < 1e-15


def test_momentum_z_component_of_cos_theta():
    # p_z cos(theta) = i hbar cos(2 theta); at theta = pi/2 this is -i hbar
    sphere = chlib.sphere()
    fld = cos_theta_field()
    for theta in (0.3, 1.0, np.pi / 2.0):
        closed = oplib.sphere_momentum_component("z", fld, theta, 0.7)
        general = oplib.apply_geometric_momentum(sphere, fld, theta, 0.7)[2]
        assert abs(closed - 1j * np.cos(2.0 * theta)) < 1e-13
        assert abs(closed - general) < 1e-13
    assert abs(oplib.sphere_momentum_component("z", fld, np.pi / 2.0, 0.0) + 1j) < 1e-13


def test_sphere_components_match_general_operator(field_library, sphere_points):
    sphere = chlib.sphere()
    worst = 0.0
    for fld in field_library:
        for q1, q2 in sphere_points:
            general = oplib.apply_geometric_momentum(sphere, fld, q1, q2)
            for k, axis in enumerate("xyz"):
                val = oplib.sphere_momentum_component(axis, fld, q1, q2)
                worst = max(worst, abs(val - general[k]))
    assert worst < 1e-12


def test_sphere_component_pole_error():
    with pytest.raises(PoleProximityError):
        oplib.sphere_momentum_component("z", flib.constant(1.0), 1e-12, 0.0)


def test_momentum_chart_singularity_error():
    from surfquant.errors import ChartSingularityError

    with pytest.raises(ChartSingularityError):
        oplib.apply_geometric_momentum(
            chlib.sphere(), flib.constant(1.0), 0.0, 0.3
        )


def test_angular_commutator_pole_error():
    with pytest.raises(PoleProximityError):
        oplib.commutator_angular_momentum(
            "x", "y", flib.constant(1.0), 1e-10, 0.0
        )


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
    worst = 0.0
    for fld in field_library:
        for q1, q2 in chart_points(chart, 50):
            res = oplib.position_momentum_residuals(chart, fld, q1, q2)
            worst = max(worst, float(np.abs(res).max()))
    assert worst < 1e-10


def test_position_momentum_examples(builtin_charts):
    sphere = builtin_charts["sphere"]
    y21 = flib.spherical_harmonic(2, 1)
    assert abs(oplib.commutator_position_momentum(sphere, "z", "z", y21, 1.3, 0.9)) < 1e-10
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
    residual = oplib.commutator_position_momentum(plane, "x", "x", wave, 0.2, 0.1)
    assert abs(residual) < 1e-14


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_position_kinetic_commutator_suite(name, builtin_charts, field_library):
    chart = builtin_charts[name]
    worst = 0.0
    for fld in field_library:
        for q1, q2 in chart_points(chart, 50):
            res = oplib.commutator_position_kinetic(chart, fld, q1, q2)
            worst = max(worst, float(np.abs(res).max()))
    assert worst < 1e-9


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
    worst = 0.0
    for fld in field_library:
        for q1, q2 in sphere_points:
            res = oplib.angular_momentum_residuals(fld, q1, q2)
            worst = max(worst, float(np.abs(res).max()))
    assert worst < 1e-10


def test_angular_momentum_examples():
    y11 = flib.spherical_harmonic(1, 1)
    theta, phi = 1.2, 0.8
    # [L_z, p_x] f = i hbar p_y f
    res = oplib.commutator_angular_momentum("z", "x", y11, theta, phi)
    assert abs(res) < 1e-12
    lz = oplib.SPHERE_ANGULAR["z"]
    px = oplib.SPHERE_MOMENTUM["x"]
    commutator = lz.value(px.apply(y11), theta, phi) - px.value(
        lz.apply(y11), theta, phi
    )
    p_y = oplib.sphere_momentum_component("y", y11, theta, phi)
    assert abs(commutator - 1j * p_y) < 1e-12
    # [L_z, p_z] f = 0 exactly for any field
    arbitrary = flib.spherical_harmonic(3, -2)
    assert abs(oplib.commutator_angular_momentum("z", "z", arbitrary, theta, phi)) < 1e-13
    # constant field, mixed axes
    assert abs(oplib.commutator_angular_momentum("x", "y", flib.constant(1.0), theta, phi)) < 1e-10


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
        for q3 in (0.0, 0.01, 0.1, 0.15):
            parts = oplib.confined_gradient(chart, chi, profile, q1, q2, q3)
            direct = oplib.shell_gradient_direct(chart, chi, profile, q1, q2, q3)
            assert np.abs(parts.total() - direct).max() < 1e-10, name


def test_confined_gradient_zero_offset_coefficient_is_mean_curvature():
    # normal_geometric = n * M * chi * phi exactly at q3 = 0
    for chart in (chlib.sphere(), chlib.torus()):
        chi = flib.spherical_harmonic(1, 1)
        profile = oplib.gaussian_profile()
        q1, q2 = 1.0, 0.5
        parts = oplib.confined_gradient(chart, chi, profile, q1, q2, 0.0)
        from surfquant.geometry import evaluate_frame

        fr = evaluate_frame(chart, q1, q2)
        expected = (
            fr.normal * fr.mean_curvature * chi.value(q1, q2) * profile.value(0.0)
        )
        assert np.abs(parts.normal_geometric - expected).max() == 0.0


def test_confined_gradient_plane_cases():
    plane = chlib.plane()
    chi = flib.trig_library(1)[0]
    profile = oplib.gaussian_profile()
    tangentials = []
    for q3 in (0.0, 0.2, 0.8):
        parts = oplib.confined_gradient(plane, chi, profile, 0.3, -0.2, q3)
        assert np.abs(parts.normal_geometric).max() == 0.0
        # tangential direction is q3-independent on a flat chart (the
        # profile factor scales it; normalize it away)
        tangentials.append(parts.tangential / profile.value(q3))
    assert np.abs(np.diff(tangentials, axis=0)).max() < 1e-15


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf and NaN rows
@pytest.mark.parametrize("q3s", [[0.01], [0.01, 0.01], [0.0], [0.0, 0.01],
                                 [-0.01, 0.02], [0.01, np.inf], [0.01, np.nan], []])
def test_confinement_slope_needs_two_distinct_positive_offsets(q3s):
    with pytest.raises(ValueError, match="at least two distinct, finite, positive q3"):
        oplib.confinement_slope(chlib.sphere(), flib.spherical_harmonic(1, 0),
                                oplib.gaussian_profile(), 1.0, 0.5, q3s)


def test_confinement_deviation_vanishes_at_zero_and_on_plane():
    chi = flib.spherical_harmonic(1, 0)
    profile = oplib.gaussian_profile()
    assert oplib.confinement_deviation(chlib.sphere(), chi, profile, 1.0, 0.5, 0.0) < 1e-15
    assert (
        oplib.confinement_deviation(chlib.plane(), flib.trig_library(1)[0], profile, 0.1, 0.2, 0.3)
        < 1e-15
    )


def test_confined_gradient_fold_error():
    with pytest.raises(ShellFoldError):
        oplib.confined_gradient(
            chlib.sphere(),
            flib.constant(1.0),
            oplib.flat_profile(),
            1.0,
            0.5,
            -1.0,
        )


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
@pytest.mark.parametrize("q3, error", [(np.nan, ShellFoldError), (np.inf, ValueError),
                                       (-np.inf, ValueError)])
def test_shell_point_refuses_non_finite_offsets(name, q3, error, builtin_charts):
    # these used to return NaN parts for a NaN q3 (and warn too at +inf)
    chart = builtin_charts[name]
    q1, q2 = chart_points(chart, 3)[1]
    chi, profile = flib.spherical_harmonic(1, 0), oplib.gaussian_profile()
    for fn in (oplib.confined_gradient, oplib.shell_gradient_direct,
               oplib.confinement_deviation):
        with pytest.raises(error):
            fn(chart, chi, profile, q1, q2, q3)


@pytest.mark.parametrize("q3s", [[0.01, np.inf], [np.nan, 0.01], [-np.inf, 0.01, 0.02]])
def test_confinement_slope_checks_finiteness_before_any_row(q3s, monkeypatch):
    built = []
    monkeypatch.setattr(oplib, "confinement_deviation", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="at least two distinct, finite, positive q3"):
        oplib.confinement_slope(chlib.sphere(), flib.spherical_harmonic(1, 0),
                                oplib.gaussian_profile(), 1.0, 0.5, q3s)
    assert built == []


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_gaussian_profile_needs_a_finite_positive_width(width):
    with pytest.raises(ValueError, match="width must be finite and positive"):
        oplib.gaussian_profile(width)


def test_confinement_deviation_limit_is_the_geometric_momentum():
    # on the sphere the fold factor f is constant, so psi = chi f^{-1/2} phi(q3)
    # is a multiple of chi and the limit operator is i/hbar times its momentum
    sphere, chi = chlib.sphere(), flib.spherical_harmonic(2, 1)
    profile = oplib.gaussian_profile()
    q1, q2 = 1.0, 0.5
    for q3 in (0.01, 0.1):
        scale = (1.0 + 2.0 * q3 + q3 * q3) ** -0.5 * profile.value(q3)
        limit = 1j * scale * oplib.apply_geometric_momentum(sphere, chi, q1, q2)
        parts = oplib.confined_gradient(sphere, chi, profile, q1, q2, q3)
        expected = np.linalg.norm(parts.tangential + parts.normal_geometric - limit)
        deviation = oplib.confinement_deviation(sphere, chi, profile, q1, q2, q3)
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
    worst = 0.0
    for axis in "xyz":
        for f in pool:
            for g in pool:
                worst = max(worst, abs(oplib.hermiticity_defect(axis, f, g, order=64)))
    assert worst < 1e-10


def test_hermiticity_defect_constant_antisymmetry():
    one = flib.constant(1.0)
    assert abs(oplib.hermiticity_defect("z", one, one, order=32)) < 1e-12

