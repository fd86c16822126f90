import numpy as np
import pytest
import sympy as sp
from scipy.special import sph_harm_y

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant.errors import PoleProximityError
from surfquant.spectra import eigenfunction_field, psi

from conftest import fd_gradient, fd_hessian
from sympy_oracle import PHI, THETA, from_expr


def field_points():
    # generic smooth-function sample points, away from chart poles
    return [(0.8, 0.4), (1.7, 2.9), (2.2, 5.1), (0.5, 1.3)]


def test_library_contents(field_library):
    labels = [f.label for f in field_library]
    assert len(field_library) == 16 + 3  # all |m| <= l <= 3 plus trig noise
    assert "Y0+0" in labels and "Y3-3" in labels and "trig2" in labels


def test_every_library_field_partials_match_finite_differences(field_library):
    for fld in field_library:
        for q1, q2 in field_points():
            grad = fld.grad(q1, q2)
            fd = fd_gradient(fld.value, q1, q2)
            scale = 1.0 + abs(fld.value(q1, q2))
            assert np.abs(grad - fd).max() < 2e-6 * scale, fld.label
            hess = fld.hess(q1, q2)
            fdh = fd_hessian(fld.value, q1, q2)
            assert np.abs(hess - fdh).max() < 2e-5 * scale, fld.label


def test_spherical_harmonic_values_match_scipy():
    for l, m in [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2), (3, -3)]:
        ylm = flib.spherical_harmonic(l, m)
        for theta, phi in field_points():
            ours = ylm.value(theta, phi)
            ref = complex(sph_harm_y(l, m, theta, phi))
            assert abs(ours - ref) < 1e-12


def test_y11_explicit_form():
    ylm = flib.spherical_harmonic(1, 1)
    theta, phi = 0.9, 0.4
    expected = -np.sqrt(3.0 / (8.0 * np.pi)) * np.sin(theta) * np.exp(1j * phi)
    assert abs(ylm.value(theta, phi) - expected) < 1e-14


def test_product_matches_symbolic_product():
    sphere = chlib.sphere()
    y21 = flib.spherical_harmonic(2, 1)
    z_field = flib.coordinate_field(sphere, 2)
    prod = flib.product(z_field, y21)
    symbolic = from_expr(sp.cos(THETA) * sp.Ynm(2, 1, THETA, PHI).expand(func=True))
    for q1, q2 in field_points():
        assert abs(prod.value(q1, q2) - symbolic.value(q1, q2)) < 1e-13
        assert np.abs(prod.grad(q1, q2) - symbolic.grad(q1, q2)).max() < 1e-12
        assert np.abs(prod.hess(q1, q2) - symbolic.hess(q1, q2)).max() < 1e-12


def test_product_without_hessian_downgrades():
    f = flib.spherical_harmonic(1, 0)
    first_order = flib.ScalarField("g", f.partials, 1)
    prod = flib.product(f, first_order)
    assert prod.order == 1
    assert prod.grad(1.0, 1.0).shape == (2,)
    with pytest.raises(ValueError):
        prod.hess(1.0, 1.0)


def test_constant_field():
    c = flib.constant(2.0 - 1.5j)
    assert c.value(0.3, 0.4) == 2.0 - 1.5j
    assert np.abs(c.grad(0.3, 0.4)).max() == 0.0
    assert np.abs(c.hess(0.3, 0.4)).max() == 0.0


def test_plane_wave_partials():
    k = 2.5
    wave = flib.plane_wave(k)
    g = wave.grad(0.3, -0.2)
    assert abs(g[0] - 1j * k * wave.value(0.3, -0.2)) < 1e-14
    assert abs(g[1]) == 0.0


def test_coordinate_field_jets(builtin_charts):
    torus = builtin_charts["torus"]
    for axis in range(3):
        fld = flib.coordinate_field(torus, axis)
        for q1, q2 in field_points():
            assert fld.value(q1, q2) == complex(torus.position(q1, q2)[axis])
            assert np.abs(
                fld.grad(q1, q2) - torus.tangents(q1, q2)[:, axis]
            ).max() == 0.0


def test_fields_broadcast_over_arrays(field_library):
    theta = np.linspace(0.5, 2.5, 7)[:, None]
    phi = np.linspace(0.0, 6.0, 5)[None, :]
    fld = field_library[5]
    vals = fld.value(theta, phi)
    assert vals.shape == (7, 5)
    grad = fld.grad(theta, phi)
    assert grad.shape == (2, 7, 5)
    assert abs(vals[2, 3] - fld.value(theta[2, 0], phi[0, 3])) < 1e-14


def test_pullback_value_and_gradient():
    y21 = flib.spherical_harmonic(2, 1)
    rot = flib.rotation_matrix("y", np.pi / 2.0)
    pulled = flib.pullback_field(y21, rot)
    theta, phi = 1.1, 0.7
    target = rot @ flib.sphere_point(theta, phi)
    tp = np.arccos(target[2])
    pp = np.arctan2(target[1], target[0])
    assert abs(pulled.value(theta, phi) - y21.value(tp, pp)) < 1e-13
    fd = fd_gradient(pulled.value, theta, phi)
    assert np.abs(pulled.grad(theta, phi) - fd).max() < 1e-6
    assert pulled.order == 1


def test_pullback_pole_proximity():
    one = flib.spherical_harmonic(1, 1)
    rot = flib.rotation_matrix("y", np.pi / 2.0)
    pulled = flib.pullback_field(one, rot)
    # theta = pi/2, phi = pi maps to the north pole under R_y(pi/2)
    with pytest.raises(PoleProximityError):
        pulled.value(np.pi / 2.0, np.pi)
    # the rotated theta is checked first, so its error names it
    with pytest.raises(PoleProximityError) as err:
        pulled.grad(np.array([1.0, np.pi / 2.0]), np.array([0.3, np.pi]))
    assert err.value.theta < flib.POLE_MARGIN
    # the gradient also needs the unrotated point's sphere basis, which
    # refuses a theta within POLE_MARGIN of a pole though its image is fine
    for theta in (1e-10, np.pi - 1e-9):
        assert abs(pulled.value(theta, 0.3)) > 0.1
        with pytest.raises(PoleProximityError) as err:
            pulled.grad(np.array([1.0, theta]), 0.3)
        assert err.value.theta == theta


def test_eigenfunction_field_partials():
    fld = eigenfunction_field(1.7)
    for theta in (0.4, 1.3, 2.8):
        assert abs(fld.value(theta, 0.3) - psi(1.7, theta)) < 1e-14
        fd = fd_gradient(fld.value, theta, 0.3)
        scale = 1.0 + abs(fld.value(theta, 0.3))
        assert np.abs(fld.grad(theta, 0.3) - fd).max() < 1e-6 * scale
        fdh = fd_hessian(fld.value, theta, 0.3)
        assert np.abs(fld.hess(theta, 0.3) - fdh).max() < 2e-4 * scale


def test_rotation_matrices_orthogonal():
    for axis in ("x", "y", "z"):
        rot = flib.rotation_matrix(axis, 0.7)
        assert np.abs(rot @ rot.T - np.eye(3)).max() < 1e-15
        assert abs(np.linalg.det(rot) - 1.0) < 1e-15
    assert np.abs(
        flib.rotation_matrix("y", np.pi / 2.0) @ np.array([0.0, 0.0, 1.0])
        - np.array([1.0, 0.0, 0.0])
    ).max() < 1e-15


def test_map_field_contract():
    import math

    from surfquant._jets import CONTRACT

    with pytest.raises(TypeError) as err:
        flib.map_field(lambda q1, q2: math.sin(q1), "bad").grad(0.3, 0.2)
    assert str(err.value) == CONTRACT
    # complex coefficients
    wave = flib.map_field(lambda q1, q2: (1.0 - 2.0j) * np.exp(1.5j * q1) * q2, "wave")
    q1, q2 = 0.7, -0.4
    value = (1.0 - 2.0j) * np.exp(1.5j * q1) * q2
    assert type(wave.value(q1, q2)) is complex
    assert abs(wave.value(q1, q2) - value) < 1e-15
    assert np.allclose(wave.grad(q1, q2), [1.5j * value, value / q2], rtol=1e-15)
    assert np.allclose(wave.hess(q1, q2), [[-2.25 * value, 1.5j * value / q2],
                                           [1.5j * value / q2, 0.0]], rtol=1e-15)
    # a constant broadcasts to the point shape; a real map still gives complex
    points = np.linspace(0.1, 1.0, 6).reshape(3, 2), 0.5
    for fn, c in ((lambda q1, q2: 2.5 - 1.0j, 2.5 - 1.0j), (lambda q1, q2: 3, 3.0)):
        jets = flib.map_field(fn, "c").partials(*points, 2)
        assert [j.shape for j in jets] == [(3, 2), (2, 3, 2), (2, 2, 3, 2)]
        assert all(j.dtype == complex for j in jets)
        assert np.all(jets[0] == c) and not jets[1].any() and not jets[2].any()
    assert type(flib.map_field(lambda q1, q2: 3, "three").value(0.1, 0.2)) is complex


def test_partials_past_the_order_of_a_field_raise():
    pulled = flib.pullback_field(flib.spherical_harmonic(1, 1), flib.rotation_matrix("y", 0.3))
    assert len(pulled.partials(1.0, 0.5, 1)) == 2
    with pytest.raises(ValueError, match="order 1 only"):
        pulled.partials(1.0, 0.5, 2)
