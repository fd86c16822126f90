import re

import numpy as np
import pytest
import sympy as sp
from scipy.special import sph_harm_y

from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant.errors import PoleProximityError
from surfquant.spectra import eigenfunction_field, psi

from conftest import fd_gradient, fd_hessian, plane_wave
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
            _, grad, hess = fld.partials(q1, q2, 2)
            fd = fd_gradient(fld.value, q1, q2)
            scale = 1.0 + abs(fld.value(q1, q2))
            assert np.abs(grad - fd).max() < 2e-6 * scale, fld.label
            fdh = fd_hessian(fld.value, q1, q2)
            assert np.abs(hess - fdh).max() < 2e-5 * scale, fld.label


def test_spherical_harmonic_values_match_scipy():
    for l, m in [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2), (3, -3)]:
        ylm = flib.spherical_harmonic(l, m)
        for theta, phi in field_points():
            ours = ylm.value(theta, phi)
            ref = complex(sph_harm_y(l, m, theta, phi))
            assert abs(ours - ref) < 1e-12


@pytest.mark.parametrize("l, m, name, bad", [
    (1.9, 0.2, "l", 1.9),  # was Y1+0, truncated
    (2, 0.5, "m", 0.5),
    (1.5, 1, "l", 1.5),
    (np.nan, 0, "l", np.nan),  # was numpy's "cannot convert float NaN to integer"
    (2, np.inf, "m", np.inf),
])
def test_spherical_harmonic_refuses_non_integer_orders(l, m, name, bad):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer (got {bad!r})")):
        flib.spherical_harmonic(l, m)


def test_spherical_harmonic_takes_whole_floats():
    assert flib.spherical_harmonic(2.0, -1.0).label == "Y2-1"


@pytest.mark.parametrize("build, name, bad", [
    (flib.trig_library, "trig count", 2.7),  # was 2 fields, truncated
    (flib.trig_library, "trig count", np.nan),  # was numpy's NaN-to-integer error
    (flib.harmonic_library, "lmax", 2.5),  # was a bare TypeError from range
])
def test_libraries_refuse_non_integer_counts(build, name, bad):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer (got {bad!r})")):
        build(bad)


@pytest.mark.parametrize("lmax, trig_count", [(0, 0), (0, 1), (3, 3), (12, 5)])
@pytest.mark.parametrize("q1, q2", [
    (0.8, 0.4),
    (np.array([[0.3, 1.1, 2.9]]), np.array([[0.2], [4.0]])),
])
def test_library_block_rows_equal_their_fields_bit_for_bit(lmax, trig_count, q1, q2):
    # blocks of 2 and 5 split ladders, and put Y_lm and trig rows together
    library = flib.field_library(lmax, trig_count)
    for size in (1, 2, 5, len(library)):
        for rows, block in flib.library_blocks(lmax, trig_count, size):
            for order in (0, 1, 2):
                jets = block.partials(q1, q2, order)
                alone = [library[r].partials(q1, q2, order) for r in rows]
                assert len(jets) == order + 1
                for n, jet in enumerate(jets):
                    expected = np.stack([a[n] for a in alone], axis=n)
                    assert jet.shape == expected.shape and jet.dtype == expected.dtype
                    assert jet.tobytes() == expected.tobytes(), (rows, order, n)


def test_library_blocks_are_m_major():
    library = flib.field_library(2, 1)
    blocks = list(flib.library_blocks(2, 1, 4))
    assert [[library[r].label for r in rows] for rows, _ in blocks] == [
        ["Y0+0", "Y1+0", "Y2+0", "Y1+1"], ["Y1-1", "Y2+1", "Y2-1", "Y2+2"], ["Y2-2", "trig0"],
    ]
    for size in (0, 1.5):
        with pytest.raises(ValueError, match="size"):
            flib.library_blocks(2, 1, size)


def test_library_block_matches_scipy_up_to_the_bound():
    # every |m| <= l <= MAX_HARMONIC_L in one block, within the per-field bound
    lmax = flib.MAX_HARMONIC_L
    theta, phi = chlib.interior_points(chlib.sphere(), 5).T
    library = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
    (rows, block), = flib.library_blocks(lmax, 0, len(library))
    l, m = np.array(library)[rows].T[..., None]
    assert np.max(np.abs(block.value(theta, phi) - sph_harm_y(l, m, theta, phi))) <= 1e-13


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
        for got, want in zip(prod.partials(q1, q2, 2)[1:], symbolic.partials(q1, q2, 2)[1:]):
            assert np.abs(got - want).max() < 1e-12


def test_product_without_hessian_downgrades():
    f = flib.spherical_harmonic(1, 0)
    first_order = flib.ScalarField("g", f.partials, 1)
    prod = flib.product(f, first_order)
    assert prod.order == 1
    assert prod.partials(1.0, 1.0, 1)[1].shape == (2,)
    with pytest.raises(ValueError):
        prod.partials(1.0, 1.0, 2)


def test_constant_field():
    c = flib.constant(2.0 - 1.5j)
    assert c.value(0.3, 0.4) == 2.0 - 1.5j
    _, grad, hess = c.partials(0.3, 0.4, 2)
    assert np.abs(grad).max() == 0.0
    assert np.abs(hess).max() == 0.0


def test_plane_wave_partials():
    k = 2.5
    wave = plane_wave(k)
    g = wave.partials(0.3, -0.2, 1)[1]
    assert abs(g[0] - 1j * k * wave.value(0.3, -0.2)) < 1e-14
    assert abs(g[1]) == 0.0


def test_coordinate_field_jets(builtin_charts):
    torus = builtin_charts["torus"]
    for axis in range(3):
        fld = flib.coordinate_field(torus, axis)
        for q1, q2 in field_points():
            position, tangents = torus.partials(q1, q2, 1)
            assert fld.value(q1, q2) == complex(position[axis])
            assert np.abs(fld.partials(q1, q2, 1)[1] - tangents[:, axis]).max() == 0.0


def test_fields_broadcast_over_arrays(field_library):
    theta = np.linspace(0.5, 2.5, 7)[:, None]
    phi = np.linspace(0.0, 6.0, 5)[None, :]
    fld = field_library[5]
    vals = fld.value(theta, phi)
    assert vals.shape == (7, 5)
    grad = fld.partials(theta, phi, 1)[1]
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
    assert np.abs(pulled.partials(theta, phi, 1)[1] - fd).max() < 1e-6
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
        pulled.partials(np.array([1.0, np.pi / 2.0]), np.array([0.3, np.pi]), 1)
    assert err.value.theta < flib.POLE_MARGIN
    # the gradient also needs the unrotated point's sphere basis, which
    # refuses a theta within POLE_MARGIN of a pole though its image is fine
    for theta in (1e-10, np.pi - 1e-9):
        assert abs(pulled.value(theta, 0.3)) > 0.1
        with pytest.raises(PoleProximityError) as err:
            pulled.partials(np.array([1.0, theta]), 0.3, 1)
        assert err.value.theta == theta


def test_eigenfunction_field_partials():
    fld = eigenfunction_field(1.7)
    for theta in (0.4, 1.3, 2.8):
        assert abs(fld.value(theta, 0.3) - psi(1.7, theta)) < 1e-14
        fd = fd_gradient(fld.value, theta, 0.3)
        scale = 1.0 + abs(fld.value(theta, 0.3))
        _, grad, hess = fld.partials(theta, 0.3, 2)
        assert np.abs(grad - fd).max() < 1e-6 * scale
        fdh = fd_hessian(fld.value, theta, 0.3)
        assert np.abs(hess - fdh).max() < 2e-4 * scale


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
        flib.map_field(lambda q1, q2: math.sin(q1), "bad").partials(0.3, 0.2, 1)
    assert str(err.value) == CONTRACT
    # complex coefficients
    wave = flib.map_field(lambda q1, q2: (1.0 - 2.0j) * np.exp(1.5j * q1) * q2, "wave")
    q1, q2 = 0.7, -0.4
    value = (1.0 - 2.0j) * np.exp(1.5j * q1) * q2
    assert type(wave.value(q1, q2)) is complex
    assert abs(wave.value(q1, q2) - value) < 1e-15
    _, grad, hess = wave.partials(q1, q2, 2)
    assert np.allclose(grad, [1.5j * value, value / q2], rtol=1e-15)
    assert np.allclose(hess, [[-2.25 * value, 1.5j * value / q2],
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
