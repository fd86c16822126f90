"""Geometric momentum, commutator checks and the confining-limit machinery.

The geometric momentum on a parametric surface is the vector operator

    p = -i hbar (r^mu d_mu + M n)

whose normal term M n is what makes it symmetric under the surface measure.
This module applies it (and its unit-sphere closed forms) to fields,
verifies the constrained-quantization commutator identities

    [x_i, p_j] = i hbar (delta_ij - n_i n_j)
    [r, T]     = i hbar p / m          (T = -(hbar^2 / 2m) Lap_LB)
    [L_i, p_j] = i hbar eps_ijk p_k    (unit sphere)

pointwise, realizes the thin-shell gradient decomposition whose d -> 0
limit produces the operator, and measures hermiticity defects by sphere
quadrature.  Everything here is in units hbar = m = 1: both sides of each
identity scale alike in hbar and m (as hbar, hbar^2 and hbar^2 / m), so
the units drop no check.  The confining limit (r^mu d_mu + M n) psi is i
times the geometric momentum _momentum computes, and the shell's fold
factor and fold test are geometry.shell_frame's.  One array-first
function, thin_shell, evaluates the decomposition, its Jacobian oracle and
the deviation at all offsets q3 above a surface point; confinement_slope
fits its deviations.
Composed operators are evaluated through derived exact partials
(product/chain rule), never through nested finite differences.

On the unit sphere (outward normal, M = -1) the closed forms are written in
the orthonormal basis (n, e_theta, e_phi):

    p_j = -i hbar (e_theta_j d_theta + (e_phi_j / sin theta) d_phi - n_j)
    L_j = -i hbar (e_phi_j d_theta - (e_theta_j / sin theta) d_phi)

Their coefficients are one elementwise map of the sphere basis
(fields._sphere_basis) each, differentiated by the Taylor jets that
differentiate charts and fields, and come as a field's jets do:
`jet(theta, phi, order)` gives [c, dc][:order + 1].  SPHERE_MOMENTUM and
SPHERE_ANGULAR are the one entry to p and L.  An operator image carries
exact first partials, so a second operator can act on it.  Every
first-order operator here, the general p with the frame's coefficients
(r^1, r^2, M n) included, is one kernel, _image.  SPHERE_MOMENTUM and
SPHERE_ANGULAR give all three components, (3,) + S, and a nested image
such as p.value(p.apply(f)) is the whole tensor p_i (p_j f), (3, 3) + S
indexed [outer, inner].

Point-axis convention: the operators and residuals take scalar or array
points (q1, q2) and put the point axes last, as charts, frames and fields
do.  Over a point shape S the geometric momentum has shape (3,) + S, the
[x_i, p_j] and [L_i, p_j] residual tensors (3, 3) + S (indices i, j first)
and the [r, T] residual (3,) + S.  Each residual evaluates its frame and
field jets once for all points and all index pairs and returns the whole
tensor; a caller reads one pair as [i, j].  A scalar point gives the
per-point results.
"""

from dataclasses import dataclass

import numpy as np

from . import _jets
from . import fields as flib
from .fields import ScalarField, _product_jets, _sphere_basis, pullback_field, rotation_matrix
from .geometry import (
    _contract,
    _frame_with_gradients,
    evaluate_frame,
    laplace_beltrami_jets,
    shell_frame,
)
from .quadrature import sphere_grid

def _momentum(frame, value, grad):
    """-i (r^mu d_mu f + M n f) from a field's jets on a frame: the
    first-order image of the frame's coefficients (r^1, r^2, M n).

    value has shape E + S and grad (2,) + E + S, with S the frame's point
    shape and E extra axes; the result is (3,) + E + S.
    """
    c = np.concatenate([frame.raised, (frame.mean_curvature * frame.normal)[None]])
    return _image(c, value, grad)


def _coordinate_products(frame, jets):
    """Jets of the three products x_i f from the frame's jets of r and the
    field's jets [value, grad, hess][:n + 1], by fields' product rule, with
    the product index i as an extra axis after the derivative axes: value
    (3,) + S, grad (2, 3) + S, hess (2, 2, 3) + S."""
    x = [frame.position, frame.tangents, frame.second_partials][:len(jets)]
    return _product_jets(x, [d[(slice(None),) * n + (None,)] for n, d in enumerate(jets)])


def apply_geometric_momentum(chart, field, q1, q2):
    """-i (r^mu d_mu f + M n f), complex of shape (3,) + point shape."""
    frame = evaluate_frame(chart, q1, q2)
    return _momentum(frame, *field.partials(q1, q2, 1))


def _image(c, value, grad):
    """-i (c_1 d_1 + c_2 d_2 + c_0) f for all three components.

    c holds the coefficient values, (3, 3) + S indexed [term, component];
    value has shape E + S and grad (2,) + E + S, with E extra leading axes,
    for which c is padded, and the result is (3,) + E + S, complex.  Any
    other shapes broadcast, as long as the terms c_2 d_2 f and c_0 f fit
    the shape of c_1 d_1 f, into which they are summed in place: at most
    two image-sized arrays live at a time.
    """
    c = c[(slice(None),) * 2 + (None,) * (np.ndim(value) - np.ndim(c) + 2)]
    out = np.multiply(c[0], grad[0], dtype=complex)
    out += c[1] * grad[1]
    out += c[2] * value
    out *= -1j
    return out


def _image_grad(c, dc, value, grad, hess):
    """Partials of _image by the product rule, shape (2, 3) + S."""
    out = (
        dc[:, 0] * grad[0]
        + c[0] * hess[:, 0, None]
        + dc[:, 1] * grad[1]
        + c[1] * hess[:, 1, None]
        + dc[:, 2] * value
        + c[2] * grad[:, None]
    )
    return -1j * out


class FirstOrderOperator:
    """A unit-sphere vector operator -i (c_theta d_theta + c_phi d_phi + c_0),
    all three components at once, whose coefficient jet `jet(theta, phi,
    order)` gives [c, dc][:order + 1]: c (3, 3) + S indexed [term, component]
    and dc (2, 3, 3) + S indexed [d_theta or d_phi, term, component]."""

    def __init__(self, name, jet):
        self.name = name
        self.jet = jet

    def value(self, field, theta, phi):
        """The image at the points, (3,) + E + S for a field of value shape E + S."""
        return self.apply(field).value(theta, phi)

    def apply(self, field):
        """The image as a field with exact first partials: value (3,) + S and
        gradient (2, 3) + S, so a second operator's image of it is
        (3, 3) + S, indexed [outer, inner]."""

        def partials(theta, phi, order):
            c = self.jet(theta, phi, order)
            jets = field.partials(theta, phi, order + 1)
            out = [_image(c[0], *jets[:2])]
            if order:
                out.append(_image_grad(*c, *jets))
            return out

        return ScalarField(f"{self.name}({field.label})", partials, 1)


def _sphere_coefficients(terms):
    """The coefficient jet of the operator whose coefficient vectors are
    terms(1 / sin theta, n, e_theta, e_phi): a map of the sphere basis, never
    of the sphere chart or its frame, so the closed forms stay an independent
    oracle for the general path.  A theta within POLE_MARGIN of a pole (or
    NaN) raises PoleProximityError and a non-finite phi
    ChartSingularityError, before the map runs."""

    def coefficients(theta, phi):
        st, n, e_theta, e_phi = _sphere_basis(theta, phi)
        return [c for vector in terms(st ** -1, n, e_theta, e_phi) for c in vector]

    def jet(theta, phi, order):
        flib._check_pole(theta)
        theta, phi = flib._finite_angles(theta, phi)
        return [d.reshape(d.shape[:n] + (3, 3) + d.shape[n + 1:])
                for n, d in enumerate(_jets.partials(coefficients, theta, phi, order))]

    return jet


# The geometric momentum on the unit sphere (outward normal, M = -1).
SPHERE_MOMENTUM = FirstOrderOperator("p", _sphere_coefficients(
    lambda csc, n, e_t, e_p: [e_t, [e * csc for e in e_p], [-e for e in n]]))

# Standard angular momentum realization (imported textbook machinery).
SPHERE_ANGULAR = FirstOrderOperator("L", _sphere_coefficients(
    lambda csc, n, e_t, e_p: [e_p, [-e * csc for e in e_t], [0.0] * 3]))


_EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPSILON[_i, _j, _k] = 1.0
    _EPSILON[_i, _k, _j] = -1.0


def position_momentum_residuals(chart, field, q1, q2):
    """[x_i, p_j] f - i (delta_ij - n_i n_j) f for all nine pairs.

    Complex of shape (3, 3) + point shape, indexed [i, j].  One frame, one
    set of field jets and the frame's own jets of x_i serve every pair.
    """
    frame = evaluate_frame(chart, q1, q2)
    return _position_momentum(frame, *field.partials(q1, q2, 1))


def _position_momentum(frame, f_val, f_grad):
    """position_momentum_residuals on a frame, from the field's jets there."""
    p_f = _momentum(frame, f_val, f_grad)  # [j]
    xf_val, xf_grad = _coordinate_products(frame, [f_val, f_grad])
    p_xf = _momentum(frame, xf_val, xf_grad).swapaxes(0, 1)  # [i, j]
    n = frame.normal
    delta = np.eye(3).reshape((3, 3) + (1,) * np.ndim(f_val))
    projector = delta - n[:, None] * n[None, :]
    commutator = frame.position[:, None] * p_f[None, :] - p_xf
    return commutator - 1j * projector * f_val


def angular_momentum_residuals(field, theta, phi):
    """[L_i, p_j] f - i eps_ijk p_k f on the unit sphere, all nine pairs.

    Complex of shape (3, 3) + point shape, indexed [i, j].  The coefficient
    jets of p and L (SPHERE_MOMENTUM, SPHERE_ANGULAR) and the field's jets
    are evaluated once for all pairs.
    """
    return _angular_momentum(
        SPHERE_MOMENTUM.jet(theta, phi, 1), SPHERE_ANGULAR.jet(theta, phi, 1),
        *field.partials(theta, phi, 2),
    )


def _angular_momentum(p_jet, l_jet, f, g, h):
    """angular_momentum_residuals from the coefficient jets of p and L and
    the field's jets at the points."""
    (cp, dcp), (cl, dcl) = p_jet, l_jet
    p_f, l_f = _image(cp, f, g), _image(cl, f, g)
    l_p_f = _image(cl, p_f, _image_grad(cp, dcp, f, g, h))
    p_l_f = _image(cp, l_f, _image_grad(cl, dcl, f, g, h))
    eps_p_f = np.einsum("ijk,k...->ij...", _EPSILON, p_f)
    # l_p_f is indexed [i, j] and p_l_f [j, i]
    return l_p_f - p_l_f.swapaxes(0, 1) - 1j * eps_p_f


def commutator_position_kinetic(chart, field, q1, q2):
    """Componentwise residual of [r, T] f - i p f, (3,) + point shape."""
    frame = evaluate_frame(chart, q1, q2)
    return _position_kinetic(frame, *field.partials(q1, q2, 2))


def _position_kinetic(frame, f_val, f_grad, f_hess):
    """commutator_position_kinetic on a frame, from the field's jets there."""
    t_f = -0.5 * laplace_beltrami_jets(frame, f_grad, f_hess)
    p_f = _momentum(frame, f_val, f_grad)
    _, xf_grad, xf_hess = _coordinate_products(frame, [f_val, f_grad, f_hess])
    t_xf = -0.5 * laplace_beltrami_jets(frame, xf_grad, xf_hess)
    commutator = frame.position * t_f - t_xf
    return commutator - 1j * p_f


def rotation_sample_grid():
    """Deterministic (theta, phi) grid, 20 x 40, avoiding pole bands and
    their images.

    Points within a band of 1e-3 of a pole, or whose images under the
    rotations used by the relation check land within it, are dropped, so
    the pullbacks stay well defined.
    """
    band = 1e-3
    thetas = np.linspace(band, np.pi - band, 22)[1:-1]
    phis = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    vec = flib.sphere_point(t, p)
    ok = np.minimum(t, np.pi - t) > band
    for rot in (rotation_matrix("y", -np.pi / 2.0), rotation_matrix("x", np.pi / 2.0)):
        z = rot[2, 0] * vec[0] + rot[2, 1] * vec[1] + rot[2, 2] * vec[2]
        ok &= ~(np.abs(z) > np.cos(band))
    return list(zip(t[ok], p[ok]))


def rotation_relation_check(field, sample_points=None):
    """Max residual of building p_x and p_y from p_z by rotation.

    The identities checked, with rotations acting on fields by active
    pullback (R f)(x) = f(R^{-1} x), are

        p_x = R_y(pi/2)  p_z  R_y(-pi/2)
        p_y = R_x(-pi/2) p_z  R_x(pi/2)

    evaluated pointwise on the sample grid; returns the maximum absolute
    residual over points and both constructions.  A field with extra value
    axes E (a fields.stack of F fields, E = (F,)) gets one residual per
    row, an array of shape E, from one evaluation of p's coefficients and
    of each pullback's geometry for all its rows; each row's residual
    equals its field's alone bit for bit.  E = () gives a 0-d array.
    """
    if sample_points is None:
        sample_points = rotation_sample_grid()
    points = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        raise ValueError("rotation relation needs at least one sample point")
    theta, phi = points[:, 0], points[:, 1]
    p_f = SPHERE_MOMENTUM.value(field, theta, phi)  # once, for both constructions
    worst = []
    for component, rot in ((0, rotation_matrix("y", np.pi / 2.0)),
                           (1, rotation_matrix("x", -np.pi / 2.0))):
        inner = flib._sphere_angles(np.tensordot(rot.T, flib.sphere_point(theta, phi), axes=1))
        p_z = SPHERE_MOMENTUM.value(pullback_field(field, rot), *inner)[2]
        worst.append(np.abs(p_f[component] - p_z).max(axis=-1))
    return np.max(worst, axis=0)


# ---------------------------------------------------------------------------
# Thin-shell (confining procedure) gradient decomposition.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalProfile:
    """Transverse profile phi(q3) with its derivative."""

    value: object
    derivative: object
    label: str = "profile"


def gaussian_profile(width=1.0):
    """exp(-q3^2 / (2 width^2)); the square of the width must be a normal
    float, so that phi'(q3) = -q3 (phi(q3) / width^2) stays finite."""
    if not 0.0 < width < np.inf:
        raise ValueError(f"profile width must be finite and positive (got {width})")
    w2 = float(width) * float(width)
    if not np.finfo(float).tiny <= w2 < np.inf:
        raise ValueError(
            f"profile width {width} is finite and positive, but its square is not a "
            f"normal float"
        )

    def value(q3):
        with np.errstate(over="ignore"):  # q3^2 past the float range: exp(-inf) = 0
            return np.exp(-0.5 * q3 * q3 / w2)

    return NormalProfile(
        value, lambda q3: -q3 * (value(q3) / w2), f"gaussian(width={width:g})"
    )


def flat_profile():
    return NormalProfile(value=lambda q3: 1.0, derivative=lambda q3: 0.0, label="flat")


@dataclass(frozen=True)
class ConfinedGradient:
    """Three-part split of the bulk gradient of a separable shell function."""

    # each part (3, K) over K offsets
    tangential: np.ndarray  # r^mu d_mu psi part (shell-raised tangents)
    normal_geometric: np.ndarray  # n (M - K q3) f^{-3/2} chi phi part
    normal_derivative: np.ndarray  # n f^{-1/2} chi dphi/dq3 part

    def total(self):
        return self.tangential + self.normal_geometric + self.normal_derivative


def thin_shell(chart, chi, profile, q1, q2, q3):
    """The thin-shell gradient of psi = chi f^{-1/2} phi(q3) above the
    surface point (q1, q2) at the 1-D offsets q3 (K,), f the shell's fold
    factor (ShellFrame.fold_factor).  Returns three things:

    - its exact three-part ConfinedGradient, parts (3, K), which sum to the
      flat-space gradient of psi through the shell chart R = r + q3 n; the
      normal-geometric coefficient reduces to M at q3 = 0, the term the
      confining limit keeps;
    - the Jacobian oracle's gradient (3, K), which solves
      J^T grad = (d1 psi, d2 psi, d3 psi) with J = [R_1 | R_2 | n],
      independently of the adjugate assembly of the parts;
    - the deviations (K,), the norm of (tangential + normal_geometric)
      minus the limit operator (r^mu d_mu + M n) psi, both on one frame.

    The frame with (dM, dK), chi's jets, f and the profile are each
    evaluated once; shell_frame raises on a fold or an overflowing offset.
    """
    q3 = np.asarray(q3, dtype=float)
    if q3.ndim != 1:
        raise ValueError(f"q3 must be a 1-D array of offsets (got shape {q3.shape})")
    frame, dM, dK = _frame_with_gradients(chart, q1, q2)
    f = shell_frame(frame, q3).fold_factor
    chi_val, chi_grad = chi.partials(q1, q2, 1)
    phi_val, phi_der = profile.value(q3), profile.derivative(q3)
    shift = frame.mean_curvature - frame.gaussian_curvature * q3
    finv, f32 = f**-0.5, f**-1.5
    dfinv_mu = -0.5 * f32 * (-2.0 * dM[:, None] * q3 + dK[:, None] * q3 * q3)
    psi_val = chi_val * finv * phi_val
    dpsi_mu = (chi_grad[:, None] * finv + chi_val * dfinv_mu) * phi_val
    dpsi_q3 = chi_val * (shift * f32 * phi_val + finv * phi_der)
    # The shell tangents are R_mu = B r_mu, B = I + q3 alpha with det B = f,
    # so R^mu = B^{-T} r^mu with B^{-1} = adj(B) / f: no shell metric is
    # inverted, and R^mu d_mu psi = r^nu (adj(B) d psi)_nu / f.
    B = np.eye(2) + q3[:, None, None] * frame.weingarten
    (b00, b01), (b10, b11) = B.transpose(1, 2, 0)
    d0, d1 = dpsi_mu
    r, n = frame.raised[:, :, None], frame.normal[:, None]
    parts = ConfinedGradient(
        tangential=r[0] * ((b11 * d0 - b01 * d1) / f) + r[1] * ((b00 * d1 - b10 * d0) / f),
        normal_geometric=n * shift * f32 * chi_val * phi_val,
        normal_derivative=n * finv * chi_val * phi_der,
    )
    # the oracle solves J^T grad = (d1 psi, d2 psi, d3 psi), J = [R_1 | R_2 | n]
    jac_t = np.concatenate([B @ frame.tangents, np.broadcast_to(n.T, (len(q3), 1, 3))], 1)
    rhs = np.stack([d0, d1, dpsi_q3], axis=-1)[..., None]
    direct = np.linalg.solve(jac_t, rhs)[..., 0].T
    limit = 1j * _momentum(frame, psi_val, dpsi_mu)
    gap = parts.tangential + parts.normal_geometric - limit
    return parts, direct, np.sqrt(_contract(gap.real**2 + gap.imag**2, 0))


def confinement_slope(chart, chi, profile, q1, q2, q3_values):
    """Log-log slope of the deviation against q3 plus the sampled rows.

    The fit needs at least two distinct q3, all finite and positive.  A
    non-finite q3 is refused before any row is built; otherwise a shell
    fold at any q3 is reported first.
    """
    q3 = np.array(sorted(float(q) for q in q3_values))
    finite = bool(np.isfinite(q3).all())
    if finite and q3.size:
        deviation = thin_shell(chart, chi, profile, q1, q2, q3)[2]
    if not (finite and q3.size and 0.0 < q3[0] < q3[-1]):  # q3 is sorted
        raise ValueError(
            f"the log-log slope needs at least two distinct, finite, positive "
            f"q3 (got {q3.tolist()})"
        )
    slope = np.polyfit(np.log(q3), np.log(np.maximum(deviation, 1e-300)), 1)[0]
    return float(slope), list(zip(q3.tolist(), deviation.tolist()))


def hermiticity_defects(fields, order=64):
    """<f, p_a g> - <p_a f, g> for every axis a and pair (f, g) of `fields`,
    complex of shape (3, F, F) indexed [a, f, g], on the unit sphere.

    Gauss-Legendre in cos(theta) crossed with a trapezoid rule in phi; the
    defects vanish for smooth fields because the M n term makes the
    geometric momentum symmetric under the surface measure.  With
    A[a, i, j] = <f_i, p_a f_j> the defect is A - A^dagger over (i, j).
    Each field's jets come from one evaluation on the grid, its value is
    written into one (F,) + grid array of the pool's values, and each
    component of its p image is built once and met by all F values in one
    contraction (np.vecdot, which reduces each value row by itself, so an
    entry's bits do not depend on the rest of the pool).  Only one image
    component lives at a time, which bounds the memory at high order."""
    theta, phi, w = sphere_grid(order)
    (c,) = SPHERE_MOMENTUM.jet(theta, phi, 0)
    vals = np.empty((len(fields),) + np.broadcast_shapes(theta.shape, phi.shape), dtype=complex)
    grads = []
    for k, f in enumerate(fields):
        vals[k], grad = f.partials(theta, phi, 1)
        grads.append(grad)
    inner = np.empty((3, len(fields), len(fields)), dtype=complex)  # A
    rows = vals.reshape(len(fields), -1)
    for j, grad in enumerate(grads):
        # one weighted image component at a time, met by every value row
        inner[:, :, j] = [np.vecdot(rows, (w * _image(c[:, a:a + 1], vals[j], grad)[0]).ravel())
                          for a in range(3)]
    return inner - np.conj(inner.swapaxes(1, 2))
