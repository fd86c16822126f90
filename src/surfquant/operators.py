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
quadrature.  The confining limit (r^mu d_mu + M n) psi is i/hbar times the
geometric momentum _momentum computes, and the shell's fold factor and fold
test are geometry.shell_frame's.  Composed operators are evaluated through
derived exact partials (product/chain rule), never through nested finite
differences.

Point-axis convention: the operators and residuals take scalar or array
points (q1, q2) and put the point axes last, as charts, frames and fields
do.  Over a point shape S the geometric momentum has shape (3,) + S, the
[x_i, p_j] and [L_i, p_j] residual tensors (3, 3) + S (indices i, j first)
and the [r, T] residual (3,) + S.  Each residual evaluates its frame and
field jets once for all points and all index pairs.  A scalar point gives
the per-point results (Python complex and float for scalar quantities).
"""

from dataclasses import dataclass

import numpy as np

from . import fields as flib
from .fields import ScalarField, _check_pole, pullback_field, rotation_matrix
from .geometry import (
    curvature_gradients,
    evaluate_frame,
    laplace_beltrami_jets,
    shell_frame,
)
from .quadrature import sphere_grid

AXIS_INDEX = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


def _axis(i):
    try:
        return AXIS_INDEX[i]
    except (KeyError, TypeError):
        raise ValueError(f"axis must be one of x, y, z (got {i!r})")


def _complex(x):
    """A Python complex for a single point, the array otherwise."""
    return complex(x) if np.ndim(x) == 0 else x


def _momentum(frame, value, grad, hbar):
    """-i hbar (r^mu d_mu f + M n f) from a field's jets on a frame.

    value has shape E + S and grad (2,) + E + S, with S the frame's point
    shape and E extra axes; the result is (3,) + E + S.
    """
    pad = (slice(None),) + (None,) * (np.ndim(value) - np.ndim(frame.mean_curvature))
    raised, n = frame.raised[(slice(None),) + pad], frame.normal[pad]
    tangential = raised[0] * grad[0] + raised[1] * grad[1]
    normal = frame.mean_curvature * n * value
    return -1j * hbar * (tangential + normal)


def _coordinate_products(frame, value, grad, hess=None):
    """Jets of the three products x_i f, built from the frame's jets of r.

    Product-rule partials with the product index i as an extra axis after
    the derivative axes: value (3,) + S, grad (2, 3) + S, hess (2, 2, 3) + S
    (None when the field carries no Hessian).
    """
    x, t = frame.position, frame.tangents
    xf = x * value
    xf_grad = t * value + x * grad[:, None]
    if hess is None:
        return xf, xf_grad, None
    cross = t[:, None] * grad[None, :, None]  # cross[m, n, i] = d_m x_i d_n f
    xf_hess = (
        frame.second_partials * value + cross + cross.swapaxes(0, 1) + x * hess[:, :, None]
    )
    return xf, xf_grad, xf_hess


def apply_geometric_momentum(chart, field, q1, q2, hbar=1.0):
    """-i hbar (r^mu d_mu f + M n f), complex of shape (3,) + point shape."""
    frame = evaluate_frame(chart, q1, q2)
    return _momentum(frame, field.value(q1, q2), field.grad(q1, q2), hbar)


# ---------------------------------------------------------------------------
# Closed-form first-order operators on the unit sphere.  Each coefficient is
# stored with its own analytic theta/phi derivatives so that one operator
# application yields a field with exact first partials (enough to nest a
# second first-order operator on top).
# ---------------------------------------------------------------------------


class FirstOrderOperator:
    """Operator pref * hbar * (c_theta d_theta + c_phi d_phi + c_0)."""

    def __init__(self, name, prefactor, c_theta, c_phi, c_scalar):
        # each coefficient entry is (value, d_theta, d_phi) callables
        self.name = name
        self.prefactor = complex(prefactor)
        self.c_theta = c_theta
        self.c_phi = c_phi
        self.c_scalar = c_scalar

    def _coefficients(self, theta, phi, derivatives=True):
        """c[k][d] for coefficient k (theta, phi, scalar) and d = value,
        d_theta, d_phi (the value alone without derivatives)."""
        n = 3 if derivatives else 1
        return [
            [fn(theta, phi) for fn in entry[:n]]
            for entry in (self.c_theta, self.c_phi, self.c_scalar)
        ]

    def _value(self, c, f, g, hbar):
        out = c[0][0] * g[0] + c[1][0] * g[1] + c[2][0] * f
        return self.prefactor * hbar * out

    def _grad(self, c, f, g, h, hbar):
        out = np.empty(np.shape(g), dtype=complex)
        for mu in range(2):
            out[mu] = (
                c[0][1 + mu] * g[0]
                + c[0][0] * h[mu, 0]
                + c[1][1 + mu] * g[1]
                + c[1][0] * h[mu, 1]
                + c[2][1 + mu] * f
                + c[2][0] * g[mu]
            )
        return self.prefactor * hbar * out

    def value(self, field, theta, phi, hbar=1.0):
        c = self._coefficients(theta, phi, derivatives=False)
        return self._value(c, field.value(theta, phi), field.grad(theta, phi), hbar)

    def apply(self, field, hbar=1.0):
        """Operator image as a field with exact first partials."""

        def value(theta, phi):
            return self.value(field, theta, phi, hbar)

        def grad(theta, phi):
            c = self._coefficients(theta, phi)
            f, g = field.value(theta, phi), field.grad(theta, phi)
            return self._grad(c, f, g, field.hess(theta, phi), hbar)

        return ScalarField(
            label=f"{self.name}({field.label})", _value=value, _grad=grad, _hess=None
        )


def _zero(theta, phi):
    return np.zeros(np.broadcast(np.asarray(theta), np.asarray(phi)).shape)


_SIN = np.sin
_COS = np.cos

# Geometric momentum components on the unit sphere (outward normal, M = -1):
# p_j = -i hbar ((r^theta)_j d_theta + (r^phi)_j d_phi + M n_j).
SPHERE_MOMENTUM = {
    "x": FirstOrderOperator(
        "p_x",
        -1j,
        (
            lambda t, p: _COS(t) * _COS(p),
            lambda t, p: -_SIN(t) * _COS(p),
            lambda t, p: -_COS(t) * _SIN(p),
        ),
        (
            lambda t, p: -_SIN(p) / _SIN(t),
            lambda t, p: _SIN(p) * _COS(t) / _SIN(t) ** 2,
            lambda t, p: -_COS(p) / _SIN(t),
        ),
        (
            lambda t, p: -_SIN(t) * _COS(p),
            lambda t, p: -_COS(t) * _COS(p),
            lambda t, p: _SIN(t) * _SIN(p),
        ),
    ),
    "y": FirstOrderOperator(
        "p_y",
        -1j,
        (
            lambda t, p: _COS(t) * _SIN(p),
            lambda t, p: -_SIN(t) * _SIN(p),
            lambda t, p: _COS(t) * _COS(p),
        ),
        (
            lambda t, p: _COS(p) / _SIN(t),
            lambda t, p: -_COS(p) * _COS(t) / _SIN(t) ** 2,
            lambda t, p: -_SIN(p) / _SIN(t),
        ),
        (
            lambda t, p: -_SIN(t) * _SIN(p),
            lambda t, p: -_COS(t) * _SIN(p),
            lambda t, p: -_SIN(t) * _COS(p),
        ),
    ),
    "z": FirstOrderOperator(
        "p_z",
        -1j,
        (lambda t, p: -_SIN(t), lambda t, p: -_COS(t), _zero),
        (_zero, _zero, _zero),
        (lambda t, p: -_COS(t), lambda t, p: _SIN(t), _zero),
    ),
}

# Standard angular momentum realizations (imported textbook machinery).
SPHERE_ANGULAR = {
    "x": FirstOrderOperator(
        "L_x",
        -1j,
        (lambda t, p: -_SIN(p), _zero, lambda t, p: -_COS(p)),
        (
            lambda t, p: -_COS(p) * _COS(t) / _SIN(t),
            lambda t, p: _COS(p) / _SIN(t) ** 2,
            lambda t, p: _SIN(p) * _COS(t) / _SIN(t),
        ),
        (_zero, _zero, _zero),
    ),
    "y": FirstOrderOperator(
        "L_y",
        -1j,
        (lambda t, p: _COS(p), _zero, lambda t, p: -_SIN(p)),
        (
            lambda t, p: -_SIN(p) * _COS(t) / _SIN(t),
            lambda t, p: _SIN(p) / _SIN(t) ** 2,
            lambda t, p: -_COS(p) * _COS(t) / _SIN(t),
        ),
        (_zero, _zero, _zero),
    ),
    "z": FirstOrderOperator(
        "L_z",
        -1j,
        (_zero, _zero, _zero),
        (lambda t, p: np.ones(np.broadcast(np.asarray(t), np.asarray(p)).shape), _zero, _zero),
        (_zero, _zero, _zero),
    ),
}

_AXES = ("x", "y", "z")


_EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPSILON[_i, _j, _k] = 1.0
    _EPSILON[_i, _k, _j] = -1.0


def sphere_momentum_component(axis, field, theta, phi, hbar=1.0):
    """Closed-form momentum component on the unit sphere."""
    _check_pole(theta)
    op = SPHERE_MOMENTUM[_AXES[_axis(axis)]]
    return _complex(op.value(field, theta, phi, hbar))


def position_momentum_residuals(chart, field, q1, q2, hbar=1.0):
    """[x_i, p_j] f - i hbar (delta_ij - n_i n_j) f for all nine pairs.

    Complex of shape (3, 3) + point shape, indexed [i, j].  One frame, one
    set of field jets and the frame's own jets of x_i serve every pair.
    """
    frame = evaluate_frame(chart, q1, q2)
    f_val, f_grad = field.value(q1, q2), field.grad(q1, q2)
    p_f = _momentum(frame, f_val, f_grad, hbar)  # [j]
    xf_val, xf_grad, _ = _coordinate_products(frame, f_val, f_grad)
    p_xf = _momentum(frame, xf_val, xf_grad, hbar).swapaxes(0, 1)  # [i, j]
    n = frame.normal
    delta = np.eye(3).reshape((3, 3) + (1,) * np.ndim(f_val))
    projector = delta - n[:, None] * n[None, :]
    commutator = frame.position[:, None] * p_f[None, :] - p_xf
    return commutator - 1j * hbar * projector * f_val


def commutator_position_momentum(chart, i, j, field, q1, q2, hbar=1.0):
    """Residual of [x_i, p_j] f - i hbar (delta_ij - n_i n_j) f at the points."""
    i = _axis(i)
    j = _axis(j)
    return _complex(position_momentum_residuals(chart, field, q1, q2, hbar)[i, j])


def angular_momentum_residuals(field, theta, phi, hbar=1.0):
    """[L_i, p_j] f - i hbar eps_ijk p_k f on the unit sphere, all nine pairs.

    Complex of shape (3, 3) + point shape, indexed [i, j].  The field's jets
    and each operator's coefficients are evaluated once for all pairs.
    """
    _check_pole(theta)
    f, g, h = field.value(theta, phi), field.grad(theta, phi), field.hess(theta, phi)
    P = [SPHERE_MOMENTUM[a] for a in _AXES]
    L = [SPHERE_ANGULAR[a] for a in _AXES]
    cP = [op._coefficients(theta, phi) for op in P]
    cL = [op._coefficients(theta, phi) for op in L]
    p_vals = [op._value(c, f, g, hbar) for op, c in zip(P, cP)]
    p_images = [(p_vals[j], P[j]._grad(cP[j], f, g, h, hbar)) for j in range(3)]
    l_images = [
        (L[i]._value(cL[i], f, g, hbar), L[i]._grad(cL[i], f, g, h, hbar))
        for i in range(3)
    ]
    out = np.empty((3, 3) + np.shape(f), dtype=complex)
    for i in range(3):
        for j in range(3):
            lhs = L[i]._value(cL[i], *p_images[j], hbar) - P[j]._value(
                cP[j], *l_images[i], hbar
            )
            rhs = sum(_EPSILON[i, j, k] * p_vals[k] for k in range(3))
            out[i, j] = lhs - 1j * hbar * rhs
    return out


def commutator_angular_momentum(i, j, field, theta, phi, hbar=1.0):
    """Residual of [L_i, p_j] f - i hbar eps_ijk p_k f on the unit sphere."""
    i = _axis(i)
    j = _axis(j)
    return _complex(angular_momentum_residuals(field, theta, phi, hbar)[i, j])


def commutator_position_kinetic(chart, field, q1, q2, hbar=1.0, mass=1.0):
    """Componentwise residual of [r, T] f - (i hbar / mass) p f, (3,) + point shape."""
    frame = evaluate_frame(chart, q1, q2)
    f_val, f_grad, f_hess = field.value(q1, q2), field.grad(q1, q2), field.hess(q1, q2)
    scale = -(hbar * hbar) / (2.0 * mass)
    t_f = scale * laplace_beltrami_jets(frame, f_grad, f_hess)
    p_f = _momentum(frame, f_val, f_grad, hbar)
    _, xf_grad, xf_hess = _coordinate_products(frame, f_val, f_grad, f_hess)
    t_xf = scale * laplace_beltrami_jets(frame, xf_grad, xf_hess)
    commutator = frame.position * t_f - t_xf
    return commutator - 1j * hbar / mass * p_f


def rotation_sample_grid(n_theta=20, n_phi=40, band=1e-3):
    """Deterministic (theta, phi) grid avoiding pole bands and their images.

    Points whose images under the rotations used by the relation check land
    within the pole band are dropped, so the pullbacks stay well defined.
    """
    thetas = np.linspace(band, np.pi - band, n_theta + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    rotations = [
        rotation_matrix("y", -np.pi / 2.0),
        rotation_matrix("x", np.pi / 2.0),
    ]
    points = []
    for t in thetas:
        for p in phis:
            vec = flib.sphere_point(t, p)
            ok = min(t, np.pi - t) > band
            for rot in rotations:
                z = abs((rot @ vec)[2])
                if z > np.cos(band):
                    ok = False
            if ok:
                points.append((t, p))
    return points


def rotation_relation_check(field, sample_points=None, hbar=1.0):
    """Max residual of building p_x and p_y from p_z by rotation.

    The identities checked, with rotations acting on fields by active
    pullback (R f)(x) = f(R^{-1} x), are

        p_x = R_y(pi/2)  p_z  R_y(-pi/2)
        p_y = R_x(-pi/2) p_z  R_x(pi/2)

    evaluated pointwise on the sample grid; returns the maximum absolute
    residual over points and both constructions.
    """
    if sample_points is None:
        sample_points = rotation_sample_grid()
    points = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        raise ValueError("rotation relation needs at least one sample point")
    theta, phi = points[:, 0], points[:, 1]
    p_z = SPHERE_MOMENTUM["z"]
    constructions = [
        ("x", rotation_matrix("y", np.pi / 2.0)),
        ("y", rotation_matrix("x", -np.pi / 2.0)),
    ]
    worst = []
    for axis, rot in constructions:
        pulled = pullback_field(field, rot)
        lhs = SPHERE_MOMENTUM[axis].value(field, theta, phi, hbar)
        inner = np.tensordot(rot.T, flib.sphere_point(theta, phi), axes=1)
        rhs = p_z.value(pulled, *flib._sphere_angles(inner), hbar)
        worst.append(np.abs(lhs - rhs).max())
    return float(np.max(worst))


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
    if not 0.0 < width < np.inf:
        raise ValueError(f"profile width must be finite and positive (got {width})")
    w2 = float(width) ** 2
    return NormalProfile(
        value=lambda q3: np.exp(-0.5 * q3 * q3 / w2),
        derivative=lambda q3: -(q3 / w2) * np.exp(-0.5 * q3 * q3 / w2),
        label=f"gaussian(width={width:g})",
    )


def flat_profile():
    return NormalProfile(value=lambda q3: 1.0, derivative=lambda q3: 0.0, label="flat")


@dataclass(frozen=True)
class ConfinedGradient:
    """Three-part split of the bulk gradient of a separable shell function."""

    tangential: np.ndarray  # r^mu d_mu psi part (shell-raised tangents)
    normal_geometric: np.ndarray  # n (M - K q3) f^{-3/2} chi phi part
    normal_derivative: np.ndarray  # n f^{-1/2} chi dphi/dq3 part
    point: tuple  # (q1, q2, q3)

    def total(self):
        return self.tangential + self.normal_geometric + self.normal_derivative


def _shell_pieces(chart, chi, profile, q1, q2, q3):
    """The shell frame and the jets of psi = chi f^{-1/2} phi at a shell point,
    f the fold factor; shell_frame raises on a fold or a non-finite q3."""
    frame = evaluate_frame(chart, q1, q2)
    shell = shell_frame(frame, q3)
    factor = shell.fold_factor
    M = frame.mean_curvature
    K = frame.gaussian_curvature
    dM, dK = curvature_gradients(chart, q1, q2)
    finv = factor ** -0.5
    dfactor_mu = -2.0 * dM * q3 + dK * q3 * q3
    dfinv_mu = -0.5 * factor ** -1.5 * dfactor_mu
    chi_val = chi.value(q1, q2)
    chi_grad = chi.grad(q1, q2)
    phi_val = complex(profile.value(q3))
    phi_der = complex(profile.derivative(q3))
    psi_val = chi_val * finv * phi_val
    dpsi_mu = (chi_grad * finv + chi_val * dfinv_mu) * phi_val
    dpsi_q3 = chi_val * ((M - K * q3) * factor ** -1.5 * phi_val + finv * phi_der)
    return shell, chi_val, phi_val, phi_der, psi_val, dpsi_mu, dpsi_q3


def _split(chart, chi, profile, q1, q2, q3):
    """The ConfinedGradient at one shell point, with the surface frame and
    the jets (psi, d_mu psi) the limit operator acts on."""
    q3 = float(q3)
    shell, chi_val, phi_val, phi_der, psi_val, dpsi_mu, _ = _shell_pieces(
        chart, chi, profile, q1, q2, q3
    )
    frame, factor = shell.base, shell.fold_factor
    B = np.eye(2) + q3 * frame.weingarten
    shell_tangents = B @ frame.tangents
    shell_metric = shell_tangents @ shell_tangents.T
    shell_raised = np.linalg.inv(shell_metric) @ shell_tangents
    tangential = shell_raised[0] * dpsi_mu[0] + shell_raised[1] * dpsi_mu[1]
    M = frame.mean_curvature
    K = frame.gaussian_curvature
    normal_geometric = (
        frame.normal * (M - K * q3) * factor ** -1.5 * chi_val * phi_val
    )
    normal_derivative = frame.normal * factor ** -0.5 * chi_val * phi_der
    parts = ConfinedGradient(
        tangential=tangential.astype(complex),
        normal_geometric=normal_geometric.astype(complex),
        normal_derivative=normal_derivative.astype(complex),
        point=(float(q1), float(q2), q3),
    )
    return parts, frame, psi_val, dpsi_mu


def confined_gradient(chart, chi, profile, q1, q2, q3):
    """Exact three-part decomposition of grad(psi) at a shell point.

    psi is assembled from the separability ansatz
    psi = chi(q1, q2) f^{-1/2} phi(q3), with f the shell's fold factor
    (ShellFrame.fold_factor).  The parts sum to the true flat-space
    gradient of psi through the shell chart R = r + q3 n; the
    normal-geometric coefficient reduces to M at q3 = 0, which is the term
    the confining limit keeps.
    """
    return _split(chart, chi, profile, q1, q2, q3)[0]


def shell_gradient_direct(chart, chi, profile, q1, q2, q3):
    """Flat-space gradient of psi via the 3x3 shell Jacobian (oracle path).

    Solves J^T grad = (d1 psi, d2 psi, d3 psi) with J = [R_1 | R_2 | n],
    R_mu = (I + q3 alpha) r_mu; independent of the block assembly used by
    confined_gradient.
    """
    q3 = float(q3)
    shell, _, _, _, _, dpsi_mu, dpsi_q3 = _shell_pieces(chart, chi, profile, q1, q2, q3)
    frame = shell.base
    B = np.eye(2) + q3 * frame.weingarten
    shell_tangents = B @ frame.tangents
    jac = np.column_stack([shell_tangents[0], shell_tangents[1], frame.normal])
    rhs = np.array([dpsi_mu[0], dpsi_mu[1], dpsi_q3], dtype=complex)
    return np.linalg.solve(jac.T.astype(complex), rhs)


def confinement_deviation(chart, chi, profile, q1, q2, q3):
    """Norm of (tangential + normal_geometric) minus the limit operator
    (r^mu d_mu + M n) psi, both built on one frame at the same q3."""
    parts, frame, psi_val, dpsi_mu = _split(chart, chi, profile, q1, q2, q3)
    limit = 1j * _momentum(frame, psi_val, dpsi_mu, 1.0)
    return float(
        np.linalg.norm(parts.tangential + parts.normal_geometric - limit)
    )


def confinement_slope(chart, chi, profile, q1, q2, q3_values):
    """Log-log slope of the deviation against q3 plus the sampled rows.

    The fit needs at least two distinct q3, all finite and positive.  A
    non-finite q3 is refused before any row is built; otherwise a shell
    fold at any q3 is reported first.
    """
    q3_values = sorted(float(q) for q in q3_values)
    finite = bool(np.isfinite(q3_values).all())
    rows = [
        (q3, confinement_deviation(chart, chi, profile, q1, q2, q3))
        for q3 in (q3_values if finite else ())
    ]
    if not (finite and len(set(q3_values)) >= 2 and all(q > 0.0 for q in q3_values)):
        raise ValueError(
            f"the log-log slope needs at least two distinct, finite, positive "
            f"q3 (got {q3_values})"
        )
    xs = np.log([r[0] for r in rows])
    ys = np.log([max(r[1], 1e-300) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, rows


def hermiticity_defect(axis, f, g, order=64, hbar=1.0):
    """<f, P g> - <P f, g> on the unit sphere by quadrature.

    Gauss-Legendre in cos(theta) crossed with a trapezoid rule in phi;
    vanishes for smooth fields because the M n term makes the geometric
    momentum symmetric under the surface measure.
    """
    op = SPHERE_MOMENTUM[_AXES[_axis(axis)]]
    theta, phi, w = sphere_grid(order)
    f_val = f.value(theta, phi)
    g_val = g.value(theta, phi)
    p_g = op.value(g, theta, phi, hbar)
    p_f = op.value(f, theta, phi, hbar)
    inner_f_pg = np.sum(w * np.conj(f_val) * p_g)
    inner_pf_g = np.sum(w * np.conj(p_f) * g_val)
    return complex(inner_f_pg - inner_pf_g)
