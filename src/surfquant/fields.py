"""Complex scalar fields on a chart with exact partials to second order.

Operators in this package never use nested finite differences: every field
carries callables for its value, gradient and Hessian in the chart
parameters, and composite fields (products with coordinate functions,
rotated pullbacks) derive their partials exactly via the chain/product
rule.  Base fields are built symbolically and lambdified once.

Point-axis convention: all callables broadcast over array points, and the
point axes go last.  Over a point shape S the value has shape S, the
gradient (2,) + S and the Hessian (2, 2) + S (derivative axes first), the
same layout the charts and geometry frames use.  A scalar point gives a
Python complex value and (2,) / (2, 2) arrays.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .errors import PoleProximityError

THETA, PHI = sp.symbols("theta phi", real=True)

# Evaluation closer to a sphere-chart pole than this raises.
POLE_MARGIN = 1e-8


@dataclass(frozen=True)
class ScalarField:
    """Complex function of (q1, q2) with exact first/second partials."""

    label: str
    _value: Callable
    _grad: Callable
    _hess: Optional[Callable] = None

    def value(self, q1, q2):
        return self._value(q1, q2)

    def grad(self, q1, q2):
        """First partials, shape (2,) (leading axis) over the input shape."""
        return self._grad(q1, q2)

    def hess(self, q1, q2):
        """Second partials, shape (2, 2) over the input shape."""
        if self._hess is None:
            raise ValueError(
                f"field {self.label!r} carries first-order data only"
            )
        return self._hess(q1, q2)

    @property
    def has_hessian(self):
        return self._hess is not None


def _wrap_scalar(fn):
    """Lambdified scalar -> complex output broadcast to the input shape."""

    def wrapped(q1, q2):
        shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
        out = np.asarray(fn(q1, q2), dtype=complex)
        if out.shape != shape:
            out = np.broadcast_to(out, shape)
        if shape == ():
            return complex(out)
        return np.array(out, dtype=complex)

    return wrapped


def _stack(parts, q1, q2):
    shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
    vals = [np.broadcast_to(np.asarray(p(q1, q2), dtype=complex), shape) for p in parts]
    return np.array(vals, dtype=complex)


def from_expr(expr, syms, label):
    """Build a ScalarField from a sympy expression in two symbols."""
    s1, s2 = syms
    expr = sp.sympify(expr)
    value = sp.lambdify((s1, s2), expr, modules="numpy")
    d = {
        (i, j): sp.lambdify((s1, s2), sp.diff(expr, a, b), modules="numpy")
        for i, a in enumerate((s1, s2))
        for j, b in enumerate((s1, s2))
        if i <= j
    }
    g1 = sp.lambdify((s1, s2), sp.diff(expr, s1), modules="numpy")
    g2 = sp.lambdify((s1, s2), sp.diff(expr, s2), modules="numpy")

    def grad(q1, q2):
        return _stack((g1, g2), q1, q2)

    def hess(q1, q2):
        row = _stack((d[(0, 0)], d[(0, 1)]), q1, q2)
        row2 = _stack((d[(0, 1)], d[(1, 1)]), q1, q2)
        return np.array([row, row2], dtype=complex)

    return ScalarField(label=label, _value=_wrap_scalar(value), _grad=grad, _hess=hess)


def constant(c, label=None):
    c = complex(c)
    if label is None:
        label = f"const({c.real:g}{c.imag:+g}j)" if c.imag else f"const({c.real:g})"

    def value(q1, q2):
        shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
        if shape == ():
            return c
        return np.full(shape, c, dtype=complex)

    def grad(q1, q2):
        shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
        return np.zeros((2,) + shape, dtype=complex)

    def hess(q1, q2):
        shape = np.broadcast(np.asarray(q1), np.asarray(q2)).shape
        return np.zeros((2, 2) + shape, dtype=complex)

    return ScalarField(label=label, _value=value, _grad=grad, _hess=hess)


def product(f, g, label=None):
    """Pointwise product with product-rule partials (exact, no differencing)."""
    if label is None:
        label = f"({f.label})*({g.label})"
    keep_hess = f.has_hessian and g.has_hessian

    def value(q1, q2):
        return f.value(q1, q2) * g.value(q1, q2)

    def grad(q1, q2):
        return f.grad(q1, q2) * g.value(q1, q2) + f.value(q1, q2) * g.grad(q1, q2)

    def hess(q1, q2):
        fg = f.grad(q1, q2)
        gg = g.grad(q1, q2)
        cross = fg[:, None, ...] * gg[None, :, ...]
        return (
            f.hess(q1, q2) * g.value(q1, q2)
            + cross
            + np.swapaxes(cross, 0, 1)
            + f.value(q1, q2) * g.hess(q1, q2)
        )

    return ScalarField(
        label=label, _value=value, _grad=grad, _hess=hess if keep_hess else None
    )


def coordinate_field(chart, axis):
    """The ambient coordinate x_axis as a field on the chart."""
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")

    def value(q1, q2):
        x = chart.position(q1, q2)[axis]
        return complex(x) if x.ndim == 0 else x.astype(complex)

    def grad(q1, q2):
        return chart.tangents(q1, q2)[:, axis].astype(complex)

    def hess(q1, q2):
        return chart.second_partials(q1, q2)[:, :, axis].astype(complex)

    return ScalarField(
        label=f"x{'xyz'[axis]}@{chart.name}", _value=value, _grad=grad, _hess=hess
    )


@lru_cache(maxsize=None)
def spherical_harmonic(l, m):
    """Orthonormal Y_lm(theta, phi) with the Condon-Shortley phase."""
    l = int(l)
    m = int(m)
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    expr = sp.Ynm(l, m, THETA, PHI).expand(func=True)
    return from_expr(expr, (THETA, PHI), label=f"Y{l}{m:+d}")


def harmonic_library(lmax=3):
    return [
        spherical_harmonic(l, m)
        for l in range(lmax + 1)
        for m in range(-l, l + 1)
    ]


def trig_library(count=3, seed=20240501):
    """Deterministic random trigonometric polynomials in (q1, q2).

    Built once per (count, seed); each call returns a fresh list of the
    cached fields.
    """
    return list(_trig_fields(int(count), int(seed)))


@lru_cache(maxsize=None)
def _trig_fields(count, seed):
    rng = np.random.default_rng(seed)
    basis = [
        sp.Integer(1),
        sp.cos(THETA),
        sp.sin(THETA) * sp.cos(PHI),
        sp.sin(2 * THETA) * sp.sin(PHI),
        sp.cos(THETA) * sp.cos(2 * PHI),
        sp.sin(THETA) * sp.sin(2 * PHI),
    ]
    out = []
    for k in range(count):
        coeffs = rng.uniform(-1.0, 1.0, size=len(basis))
        expr = sum(sp.Float(c) * b for c, b in zip(coeffs, basis))
        out.append(from_expr(expr, (THETA, PHI), label=f"trig{k}"))
    return tuple(out)


def field_library(lmax=3, trig_count=3):
    """The standard test-field battery: Y_lm for l <= lmax plus trig noise."""
    return harmonic_library(lmax) + trig_library(trig_count)


def plane_wave(k, axis=0):
    """exp(i k q_axis), the flat-chart momentum eigenfunction."""
    sym = (THETA, PHI)[axis]
    return from_expr(
        sp.exp(sp.I * sp.Float(k) * sym), (THETA, PHI), label=f"exp(i{k:g}q{axis + 1})"
    )


def sphere_point(theta, phi):
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def _sphere_angles(p):
    """(theta, phi) of unit vectors p of shape (3,) + S."""
    theta = np.arccos(np.clip(p[2], -1.0, 1.0))
    phi = np.arctan2(p[1], p[0])
    return theta, phi


def _check_pole(theta, margin=POLE_MARGIN):
    """Raise PoleProximityError for the first theta within `margin` of a pole."""
    t = np.ravel(theta)
    near = np.minimum(t, np.pi - t) < margin
    if near.any():
        raise PoleProximityError(t[np.argmax(near)], margin)


def pullback_field(f, matrix, label=None):
    """The field x -> f(A x) on the sphere, with exact first partials.

    A is an orthogonal 3x3 matrix; the pullback is evaluated by mapping the
    chart point to its unit vector, applying A, and chaining the gradient
    through the Jacobian of the induced (theta, phi) map.  Second partials
    are not provided (first-order operators only act on pullbacks here).
    """
    A = np.asarray(matrix, dtype=float)
    if label is None:
        label = f"pullback({f.label})"

    def mapped(theta, phi):
        p = np.tensordot(A, sphere_point(theta, phi), axes=1)
        tp, pp = _sphere_angles(p)
        _check_pole(tp)
        return p, tp, pp

    def value(theta, phi):
        _, tp, pp = mapped(theta, phi)
        return f.value(tp, pp)

    def grad(theta, phi):
        p, tp, pp = mapped(theta, phi)
        st, ct = np.sin(theta), np.cos(theta)
        sphi, cphi = np.sin(phi), np.cos(phi)
        zero = np.zeros_like(st)
        dp_dtheta = np.tensordot(A, np.array([ct * cphi, ct * sphi, -st]), axes=1)
        dp_dphi = np.tensordot(A, np.array([-st * sphi, st * cphi, zero]), axes=1)
        stp = np.sin(tp)
        rho2 = p[0] * p[0] + p[1] * p[1]
        # jac[mu, nu] = d(theta', phi')_nu / d(theta, phi)_mu
        jac = np.array(
            [
                [-dp_dtheta[2] / stp, (p[0] * dp_dtheta[1] - p[1] * dp_dtheta[0]) / rho2],
                [-dp_dphi[2] / stp, (p[0] * dp_dphi[1] - p[1] * dp_dphi[0]) / rho2],
            ]
        )
        g = f.grad(tp, pp)
        return jac[:, 0] * g[0] + jac[:, 1] * g[1]

    return ScalarField(label=label, _value=value, _grad=grad, _hess=None)


def rotation_matrix(axis, angle):
    """Active right-handed rotation matrix about a coordinate axis."""
    c, s = np.cos(angle), np.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == "z":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError("axis must be 'x', 'y' or 'z'")
