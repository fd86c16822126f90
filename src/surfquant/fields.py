"""Complex scalar fields on a chart with exact partials to second order.

Operators in this package never use nested finite differences: every field
carries callables for its value, gradient and Hessian in the chart
parameters, and composite fields (products with coordinate functions,
rotated pullbacks) derive their partials exactly via the chain/product
rule.  The base fields (Y_lm, the trig library, plane waves) are closed
forms with hand-written partials, so the package needs only numpy at run
time; `from_expr` builds a field from any sympy expression and imports
sympy on first use (the symbols THETA and PHI likewise).

Point-axis convention: all callables broadcast over array points, and the
point axes go last.  Over a point shape S the value has shape S, the
gradient (2,) + S and the Hessian (2, 2) + S (derivative axes first), the
same layout the charts and geometry frames use.  A scalar point gives a
Python complex value and (2,) / (2, 2) arrays.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import legendre

from .errors import PoleProximityError

# Evaluation closer to a sphere-chart pole than this raises.
POLE_MARGIN = 1e-8

# The power-basis Y_lm stays within 1e-13 of scipy's sph_harm_y up to this l
# (5e-14 at l = 10) and loses digits fast beyond it (2e-13 at l = 11, 3e-8
# at l = 24); a stable associated-Legendre recurrence would lift the bound.
MAX_HARMONIC_L = 10

# Each trig field costs about 1.6 kB, and trig_library(n) builds all n.
MAX_TRIG_FIELDS = 1024


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


def __getattr__(name):
    """THETA and PHI, the real sympy symbols for from_expr, made on first use."""
    if name in ("THETA", "PHI"):
        import sympy as sp

        theta, phi = sp.symbols("theta phi", real=True)
        globals().update(THETA=theta, PHI=phi)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def from_expr(expr, syms, label):
    """Build a ScalarField from a sympy expression in two symbols."""
    import sympy as sp

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


def _closed_form(label, partials):
    """ScalarField from `partials(q1, q2, order)`, which returns the partials
    of one order as a list: [f], [f_1, f_2] or [f_11, f_12, f_22].  Each
    entry need only broadcast to the point shape (0.0 for a zero partial).
    """

    def value(q1, q2):
        shape = np.broadcast(q1, q2).shape
        (v,) = partials(q1, q2, 0)
        if shape == ():
            return complex(v)
        out = np.empty(shape, dtype=complex)
        out[...] = v
        return out

    def grad(q1, q2):
        out = np.empty((2,) + np.broadcast(q1, q2).shape, dtype=complex)
        out[0], out[1] = partials(q1, q2, 1)
        return out

    def hess(q1, q2):
        out = np.empty((2, 2) + np.broadcast(q1, q2).shape, dtype=complex)
        out[0, 0], out[0, 1], out[1, 1] = partials(q1, q2, 2)
        out[1, 0] = out[0, 1]
        return out

    return ScalarField(label=label, _value=value, _grad=grad, _hess=hess)


def _parity_polyval(coef, x, x2):
    """Power-basis polynomial of definite parity at x, given x2 = x * x."""
    out = coef[-1]
    for c in coef[-3::-2]:
        out = out * x2 + c
    return out * x if len(coef) % 2 == 0 else out


@lru_cache(maxsize=None)
def spherical_harmonic(l, m):
    """Orthonormal Y_lm(theta, phi) with the Condon-Shortley phase.

    Y_lm = c_lm sin^|m|(theta) Q(cos theta) e^{i m phi} with
    Q = d^|m| P_l / dx^|m|; the theta partials follow from the product rule
    with Q' and Q'' (polynomials of definite parity, all built once here).
    Defined for l <= MAX_HARMONIC_L.
    """
    l = int(l)
    m = int(m)
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    if l > MAX_HARMONIC_L:
        raise ValueError(f"Y_lm is limited to l <= {MAX_HARMONIC_L} (got l = {l})")
    a = abs(m)
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - a) / math.factorial(l + a)
    )
    if m > 0 and m % 2:
        norm = -norm
    # norm * Q, Q' and Q'' in the power basis
    q = norm * legendre.leg2poly(legendre.legder([0] * l + [1], a))
    dq = [np.polynomial.polynomial.polyder(q, k) for k in range(3)]

    def sin_pow(s, k):
        # 0 for k < 0, where the term's coefficient vanishes too
        return s ** k if k > 0 else float(k == 0)

    def profile(theta, order):
        """[g, g', g''][:order + 1] for g = norm sin^a(theta) Q(cos theta)."""
        s, c = np.sin(theta), np.cos(theta)
        c2 = c * c
        Q = [_parity_polyval(d, c, c2) for d in dq[:order + 1]]
        out = [sin_pow(s, a) * Q[0]]
        if order >= 1:
            out.append(a * c * sin_pow(s, a - 1) * Q[0] - sin_pow(s, a + 1) * Q[1])
        if order >= 2:
            out.append(
                a * (a - 1) * c2 * sin_pow(s, a - 2) * Q[0]
                - sin_pow(s, a) * (a * Q[0] + (2 * a + 1) * c * Q[1])
                + sin_pow(s, a + 2) * Q[2]
            )
        return out

    def partials(theta, phi, order):
        g = profile(theta, order)
        if m == 0:  # no phi dependence
            return [g[order]] + [0.0] * order
        wave = np.exp(1j * m * np.asarray(phi, dtype=float))
        im = 1j * m
        if order == 0:
            return [g[0] * wave]
        if order == 1:
            return [g[1] * wave, im * g[0] * wave]
        return [g[2] * wave, im * g[1] * wave, -(m * m) * g[0] * wave]

    return _closed_form(f"Y{l}{m:+d}", partials)


def harmonic_library(lmax=3):
    return [
        spherical_harmonic(l, m)
        for l in range(lmax + 1)
        for m in range(-l, l + 1)
    ]


def trig_library(count=3, seed=20240501):
    """Deterministic random trigonometric polynomials in (q1, q2).

    Each field is a seeded combination of the basis 1, cos q1,
    sin q1 cos q2, sin 2q1 sin q2, cos q1 cos 2q2, sin q1 sin 2q2.  Built
    once per (count, seed), for 0 <= count <= MAX_TRIG_FIELDS; each call
    returns a fresh list of the cached fields.
    """
    count = int(count)
    if not 0 <= count <= MAX_TRIG_FIELDS:
        raise ValueError(f"need 0 <= trig count <= {MAX_TRIG_FIELDS} (got {count})")
    return list(_trig_fields(count, int(seed)))


def _trig_field(coeffs, label):
    """sum_k coeffs[k] * basis_k for the trig_library basis, partials by hand."""
    c0, c1, c2, c3, c4, c5 = (float(c) for c in coeffs)

    def partials(q1, q2, order):
        ct, st, c2t, s2t = np.cos(q1), np.sin(q1), np.cos(2 * q1), np.sin(2 * q1)
        cp, sp, c2p, s2p = np.cos(q2), np.sin(q2), np.cos(2 * q2), np.sin(2 * q2)
        if order == 0:
            return [c0 + c1 * ct + c2 * st * cp + c3 * s2t * sp
                    + c4 * ct * c2p + c5 * st * s2p]
        if order == 1:
            return [
                -c1 * st + c2 * ct * cp + 2 * c3 * c2t * sp
                - c4 * st * c2p + c5 * ct * s2p,
                -c2 * st * sp + c3 * s2t * cp - 2 * c4 * ct * s2p + 2 * c5 * st * c2p,
            ]
        return [
            -c1 * ct - c2 * st * cp - 4 * c3 * s2t * sp - c4 * ct * c2p - c5 * st * s2p,
            -c2 * ct * sp + 2 * c3 * c2t * cp + 2 * c4 * st * s2p + 2 * c5 * ct * c2p,
            -c2 * st * cp - c3 * s2t * sp - 4 * c4 * ct * c2p - 4 * c5 * st * s2p,
        ]

    return _closed_form(label, partials)


@lru_cache(maxsize=None)
def _trig_fields(count, seed):
    rng = np.random.default_rng(seed)
    return tuple(
        _trig_field(rng.uniform(-1.0, 1.0, size=6), f"trig{k}") for k in range(count)
    )


def field_library(lmax=3, trig_count=3):
    """The standard test-field battery: Y_lm for l <= lmax plus trig noise."""
    return harmonic_library(lmax) + trig_library(trig_count)


def plane_wave(k, axis=0):
    """exp(i k q_axis), the flat-chart momentum eigenfunction."""
    k = float(k)
    axis = int(axis)

    def partials(q1, q2, order):
        wave = np.exp(1j * k * np.asarray((q1, q2)[axis], dtype=float))
        out = [0.0] * (order + 1)
        out[axis * order] = (1.0, 1j * k, -k * k)[order] * wave
        return out

    return _closed_form(f"exp(i{k:g}q{axis + 1})", partials)


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
