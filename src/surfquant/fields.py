"""Complex scalar fields on a chart with exact partials to second order.

A field is one callable `partials(q1, q2, order)` that returns
[value, grad, hess][:order + 1], and the highest order it supports.
Operators in this package never use nested finite differences.  Every
closed-form field (Y_lm from associated_legendre, the trig library, plane
waves, constants, the coordinate functions of a chart, spectra's
eigenfunctions) is a bare elementwise-numpy map of (q1, q2), differentiated
exactly by the Taylor jets that differentiate the charts (`_jets`);
`map_field` wraps any such map.  Composite fields (products, rotated
pullbacks, operator images) derive their partials from their factors' by
the product and chain rules.  The package needs only numpy at run time.

Point-axis convention: all callables broadcast over array points, and the
point axes go last.  Over a point shape S the value has shape S, the
gradient (2,) + S and the Hessian (2, 2) + S (derivative axes first), the
same layout the charts and geometry frames use.  A scalar point gives a
Python complex value and (2,) / (2, 2) arrays.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _jets
from .errors import ChartSingularityError, PoleProximityError

# Evaluation closer to a sphere-chart pole than this raises.
POLE_MARGIN = 1e-8

# The highest l of Y_lm and of spectra's P_l and amplitudes; Y_lm stays within
# 1e-13 of scipy's sph_harm_y for every |m| <= l up to here (9e-14 at l = 64).
MAX_HARMONIC_L = 64

# Each trig field costs about 1.6 kB, and trig_library(n) builds all n.
MAX_TRIG_FIELDS = 1024


@dataclass(frozen=True)
class ScalarField:
    """Complex function of (q1, q2) with exact partials up to `order`.

    `_partials(q1, q2, n)` returns [value, grad, hess][:n + 1], complex
    arrays of shapes S, (2,) + S and (2, 2) + S over the point shape S.
    """

    label: str
    _partials: Callable
    order: int = 2

    def partials(self, q1, q2, order):
        """[value, grad, hess][:order + 1] at the points, from one evaluation."""
        if order > self.order:
            raise ValueError(
                f"field {self.label!r} carries partials to order {self.order} only"
            )
        return self._partials(q1, q2, order)

    def value(self, q1, q2):
        v = self.partials(q1, q2, 0)[0]
        return complex(v) if v.ndim == 0 else v

    def grad(self, q1, q2):
        """First partials, shape (2,) (leading axis) over the input shape."""
        return self.partials(q1, q2, 1)[1]

    def hess(self, q1, q2):
        """Second partials, shape (2, 2) over the input shape."""
        return self.partials(q1, q2, 2)[2]


def map_field(fn, label):
    """The field of a bare map fn(q1, q2) -> one real or complex number.

    Its partials come from Taylor jets of the parameters, exact to
    rounding, so fn must be elementwise numpy (see _jets.CONTRACT; math.sin,
    for one, raises TypeError).  A constant fn broadcasts to the point shape.
    """

    def partials(q1, q2, order):
        jets = _jets.partials(lambda a, b: [fn(a, b)], q1, q2, order)
        return [np.asarray(d[(slice(None),) * n + (0,)], dtype=complex)
                for n, d in enumerate(jets)]

    return ScalarField(label, partials)


def constant(c, label=None):
    c = complex(c)
    if label is None:
        label = f"const({c.real:g}{c.imag:+g}j)" if c.imag else f"const({c.real:g})"
    return map_field(lambda q1, q2: c, label)


def product(f, g, label=None):
    """Pointwise product with product-rule partials (exact, no differencing)."""
    if label is None:
        label = f"({f.label})*({g.label})"

    def partials(q1, q2, order):
        a, b = f.partials(q1, q2, order), g.partials(q1, q2, order)
        out = [a[0] * b[0]]
        if order >= 1:
            out.append(a[1] * b[0] + a[0] * b[1])
        if order >= 2:
            cross = a[1][:, None] * b[1][None, :]
            out.append(a[2] * b[0] + cross + np.swapaxes(cross, 0, 1) + a[0] * b[2])
        return out

    return ScalarField(label, partials, min(f.order, g.order))


def coordinate_field(chart, axis):
    """The ambient coordinate x_axis as a field on the chart: the component
    of the chart's map, on the jets that give the chart its partials."""
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return map_field(lambda q1, q2: chart._map(q1, q2)[axis],
                     f"x{'xyz'[axis]}@{chart.name}")


def associated_legendre(l, m, x, s=None):
    """P_l^m(x) with the Condon-Shortley phase, 0 <= m <= l, stable on [-1, 1].

    Upward in l (Abramowitz & Stegun 8.5.3), (k - m + 1) P_{k+1}^m =
    (2k+1) x P_k^m - (k+m) P_{k-1}^m, from P_{m-1}^m = 0 and P_m^m =
    (-1)^m (2m-1)!! s^m with s = sqrt(1 - x^2) passed in (read for m > 0
    only).  Elementwise, so x and s may be Taylor jets.
    """
    p_prev, p = 0.0, (-1) ** m * math.prod(range(1, 2 * m, 2)) * s ** m if m else x ** 0
    for k in range(m, l):
        p_prev, p = p, ((2 * k + 1) * x * p - (k + m) * p_prev) / (k - m + 1)
    return p


@lru_cache(maxsize=None)
def spherical_harmonic(l, m):
    """Orthonormal Y_lm(theta, phi) with the Condon-Shortley phase.

    Y_lm = N_lm P_l^|m|(cos theta) e^{i m phi} from associated_legendre,
    with s = sin(theta) and Y_l,-m = (-1)^m conj(Y_lm).  Defined for
    |m| <= l <= MAX_HARMONIC_L.
    """
    l, m = int(l), int(m)
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    if l > MAX_HARMONIC_L:
        raise ValueError(f"Y_lm is limited to l <= {MAX_HARMONIC_L} (got l = {l})")
    a = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - a) / math.factorial(l + a))
    if m < 0 and a % 2:
        norm = -norm

    def ylm(theta, phi):
        out = norm * associated_legendre(l, a, np.cos(theta), np.sin(theta) if a else None)
        return out * np.exp(1j * m * phi) if m else out

    return map_field(ylm, f"Y{l}{m:+d}")


def harmonic_library(lmax=3):
    if int(lmax) > MAX_HARMONIC_L:  # refused before any field is built
        raise ValueError(f"Y_lm is limited to l <= {MAX_HARMONIC_L} (got lmax = {lmax})")
    return [spherical_harmonic(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]


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
    """sum_k coeffs[k] * basis_k for the trig_library basis."""
    c0, c1, c2, c3, c4, c5 = (float(c) for c in coeffs)

    def trig(q1, q2):
        st, ct, cp = np.sin(q1), np.cos(q1), np.cos(q2)
        return (c0 + c1 * ct + c2 * st * cp + c3 * np.sin(2 * q1) * np.sin(q2)
                + c4 * ct * np.cos(2 * q2) + c5 * st * np.sin(2 * q2))

    return map_field(trig, label)


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
    return map_field(lambda q1, q2: np.exp(1j * k * (q1, q2)[axis]),
                     f"exp(i{k:g}q{axis + 1})")


def sphere_point(theta, phi):
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def _sphere_basis(theta, phi):
    """sin(theta), cos(theta) and the unit vectors n, e_theta, e_phi, e_rho,
    each (3,) + S; a theta within POLE_MARGIN of a pole (or NaN) raises
    PoleProximityError and a non-finite phi ChartSingularityError."""
    _check_pole(theta)
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    finite = np.isfinite(phi).ravel()
    if not finite.all():
        k = int(np.argmin(finite))
        raise ChartSingularityError("sphere", (theta.flat[k], phi.flat[k]), "non-finite point")
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    zero = np.zeros_like(sp)
    n = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, zero])
    e_rho = np.array([cp, sp, zero])
    return st, ct, n, e_theta, e_phi, e_rho


def _sphere_angles(p):
    """(theta, phi) of unit vectors p of shape (3,) + S."""
    theta = np.arccos(np.clip(p[2], -1.0, 1.0))
    phi = np.arctan2(p[1], p[0])
    return theta, phi


def _check_pole(theta, margin=POLE_MARGIN):
    """Raise PoleProximityError for the first theta within `margin` of a pole;
    the test is written so that NaN fails it."""
    t = np.ravel(theta)
    near = ~(np.minimum(t, np.pi - t) >= margin)
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

    def partials(theta, phi, order):
        p = np.tensordot(A, sphere_point(theta, phi), axes=1)
        tp, pp = _sphere_angles(p)
        _check_pole(tp)
        if not order:
            return f.partials(tp, pp, 0)
        st, _, _, e_theta, e_phi, _ = _sphere_basis(theta, phi)
        dp_dtheta = np.tensordot(A, e_theta, axes=1)
        dp_dphi = np.tensordot(A, st * e_phi, axes=1)
        stp = np.sin(tp)
        rho2 = p[0] * p[0] + p[1] * p[1]
        # jac[mu, nu] = d(theta', phi')_nu / d(theta, phi)_mu
        jac = np.array(
            [
                [-dp_dtheta[2] / stp, (p[0] * dp_dtheta[1] - p[1] * dp_dtheta[0]) / rho2],
                [-dp_dphi[2] / stp, (p[0] * dp_dphi[1] - p[1] * dp_dphi[0]) / rho2],
            ]
        )
        value, g = f.partials(tp, pp, 1)
        return [value, jac[:, 0] * g[0] + jac[:, 1] * g[1]]

    return ScalarField(label, partials, 1)


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
