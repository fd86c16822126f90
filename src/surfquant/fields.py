"""Complex scalar fields on a chart with exact partials to second order.

A field is one callable `partials(q1, q2, order)` that returns
[value, grad, hess][:order + 1], and the highest order it supports;
`value` reads its order-0 jet, and a caller indexes `partials` for the
others.
Operators in this package never use nested finite differences.  Every
closed-form field (Y_lm from associated_legendre, the trig library,
constants, the coordinate functions of a chart, spectra's eigenfunctions)
is a bare elementwise-numpy map of (q1, q2), differentiated exactly by the
Taylor jets that differentiate the charts (`_jets`); `map_field` wraps any
such map.  Composite fields (products, rotated pullbacks, operator images)
derive their partials from their factors' by the product and chain rules.
The package needs only numpy at run time.

Point-axis convention: all callables broadcast over array points, and the
point axes go last.  Over a point shape S the value has shape S, the
gradient (2,) + S and the Hessian (2, 2) + S (derivative axes first), the
same layout the charts and geometry frames use.  A scalar point gives a
Python complex value and (2,) / (2, 2) arrays.  A field may carry extra
value axes E before the point axes: the value is then E + S and the
gradient (2,) + E + S.  The unit-sphere operator images of `operators`
are such fields, with E = (3,) for the vector component, and so is a
block of F library fields (library_blocks), with E = (F,).
"""

import itertools
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
    arrays of shapes S, (2,) + S and (2, 2) + S over the point shape S
    (E + S, (2,) + E + S, ... for a field with extra value axes E).
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


def constant(c):
    c = complex(c)
    label = f"const({c.real:g}{c.imag:+g}j)" if c.imag else f"const({c.real:g})"
    return map_field(lambda q1, q2: c, label)


def product(f, g):
    """Pointwise product with product-rule partials (exact, no differencing)."""

    def partials(q1, q2, order):
        a, b = f.partials(q1, q2, order), g.partials(q1, q2, order)
        out = [a[0] * b[0]]
        if order >= 1:
            out.append(a[1] * b[0] + a[0] * b[1])
        if order >= 2:
            cross = a[1][:, None] * b[1][None, :]
            out.append(a[2] * b[0] + cross + np.swapaxes(cross, 0, 1) + a[0] * b[2])
        return out

    return ScalarField(f"({f.label})*({g.label})", partials, min(f.order, g.order))


def coordinate_field(chart, axis):
    """The ambient coordinate x_axis as a field on the chart: the component
    of the chart's map, on the jets that give the chart its partials."""
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return map_field(lambda q1, q2: chart._map(q1, q2)[axis],
                     f"x{'xyz'[axis]}@{chart.name}")


def _integer(value, name):
    """value as an int; one that is not a whole number (1.5, NaN, inf) is a
    ValueError naming it, where int() would truncate it."""
    if not np.isfinite(value) or value != int(value):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    return int(value)


def _legendre_ladder(m, x, s):
    """P_m^m, P_{m+1}^m, P_{m+2}^m, ... with the Condon-Shortley phase.

    Upward in l (Abramowitz & Stegun 8.5.3), (k - m + 1) P_{k+1}^m =
    (2k+1) x P_k^m - (k+m) P_{k-1}^m, from P_{m-1}^m = 0 and P_m^m =
    (-1)^m (2m-1)!! s^m with s = sqrt(1 - x^2) passed in (read for m > 0
    only); each rung is computed when it is asked for.  Elementwise, so x
    and s may be Taylor jets.
    """
    p_prev, p = 0.0, (-1) ** m * math.prod(range(1, 2 * m, 2)) * s ** m if m else x ** 0
    for k in itertools.count(m):
        yield p
        p_prev, p = p, ((2 * k + 1) * x * p - (k + m) * p_prev) / (k - m + 1)


def associated_legendre(l, m, x, s=None):
    """P_l^m(x) with the Condon-Shortley phase, 0 <= m <= l, stable on [-1, 1]:
    rung l of _legendre_ladder(m, x, s)."""
    return next(itertools.islice(_legendre_ladder(m, x, s), l - m, None))


def _ylm_norm(l, m):
    """N_l|m|, negated for odd m < 0, so that Y_lm = norm P_l^|m| e^{i m phi}."""
    a = abs(m)
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi)
                     * math.factorial(l - a) / math.factorial(l + a))
    return -norm if m < 0 and a % 2 else norm


def _library_values(rows, q1, q2):
    """[the value of each row's field] at (q1, q2), for library rows: (l, m)
    for Y_lm at theta = q1, phi = q2, or the six coefficients of a trig field.

    cos q1 and sin q1, each exp(i m q2) and the trig basis are taken once,
    and each |m| ladder's recurrence runs once, up to the highest l it
    serves; one rung serves Y_l,+m and Y_l,-m.  A row's arithmetic does not
    depend on the other rows, so a field evaluated alone and in a block
    agree bit for bit.
    """
    ladders, trig = {}, []  # |m| -> {l: [(row index, m)]}; [(row index, coefficients)]
    for i, row in enumerate(rows):
        if len(row) == 2:
            l, m = row
            ladders.setdefault(abs(m), {}).setdefault(l, []).append((i, m))
        else:
            trig.append((i, row))
    out = [None] * len(rows)
    x = np.cos(q1)
    s = np.sin(q1) if trig or any(ladders) else None
    phases = {}
    for a, rungs in ladders.items():
        for l, p in zip(range(a, max(rungs) + 1), _legendre_ladder(a, x, s)):
            for i, m in rungs.get(l, ()):
                y = _ylm_norm(l, m) * p
                if m and m not in phases:
                    phases[m] = np.exp(1j * m * q2)
                out[i] = y * phases[m] if m else y
    if trig:
        st, ct, cp = s, x, np.cos(q2)
        s2t, sp, c2p, s2p = np.sin(2 * q1), np.sin(q2), np.cos(2 * q2), np.sin(2 * q2)
        for i, (c0, c1, c2, c3, c4, c5) in trig:
            out[i] = (c0 + c1 * ct + c2 * st * cp + c3 * s2t * sp
                      + c4 * ct * c2p + c5 * st * s2p)
    return out


def _row_field(row, label):
    """The field of one library row (see _library_values)."""
    return map_field(lambda q1, q2: _library_values([row], q1, q2)[0], label)


@lru_cache(maxsize=None)
def spherical_harmonic(l, m):
    """Orthonormal Y_lm(theta, phi) with the Condon-Shortley phase.

    Y_lm = N_lm P_l^|m|(cos theta) e^{i m phi} from associated_legendre's
    recurrence, with s = sin(theta) and Y_l,-m = (-1)^m conj(Y_lm).
    Defined for |m| <= l <= MAX_HARMONIC_L.
    """
    l, m = _integer(l, "l"), _integer(m, "m")
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    if l > MAX_HARMONIC_L:
        raise ValueError(f"Y_lm is limited to l <= {MAX_HARMONIC_L} (got l = {l})")
    return _row_field((l, m), f"Y{l}{m:+d}")


def _lmax(lmax):
    lmax = _integer(lmax, "lmax")
    if lmax > MAX_HARMONIC_L:  # refused before any field is built
        raise ValueError(f"Y_lm is limited to l <= {MAX_HARMONIC_L} (got lmax = {lmax})")
    return lmax


def _trig_count(count):
    count = _integer(count, "trig count")
    if not 0 <= count <= MAX_TRIG_FIELDS:
        raise ValueError(f"need 0 <= trig count <= {MAX_TRIG_FIELDS} (got {count})")
    return count


def harmonic_library(lmax=3):
    lmax = _lmax(lmax)
    return [spherical_harmonic(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]


def trig_library(count=3):
    """Deterministic random trigonometric polynomials in (q1, q2).

    Each field is a seeded combination of the basis 1, cos q1,
    sin q1 cos q2, sin 2q1 sin q2, cos q1 cos 2q2, sin q1 sin 2q2.  Built
    once per count, for 0 <= count <= MAX_TRIG_FIELDS; each call returns a
    fresh list of the cached fields.
    """
    return list(_trig_fields(_trig_count(count)))


def _trig_coefficients(count):
    """The six basis coefficients of each of trig_library(count)'s fields."""
    rng = np.random.default_rng(20240501)
    return [tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=6)) for _ in range(count)]


@lru_cache(maxsize=None)
def _trig_fields(count):
    return tuple(_row_field(c, f"trig{k}") for k, c in enumerate(_trig_coefficients(count)))


def field_library(lmax=3, trig_count=3):
    """The standard test-field battery: Y_lm for l <= lmax plus trig noise."""
    return harmonic_library(lmax) + trig_library(trig_count)


def library_blocks(lmax, trig_count, size):
    """field_library(lmax, trig_count) in blocks of at most `size` fields,
    each evaluated by one map: an iterator of (rows, field).

    The blocks are cut from the library in m-major order: the Y_lm ladder
    by ladder (|m| = 0, 1, ..., lmax; l upward, +m before -m), then the
    trig fields, so a block runs each ladder it holds once (see
    _library_values).  `rows` are the block's indices into the library, and
    `field` stacks those fields on one extra value axis E = (F,): over a
    point shape S its value is (F,) + S, its gradient (2, F) + S and its
    Hessian (2, 2, F) + S.  Each row equals its library field's partials
    bit for bit.
    """
    lmax, trig_count, size = _lmax(lmax), _trig_count(trig_count), _integer(size, "size")
    if size < 1:
        raise ValueError(f"need a block size of at least 1 (got {size})")
    library = [(l, m) for l in range(lmax + 1) for m in range(-l, l + 1)]
    m_major = [l * l + l + m for a in range(lmax + 1) for l in range(a, lmax + 1)
               for m in ((a, -a) if a else (0,))]
    m_major += range(len(library), len(library) + trig_count)
    library += _trig_coefficients(trig_count)

    def block(rows):
        specs = [library[r] for r in rows]

        def partials(q1, q2, order):
            jets = _jets.partials(lambda a, b: _library_values(specs, a, b), q1, q2, order)
            return [np.asarray(d, dtype=complex) for d in jets]

        return rows, ScalarField(f"library({lmax}, {trig_count})[{len(rows)} rows]", partials)

    return (block(m_major[k:k + size]) for k in range(0, len(m_major), size))


def sphere_point(theta, phi):
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def _sphere_basis(theta, phi):
    """sin(theta), cos(theta) and the unit vectors n, e_theta, e_phi, e_rho,
    each (3,) + S; a theta within POLE_MARGIN of a pole (or NaN) raises
    PoleProximityError and a non-finite phi ChartSingularityError."""
    _check_pole(theta)
    theta, phi = _finite_angles(theta, phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    zero = np.zeros_like(sp)
    n = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, zero])
    e_rho = np.array([cp, sp, zero])
    return st, ct, n, e_theta, e_phi, e_rho


def _finite_angles(theta, phi):
    """theta and phi broadcast to float arrays.  The first non-finite theta
    raises PoleProximityError, as _check_pole does, and the first
    non-finite phi ChartSingularityError."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    _check_pole(theta[~np.isfinite(theta)])  # which fails every one of them
    finite = np.isfinite(phi).ravel()
    if not finite.all():
        k = int(np.argmin(finite))
        raise ChartSingularityError("sphere", (theta.flat[k], phi.flat[k]), "non-finite point")
    return theta, phi


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


def pullback_field(f, matrix):
    """The field x -> f(A x) on the sphere, with exact first partials.

    A is an orthogonal 3x3 matrix; the pullback is evaluated by mapping the
    chart point to its unit vector, applying A, and chaining the gradient
    through the Jacobian of the induced (theta, phi) map.  Second partials
    are not provided (first-order operators only act on pullbacks here).
    """
    A = np.asarray(matrix, dtype=float)

    def partials(theta, phi, order):
        theta, phi = _finite_angles(theta, phi)  # before the rotation hides them
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

    return ScalarField(f"pullback({f.label})", partials, 1)


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
