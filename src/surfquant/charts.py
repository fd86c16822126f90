"""Parametric surface charts with exact first and second partial derivatives.

A chart is an immutable bundle of callables: the map r(q1, q2) into 3-space
plus its first partials (shape (2, 3)) and second partials (shape (2, 2, 3)).
Built-in charts (sphere, cylinder, torus, plane) carry hand-written analytic
derivatives; user maps without derivatives get a central-difference adaptor
with one Richardson extrapolation level.

Point-axis convention: (q1, q2) may be arrays.  They broadcast to a point
shape S, which goes last: the position has shape (3,) + S, the tangents
(2, 3) + S and the second partials (2, 2, 3) + S.  Scalar points give the
plain (3,), (2, 3) and (2, 2, 3) arrays.

Orientation convention: the unit normal is (d1 r x d2 r)/|d1 r x d2 r| and
the built-in closed surfaces order their parameters so the normal points
outward.  This is the deterministic rule all curvature signs hang off.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ChartSingularityError

# Degeneracy threshold relative to the tangent scale, |t1 x t2| < tol * scale.
SINGULARITY_RTOL = 1e-10

# Hard exclusion band around coordinate poles of the sphere chart.
POLE_BAND = 1e-3


@dataclass(frozen=True)
class ParametricChart:
    """Surface map r(q1, q2) -> R^3 with exact partials to second order."""

    name: str
    params: dict
    domain: tuple  # ((lo1, hi1), (lo2, hi2))
    periodic: tuple  # (bool, bool)
    _map: Callable
    _d1: Callable
    _d2: Callable
    # Optional analytic gradients of (M, K); None means finite differences.
    curvature_gradient: Optional[Callable] = field(default=None, compare=False)

    def position(self, q1, q2):
        return np.asarray(self._map(q1, q2), dtype=float)

    def tangents(self, q1, q2):
        """First partials d_mu r, shape (2, 3)."""
        return np.asarray(self._d1(q1, q2), dtype=float)

    def second_partials(self, q1, q2):
        """Second partials d_mu d_nu r, shape (2, 2, 3), symmetric in mu, nu."""
        return np.asarray(self._d2(q1, q2), dtype=float)

    def contains(self, q1, q2):
        """Whether (q1, q2) lies inside the domain on the non-periodic axes.

        Broadcasts over array points (a bool array then); NaN is never
        inside a bounded axis.  Periodic axes accept every value.
        """
        inside = np.ones(np.broadcast(np.asarray(q1), np.asarray(q2)).shape, dtype=bool)
        for q, (lo, hi), per in zip((q1, q2), self.domain, self.periodic):
            if not per:
                q = np.asarray(q, dtype=float)
                inside &= (lo <= q) & (q <= hi)
        return bool(inside) if inside.ndim == 0 else inside


def from_map(map_fn, domain, periodic=(False, False), name="custom", params=None):
    """Wrap a bare map with finite-difference first/second partials.

    Central differences with one Richardson level (h and h/2 combined as
    (4*D_half - D_h)/3).  Steps scale as (1 + |q|) with the rounding-optimal
    exponent per derivative order: eps^(1/3) for first differences and
    eps^(1/4) for second/mixed ones.  Good to roughly 1e-10 (first) and
    1e-7 (second) relative on smooth maps.
    """
    second_h = float(np.finfo(float).eps ** 0.25)

    def m(q1, q2):
        return np.asarray(map_fn(q1, q2), dtype=float)

    def d1(q1, q2):
        return _richardson_gradient(m, q1, q2)

    def d2(q1, q2):
        a, b = np.array([q1, q2], dtype=float)
        f0 = m(a, b)
        diffs = (
            lambda h: (m(a + h, b) - 2.0 * f0 + m(a - h, b)) / (h * h),
            lambda h: (m(a, b + h) - 2.0 * f0 + m(a, b - h)) / (h * h),
            lambda h: (m(a + h, b + h) - m(a + h, b - h) - m(a - h, b + h)
                       + m(a - h, b - h)) / (4.0 * h * h),
        )
        scales = (1.0 + abs(a), 1.0 + abs(b), 1.0 + abs(a) + abs(b))
        d11, d22, d12 = (_richardson(d, second_h * s) for d, s in zip(diffs, scales))
        return np.array([[d11, d12], [d12, d22]])

    return ParametricChart(
        name=name,
        params=dict(params or {}),
        domain=tuple(tuple(map(float, ax)) for ax in domain),
        periodic=tuple(bool(p) for p in periodic),
        _map=_pointwise(m, (3,)),
        _d1=_pointwise(d1, (2, 3)),
        _d2=_pointwise(d2, (2, 2, 3)),
    )


def _pointwise(jet, jet_shape):
    """Broadcast a jet that only takes scalar points.

    User maps are not assumed to broadcast, so array points are evaluated
    one at a time and stacked with the point axes last.
    """

    def batched(q1, q2):
        a, b = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        if a.ndim == 0:
            return jet(q1, q2)
        out = np.empty(jet_shape + (a.size,))
        for k, (x, y) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
            out[..., k] = jet(x, y)
        return out.reshape(jet_shape + a.shape)

    return batched


# First-difference step per unit of (1 + |q|), rounding-optimal at eps^(1/3).
_FIRST_STEP = float(np.cbrt(np.finfo(float).eps))


def _richardson(diff, h):
    """One Richardson level on a central difference D: (4 D(h/2) - D(h)) / 3."""
    return (4.0 * diff(0.5 * h) - diff(h)) / 3.0


def _richardson_gradient(fn, q1, q2):
    """First partials of fn at one point, stacked on a new leading axis:
    Richardson-extrapolated central differences, steps _FIRST_STEP (1 + |q_mu|)."""
    a, b = np.array([q1, q2], dtype=float)

    def f(x, y):
        return np.asarray(fn(x, y), dtype=float)

    return np.array([
        _richardson(lambda h: (f(a + h, b) - f(a - h, b)) / (2.0 * h),
                    _FIRST_STEP * (1.0 + abs(a))),
        _richardson(lambda h: (f(a, b + h) - f(a, b - h)) / (2.0 * h),
                    _FIRST_STEP * (1.0 + abs(b))),
    ])


def _constant_curvature_gradient(q1, q2):
    """(d_mu M, d_mu K) of a chart whose curvatures are constant: zero."""
    return np.zeros(2), np.zeros(2)


# ---------------------------------------------------------------------------
# Built-in charts.  Parameter order is chosen so d1 x d2 points outward on
# the closed surfaces (sphere, cylinder, torus); the plane normal is +z.
# Every jet broadcasts its two parameters first, so constant entries can be
# written as zeros/ones of the point shape.
# ---------------------------------------------------------------------------


def _points(q1, q2):
    """The two parameters with one common shape, so jets can stack entries."""
    if np.shape(q1) == np.shape(q2):
        return q1, q2
    return np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))


def sphere(radius=1.0):
    """Sphere of given radius, chart (theta, phi), outward normal."""
    R = float(radius)
    if R <= 0.0:
        raise ValueError("radius must be positive")

    def m(th, ph):
        th, ph = _points(th, ph)
        st, ct = np.sin(th), np.cos(th)
        return np.array([R * st * np.cos(ph), R * st * np.sin(ph), R * ct])

    def d1(th, ph):
        th, ph = _points(th, ph)
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        return np.array(
            [
                [R * ct * cp, R * ct * sp, -R * st],
                [-R * st * sp, R * st * cp, np.zeros_like(th)],
            ]
        )

    def d2(th, ph):
        th, ph = _points(th, ph)
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        zero = np.zeros_like(th)
        dtt = np.array([-R * st * cp, -R * st * sp, -R * ct])
        dtp = np.array([-R * ct * sp, R * ct * cp, zero])
        dpp = np.array([-R * st * cp, -R * st * sp, zero])
        return np.array([[dtt, dtp], [dtp, dpp]])

    return ParametricChart(
        name="sphere",
        params={"radius": R},
        domain=((0.0, np.pi), (0.0, 2.0 * np.pi)),
        periodic=(False, True),
        _map=m,
        _d1=d1,
        _d2=d2,
        curvature_gradient=_constant_curvature_gradient,
    )


def cylinder(radius=1.0, half_height=1.0):
    """Cylinder of given radius, chart (phi, v), outward normal."""
    R = float(radius)
    H = float(half_height)
    if R <= 0.0 or H <= 0.0:
        raise ValueError("radius and half_height must be positive")

    def m(ph, v):
        ph, v = _points(ph, v)
        return np.array([R * np.cos(ph), R * np.sin(ph), v])

    def d1(ph, v):
        ph, v = _points(ph, v)
        zero, one = np.zeros_like(ph), np.ones_like(ph)
        return np.array(
            [
                [-R * np.sin(ph), R * np.cos(ph), zero],
                [zero, zero, one],
            ]
        )

    def d2(ph, v):
        ph, v = _points(ph, v)
        zero = np.zeros_like(ph)
        dpp = np.array([-R * np.cos(ph), -R * np.sin(ph), zero])
        z = np.array([zero, zero, zero])
        return np.array([[dpp, z], [z, z]])

    return ParametricChart(
        name="cylinder",
        params={"radius": R, "half_height": H},
        domain=((0.0, 2.0 * np.pi), (-H, H)),
        periodic=(True, False),
        _map=m,
        _d1=d1,
        _d2=d2,
        curvature_gradient=_constant_curvature_gradient,
    )


def torus(major_radius=2.0, minor_radius=0.5):
    """Torus, chart (u around the axis, v around the tube), outward normal."""
    a = float(major_radius)
    b = float(minor_radius)
    if not (a > b > 0.0):
        raise ValueError("need major_radius > minor_radius > 0")

    def m(u, v):
        u, v = _points(u, v)
        w = a + b * np.cos(v)
        return np.array([w * np.cos(u), w * np.sin(u), b * np.sin(v)])

    def d1(u, v):
        u, v = _points(u, v)
        w = a + b * np.cos(v)
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        return np.array(
            [
                [-w * su, w * cu, np.zeros_like(u)],
                [-b * sv * cu, -b * sv * su, b * cv],
            ]
        )

    def d2(u, v):
        u, v = _points(u, v)
        w = a + b * np.cos(v)
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        zero = np.zeros_like(u)
        duu = np.array([-w * cu, -w * su, zero])
        duv = np.array([b * sv * su, -b * sv * cu, zero])
        dvv = np.array([-b * cv * cu, -b * cv * su, -b * sv])
        return np.array([[duu, duv], [duv, dvv]])

    def curv_grad(u, v):
        w = a + b * np.cos(v)
        dM = np.array([0.0, a * np.sin(v) / (2.0 * w * w)])
        dK = np.array([0.0, -a * np.sin(v) / (b * w * w)])
        return dM, dK

    return ParametricChart(
        name="torus",
        params={"major_radius": a, "minor_radius": b},
        domain=((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
        periodic=(True, True),
        _map=m,
        _d1=d1,
        _d2=d2,
        curvature_gradient=curv_grad,
    )


def plane(extent=1.0):
    """Flat plane z = 0, chart (u, v), normal +z."""
    L = float(extent)
    if L <= 0.0:
        raise ValueError("extent must be positive")

    def m(u, v):
        u, v = _points(u, v)
        return np.array([u, v, np.zeros_like(u)])

    def d1(u, v):
        u, v = _points(u, v)
        zero, one = np.zeros_like(u), np.ones_like(u)
        return np.array([[one, zero, zero], [zero, one, zero]])

    def d2(u, v):
        return np.zeros((2, 2, 3) + np.broadcast(np.asarray(u), np.asarray(v)).shape)

    return ParametricChart(
        name="plane",
        params={"extent": L},
        domain=((-L, L), (-L, L)),
        periodic=(False, False),
        _map=m,
        _d1=d1,
        _d2=d2,
        curvature_gradient=_constant_curvature_gradient,
    )


CHART_BUILDERS = {
    "sphere": sphere,
    "cylinder": cylinder,
    "torus": torus,
    "plane": plane,
}


def make_chart(name, **params):
    """Instantiate a built-in chart by name with named numeric parameters."""
    try:
        builder = CHART_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(CHART_BUILDERS))
        raise ValueError(f"unknown surface {name!r}; known surfaces: {known}")
    try:
        return builder(**params)
    except TypeError:
        raise ValueError(f"surface {name!r} does not take parameters {sorted(params)}")


def _norm(v):
    """Euclidean norm over the leading (component) axis."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _cross(a, b):
    """Cross product over the leading (component) axis."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def check_regular(chart, q1, q2):
    """Return (tangents, d1 r x d2 r); raise where the tangents degenerate.

    Broadcasts over array points.  The test is written so that NaN fails
    it, and the error names the first failing point in input (C) order.
    """
    t = chart.tangents(q1, q2)
    cross = _cross(t[0], t[1])
    scale = _norm(t[0]) * _norm(t[1])
    regular = _norm(cross) >= SINGULARITY_RTOL * np.maximum(scale, 1e-300)
    if not regular.all():
        q1b, q2b = np.broadcast_arrays(np.asarray(q1, float), np.asarray(q2, float))
        k = int(np.argmin(regular.ravel()))
        point = (q1b.ravel()[k], q2b.ravel()[k])
        finite = np.all(np.isfinite(point))
        detail = "tangent degeneracy" if finite else "non-finite point"
        raise ChartSingularityError(chart.name, point, detail)
    return t, cross


def _radical_inverse(index, base):
    """Van der Corput radical inverse of integer indices (Halton 1960).

    Sums digit * base^-(k+1) from the least significant digit up, with the
    place value divided down by `base` each step, the order scipy's
    unscrambled `qmc.Halton` uses, so the points agree bit for bit.
    """
    quotient = np.asarray(index, dtype=np.int64)
    out = np.zeros(quotient.shape)
    place = 1.0 / base
    while quotient.any():
        quotient, digit = np.divmod(quotient, base)
        out += digit * place
        place /= base
    return out


def interior_points(chart, n, margin_fraction=0.05):
    """Deterministic quasi-random interior points (Halton sequence).

    Non-periodic axes are inset by margin_fraction of their span (never less
    than the pole band on the sphere); periodic axes use the full range.
    """
    # Skip index 0, the degenerate first point (0, 0).
    index = np.arange(1, int(n) + 1)
    u = np.stack([_radical_inverse(index, 2), _radical_inverse(index, 3)], axis=-1)
    pts = np.empty_like(u)
    for axis in range(2):
        lo, hi = chart.domain[axis]
        if chart.periodic[axis]:
            a, b = lo, hi
        else:
            pad = max(margin_fraction * (hi - lo), POLE_BAND)
            a, b = lo + pad, hi - pad
        pts[:, axis] = a + (b - a) * u[:, axis]
    return pts
