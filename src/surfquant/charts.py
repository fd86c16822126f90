"""Parametric surface charts with exact partial derivatives to third order.

A chart is an immutable bundle of a name, parameters, a domain and one bare
map r(q1, q2) into 3-space.  Its first (2, 3), second (2, 2, 3) and third
(2, 2, 2, 3) partials all come from one path: the map is evaluated on
truncated Taylor jets of its parameters (`_jets`), so they are exact to
rounding and no chart carries a hand-written derivative.  `partials`
returns every order up to the one asked for from a single map call; it is
the one entry, and a caller indexes `partials(q1, q2, n)[n]` for one order.
Built-in charts refuse a parameter that is not finite and positive.

Point-axis convention: (q1, q2) may be arrays.  They broadcast to a point
shape S, which goes last: the position has shape (3,) + S, the tangents
(2, 3) + S, the second partials (2, 2, 3) + S and the third partials
(2, 2, 2, 3) + S.  Scalar points give the plain per-point arrays.

Orientation convention: the unit normal is (d1 r x d2 r)/|d1 r x d2 r| and
the built-in closed surfaces order their parameters so the normal points
outward.  This is the deterministic rule all curvature signs hang off.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _jets
from .errors import ChartSingularityError

# Degeneracy threshold on the unit tangents, |u1 x u2| < tol.
SINGULARITY_RTOL = 1e-10

# Hard exclusion band around coordinate poles of the sphere chart.
POLE_BAND = 1e-3


@dataclass(frozen=True)
class ParametricChart:
    """Surface map r(q1, q2) -> R^3; its partials come from jets of the map."""

    name: str
    params: dict
    domain: tuple  # ((lo1, hi1), (lo2, hi2))
    periodic: tuple  # (bool, bool)
    _map: Callable

    def partials(self, q1, q2, order):
        """[position, tangents, second, third partials][:order + 1], one map call."""
        return _jets.partials(self._map, q1, q2, order)

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
    """Wrap a bare map r(q1, q2) -> three components as a chart.

    The map is evaluated on Taylor jets of its parameters, so its partials
    are exact to rounding.  It must be elementwise numpy: +, -, *, /, ** by
    a number, unary minus, and np.sin, np.cos, np.tan, np.exp, np.log, np.sqrt,
    returning a sequence of three components (a component may be a
    constant); any other operation, math.sin for one, raises TypeError.
    """
    return ParametricChart(
        name=name,
        params=dict(params or {}),
        domain=tuple(tuple(map(float, ax)) for ax in domain),
        periodic=tuple(bool(p) for p in periodic),
        _map=map_fn,
    )


# ---------------------------------------------------------------------------
# Built-in charts.  Parameter order is chosen so d1 x d2 points outward on
# the closed surfaces (sphere, cylinder, torus); the plane normal is +z.
# ---------------------------------------------------------------------------


def sphere(radius=1.0):
    """Sphere of given radius, chart (theta, phi), outward normal."""
    R = float(radius)
    if not 0.0 < R < np.inf:
        raise ValueError(f"radius must be finite and positive (got {R})")

    def m(th, ph):
        st = R * np.sin(th)
        return [st * np.cos(ph), st * np.sin(ph), R * np.cos(th)]

    return from_map(m, ((0.0, np.pi), (0.0, 2.0 * np.pi)), (False, True),
                    "sphere", {"radius": R})


def cylinder(radius=1.0, half_height=1.0):
    """Cylinder of given radius, chart (phi, v), outward normal."""
    R = float(radius)
    H = float(half_height)
    if not (0.0 < R < np.inf and 0.0 < H < np.inf):
        raise ValueError(f"radius and half_height must be finite and positive (got {R}, {H})")

    def m(ph, v):
        return [R * np.cos(ph), R * np.sin(ph), v]

    return from_map(m, ((0.0, 2.0 * np.pi), (-H, H)), (True, False),
                    "cylinder", {"radius": R, "half_height": H})


def torus(major_radius=2.0, minor_radius=0.5):
    """Torus, chart (u around the axis, v around the tube), outward normal."""
    a = float(major_radius)
    b = float(minor_radius)
    if not 0.0 < b < a < np.inf:
        raise ValueError(f"need major > minor radius, both finite and positive (got {a}, {b})")

    def m(u, v):
        w = a + b * np.cos(v)
        return [w * np.cos(u), w * np.sin(u), b * np.sin(v)]

    return from_map(m, ((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)), (True, True),
                    "torus", {"major_radius": a, "minor_radius": b})


def plane(extent=1.0):
    """Flat plane z = 0, chart (u, v), normal +z."""
    L = float(extent)
    if not 0.0 < L < np.inf:
        raise ValueError(f"extent must be finite and positive (got {L})")
    return from_map(lambda u, v: [u, v, 0.0], ((-L, L), (-L, L)), (False, False),
                    "plane", {"extent": L})


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


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # index arrays: no list to convert


def _cross(a, b):
    """Cross product over the leading (component) axis, of arrays or jets."""
    return a[_NEXT] * b[_LAST] - a[_LAST] * b[_NEXT]


def _regular_cross(chart, q1, q2, t):
    """d1 r x d2 r from the tangents t (arrays or jets) at the broadcast
    float points (q1, q2); raise where they degenerate.

    The test is scale-free: it takes the cross product of the unit tangents'
    values, normed by hypot, which neither overflows nor underflows where
    squaring would.  It is written so that NaN fails it, and the error
    names the first failing point in input (C) order.
    """
    cross = _cross(t[0], t[1])
    u1, u2 = (v / np.hypot(np.hypot(v[0], v[1]), v[2]) for v in _jets.value(t))
    regular = _norm(_cross(u1, u2)) >= SINGULARITY_RTOL
    if not regular.all():
        k = int(np.argmin(regular.ravel()))
        raise ChartSingularityError(chart.name, (q1.flat[k], q2.flat[k]))
    return cross


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


def interior_points(chart, n):
    """Deterministic quasi-random interior points (Halton sequence).

    Non-periodic axes are inset by 5% of their span (never less than the
    pole band on the sphere); periodic axes use the full range.
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
            pad = max(0.05 * (hi - lo), POLE_BAND)
            a, b = lo + pad, hi - pad
        pts[:, axis] = a + (b - a) * u[:, axis]
    return pts
