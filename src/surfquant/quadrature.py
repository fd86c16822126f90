"""Quadrature rules used throughout the package.

Two schemes cover every integral in the library:

* composite Gauss-Legendre panels on an interval, used for the stretched
  coordinate q = ln tan(theta/2) and for momentum-space integrals.  The
  default is 32-point panels of width 2, which is exact to machine
  precision for the smooth integrands that appear here.  The quadrature
  amplitudes oscillate by 2|p| radians per panel, plus about l from
  P_l(tanh q), so their rule takes max(requested, ceil(max |p|) + 2) nodes
  per panel, and (l + 1) // 2 more past l = 2 (spectra._q_rule); at the
  default 32 and l <= 2 that is the default rule for |p| <= 30.
* a product rule on the unit sphere: Gauss-Legendre in x = cos(theta)
  crossed with a uniform (trapezoid) rule in phi.  For trigonometric
  polynomials on the sphere the rule is exact once the orders suffice.
"""

from functools import lru_cache

import numpy as np

PANEL_WIDTH = 2.0
DEFAULT_PANEL_NODES = 32


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(int(n))
    return x, w


def panel_rule(lo, hi, nodes=DEFAULT_PANEL_NODES):
    """Nodes and weights of composite Gauss-Legendre panels on [lo, hi].

    The interval is split into ceil((hi-lo)/PANEL_WIDTH) equal panels, each
    carrying an `nodes`-point Gauss-Legendre rule.  Returns (x, w) as flat
    arrays ordered left to right (deterministic).
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    n_panels = max(1, int(np.ceil((hi - lo) / PANEL_WIDTH)))
    return _map_panels(np.linspace(lo, hi, n_panels + 1), nodes)


def graded_panel_rule(edges, nodes=DEFAULT_PANEL_NODES):
    """Composite Gauss-Legendre rule with caller-supplied panel edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    return _map_panels(edges, nodes)


def _map_panels(edges, nodes):
    """The `nodes`-point Gauss-Legendre rule mapped onto each panel of `edges`."""
    xr, wr = _leggauss(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xr[None, :]).ravel()
    w = (half[:, None] * wr[None, :]).ravel()
    return x, w


def sphere_grid(order=64):
    """Product quadrature grid over the unit sphere.

    Gauss-Legendre of the given order in x = cos(theta) and a periodic
    trapezoid rule of n_phi = 2*order points in phi.  Returns
    (theta, phi, w) broadcastable arrays: theta with shape (order, 1),
    phi with shape (1, n_phi) and w with shape (order, n_phi) such that
    sum(w * F(theta, phi)) approximates the surface integral of F over
    the sphere with the sin(theta) measure already absorbed.
    """
    order = int(order)
    n_phi = 2 * order
    x, wx = _leggauss(order)
    theta = np.arccos(x)[:, None]
    phi = (2.0 * np.pi / n_phi) * np.arange(n_phi)[None, :]
    w = np.broadcast_to(wx[:, None] * (2.0 * np.pi / n_phi), (order, n_phi))
    return theta, phi, w
