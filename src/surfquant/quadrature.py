"""Quadrature rules used throughout the package.

Two schemes cover every integral in the library:

* composite Gauss-Legendre panels between given edges (panel_rule), used
  for the stretched coordinate q = ln tan(theta/2), for theta and for
  momentum-space integrals.  panel_edges gives equal panels of width at
  most 2 on an interval; with 32 nodes each they are exact to machine
  precision for the smooth integrands that appear here.  Each caller
  sizes its nodes per panel to its integrand's oscillation.
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
    return np.polynomial.legendre.leggauss(int(n))


def panel_edges(lo, hi):
    """Edges of ceil((hi - lo) / PANEL_WIDTH) equal panels on [lo, hi]."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:  # NaN fails too
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / PANEL_WIDTH))) + 1)


def panel_rule(edges, nodes=DEFAULT_PANEL_NODES):
    """Composite Gauss-Legendre rule on the panels between `edges`.

    Maps the `nodes`-point Gauss-Legendre rule onto each panel.  Returns
    (x, w, mid): the nodes and weights, shaped (panels, nodes) and ordered
    left to right, and the panel centres (panels,).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    xr, wr = _leggauss(nodes)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * xr[None, :], half[:, None] * wr[None, :], mid


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
