"""Momentum spectra of the unit sphere: eigenfunctions and distributions.

The z-component of the geometric momentum on the unit sphere,
p_z = i hbar (sin(theta) d_theta + cos(theta)), has delta-normalized
eigenfunctions

    psi_p(theta) = (1 / 2 pi sin(theta)) * tan(theta/2)^(-i p)

with real continuous eigenvalues p.  Expanding a spherical harmonic Y_l0
over them gives momentum-distribution amplitudes

    phi_l(p) = sqrt((2l+1)/(4 pi)) * Int P_l(tanh q) sech(q) e^{-i p q} dq

in the stretched coordinate q = ln tan(theta/2).  This module evaluates
the eigenfunctions, the amplitudes, the first three textbook closed forms,
Parseval sums, momentum moments, uncertainty products, and the
harmonic-oscillator comparison table.

The amplitudes are analytic.  With G_0 = pi sech(pi p/2) and G_1 = p G_0,

    (l+1)^2 G_{l+1} = (2l+1) p G_l - l^2 G_{l-1},
    phi_l = sqrt((2l+1)/(4 pi)) (-i)^l G_l,

where G_l / G_0 are Meixner-Pollaczek (continuous-Hahn type) polynomials
(Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials, 2010,
ch. 9).  amplitude_recurrence evaluates this for 0 <= l <= 64; it is the
default distribution path and feeds parseval_check and moments.

amplitude_quadrature is the cross-check: composite Gauss-Legendre in q,
with a direct surface-overlap path (amplitude_surface_overlap) behind it.
It uses the parity (-1)^l of P_l(tanh q) sech(q): it sums a real cos (even
l) or sin (odd l) over the q-rule, once per distinct |p|.  By angle
addition over the equal panels, each p costs sines and cosines of p times
the panel centres and of p times one panel's nodes, not of p times every
node; it works in chunks of p, so its temporaries stay a few MB however
many p are asked for.  The rule's nodes per panel grow with max |p|
(ceil(|p|) + 2 on width-2 panels) and, past l = 2, with l ((l+1) // 2
more), which keeps the amplitudes within 1e-13 of the recurrence for
l <= 64 and |p| <= 30 at the default nodes, and within 2e-13 (rounding)
out to |p| = MAX_ABS_P.

Phase convention: the recurrence and the quadrature both give the overlap
integral of Y_l0 against psi_p^*, so they agree in sign for every l.  The
l <= 2 table `amplitude_closed` keeps the commonly quoted prefactors
verbatim, as an oracle independent of both; relative to the overlap
integral those carry a fixed global sign per l, recorded in
CLOSED_FORM_COMPARISON_SIGN and asserted constant across p by the tests.
Densities are convention-free.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import fields as flib
from .errors import QuadratureTruncationError
from .quadrature import graded_panel_rule, panel_rule, sphere_grid

# Evaluating psi closer to a pole than this raises; the eigenfunction is a
# pure evaluation (no derivative amplification), so the band is tiny.
PSI_POLE_MARGIN = 1e-12

LEGENDRE_MAX_ORDER = flib.MAX_HARMONIC_L

DEFAULT_Q = 40.0
DEFAULT_NODES = 1280  # total nodes across the width-2 panels for Q = 40

# amplitude_quadrature works through p in chunks of this many entries of
# rows x (panels + nodes per panel): 1024 rows of the default rule's 40
# panels and 32 nodes, which keeps its temporaries to a few MB.
# amplitude_surface_overlap takes chunks of this many rows x theta nodes.
_CHUNK_ELEMENTS = 1024 * 72

# The q-rule takes ceil(|p|) + 2 nodes per panel and its Gauss-Legendre
# nodes cost O(n^3) to build (0.13 s at this |p|, 1 s at twice it), while
# every amplitude out here is below 1e-300.
MAX_ABS_P = 1000.0

# `distribution` holds about 1.8 kB per p-sample with --format json,
# --compare-closed and --sho-overlay, and about 0.75 kB as CSV (ru_maxrss of
# a child process at 20,001 samples, less that of one sample), so this many
# samples of symmetric_grid keep every output form under 1 GB.
MAX_DISTRIBUTION_SAMPLES = 400_000

# Caps on the q-rule, which has one width-2 panel per unit of Q: the nodes
# per panel that --nodes may request cover the ceil(MAX_ABS_P) + 2 that |p|
# can ask for (the l term of _q_rule adds at most 32 on top), and the panel
# count keeps cosh(q) finite and the rule below 2^19 nodes.
MAX_PANEL_NODES = 1024
MAX_PANELS = 512

# Sign s_l such that amplitude_quadrature == amplitude_recurrence
# == s_l * amplitude_closed.  The
# odd-l sign follows from the orientation of the q-substitution; the l = 2
# sign is recorded from the overlap integral (phi_2(0) = +sqrt(5 pi)/8).
CLOSED_FORM_COMPARISON_SIGN = {0: 1.0, 1: -1.0, 2: -1.0}

# Shape-matched oscillator: the unit-area Gaussian momentum density with the
# same peak height pi/4 as |phi_0|^2 has variance 8/pi^3, i.e. frequency
# m hbar omega = 16/pi^3; its density is (pi/4) exp(-pi^3 p^2 / 16).
MATCHED_GAUSSIAN_RATE = np.pi**3 / 16.0


def psi(p, theta, phi=0.0):
    """Eigenfunction of p_z on the unit sphere at eigenvalue p.

    psi_p(theta) = (1 / (2 pi sin theta)) exp(-i p ln tan(theta/2)).
    Independent of phi; |psi_p| = 1 / (2 pi sin theta) for every p.  theta
    may be an array (a complex array comes back); a scalar theta gives a
    complex.  Raises PoleProximityError for the first theta within
    PSI_POLE_MARGIN of a pole; a non-finite p is refused.
    """
    p = _finite_p(p)
    theta = np.asarray(theta, dtype=float)
    flib._check_pole(theta, PSI_POLE_MARGIN)
    out = _psi_map(p, theta)
    return complex(out) if out.ndim == 0 else out


def _psi_map(p, theta):
    """psi_p(theta) as a bare elementwise map, for arrays and for jets."""
    return np.exp(-1j * p * np.log(np.tan(0.5 * theta))) / (2.0 * np.pi * np.sin(theta))


def _finite_p(p):
    p = float(p)
    if not np.isfinite(p):
        raise ValueError(f"need a finite p for the eigenfunction (got {p})")
    return p


def eigenfunction_field(p):
    """psi_p as a ScalarField: psi's own map, with exact partials from jets.

    A non-finite p is refused.
    """
    p = _finite_p(p)
    return flib.map_field(lambda theta, phi: _psi_map(p, theta), f"psi[p={p:g}]")


def _psi_stretched(p, z):
    # psi_p on the stretched axis: sin(theta) = sech z exactly, so
    # psi = cosh(z) e^{-i p z} / (2 pi); avoids sin(pi - eps) cancellation.
    return np.cosh(z) * np.exp(-1j * p * z) / (2.0 * np.pi)


def overlap_kernel(p_prime, p, theta_min):
    """Band-limited eigenfunction overlap, the regularized delta function.

    Integrates psi_{p'}^* psi_p over theta in [theta_min, pi - theta_min]
    (full phi circle) in the stretched variable z = ln tan(theta/2); the
    exact value is the Dirichlet kernel sin((p'-p) L) / (pi (p'-p)) with
    L = -ln tan(theta_min / 2).  p_prime and p may be scalars or arrays,
    broadcast against each other (an array comes back); two scalars give a
    complex.  A non-finite p or p_prime is refused.
    """
    theta_min = float(theta_min)
    if not (0.0 < theta_min < 0.5 * np.pi):
        raise ValueError("need 0 < theta_min < pi/2")
    p_prime = np.asarray(p_prime, dtype=float)
    p = np.asarray(p, dtype=float)
    if not (np.all(np.isfinite(p_prime)) and np.all(np.isfinite(p))):
        raise ValueError("need finite p and p_prime for the overlap kernel")
    L = -np.log(np.tan(0.5 * theta_min))
    z, w = panel_rule(-L, L)
    values = (
        np.conj(_psi_stretched(p_prime[..., None], z))
        * _psi_stretched(p[..., None], z)
        / np.cosh(z) ** 2  # sin^2(theta) from the measure and dtheta = sin dz
    )
    out = 2.0 * np.pi * np.sum(w * values, axis=-1)
    return complex(out) if out.ndim == 0 else out


def dirichlet_kernel(dp, L):
    """sin(dp L) / (pi dp), continuous at dp = 0 with value L / pi."""
    return (L / np.pi) * np.sinc(dp * L / np.pi)


def _check_order(l):
    l = int(l)
    if l < 0 or l > LEGENDRE_MAX_ORDER:
        raise ValueError(f"order {l} outside supported range 0..{LEGENDRE_MAX_ORDER}")
    return l


def legendre_p(l, x):
    """Legendre polynomial P_l(x): the m = 0 case of fields.associated_legendre.

    Stable on x in [-1, 1]; supported for l <= LEGENDRE_MAX_ORDER.
    """
    l = _check_order(l)
    x = np.asarray(x, dtype=float)
    p = flib.associated_legendre(l, 0, x)
    return p if p.ndim else float(p)


def _check_truncation(Q, tolerance):
    bound = 2.0 * np.exp(-float(Q))
    if bound > tolerance:
        raise QuadratureTruncationError(bound, tolerance)


def _q_rule(Q, nodes, p_max, l):
    # Width-2 panels over [-Q, Q], returned as (panels, nodes per panel); a
    # panel turns the phase by 2|p| radians, which ceil(|p|) + 2
    # Gauss-Legendre nodes resolve to machine precision.
    # P_l(tanh q) oscillates about l + 1/2 times per unit q near q = 0, and
    # (l + 1) // 2 more nodes per panel are the fewest that hold 1e-13
    # against amplitude_recurrence for every 2 < l <= 64 and |p| <= 30 at
    # the default nodes (measured; l <= 2 keeps the rule it had).
    Q = float(Q)
    if not 0.0 < Q <= MAX_PANELS:  # NaN fails too
        raise ValueError(f"need a finite Q in (0, {MAX_PANELS}] (got {Q})")
    n_panels = max(1, int(np.ceil(Q)))
    if not 1 <= nodes <= n_panels * MAX_PANEL_NODES:
        raise ValueError(
            f"need 1 <= nodes <= {n_panels * MAX_PANEL_NODES} at Q = {Q:g} "
            f"(at most {MAX_PANEL_NODES} per panel; got {nodes})"
        )
    requested = max(4, int(np.ceil(nodes / n_panels)))
    per_panel = max(requested, int(np.ceil(p_max)) + 2)
    if l > 2:
        per_panel += (l + 1) // 2
    q, w = panel_rule(-Q, Q, panel_width=2.0, nodes=per_panel)
    return q.reshape(n_panels, per_panel), w.reshape(n_panels, per_panel)


def amplitude_recurrence(l, p):
    """Momentum-distribution amplitude phi_l(p) in closed form, 0 <= l <= 64.

    phi_l = sqrt((2l+1)/(4 pi)) (-i)^l G_l(p), with G_0 = pi sech(pi p/2),
    G_1 = p G_0 and (l+1)^2 G_{l+1} = (2l+1) p G_l - l^2 G_{l-1}: the
    Fourier transforms of P_l(tanh q) sech q in the overlap convention, so
    the phase matches amplitude_quadrature for every l.  Even l are real,
    odd l imaginary, and |phi_l(-p)| == |phi_l(p)| exactly.  Accepts scalar
    or array p; |p| above MAX_ABS_P is refused, as by the quadrature.
    """
    l = _check_order(l)
    p_arr = np.asarray(p, dtype=float)
    if not np.all(np.abs(p_arr) <= MAX_ABS_P):
        raise ValueError(f"need finite |p| <= {MAX_ABS_P:g} for the amplitudes")
    # sech x = 2a / (1 + a^2) with a = e^{-|x|}: cosh would overflow past |p| ~ 450
    decay = np.exp(-0.5 * np.pi * np.abs(p_arr))
    g_prev, g = 0.0, 2.0 * np.pi * decay / (1.0 + decay * decay)
    for k in range(l):
        g_prev, g = g, ((2 * k + 1) * p_arr * g - k * k * g_prev) / (k + 1) ** 2
    values = (1.0, -1.0, -1.0, 1.0)[l % 4] * np.sqrt((2 * l + 1) / (4.0 * np.pi)) * g
    out = np.zeros(p_arr.shape, dtype=complex)
    if l % 2:
        out.imag = values + 0.0  # no -0.0
    else:
        out.real = values + 0.0
    return complex(out) if out.ndim == 0 else out


def amplitude_quadrature(l, p, Q=DEFAULT_Q, nodes=DEFAULT_NODES, tolerance=1e-8):
    """Momentum-distribution amplitude phi_l(p) by quadrature in q.

    The cross-check of amplitude_recurrence, which it matches in sign.

    Evaluates sqrt((2l+1)/(4 pi)) Int_{-Q}^{Q} P_l(tanh q) sech(q)
    e^{-i p q} dq on composite Gauss-Legendre panels.  Equals the surface
    overlap of Y_l0 with psi_p^* (see amplitude_surface_overlap).  Raises
    QuadratureTruncationError when the tail bound 2 e^{-Q} exceeds the
    tolerance.  Accepts scalar or array p.

    The kernel P_l(tanh q) sech(q) has parity (-1)^l, so the integral is
    Int kernel cos(p q) dq for even l and -i Int kernel sin(p q) dq for
    odd l: real work.  A node sits at q = mid + offset + delta (its panel's
    centre, its place in the panel, its rounding), so the angle-addition
    formulas need cos and sin of p mid (panels) and p offset (nodes per
    panel) alone; the per-panel sums are matmuls against the kernel, and
    delta enters to first order through the kernel times delta.  Each
    distinct |p| is evaluated once, in chunks of p that keep the
    temporaries to a few MB, and mirrored (cos even, sin odd), so
    |phi_l(-p)| == |phi_l(p)| exactly.  The nodes per panel grow with
    max |p| and l (see _q_rule); |p| above MAX_ABS_P, a Q outside
    (0, MAX_PANELS] and more than MAX_PANEL_NODES nodes per panel are
    refused.
    """
    l = _check_order(l)
    p_arr = np.asarray(p, dtype=float)
    magnitude = np.abs(p_arr).ravel()
    if not np.all(magnitude <= MAX_ABS_P):
        raise ValueError(f"need finite |p| <= {MAX_ABS_P:g} for the quadrature")
    q, w = _q_rule(Q, nodes, magnitude.max(initial=0.0), l)
    _check_truncation(Q, tolerance)
    kernel = w * legendre_p(l, np.tanh(q)) / np.cosh(q)
    # q = mid + offset + delta: the panel centres (Gauss-Legendre nodes sit
    # symmetrically in a panel), one panel's nodes about its centre, and each
    # node's rounding, which enters to first order through kernel * delta.
    mid = 0.5 * (q[:, 0] + q[:, -1])
    offset = q[0] - mid[0]
    slope = kernel * (q - mid[:, None] - offset)
    distinct, index = np.unique(magnitude, return_inverse=True)
    sums = np.empty(distinct.size)
    rows = max(1, _CHUNK_ELEMENTS // sum(q.shape))
    for k in range(0, distinct.size, rows):
        p_k = distinct[k:k + rows, None]
        cos_b, sin_b = np.cos(p_k * offset), np.sin(p_k * offset)
        # per panel: Sum kernel cos(p (offset + delta)) and Sum kernel sin(...)
        c = cos_b @ kernel.T - p_k * (sin_b @ slope.T)
        s = sin_b @ kernel.T + p_k * (cos_b @ slope.T)
        cos_a, sin_a = np.cos(p_k * mid), np.sin(p_k * mid)
        if l % 2:  # sin(a + b) = sin a cos b + cos a sin b
            sums[k:k + rows] = np.sum(sin_a * c + cos_a * s, axis=1)
        else:  # cos(a + b) = cos a cos b - sin a sin b
            sums[k:k + rows] = np.sum(cos_a * c - sin_a * s, axis=1)
    values = np.sqrt((2 * l + 1) / (4.0 * np.pi)) * sums[index]
    out = np.zeros(magnitude.shape, dtype=complex)
    if l % 2:
        out.imag = np.where(p_arr.ravel() < 0.0, values, -values) + 0.0  # no -0.0
    else:
        out.real = values
    if p_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(p_arr.shape)


def amplitude_surface_overlap(l, p, Q=20.0, nodes=32):
    """phi_l(p) as a direct (theta, phi) surface overlap of Y_l0 and psi_p^*.

    Cross-check path for amplitude_quadrature: integrates in theta over
    panels graded like the stretched coordinate (constant phase change per
    panel) with psi evaluated through its theta form, and carries the
    trivial phi circle explicitly.  Truncation at theta = 2 atan(e^{-Q}).
    A panel spans Q / ceil(Q) <= 1 of q, so the phase turns by up to |p|
    radians across it; as in _q_rule, a panel takes
    max(nodes, ceil(|p| Q / (2 ceil(Q))) + 2) nodes for the largest |p|
    of the call, so an array's rule follows its largest |p| (at the
    defaults nothing changes for |p| <= 60).  Accepts scalar p (a complex
    comes back) or array p (an array of its shape, on one theta rule and
    one set of Y_l0 values).  p is taken in chunks of at most
    _CHUNK_ELEMENTS phases, so the temporaries stay a few MB however many
    p there are; a p's sum has the same bits in any chunk.  A non-finite p
    or |p| above MAX_ABS_P is refused, as by the quadrature, and
    PoleProximityError is raised when Q puts a theta node within
    PSI_POLE_MARGIN of a pole.
    """
    l = _check_order(l)
    p = np.asarray(p, dtype=float)
    if not np.all(np.abs(p) <= MAX_ABS_P):
        raise ValueError(f"need finite |p| <= {MAX_ABS_P:g} for the quadrature")
    n_panels = 2 * max(1, int(np.ceil(Q)))
    per_panel = max(nodes, int(np.ceil(np.abs(p).max(initial=0.0) * Q / n_panels)) + 2)
    q_edges = np.linspace(-float(Q), float(Q), n_panels + 1)
    theta_edges = 2.0 * np.arctan(np.exp(q_edges))
    theta_nodes, w = graded_panel_rule(theta_edges, nodes=per_panel)
    flib._check_pole(theta_nodes, PSI_POLE_MARGIN)
    weighted = w * flib.spherical_harmonic(l, 0).value(theta_nodes, 0.0)
    sin_theta = np.sin(theta_nodes)
    flat = p.ravel()
    sums = np.empty(flat.size, dtype=complex)
    rows = max(1, _CHUNK_ELEMENTS // theta_nodes.size)
    for k in range(0, flat.size, rows):
        psi_conj = np.conj(_psi_map(flat[k:k + rows, None], theta_nodes))
        sums[k:k + rows] = np.sum(weighted * psi_conj * sin_theta, axis=-1)
    out = 2.0 * np.pi * sums.reshape(p.shape)
    return complex(out) if out.ndim == 0 else out


def amplitude_closed(l, p):
    """Closed-form amplitudes for l in {0, 1, 2} (verbatim prefactors).

    phi_0 = (sqrt(pi)/2) sech(pi p / 2)
    phi_1 = i (sqrt(3 pi)/2) p sech(pi p / 2)
    phi_2 = (sqrt(5 pi)/8) (3 p^2 - 1) sech(pi p / 2)

    The overlap integral computed by amplitude_quadrature reproduces these
    up to the recorded global sign CLOSED_FORM_COMPARISON_SIGN[l].
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):  # cosh overflows past |p| ~ 452; sech is 0 there
        envelope = 1.0 / np.cosh(0.5 * np.pi * p)
    if l == 0:
        out = (np.sqrt(np.pi) / 2.0) * envelope + 0j
    elif l == 1:
        out = 1j * (np.sqrt(3.0 * np.pi) / 2.0) * p * envelope
    elif l == 2:
        out = (np.sqrt(5.0 * np.pi) / 8.0) * (3.0 * p * p - 1.0) * envelope + 0j
    else:
        raise ValueError("closed forms available for l in {0, 1, 2} only")
    if out.ndim == 0:
        return complex(out)
    return out


def _momentum_rule(p_max, dp):
    if p_max < 10.0:
        raise ValueError("need p_max >= 10")
    if dp > 0.05:
        raise ValueError("need dp <= 0.05")
    per_panel = max(32, int(np.ceil(2.0 / dp)))
    return panel_rule(-p_max, p_max, panel_width=2.0, nodes=per_panel)


def parseval_check(l, p_max=16.0, dp=0.05):
    """Int |phi_l(p)|^2 dp over [-p_max, p_max] from amplitude_recurrence;
    exactly 1 for a unitary transform of a normalized Y_l0, up to
    truncation."""
    p_nodes, w = _momentum_rule(p_max, dp)
    return float(np.sum(w * np.abs(amplitude_recurrence(l, p_nodes)) ** 2))


def moments(l, max_order=2, p_max=16.0, dp=0.05):
    """Moments <p^k> of the density |phi_l|^2 (from amplitude_recurrence)
    for k = 0..max_order.

    Odd moments vanish by the parity of the density.  For Y_00 the second
    moment is the zero-point momentum fluctuation 1/3 (hbar = 1).
    """
    p_nodes, w = _momentum_rule(p_max, dp)
    density = np.abs(amplitude_recurrence(l, p_nodes)) ** 2
    return [float(np.sum(w * p_nodes**k * density)) for k in range(max_order + 1)]


# ---------------------------------------------------------------------------
# Distribution grids and reports.
# ---------------------------------------------------------------------------


def symmetric_grid(p_max, dp):
    """Uniform grid over [-p_max, p_max], bitwise antisymmetric about 0.

    Built as dp * k for integer k so that grid[-(i+1)] == -grid[i] exactly;
    the density-parity check |phi_l(-p)|^2 == |phi_l(p)|^2 relies on it.
    Needs a finite p_max >= 0, a finite dp > 0 and at most
    MAX_DISTRIBUTION_SAMPLES samples, checked before anything is allocated.
    """
    if not 0.0 < dp < np.inf:
        raise ValueError(f"need a finite dp > 0 (got {dp})")
    if not 0.0 <= p_max < np.inf:
        raise ValueError(f"need a finite p_max >= 0 (got {p_max})")
    ratio = float(p_max) / float(dp)
    if 2.0 * ratio == np.inf:
        raise ValueError(
            f"the p grid's sample count 2 p_max / dp + 1 overflows "
            f"(p_max={p_max}, dp={dp})"
        )
    n = int(round(ratio))
    if 2 * n + 1 > MAX_DISTRIBUTION_SAMPLES:
        raise ValueError(
            f"the p grid would have {2 * n + 1:.7g} samples, more than the "
            f"{MAX_DISTRIBUTION_SAMPLES} allowed (p_max={p_max}, dp={dp})"
        )
    return float(dp) * np.arange(-n, n + 1)


def distribution_amplitudes(l, p_max=6.0, dp=0.05, method="closed_form",
                            Q=DEFAULT_Q, nodes=DEFAULT_NODES, tolerance=1e-8):
    """(grid, amplitudes) of phi_l on symmetric_grid(p_max, dp) by `method`:
    "closed_form" (amplitude_recurrence) or "quadrature" (Q, nodes and
    tolerance apply to it alone)."""
    grid = symmetric_grid(p_max, dp)
    if method == "quadrature":
        amps = amplitude_quadrature(l, grid, Q=Q, nodes=nodes, tolerance=tolerance)
    elif method == "closed_form":
        amps = amplitude_recurrence(l, grid)
    else:
        raise ValueError("method must be 'quadrature' or 'closed_form'")
    return grid, amps


@dataclass(frozen=True)
class UncertaintyReport:
    """Position/momentum spreads of Y_l0 and their products.

    Position moments come from surface quadrature of |Y_l0|^2 x_i and
    |Y_l0|^2 x_i^2; momentum moments from the |phi_l|^2 density.  For
    l = 0 the x and y momentum spreads are copied from the z one by the
    rotational symmetry of Y_00 (that symmetry argument is only valid at
    l = 0, so for l > 0 just the z-axis product is reported).
    """

    l: int
    m: int
    position_mean: tuple  # <x_i> per axis
    position_second: tuple  # <x_i^2> per axis
    momentum_mean: float  # <p_z>
    momentum_second: float  # <p_z^2>
    products: dict = field(compare=False)  # axis -> Delta x_i * Delta p_i

    def position_variance(self, axis):
        i = {"x": 0, "y": 1, "z": 2}[axis]
        return self.position_second[i] - self.position_mean[i] ** 2

    @property
    def momentum_variance(self):
        return self.momentum_second - self.momentum_mean**2

    def to_dict(self):
        return {
            "l": self.l,
            "m": self.m,
            "position_mean": list(self.position_mean),
            "position_second": list(self.position_second),
            "momentum_mean": self.momentum_mean,
            "momentum_second": self.momentum_second,
            "products": {axis: self.products[axis] for axis in sorted(self.products)},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


def uncertainty_report(l, m=0, order=96, p_max=16.0, dp=0.05):
    l = int(l)
    if l > 8:
        raise ValueError("supported for l <= 8")
    if m != 0:
        # the momentum moments are those of phi_l, the amplitudes of Y_l0
        raise ValueError(f"momentum amplitudes exist for m = 0 only (got m = {m})")
    ylm = flib.spherical_harmonic(l, m)
    theta, phi, w = sphere_grid(order)
    weight = w * np.abs(ylm.value(theta, phi)) ** 2
    st = np.sin(theta)
    xyz = (st * np.cos(phi), st * np.sin(phi), np.cos(theta) * np.ones_like(phi))
    pos_mean = tuple(float(np.sum(weight * c)) for c in xyz)
    pos_second = tuple(float(np.sum(weight * c * c)) for c in xyz)
    mom = moments(l, max_order=2, p_max=p_max, dp=dp)
    dp_z = np.sqrt(mom[2] - mom[1] ** 2)
    products = {}
    axes = ("x", "y", "z") if l == 0 else ("z",)
    for axis in axes:
        i = {"x": 0, "y": 1, "z": 2}[axis]
        dx = np.sqrt(pos_second[i] - pos_mean[i] ** 2)
        products[axis] = float(dx * dp_z)
    return UncertaintyReport(
        l=l,
        m=int(m),
        position_mean=pos_mean,
        position_second=pos_second,
        momentum_mean=mom[1],
        momentum_second=mom[2],
        products=products,
    )


@dataclass(frozen=True)
class ShoComparison:
    """Side-by-side of |phi_0|^2 and harmonic-oscillator momentum densities.

    Columns: the raw density (pi/4) sech^2(pi p/2); the reference
    ground-state Gaussian density pi^{-1/2} e^{-p^2} (unit frequency); both
    rescaled to unit peak; and the unit-peak shape-matched Gaussian
    e^{-pi^3 p^2/16}, the oscillator whose unit-area density has the same
    peak height pi/4.  The shape-matched pair is the "almost identical"
    comparison; the raw pair is emitted alongside because the figure's
    normalization is a convention choice.
    """

    p: np.ndarray
    density: np.ndarray
    gaussian_reference: np.ndarray
    density_unit_peak: np.ndarray
    gaussian_reference_unit_peak: np.ndarray
    gaussian_matched_unit_peak: np.ndarray
    max_diff_raw: float
    max_diff_unit_peak: float
    max_diff_shape_matched: float

    CSV_HEADER = (
        "p,density,sho_density,density_unit_peak,"
        "sho_density_unit_peak,sho_matched_unit_peak"
    )

    def to_csv(self):
        from .cli import _csv  # imported here: cli imports this module

        columns = (self.p, self.density, self.gaussian_reference, self.density_unit_peak,
                   self.gaussian_reference_unit_peak, self.gaussian_matched_unit_peak)
        return _csv(dict(zip(self.CSV_HEADER.split(","), columns)))


def sho_comparison(p_grid):
    p = np.asarray(p_grid, dtype=float)
    density = np.abs(amplitude_closed(0, p)) ** 2
    gaussian = np.exp(-p * p) / np.sqrt(np.pi)
    density_peak = density / (np.pi / 4.0)
    gaussian_peak = np.exp(-p * p)
    matched_peak = np.exp(-MATCHED_GAUSSIAN_RATE * p * p)
    return ShoComparison(
        p=p,
        density=density,
        gaussian_reference=gaussian,
        density_unit_peak=density_peak,
        gaussian_reference_unit_peak=gaussian_peak,
        gaussian_matched_unit_peak=matched_peak,
        max_diff_raw=float(np.max(np.abs(density - gaussian))),
        max_diff_unit_peak=float(np.max(np.abs(density_peak - gaussian_peak))),
        max_diff_shape_matched=float(np.max(np.abs(density_peak - matched_peak))),
    )
