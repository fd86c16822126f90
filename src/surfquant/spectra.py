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
default distribution path and feeds moments, whose zeroth is the Parseval
sum.  The three amplitude paths and moments take l as an int or as a 1-D
sequence of ints, a leading l axis whose rows equal the one-l calls bit
for bit, so a caller that wants many l shares one recurrence, rule and
set of phases.  Everything here is in units hbar = m = 1.

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

import itertools
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


def psi(p, theta):
    """Eigenfunction of p_z on the unit sphere at eigenvalue p.

    psi_p(theta) = (1 / (2 pi sin theta)) exp(-i p ln tan(theta/2)), the
    same on every phi; |psi_p| = 1 / (2 pi sin theta) for every p.  theta
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
    l = flib._integer(l, "l")
    if l < 0 or l > LEGENDRE_MAX_ORDER:
        raise ValueError(f"order {l} outside supported range 0..{LEGENDRE_MAX_ORDER}")
    return l


def _orders(l):
    """(the orders of l as a tuple, whether l is one order): l is an int, or
    a 1-D sequence of ints in any order, repeats allowed, for a leading l
    axis.  Each order is checked as by _check_order."""
    if np.ndim(l) == 0:
        return (_check_order(l),), True
    if np.ndim(l) != 1:
        raise ValueError(f"l must be an int or a 1-D sequence of ints (got {np.ndim(l)}-D)")
    return tuple(_check_order(k) for k in l), False


def _rungs(ladder, orders):
    """{l: rung l of ladder} for each l of orders, from one pass of the
    ladder up to the largest of them."""
    wanted = set(orders)
    return {k: rung for k, rung in zip(range(max(orders, default=-1) + 1), ladder)
            if k in wanted}


def _amplitude_p(p):
    """p as a float array; a non-finite p or |p| above MAX_ABS_P is refused."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.abs(p) <= MAX_ABS_P):  # NaN fails too
        raise ValueError(f"need finite |p| <= {MAX_ABS_P:g} for the amplitudes")
    return p


def _by_l(rows, one):
    """The rows of an l axis as the entry returns them: for one order its
    row, a Python complex for a scalar p; for a sequence the whole array."""
    if not one:
        return rows
    return complex(rows[0]) if rows[0].ndim == 0 else rows[0]


def _check_truncation(Q, tolerance):
    if not 0.0 < tolerance < np.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and positive (got {tolerance})")
    bound = 2.0 * np.exp(-float(Q))
    if bound > tolerance:
        raise QuadratureTruncationError(bound, tolerance)


def _q_shape(Q, nodes, p_max, l):
    # Width-2 panels over [-Q, Q], as (panels, nodes per panel); a panel
    # turns the phase by 2|p| radians, which ceil(|p|) + 2 Gauss-Legendre
    # nodes resolve to machine precision.
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
    return n_panels, per_panel


def _q_rule(Q, nodes, p_max, l):
    """The q-rule of _q_shape, nodes and weights shaped (panels, nodes per panel)."""
    shape = _q_shape(Q, nodes, p_max, l)
    q, w = panel_rule(-float(Q), float(Q), nodes=shape[1])
    return q.reshape(shape), w.reshape(shape)


def _amplitude_ladder(p):
    """G_0, G_1, G_2, ... of amplitude_recurrence at p, each computed when it
    is asked for."""
    # sech x = 2a / (1 + a^2) with a = e^{-|x|}: cosh would overflow past |p| ~ 450
    decay = np.exp(-0.5 * np.pi * np.abs(p))
    g_prev, g = 0.0, 2.0 * np.pi * decay / (1.0 + decay * decay)
    for k in itertools.count():
        yield g
        g_prev, g = g, ((2 * k + 1) * p * g - k * k * g_prev) / (k + 1) ** 2


def amplitude_recurrence(l, p):
    """Momentum-distribution amplitude phi_l(p) in closed form, 0 <= l <= 64.

    phi_l = sqrt((2l+1)/(4 pi)) (-i)^l G_l(p), with G_0 = pi sech(pi p/2),
    G_1 = p G_0 and (l+1)^2 G_{l+1} = (2l+1) p G_l - l^2 G_{l-1}: the
    Fourier transforms of P_l(tanh q) sech q in the overlap convention, so
    the phase matches amplitude_quadrature for every l.  Even l are real,
    odd l imaginary, and |phi_l(-p)| == |phi_l(p)| exactly.  Accepts scalar
    or array p; |p| above MAX_ABS_P is refused, as by the quadrature.

    l is an int (an array of p's shape comes back, a complex for a scalar
    p) or a 1-D sequence of ints, in any order and with repeats, for a
    leading l axis: shape (len(l),) + p.shape.  The recurrence runs once,
    up to the largest l, and each row equals the one-l call bit for bit.
    """
    orders, one = _orders(l)
    p_arr = _amplitude_p(p)
    rungs = _rungs(_amplitude_ladder(p_arr), orders)
    out = np.zeros((len(orders),) + p_arr.shape, dtype=complex)
    for i, k in enumerate(orders):
        values = (1.0, -1.0, -1.0, 1.0)[k % 4] * np.sqrt((2 * k + 1) / (4.0 * np.pi)) * rungs[k]
        (out.imag if k % 2 else out.real)[i] = values + 0.0  # no -0.0
    return _by_l(out, one)


def amplitude_quadrature(l, p, Q=DEFAULT_Q, nodes=DEFAULT_NODES, tolerance=1e-8):
    """Momentum-distribution amplitude phi_l(p) by quadrature in q.

    The cross-check of amplitude_recurrence, which it matches in sign.

    Evaluates sqrt((2l+1)/(4 pi)) Int_{-Q}^{Q} P_l(tanh q) sech(q)
    e^{-i p q} dq on composite Gauss-Legendre panels.  Equals the surface
    overlap of Y_l0 with psi_p^* (see amplitude_surface_overlap).  Raises
    QuadratureTruncationError when the tail bound 2 e^{-Q} exceeds the
    tolerance, and ValueError for a tolerance that is not finite and
    positive.  Accepts scalar or array p, and l as an int or a 1-D
    sequence of ints (a leading l axis), as amplitude_recurrence does.

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
    refused.  The orders that share a rule share its phases and one
    Legendre recurrence, and only their kernel matmuls run per l, so each
    row equals the one-l call bit for bit.

    A p's last bits can depend on the other p of the call: the per-panel
    sums are matmuls over a chunk of p, and BLAS rounds a matmul by its
    row count.  On symmetric_grid(6, 0.05) at l = 0, 199 of the 241 values
    differ from one-p calls, by at most 3.3e-16.
    """
    orders, one = _orders(l)
    p_arr = _amplitude_p(p)
    magnitude = np.abs(p_arr).ravel()
    p_max = magnitude.max(initial=0.0)
    groups = {}  # rule shape -> the rows of its orders
    for i, k in enumerate(orders):
        groups.setdefault(_q_shape(Q, nodes, p_max, k), []).append(i)
    _check_truncation(Q, tolerance)
    distinct, index = np.unique(magnitude, return_inverse=True)
    sums = np.empty((len(orders), distinct.size))
    for rows_l in groups.values():
        q, w = _q_rule(Q, nodes, p_max, orders[rows_l[0]])
        group = [orders[i] for i in rows_l]
        legendre = _rungs(flib._legendre_ladder(0, np.tanh(q), None), group)
        cosh = np.cosh(q)
        # q = mid + offset + delta: the panel centres (Gauss-Legendre nodes
        # sit symmetrically in a panel), one panel's nodes about its centre,
        # and each node's rounding, which enters to first order through
        # kernel * delta.
        mid = 0.5 * (q[:, 0] + q[:, -1])
        offset = q[0] - mid[0]
        delta = q - mid[:, None] - offset
        kernels = [w * legendre[k] / cosh for k in group]
        slopes = [kernel * delta for kernel in kernels]
        rows = max(1, _CHUNK_ELEMENTS // sum(q.shape))
        for j in range(0, distinct.size, rows):
            p_j = distinct[j:j + rows, None]
            cos_b, sin_b = np.cos(p_j * offset), np.sin(p_j * offset)
            cos_a, sin_a = np.cos(p_j * mid), np.sin(p_j * mid)
            for i, k, kernel, slope in zip(rows_l, group, kernels, slopes):
                # per panel: Sum kernel cos(p (offset + delta)) and Sum kernel sin(...)
                c = cos_b @ kernel.T - p_j * (sin_b @ slope.T)
                s = sin_b @ kernel.T + p_j * (cos_b @ slope.T)
                if k % 2:  # sin(a + b) = sin a cos b + cos a sin b
                    sums[i, j:j + rows] = np.sum(sin_a * c + cos_a * s, axis=1)
                else:  # cos(a + b) = cos a cos b - sin a sin b
                    sums[i, j:j + rows] = np.sum(cos_a * c - sin_a * s, axis=1)
    negative = p_arr.ravel() < 0.0
    out = np.zeros((len(orders), magnitude.size), dtype=complex)
    for i, k in enumerate(orders):
        values = np.sqrt((2 * k + 1) / (4.0 * np.pi)) * sums[i, index]
        if k % 2:
            out.imag[i] = np.where(negative, values, -values) + 0.0  # no -0.0
        else:
            out.real[i] = values
    return _by_l(out.reshape((len(orders),) + p_arr.shape), one)


def amplitude_surface_overlap(l, p):
    """phi_l(p) as a direct (theta, phi) surface overlap of Y_l0 and psi_p^*.

    Cross-check path for amplitude_quadrature: integrates in theta over
    panels graded like the stretched coordinate (constant phase change per
    panel) with psi evaluated through its theta form, and carries the
    trivial phi circle explicitly, on 40 panels over q in [-20, 20]: its
    theta nodes stay above 2 atan(e^{-20}) = 4.1e-9, far from
    PSI_POLE_MARGIN.  A panel spans 1/2 of q, so the phase turns by up to
    |p| / 2 radians across it; as in _q_rule, a panel takes
    max(32, ceil(|p| / 2) + 2) nodes for the largest |p| of the call, so
    an array's rule follows its largest |p| (nothing changes for |p| <= 60).
    Accepts scalar p (a complex comes back) or array p (an array of its
    shape, on one theta rule and one set of Y_l0 values), and l as an int
    or a 1-D sequence of ints (a leading l axis), as amplitude_recurrence
    does: the theta rule, psi and the Y_l0 rows (one Legendre recurrence)
    are built once for every l.  p is taken in chunks of at most
    _CHUNK_ELEMENTS phases, so the temporaries stay a few MB however many
    p there are; a p's sum has the same bits in any chunk and for any l
    sequence.  A non-finite p or |p| above MAX_ABS_P is refused, as by the
    quadrature.
    """
    orders, one = _orders(l)
    p = _amplitude_p(p)
    per_panel = max(32, int(np.ceil(np.abs(p).max(initial=0.0) * 20.0 / 40)) + 2)
    theta_edges = 2.0 * np.arctan(np.exp(np.linspace(-20.0, 20.0, 41)))
    theta_nodes, w = graded_panel_rule(theta_edges, nodes=per_panel)
    y_l0 = flib._library_values([(k, 0) for k in orders], theta_nodes, 0.0)
    weighted = [w * np.asarray(y, dtype=complex) for y in y_l0]
    sin_theta = np.sin(theta_nodes)
    flat = p.ravel()
    sums = np.empty((len(orders), flat.size), dtype=complex)
    rows = max(1, _CHUNK_ELEMENTS // theta_nodes.size)
    for j in range(0, flat.size, rows):
        psi_conj = np.conj(_psi_map(flat[j:j + rows, None], theta_nodes))
        for row_sums, weighted_l in zip(sums, weighted):
            row_sums[j:j + rows] = np.sum(weighted_l * psi_conj * sin_theta, axis=-1)
    out = 2.0 * np.pi * sums.reshape((len(orders),) + p.shape)
    return _by_l(out, one)


def amplitude_closed(l, p):
    """Closed-form amplitudes for l in {0, 1, 2} (verbatim prefactors).

    phi_0 = (sqrt(pi)/2) sech(pi p / 2)
    phi_1 = i (sqrt(3 pi)/2) p sech(pi p / 2)
    phi_2 = (sqrt(5 pi)/8) (3 p^2 - 1) sech(pi p / 2)

    The overlap integral computed by amplitude_quadrature reproduces these
    up to the recorded global sign CLOSED_FORM_COMPARISON_SIGN[l].  A
    non-finite p or |p| above MAX_ABS_P is refused, as by the quadrature.
    """
    if l not in (0, 1, 2):
        raise ValueError("closed forms available for l in {0, 1, 2} only")
    p = _amplitude_p(p)
    with np.errstate(over="ignore"):  # cosh overflows past |p| ~ 452; sech is 0 there
        envelope = 1.0 / np.cosh(0.5 * np.pi * p)
    if l == 0:
        out = (np.sqrt(np.pi) / 2.0) * envelope + 0j
    elif l == 1:
        out = 1j * (np.sqrt(3.0 * np.pi) / 2.0) * p * envelope
    else:
        out = (np.sqrt(5.0 * np.pi) / 8.0) * (3.0 * p * p - 1.0) * envelope + 0j
    if out.ndim == 0:
        return complex(out)
    return out


def _moment_window(l):
    """Half width W of the |p| <= W window the moments of phi_l integrate
    over: 16 up to l = 3, then 2 ceil(0.6 l + 9) (24 at l = 4, 96 at l = 64).

    The density falls like p^{2l} e^{-pi |p|}, so its tail past W grows with
    l.  Each W is even and at least 2 above the smallest even W at which the
    Parseval sum holds 1e-14 of its |p| <= 200 value (measured for every
    l <= 64), so every window is a run of whole width-2 panels of one grid.
    """
    return 16 if l <= 3 else 2 * ((3 * l + 49) // 5)


def moments(l, max_order=2):
    """Moments <p^k> of the density |phi_l|^2 (from amplitude_recurrence)
    for k = 0..max_order, over |p| <= _moment_window(l) on width-2 panels
    of 40 nodes.

    The zeroth is the Parseval sum, exactly 1 for a unitary transform of a
    normalized Y_l0, up to truncation; the window that grows with l keeps
    it within 1e-13 of 1 for every l <= 64.  Odd moments vanish by the
    parity of the density.  For Y_00 the second moment is the zero-point
    momentum fluctuation 1/3.

    l is an int (a list of max_order + 1 floats comes back) or a 1-D
    sequence of ints, in any order and with repeats (an array of shape
    (len(l), max_order + 1)).  The amplitudes come from one recurrence on
    the widest window's grid; each l sums its own window, a run of that
    grid's panels whose nodes and weights equal panel_rule(-W, W)'s bit for
    bit, so each row equals the one-l call.
    """
    orders, one = _orders(l)
    windows = [_moment_window(k) for k in orders]
    widest = max(windows, default=16)
    p_nodes, w = panel_rule(-widest, widest, nodes=40)
    amps = amplitude_recurrence(orders, p_nodes)
    out = np.empty((len(orders), max_order + 1))
    for row, amp, window in zip(out, amps, windows):
        run = slice(20 * (widest - window), 20 * (widest + window))  # 40 nodes per 2 of p
        p_run, w_run, density = p_nodes[run], w[run], np.abs(amp[run]) ** 2
        row[:] = [np.sum(w_run * p_run**k * density) for k in range(max_order + 1)]
    return [float(x) for x in out[0]] if one else out


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


def uncertainty_report(l, m=0):
    """Spreads of Y_lm on a 96-point sphere grid and of |phi_l|^2 (see
    moments); for l <= 8 and m = 0 only."""
    l, m = flib._integer(l, "l"), flib._integer(m, "m")
    if l > 8:
        raise ValueError("supported for l <= 8")
    if m != 0:
        # the momentum moments are those of phi_l, the amplitudes of Y_l0
        raise ValueError(f"momentum amplitudes exist for m = 0 only (got m = {m})")
    ylm = flib.spherical_harmonic(l, m)
    theta, phi, w = sphere_grid(96)
    weight = w * np.abs(ylm.value(theta, phi)) ** 2
    xyz = flib.sphere_point(theta, phi)
    pos_mean = tuple(float(np.sum(weight * c)) for c in xyz)
    pos_second = tuple(float(np.sum(weight * c * c)) for c in xyz)
    mom = moments(l, max_order=2)
    dp_z = np.sqrt(mom[2] - mom[1] ** 2)
    products = {}
    axes = ("x", "y", "z") if l == 0 else ("z",)
    for axis in axes:
        i = {"x": 0, "y": 1, "z": 2}[axis]
        dx = np.sqrt(pos_second[i] - pos_mean[i] ** 2)
        products[axis] = float(dx * dp_z)
    return UncertaintyReport(
        l=l,
        m=m,
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
