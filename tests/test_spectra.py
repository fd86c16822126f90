import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from surfquant import fields as flib
from surfquant import operators as oplib
from surfquant import spectra as splib
from surfquant.errors import PoleProximityError, QuadratureTruncationError
from surfquant.quadrature import panel_rule


def legendre_series_oracle(l, x):
    """Independent finite-series evaluation in exact rational arithmetic:
    P_l(x) = sum_k C(l,k) C(l+k,k) ((x-1)/2)^k."""
    xf = Fraction(x).limit_denominator(10**12)
    total = sum(
        math.comb(l, k) * math.comb(l + k, k) * ((xf - 1) / 2) ** k
        for k in range(l + 1)
    )
    return float(total)


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------


def test_psi_equator_values():
    # ln tan(pi/4) = 0, sin(pi/2) = 1: the phase drops for every p
    assert abs(splib.psi(0.0, np.pi / 2.0) - 1.0 / (2.0 * np.pi)) < 1e-16
    for p in (-3.2, 0.7, 11.0):
        assert abs(splib.psi(p, np.pi / 2.0) - 1.0 / (2.0 * np.pi)) < 1e-15


def test_psi_frozen_value():
    # p = 1, theta = pi/3: (1/(2 pi sin(pi/3))) e^{-i ln tan(pi/6)};
    # ln tan(pi/6) = -ln(3)/2
    expected = (1.0 / (2.0 * np.pi * np.sin(np.pi / 3.0))) * np.exp(
        1j * 0.5 * np.log(3.0)
    )
    assert abs(splib.psi(1.0, np.pi / 3.0) - expected) < 1e-15


def test_psi_modulus_is_p_independent():
    for theta in (0.2, 1.0, 2.7):
        target = 1.0 / (2.0 * np.pi * np.sin(theta))
        for p in (-5.0, 0.0, 2.3):
            assert abs(abs(splib.psi(p, theta)) - target) < 1e-14


def test_psi_pole_error():
    with pytest.raises(PoleProximityError):
        splib.psi(1.0, 1e-13)


def test_psi_and_eigenfunction_field_refuse_non_finite_p():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            splib.psi(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            splib.eigenfunction_field(bad)


def test_psi_takes_array_theta():
    theta = np.linspace(0.05, np.pi - 0.05, 41)
    values = splib.psi(2.3, theta)
    assert values.shape == theta.shape
    assert np.array_equal(values, [splib.psi(2.3, t) for t in theta])
    assert type(splib.psi(2.3, theta[0])) is complex
    grid = theta.reshape(1, -1)
    assert np.array_equal(splib.psi(2.3, grid), values.reshape(1, -1))


def test_psi_names_the_first_pole_theta():
    theta = np.array([1.0, np.pi - 1e-13, 2.0, 1e-14])
    with pytest.raises(PoleProximityError) as info:
        splib.psi(1.0, theta)
    assert info.value.theta == theta[1]


def test_eigenvalue_relation_random_samples():
    rng = np.random.default_rng(77)
    residuals = []
    for _ in range(100):
        p = rng.uniform(-10.0, 10.0)
        theta = rng.uniform(0.01, np.pi - 0.01)
        eig = splib.eigenfunction_field(p)
        applied = oplib.SPHERE_MOMENTUM.value(eig, theta, 0.0)[2]
        residuals.append(abs(applied - p * splib.psi(p, theta)))
    assert np.max(residuals) < 1e-10


# ---------------------------------------------------------------------------
# delta normalization (Dirichlet kernel)
# ---------------------------------------------------------------------------


def test_overlap_kernel_diagonal():
    for theta_min in (1e-3, 1e-5, 1e-7):
        L = -np.log(np.tan(0.5 * theta_min))
        value = splib.overlap_kernel(0.7, 0.7, theta_min)
        assert abs(value - L / np.pi) < 1e-10


def test_overlap_kernel_first_zero():
    theta_min = 1e-5
    L = -np.log(np.tan(0.5 * theta_min))
    value = splib.overlap_kernel(1.0 + np.pi / L, 1.0, theta_min)
    assert abs(value) < 1e-12


def test_overlap_kernel_closed_form_example():
    theta_min = 1e-6
    L = -np.log(np.tan(0.5 * theta_min))
    value = splib.overlap_kernel(1.5, 1.0, theta_min)
    assert abs(value - np.sin(0.5 * L) / (0.5 * np.pi)) < 1e-12


def test_overlap_kernel_matches_dirichlet_over_decades():
    for theta_min in (1e-3, 1e-5, 1e-7):
        L = -np.log(np.tan(0.5 * theta_min))
        for dp in np.linspace(0.0, 5.0, 26):
            value = splib.overlap_kernel(2.0 + dp, 2.0, theta_min)
            assert abs(value - splib.dirichlet_kernel(dp, L)) < 1e-8


def test_overlap_kernel_rejects_bad_band():
    with pytest.raises(ValueError):
        splib.overlap_kernel(1.0, 1.0, 2.0)


def test_overlap_kernel_array_matches_scalar_calls():
    dp = np.linspace(0.0, 5.0, 26)
    for theta_min in (1e-3, 1e-5, 1e-7):
        values = splib.overlap_kernel(2.0 + dp, 2.0, theta_min)
        scalar = [splib.overlap_kernel(2.0 + d, 2.0, theta_min) for d in dp]
        assert np.array_equal(values, scalar)
        # p broadcasts the same way as p_prime, and a 2-D shape is kept
        swapped = splib.overlap_kernel(2.0, (2.0 + dp).reshape(2, 13), theta_min)
        assert swapped.shape == (2, 13)
        assert np.array_equal(swapped.ravel(), [splib.overlap_kernel(2.0, 2.0 + d, theta_min)
                                                for d in dp])
    assert type(splib.overlap_kernel(1.5, 1.0, 1e-3)) is complex


def test_overlap_kernel_rejects_non_finite_p():
    for bad in (np.nan, np.inf, -np.inf, [0.0, np.nan]):
        with pytest.raises(ValueError, match="finite p and p_prime"):
            splib.overlap_kernel(bad, 1.0, 1e-3)
        with pytest.raises(ValueError, match="finite p and p_prime"):
            splib.overlap_kernel(1.0, bad, 1e-3)


# ---------------------------------------------------------------------------
# Legendre recurrence
# ---------------------------------------------------------------------------


def test_legendre_base_cases():
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.abs(flib.associated_legendre(0, 0, xs) - 1.0).max() == 0.0
    assert abs(flib.associated_legendre(2, 0, 0.0) + 0.5) == 0.0
    assert abs(flib.associated_legendre(5, 0, 1.0) - 1.0) < 1e-15


def test_legendre_frozen_series_value():
    # series oracle at x = 0.3: P_5(0.3) = (63*0.3^5 - 70*0.3^3 + 15*0.3)/8
    assert abs(flib.associated_legendre(5, 0, 0.3) - 0.34538625) < 1e-15
    assert abs(legendre_series_oracle(5, 0.3) - 0.34538625) < 1e-12


@pytest.mark.parametrize("l", [1, 3, 7, 12, 20])
def test_legendre_matches_series_oracle(l):
    for x in np.linspace(-1.0, 1.0, 9):
        assert abs(flib.associated_legendre(l, 0, x) - legendre_series_oracle(l, x)) < 1e-9


L_ENTRIES = {
    "amplitude_recurrence": lambda l: splib.amplitude_recurrence(l, 0.3),
    "amplitude_quadrature": lambda l: splib.amplitude_quadrature(l, 0.3),
    "amplitude_surface_overlap": lambda l: splib.amplitude_surface_overlap(l, 0.3),
    "moments": lambda l: splib.moments(l, 0),
    "uncertainty_report": lambda l: splib.uncertainty_report(l),
    # an order inside an l sequence
    "amplitude_recurrence[]": lambda l: splib.amplitude_recurrence([3, l], 0.3),
    "amplitude_quadrature[]": lambda l: splib.amplitude_quadrature((3, l), 0.3),
    "amplitude_surface_overlap[]": lambda l: splib.amplitude_surface_overlap([l], [0.3]),
    "moments[]": lambda l: splib.moments([0, l, 1], 0),
}


@pytest.mark.parametrize("entry", sorted(L_ENTRIES))
@pytest.mark.parametrize("l", [1.5, 2.7, -0.5, np.nan, np.inf])
def test_a_non_integer_l_is_refused_not_truncated(entry, l):
    # 1.5 and 2.7 were truncated to 1 and 2, and NaN raised numpy's
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=re.escape(f"l must be an integer (got {l!r})")):
        L_ENTRIES[entry](l)


@pytest.mark.parametrize("entry", sorted(L_ENTRIES))
def test_a_whole_float_l_is_its_integer(entry):
    assert np.array_equal(L_ENTRIES[entry](2.0), L_ENTRIES[entry](2))


@pytest.mark.parametrize("m", [0.5, -0.2, np.nan])
def test_uncertainty_report_refuses_a_non_integer_m(m):
    with pytest.raises(ValueError, match=re.escape(f"m must be an integer (got {m!r})")):
        splib.uncertainty_report(1, m)


# ---------------------------------------------------------------------------
# distribution amplitudes
# ---------------------------------------------------------------------------


def test_amplitude_quadrature_at_zero():
    value = splib.amplitude_quadrature(0, 0.0)
    assert abs(value - np.sqrt(np.pi) / 2.0) < 1e-8


def test_amplitude_quadrature_odd_l_vanishes_at_zero():
    assert abs(splib.amplitude_quadrature(1, 0.0)) < 1e-14


def test_amplitude_quadrature_l2_zeros():
    for p in (1.0 / np.sqrt(3.0), -1.0 / np.sqrt(3.0)):
        assert abs(splib.amplitude_quadrature(2, p)) < 1e-10


def test_amplitude_closed_examples():
    assert abs(splib.amplitude_closed(0, 0.0) - np.sqrt(np.pi) / 2.0) == 0.0
    expected = 1j * (np.sqrt(3.0 * np.pi) / 2.0) / np.cosh(np.pi / 2.0)
    assert abs(splib.amplitude_closed(1, 1.0) - expected) == 0.0
    assert abs(splib.amplitude_closed(2, 0.0) + np.sqrt(5.0 * np.pi) / 8.0) == 0.0
    with pytest.raises(ValueError):
        splib.amplitude_closed(3, 0.0)


def test_amplitude_quadrature_matches_closed_forms():
    grid = splib.symmetric_grid(6.0, 0.05)
    for l in (0, 1, 2):
        quad = splib.amplitude_quadrature(l, grid)
        closed = splib.amplitude_closed(l, grid)
        sign = splib.CLOSED_FORM_COMPARISON_SIGN[l]
        assert np.max(np.abs(np.abs(quad) ** 2 - np.abs(closed) ** 2)) < 1e-8
        assert np.max(np.abs(quad - sign * closed)) < 1e-8


def test_amplitude_comparison_sign_is_constant_in_p():
    # the recorded per-l sign is a single global phase, not p-dependent
    grid = splib.symmetric_grid(6.0, 0.05)
    for l in (0, 1, 2):
        quad = splib.amplitude_quadrature(l, grid)
        closed = splib.amplitude_closed(l, grid)
        mask = np.abs(closed) > 1e-3
        ratios = quad[mask] / closed[mask]
        assert np.max(np.abs(ratios - splib.CLOSED_FORM_COMPARISON_SIGN[l])) < 1e-7


def test_amplitude_surface_overlap_matches_stretched_quadrature():
    # one array call per l, reduced with np.max so that a NaN fails
    p = np.linspace(-4.0, 4.0, 9)
    for l in range(5):
        surf = splib.amplitude_surface_overlap(l, p)
        quad = splib.amplitude_quadrature(l, p)
        assert np.max(np.abs(surf - quad)) < 1e-7, l


def test_amplitude_surface_overlap_array_matches_scalar_calls():
    p = np.linspace(-6.0, 6.0, 25)
    for l in range(9):
        values = splib.amplitude_surface_overlap(l, p)
        assert np.array_equal(values, [splib.amplitude_surface_overlap(l, x) for x in p]), l
    assert splib.amplitude_surface_overlap(2, p[:24].reshape(4, 6)).shape == (4, 6)
    assert type(splib.amplitude_surface_overlap(2, 0.5)) is complex


def test_amplitude_surface_overlap_resolves_large_p():
    # the theta rule's nodes grow with max |p|: 32 per panel was off by
    # 7.3e-5, 0.065 and 0.16 at these p
    p = np.array([100.0, 500.0, 1000.0])
    for l in (0, 3):
        surf = splib.amplitude_surface_overlap(l, p)
        assert np.max(np.abs(surf - splib.amplitude_recurrence(l, p))) <= 1e-9, l


def test_amplitude_surface_overlap_chunks_keep_every_bit(monkeypatch):
    # 80 p up to |p| = 100 make 3 chunks of the 2,080-node theta rule
    p = np.linspace(-100.0, 100.0, 80).reshape(8, 10)
    chunked = {l: splib.amplitude_surface_overlap(l, p) for l in (0, 3)}
    for elements in (10**9, 1):  # one chunk for every p; one p per chunk
        monkeypatch.setattr(splib, "_CHUNK_ELEMENTS", elements)
        for l, values in chunked.items():
            assert np.array_equal(splib.amplitude_surface_overlap(l, p), values), (elements, l)


def test_amplitude_surface_overlap_memory_does_not_grow_with_the_p_count():
    # one (P, N) phase at N = 20,080 theta nodes peaked at 62.6 MB of traced
    # memory for these 64 p; chunks of p keep it to a few MB
    p = np.linspace(900.0, 1000.0, 64)
    tracemalloc.start()
    try:
        splib.amplitude_surface_overlap(1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_amplitude_surface_overlap_rejects_unresolvable_p():
    for p in (np.nan, np.inf, -np.inf, 1e6, 1.5 * splib.MAX_ABS_P, [0.0, np.nan],
              [0.0, -1e6]):
        with pytest.raises(ValueError, match="finite"):
            splib.amplitude_surface_overlap(0, p)


def test_amplitude_truncation_flag():
    with pytest.raises(QuadratureTruncationError):
        splib.amplitude_quadrature(0, 0.0, Q=10.0, tolerance=1e-8)
    # explicit looser tolerance allows a short window
    value = splib.amplitude_quadrature(0, 0.0, Q=12.0, tolerance=1e-4)
    assert abs(value - np.sqrt(np.pi) / 2.0) < 1e-4


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, 0.0, -1e-8])
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(tolerance):
    # A NaN tolerance passed the tail-bound test: 0.4196 came back, though
    # the bound is 0.74 and the recurrence gives 0.3532.  A negative one was
    # reported as a truncation.
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        splib.amplitude_quadrature(0, 1.0, Q=1.0, nodes=32, tolerance=tolerance)


def unfolded_amplitude(l, p, Q, nodes):
    """Reference: the complex exponential of p q at every node of the
    q-rule, with no parity or angle-addition split, 1024 p at a time."""
    p = np.asarray(p, dtype=float)
    q, w = (x.ravel() for x in splib._q_rule(Q, nodes, np.max(np.abs(p)), l))
    kernel = w * flib.associated_legendre(l, 0, np.tanh(q)) / np.cosh(q)
    sums = [np.exp(-1j * p[k:k + 1024, None] * q) @ kernel for k in range(0, p.size, 1024)]
    return np.sqrt((2 * l + 1) / (4.0 * np.pi)) * np.concatenate(sums)


@pytest.mark.parametrize("nodes", [1280, 165, 100])
@pytest.mark.parametrize("Q", [40.0, 12.0, 7.3, 33.3, 5.0])
def test_folded_amplitude_matches_unfolded_formula(Q, nodes):
    # Q = 7.3 and 33.3 give panels equal only to rounding; Q = 5 with 165
    # nodes has a centre node at q = 0.  The second p set grows the rule past
    # 1000 nodes per panel.
    small = np.concatenate([splib.symmetric_grid(8.0, 0.25), [-0.0, 0.1, 29.7, -13.3]])
    large = np.array([61.3, -100.0, 500.0, -999.5, 999.5])
    for p in (small, large):
        for l in range(9):
            amps = splib.amplitude_quadrature(l, p, Q=Q, nodes=nodes, tolerance=1.0)
            assert np.max(np.abs(amps - unfolded_amplitude(l, p, Q, nodes))) <= 1e-14, l


@pytest.mark.parametrize("offset", [None, -1, 0, 1, "3C+7"])
def test_amplitude_chunk_boundaries(offset):
    q, _ = splib._q_rule(40.0, 1280, 6.0, 2)  # the rule of every call below
    chunk = splib._CHUNK_ELEMENTS // (q.shape[0] + q.shape[1])  # rows per chunk
    distinct = {None: 1, -1: chunk - 1, 0: chunk, 1: chunk + 1, "3C+7": 3 * chunk + 7}
    magnitudes = np.linspace(0.0, 6.0, distinct[offset])
    # duplicates, both signs, -0.0 and +0.0, in no particular order
    p = np.concatenate([magnitudes, -magnitudes[::2], magnitudes[:3], [-0.0]])
    p = np.random.default_rng(5).permutation(p)
    for l in (0, 1, 2):
        amps = splib.amplitude_quadrature(l, p)
        assert amps.shape == p.shape
        assert np.max(np.abs(amps - unfolded_amplitude(l, p, 40.0, 1280))) <= 1e-14
        if l % 2:
            assert np.all(amps[p == 0.0] == 0.0)


def test_amplitude_keeps_the_shape_of_p():
    p = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
    amps = splib.amplitude_quadrature(1, p)
    assert amps.shape == (2, 3)
    assert np.array_equal(amps.ravel(), splib.amplitude_quadrature(1, p.ravel()))
    assert splib.amplitude_quadrature(0, np.array([])).shape == (0,)
    assert type(splib.amplitude_quadrature(2, 0.5)) is complex


@pytest.mark.parametrize("l", [1, 3, 5, 7])
def test_odd_amplitude_is_exactly_zero_at_zero(l):
    for p in (0.0, -0.0, np.array([0.0, -0.0])):
        amps = np.atleast_1d(splib.amplitude_quadrature(l, p))
        assert np.all(amps == 0.0)
        assert not np.any(np.signbit(amps.imag))  # no -0.0 either


def test_even_amplitude_is_real_and_odd_is_imaginary():
    p = splib.symmetric_grid(3.0, 0.1)
    for l in range(6):
        amps = splib.amplitude_quadrature(l, p)
        part = amps.real if l % 2 else amps.imag
        assert np.all(part == 0.0)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_quadrature_resolution_follows_p(l):
    # ceil(|p|) + 2 nodes per panel: the 32-node rule was off by up to 0.1 here
    p = np.array([-100.0, -60.0, 40.0, 60.0, 100.0])
    sign = splib.CLOSED_FORM_COMPARISON_SIGN[l]
    quad = splib.amplitude_quadrature(l, p)
    assert np.max(np.abs(quad - sign * splib.amplitude_closed(l, p))) < 1e-14


def test_amplitude_rejects_unresolvable_p():
    for amplitude in (splib.amplitude_quadrature, splib.amplitude_closed):
        for p in (np.nan, np.inf, -np.inf, 1.5 * splib.MAX_ABS_P, [0.0, np.nan]):
            with pytest.raises(ValueError):
                amplitude(0, p)
        assert abs(amplitude(0, splib.MAX_ABS_P)) < 1e-14


def test_symmetric_grid_rejects_bad_spacing():
    for p_max, dp in ((6.0, 0.0), (6.0, -0.05), (6.0, np.nan), (6.0, np.inf),
                      (np.nan, 0.05), (np.inf, 0.05), (-1.0, 0.05)):
        with pytest.raises(ValueError):
            splib.symmetric_grid(p_max, dp)
    assert splib.symmetric_grid(0.0, 0.05).tolist() == [0.0]


def test_symmetric_grid_refuses_an_oversized_grid_before_allocating(monkeypatch):
    def arange(*args, **kwargs):
        raise AssertionError("symmetric_grid allocated an oversized grid")

    monkeypatch.setattr(splib.np, "arange", arange)
    cap = splib.MAX_DISTRIBUTION_SAMPLES
    with pytest.raises(ValueError, match=rf"2e\+15 samples, more than the {cap} allowed"):
        splib.symmetric_grid(1000.0, 1e-12)
    for p_max, dp in ((1e308, 0.05), (1e308, 1.0), (10.0, 1e-320)):
        with pytest.raises(ValueError, match="sample count 2 p_max / dp \\+ 1 overflows"):
            splib.symmetric_grid(p_max, dp)


def test_symmetric_grid_takes_up_to_the_sample_cap():
    half = (splib.MAX_DISTRIBUTION_SAMPLES - 1) // 2
    assert splib.symmetric_grid(half * 0.5, 0.5).size == 2 * half + 1
    with pytest.raises(ValueError, match=f"have {2 * half + 3} samples"):
        splib.symmetric_grid((half + 1) * 0.5, 0.5)


def test_density_parity_exact():
    grid = splib.symmetric_grid(6.0, 0.05)
    for l in range(9):
        dens = np.abs(splib.amplitude_quadrature(l, grid)) ** 2
        assert np.max(np.abs(dens - dens[::-1])) == 0.0


# ---------------------------------------------------------------------------
# The closed-form recurrence
# ---------------------------------------------------------------------------


def mp_recurrence(l, p):
    """phi_l(p) by the same recurrence at 50 digits, sech from mpmath."""
    p = mpmath.mpf(p)
    g_prev, g = mpmath.mpf(0), mpmath.pi * mpmath.sech(mpmath.pi * p / 2)
    for k in range(l):
        g_prev, g = g, ((2 * k + 1) * p * g - k * k * g_prev) / (k + 1) ** 2
    value = complex(mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi)) * g)
    return value * (-1j) ** l


def mp_overlap_integral(l, p):
    """phi_l(p) from its defining q-integral at 30 digits (no recurrence)."""
    p = mpmath.mpf(p)
    wave = mpmath.sin if l % 2 else mpmath.cos
    integrand = lambda q: mpmath.legendre(l, mpmath.tanh(q)) * mpmath.sech(q) * wave(p * q)
    with mpmath.workdps(30):
        half = mpmath.quad(integrand, mpmath.linspace(0, 80, 81))
        value = complex(2 * mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi)) * half)
    return -1j * value if l % 2 else value


@pytest.mark.parametrize("l", [0, 2, 8, 24, 40, 64])
def test_recurrence_matches_a_50_digit_oracle(l):
    p = np.concatenate([np.linspace(-30.0, 30.0, 121), np.linspace(-1000.0, 1000.0, 41),
                        [-0.0, 1e-3, 0.4375, 450.25, splib.MAX_ABS_P]])
    amps = splib.amplitude_recurrence(l, p)
    with mpmath.workdps(50):
        oracle = np.array([mp_recurrence(l, x) for x in p])
    assert np.max(np.abs(amps - oracle)) <= 2e-15


@pytest.mark.parametrize("l, p", [(3, -2.5), (8, 1.3), (24, 5.0)])
def test_recurrence_matches_the_overlap_integral(l, p):
    assert abs(splib.amplitude_recurrence(l, p) - mp_overlap_integral(l, p)) <= 2e-15


def test_recurrence_matches_the_quadrature_for_every_l():
    # the l-aware q-rule; at l = 8, 24, 64 the |p|-only rule was off by
    # 2.6e-11, 2.2e-5 and 0.23
    p = splib.symmetric_grid(30.0, 0.1)
    for l in range(splib.LEGENDRE_MAX_ORDER + 1):
        quad = splib.amplitude_quadrature(l, p)
        assert np.max(np.abs(splib.amplitude_recurrence(l, p) - quad)) <= 1e-13, l


def test_recurrence_is_the_signed_closed_table_for_low_l():
    p = np.concatenate([splib.symmetric_grid(30.0, 0.01), [-0.0]])
    for l in (0, 1, 2):
        expected = splib.CLOSED_FORM_COMPARISON_SIGN[l] * splib.amplitude_closed(l, p)
        assert np.max(np.abs(splib.amplitude_recurrence(l, p) - expected)) <= 4e-16


def test_recurrence_amplitudes_are_orthonormal():
    p, w = panel_rule(-60.0, 60.0, nodes=64)
    amps = np.array([splib.amplitude_recurrence(l, p) for l in range(17)])
    gram = (amps * w) @ amps.conj().T
    assert np.max(np.abs(gram - np.eye(17))) <= 1e-10


@pytest.mark.filterwarnings("error")
def test_recurrence_does_not_overflow_at_the_largest_p():
    p = np.array([-splib.MAX_ABS_P, -451.0, 451.0, splib.MAX_ABS_P])
    for l in range(splib.LEGENDRE_MAX_ORDER + 1):
        amps = splib.amplitude_recurrence(l, p)
        assert np.all(np.abs(amps) < 1e-200), l


def test_recurrence_shapes_parity_and_refusals():
    p = splib.symmetric_grid(5.0, 0.25)
    for l in range(9):
        amps = splib.amplitude_recurrence(l, p)
        assert np.all((amps.real if l % 2 else amps.imag) == 0.0)
        assert np.array_equal(np.abs(amps), np.abs(amps[::-1]))
        assert not np.any(np.signbit(amps.real) & (amps.real == 0.0))
        assert not np.any(np.signbit(amps.imag) & (amps.imag == 0.0))
    assert type(splib.amplitude_recurrence(3, 0.5)) is complex
    assert splib.amplitude_recurrence(1, p[:39].reshape(13, 3)).shape == (13, 3)
    for l, bad in ((0, np.nan), (0, 1.5 * splib.MAX_ABS_P), (-1, 0.0),
                   (splib.LEGENDRE_MAX_ORDER + 1, 0.0)):
        with pytest.raises(ValueError):
            splib.amplitude_recurrence(l, bad)
    # the quadrature checks l before it builds an l-sized rule
    with pytest.raises(ValueError):
        splib.amplitude_quadrature(10**9, 0.0)


# ---------------------------------------------------------------------------
# An l sequence: one leading l axis, each row the one-l call bit for bit
# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# unsorted and repeated l, across the quadrature's rule groups (l <= 2,
# then (l + 1) // 2 more nodes per panel) and up to the top order
L_SEQUENCES = [list(range(9)), [8, 3, 0, 3, 1, 8, 2], [64, 0, 17, 64, 5, 40, 63, 2]]
P_SETS = {
    "scalar": 0.7,
    "negative-scalar": -2.5,
    "zero": 0.0,
    "grid": splib.symmetric_grid(6.0, 0.05),
    "2-D": np.array([[-3.0, -0.0, 0.0], [1.25, 30.0, -29.5]]),
}
L_FAMILIES = {
    "amplitude_recurrence": splib.amplitude_recurrence,
    "amplitude_quadrature": splib.amplitude_quadrature,
    "amplitude_surface_overlap": splib.amplitude_surface_overlap,
}


@pytest.mark.parametrize("family", sorted(L_FAMILIES))
@pytest.mark.parametrize("p", sorted(P_SETS))
@pytest.mark.parametrize("orders", L_SEQUENCES, ids=["0..8", "unsorted", "to-64"])
def test_an_l_sequence_gives_the_one_l_rows(family, p, orders):
    entry, p = L_FAMILIES[family], P_SETS[p]
    rows = entry(orders, p)
    assert isinstance(rows, np.ndarray) and rows.shape == (len(orders),) + np.shape(p)
    for l, row in zip(orders, rows):
        one = entry(l, p)
        assert type(one) is (complex if np.ndim(p) == 0 else np.ndarray)
        assert same_bits(row, one), (l, row, one)


def test_an_l_sequence_gives_the_one_l_rows_of_the_chunked_overlap(monkeypatch):
    # 80 p up to |p| = 100 make 3 chunks of the 2,080-node theta rule
    p = np.linspace(-100.0, 100.0, 80).reshape(8, 10)
    orders = (5, 0, 12, 5)
    singles = {l: splib.amplitude_surface_overlap(l, p) for l in set(orders)}
    for elements in (splib._CHUNK_ELEMENTS, 10**9, 1):
        monkeypatch.setattr(splib, "_CHUNK_ELEMENTS", elements)
        rows = splib.amplitude_surface_overlap(orders, p)
        assert all(same_bits(row, singles[l]) for l, row in zip(orders, rows)), elements


def test_an_l_sequence_gives_the_one_l_rows_of_the_chunked_quadrature(monkeypatch):
    # several chunks per rule; the one-l calls take the same chunks, since
    # a chunk's matmul shapes may change the rounding of its sums
    monkeypatch.setattr(splib, "_CHUNK_ELEMENTS", 500)
    p = np.random.default_rng(7).uniform(-40.0, 40.0, 3001)
    orders = [2, 9, 0, 9, 33]
    singles = {l: splib.amplitude_quadrature(l, p) for l in set(orders)}
    rows = splib.amplitude_quadrature(orders, p)
    assert all(same_bits(row, singles[l]) for l, row in zip(orders, rows))


@pytest.mark.parametrize("max_order", [0, 2, 4])
@pytest.mark.parametrize("orders", L_SEQUENCES, ids=["0..8", "unsorted", "to-64"])
def test_an_l_sequence_gives_the_one_l_moments(orders, max_order):
    rows = splib.moments(orders, max_order)
    assert isinstance(rows, np.ndarray) and rows.shape == (len(orders), max_order + 1)
    for l, row in zip(orders, rows):
        one = splib.moments(l, max_order)
        assert type(one) is list and all(type(x) is float for x in one)
        assert same_bits(row, one), l


def test_an_empty_l_sequence_gives_an_empty_l_axis():
    p = np.linspace(-1.0, 1.0, 5)
    for entry in L_FAMILIES.values():
        assert entry([], p).shape == (0, 5)
    assert splib.moments([], 2).shape == (0, 3)


@pytest.mark.parametrize("entry", sorted(L_FAMILIES) + ["moments"])
def test_an_l_of_more_than_one_axis_is_refused(entry):
    call = getattr(splib, entry)
    with pytest.raises(ValueError, match="l must be an int or a 1-D sequence of ints"):
        call([[0, 1]], *(() if entry == "moments" else (0.3,)))


def test_the_quadrature_builds_each_rule_shape_once(monkeypatch):
    # l = 0..8 on the parity grid need 4 rules: l <= 2, then 2, 3 and 4 more
    # nodes per panel for l in {3, 4}, {5, 6} and {7, 8}
    built = []
    panel = splib.panel_rule

    def counting(lo, hi, nodes):
        built.append(nodes)
        return panel(lo, hi, nodes=nodes)

    monkeypatch.setattr(splib, "panel_rule", counting)
    splib.amplitude_quadrature(range(9), splib.symmetric_grid(6.0, 0.05))
    assert built == [32, 34, 35, 36]


# ---------------------------------------------------------------------------
# Parseval, moments, uncertainty
# ---------------------------------------------------------------------------


def test_parseval_low_l_tight():
    # analytic check for l = 0: integral of (pi/4) sech^2(pi p/2) is 1; the
    # Parseval sum is the zeroth moment
    assert abs(splib.moments(0, 0)[0] - 1.0) < 1e-6
    assert abs(splib.moments(1, 0)[0] - 1.0) < 1e-6


@pytest.mark.parametrize("l", list(range(9)))
def test_parseval_all_l(l):
    assert abs(splib.moments(l, 0)[0] - 1.0) < 1e-5


@pytest.mark.parametrize("l", range(splib.LEGENDRE_MAX_ORDER + 1))
def test_parseval_holds_at_every_l(l):
    # a fixed |p| <= 16 window was 0.10 off at l = 16 and 0.84 at l = 64
    assert abs(splib.moments(l, 0)[0] - 1.0) <= 1e-13


def test_the_moment_window_keeps_the_low_l_bits():
    # l <= 3 keep the |p| <= 16 window of 40-node width-2 panels, bit for bit
    p, w = panel_rule(-16.0, 16.0, nodes=40)
    for l in range(4):
        assert splib._moment_window(l) == 16
        density = np.abs(splib.amplitude_recurrence(l, p)) ** 2
        fixed = [float(np.sum(w * p**k * density)) for k in range(3)]
        assert same_bits(splib.moments(l, 2), fixed), l
    windows = [splib._moment_window(l) for l in range(splib.LEGENDRE_MAX_ORDER + 1)]
    assert all(w % 2 == 0 for w in windows) and windows == sorted(windows)
    assert windows[8] == 28 and windows[-1] == 96


def test_moments_ground_state():
    mom = splib.moments(0, max_order=2)
    assert abs(mom[0] - 1.0) < 1e-6  # zeroth moment is the Parseval sum
    assert abs(mom[1]) < 1e-12  # odd moment vanishes by parity
    assert abs(mom[2] - 1.0 / 3.0) < 1e-8  # zero-point fluctuation 1/3


def test_uncertainty_report_ground_state():
    rep = splib.uncertainty_report(0, 0)
    # <z^2> over the uniform sphere density is 1/3
    assert abs(rep.position_variance("z") - 1.0 / 3.0) < 1e-10
    assert abs(rep.momentum_variance - 1.0 / 3.0) < 1e-8
    assert set(rep.products) == {"x", "y", "z"}
    for product in rep.products.values():
        assert abs(product - 1.0 / 3.0) < 1e-8
    assert rep.momentum_variance >= 0.0


def test_uncertainty_report_y10():
    rep = splib.uncertainty_report(1, 0)
    # oracle: <z^2> = Int cos^2 |Y10|^2 dOmega = 3/5, <z> = 0
    assert abs(rep.position_variance("z") - 0.6) < 1e-10
    assert abs(rep.position_mean[2]) < 1e-12
    assert set(rep.products) == {"z"}
    assert rep.products["z"] > 0.0


def test_uncertainty_report_range():
    with pytest.raises(ValueError):
        splib.uncertainty_report(9, 0)
    # the momentum moments are those of Y_l0, so m != 0 would mix moments
    for m in (1, -1):
        with pytest.raises(ValueError, match="m = 0 only"):
            splib.uncertainty_report(1, m)


# ---------------------------------------------------------------------------
# distribution amplitudes and oscillator comparison
# ---------------------------------------------------------------------------


def test_distribution_amplitudes_riemann_sum_near_one():
    grid = splib.symmetric_grid(12.0, 0.05)
    amps = splib.amplitude_recurrence(0, grid)
    total = float(np.sum(np.abs(amps) ** 2)) * 0.05
    assert abs(total - 1.0) < 1e-3
    assert grid.size == amps.size == 481


def test_sho_comparison_values():
    comp = splib.sho_comparison(splib.symmetric_grid(4.0, 0.01))
    mid = comp.p.size // 2
    assert comp.p[mid] == 0.0
    assert abs(comp.density[mid] - np.pi / 4.0) < 1e-14
    assert abs(comp.gaussian_reference[mid] - 1.0 / np.sqrt(np.pi)) < 1e-14
    # parity of every column
    for column in (comp.density, comp.gaussian_reference, comp.density_unit_peak):
        assert np.max(np.abs(column - column[::-1])) == 0.0
    # decay in the tails
    assert comp.density[0] < 1e-4 and comp.gaussian_reference[0] < 1e-6


def test_sho_comparison_csv_prints_plain_floats():
    # every cell a plain float as the CLI prints it, never a numpy scalar repr
    from surfquant.cli import _fmt

    comp = splib.sho_comparison(np.linspace(-1, 1, 3))
    header, *lines = comp.to_csv().splitlines()
    assert header == splib.ShoComparison.CSV_HEADER and len(lines) == 3
    columns = (comp.p, comp.density, comp.gaussian_reference, comp.density_unit_peak,
               comp.gaussian_reference_unit_peak, comp.gaussian_matched_unit_peak)
    for k, line in enumerate(lines):
        cells = line.split(",")
        assert [float(c) for c in cells] == [col[k] for col in columns]
        assert cells == [_fmt(col[k]) for col in columns]


def test_sho_comparison_shape_match():
    comp = splib.sho_comparison(splib.symmetric_grid(4.0, 0.01))
    # the shape-matched oscillator is the "almost identical" pair ...
    assert comp.max_diff_shape_matched < 0.05
    # ... its value is stable (frozen from a dense-grid evaluation)
    assert abs(comp.max_diff_shape_matched - 0.04630) < 2e-4
    # while the unit-frequency reference differs visibly in both forms
    assert comp.max_diff_raw > 0.2
    assert comp.max_diff_unit_peak > 0.2
