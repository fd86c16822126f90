"""Seeded faults: a verify identity must fail when what it checks is broken.

Each test monkeypatches one fault into the code behind an identity, runs
`run_verification` on that identity alone and asserts that the checks
the fault reaches fail.  Together they are the table of faults against the identities that
catch them:

| identity                       | seeded fault                                      |
| ------------------------------ | ------------------------------------------------- |
| `dirichlet_kernel`             | `overlap_kernel` returns NaN                      |
| `amplitude_surface_match`      | `amplitude_surface_overlap` NaN at p = 0          |
| `eigenvalue_residual`          | `SPHERE_MOMENTUM` loses its M n term              |
| `hermiticity`                  | the same                                          |
| `confined_sum`                 | `thin_shell` drops its normal-geometric part      |
| `sphere_component_match`       | the general-chart p loses its M n term            |
| `rotation_relation`            | `rotation_matrix` turns the other way             |
| `rotation_relation`            | `Y_22` in its stack times e^{i phi / 2}           |
| `hermiticity`                  | `Y_10`'s gradient in its pool times 1.5           |
| `angular_momentum`             | `SPHERE_ANGULAR` loses d_theta of its d_phi coefficient |
| `parseval`                     | `amplitude_recurrence` times sqrt((2l+1)/4pi)     |
| `moment_second`                | the same                                          |
| `uncertainty_product`          | the same                                          |
| `position_kinetic`             | `laplace_beltrami_jets` doubled                   |
| `laplace_beltrami_coordinates` | `laplace_beltrami_jets` without its Christoffel term |
| `position_kinetic`             | the same                                          |
| `amplitude_closed_*`           | two l rows of the quadrature batch swapped        |
| `amplitude_surface_match`      | the same                                          |
| `parseval`                     | the fixed |p| <= 16 window, at l <= 64            |
| `density_parity`               | a p grid symmetric only to rounding               |
| `frame_completeness`           | frames raise with no g^-1 (raised = tangents)     |
| `position_momentum`            | the same                                          |
| `shell_determinant`            | frames with the Weingarten map's sign flipped     |
| `geometric_potential`          | frames with K's sign flipped                      |
| `confinement_slope`            | frames with M doubled                             |
| `sho_shape_match`              | `MATCHED_GAUSSIAN_RATE` times 1.5                 |

Each sphere operator fault is one monkeypatch on the operator object, and
every path to its coefficients reads them through it: the operator's
images (and so `rotation_relation_check`, once for its whole stack of
fields), the library suite, `angular_momentum_residuals` and
`hermiticity_defects` (once for its whole pool).

The rotation and hermiticity suites evaluate their fields on one stacked
field axis and read each field's result back by its place, so a fault in
one field of a stack must fail that field's entry and no other.  A field
fault that rotation_relation can see is one that is not single-valued on
the sphere: the direct p_x f reads f at phi in [0, 2 pi), the pullback at
phi in (-pi, pi].  Scaling a field's gradient cannot fail it, since both
constructions are the same linear map of f and its gradient at each point.

No frame fault reaches the plane's exact zeros: its metric is the identity
and its curvatures are 0, so raising with the tangents, a flipped Weingarten
map and a flipped K change nothing there, and its entries of the faulted
identities pass.  Nor does dropping the Christoffel term of the Laplacian
reach the plane or the cylinder, whose second partials are normal to the
surface, so that every Gamma^l_{mu nu} = r^l . r_{mu nu} there is 0.  Nor
does a frame fault on a cylinder of radius 1 reach `frame_completeness` or
`position_momentum`, whose metric is the identity too.

No fault in the amplitudes themselves can fail `density_parity`: the
quadrature sums a cos transform (even l) or a sin transform (odd l) of its
kernel, even or odd in p whatever the kernel is, and mirrors each |p|, so
|phi_l(-p)|^2 == |phi_l(p)|^2 holds exactly by construction.  What it
does catch is a p grid whose -p is not the negative of its p.

Dropping M n from p is invisible to `angular_momentum` and
`rotation_relation` (their residuals stay at 6.7e-15 and 1.2e-15 with that
fault): -i hbar r^mu d_mu is still a vector operator, so [L_i, p_j] =
i hbar eps_ijk p_k and the rotation construction of p_x and p_y from p_z
both still hold.  Those two identities have faults of their own.  Nor
does shifting the amplitudes from l to l + 1 make a `parseval` fault:
every l has norm 1.
"""

import dataclasses

import numpy as np

from surfquant import fields as flib
from surfquant import geometry as geolib
from surfquant import operators as oplib
from surfquant import spectra as splib
from surfquant.verification import VerifyOptions, run_verification


def checks_of(name, count):
    report = run_verification(VerifyOptions(only=(name,)))
    assert [c.identity_name for c in report.checks] == [name] * count
    return report.checks


def assert_every_check_fails(name, count):
    for check in checks_of(name, count):
        assert not check.passed and np.isnan(check.residual), check


def without_normal_term(jet):
    """A coefficient jet of p / (-i hbar) without its scalar term -n, so that
    the operator is r^mu d_mu alone, without M n."""

    def faulty(theta, phi, order):
        c = [d.copy() for d in jet(theta, phi, order)]
        c[0][2] = 0.0
        if order:
            c[1][:, 2] = 0.0
        return c

    return faulty


def with_frame_fault(monkeypatch, change):
    """Every frame geometry builds, the thin shell's included, with the
    entries change(frame) gives; dM and dK stay healthy."""
    healthy = geolib._frame

    def faulty(*args):
        frame, *gradients = healthy(*args)
        return (dataclasses.replace(frame, **change(frame)), *gradients)

    monkeypatch.setattr(geolib, "_frame", faulty)
    monkeypatch.setattr(oplib, "_frame", faulty)


def with_field_fault(monkeypatch, lm, fault):
    """spherical_harmonic(*lm) becomes the field fault(itself), under its own
    label; every other harmonic stays healthy."""
    healthy = flib.spherical_harmonic

    def faulty(l, m):
        f = healthy(l, m)
        return flib.ScalarField(f.label, fault(f).partials, f.order) if (l, m) == lm else f

    monkeypatch.setattr(flib, "spherical_harmonic", faulty)


def failing_charts(checks):
    return [c.chart for c in checks if not c.passed]


def test_dirichlet_kernel_fails_on_a_nan_overlap(monkeypatch):
    healthy = splib.overlap_kernel

    def faulty(p_prime, p, theta_min):
        return np.nan * healthy(p_prime, p, theta_min)

    monkeypatch.setattr(splib, "overlap_kernel", faulty)
    assert_every_check_fails("dirichlet_kernel", 3)  # one per theta_min


def test_amplitude_surface_match_fails_on_one_nan_amplitude(monkeypatch):
    # NaN at p = 0 only, in the middle of the p grid: a running Python
    # max() that already holds a finite residual keeps it and hides the NaN
    healthy = splib.amplitude_surface_overlap

    def faulty(l, p, **rule):
        return np.where(np.asarray(p) == 0.0, np.nan, healthy(l, p, **rule))

    monkeypatch.setattr(splib, "amplitude_surface_overlap", faulty)
    assert_every_check_fails("amplitude_surface_match", 5)  # l = 0..4


def test_eigenvalue_residual_fails_without_the_normal_term(monkeypatch):
    p = oplib.SPHERE_MOMENTUM
    monkeypatch.setattr(p, "jet", without_normal_term(p.jet))
    (check,) = checks_of("eigenvalue_residual", 1)
    assert not check.passed and check.residual > 1.0, check  # 5.3


def test_hermiticity_fails_without_the_normal_term(monkeypatch):
    p = oplib.SPHERE_MOMENTUM
    monkeypatch.setattr(p, "jet", without_normal_term(p.jet))
    for check in checks_of("hermiticity", 3):  # one per axis
        assert not check.passed and check.residual > 0.5, check  # 0.82 to 1.15


def test_confined_sum_fails_without_the_normal_geometric_part(monkeypatch):
    healthy = oplib.thin_shell

    def faulty(*args):
        parts, direct, deviation = healthy(*args)
        dropped = dataclasses.replace(parts, normal_geometric=0.0 * parts.normal_geometric)
        return dropped, direct, deviation

    monkeypatch.setattr(oplib, "thin_shell", faulty)
    checks = checks_of("confined_sum", 3)
    assert [c.chart for c in checks] == ["sphere", "torus", "plane"]
    assert not checks[0].passed and not checks[1].passed
    # the part is n (M - K q3) ..., zero on the plane, where M = K = 0
    assert checks[2].passed


def test_sphere_component_match_fails_without_the_general_normal_term(monkeypatch):
    # the closed form keeps -n; the general path's r^mu d_mu + M n loses M n
    healthy = oplib._momentum

    def faulty(frame, value, grad):
        flat = dataclasses.replace(frame, mean_curvature=0.0 * frame.mean_curvature)
        return healthy(flat, value, grad)

    monkeypatch.setattr(oplib, "_momentum", faulty)
    for check in checks_of("sphere_component_match", 19):  # every library field
        assert not check.passed and check.residual > 0.1, check  # 0.27 to 2.8


def test_rotation_relation_fails_when_the_rotations_turn_the_other_way(monkeypatch):
    healthy = oplib.rotation_matrix
    monkeypatch.setattr(oplib, "rotation_matrix", lambda axis, angle: healthy(axis, -angle))
    for check in checks_of("rotation_relation", 3):
        assert not check.passed and check.residual > 0.5, check  # up to 2.0


def test_rotation_relation_fails_only_for_a_multivalued_field_in_its_stack(monkeypatch):
    # Y_22 times e^{i phi / 2}, which changes sign across phi = pi
    half_phase = flib.map_field(lambda theta, phi: np.exp(0.5j * phi), "half phase")
    with_field_fault(monkeypatch, (2, 2), lambda f: flib.product(f, half_phase))
    checks = checks_of("rotation_relation", 3)
    assert [(c.field, c.passed) for c in checks] == [
        ("const(1)", True), ("Y1+0", True), ("Y2+2", False)]
    assert checks[2].residual > 1.0  # 1.93


def test_hermiticity_fails_only_for_the_pairs_of_a_faulted_pool_field(monkeypatch):
    # Y_10's gradient times 1.5 changes p_z Y_10's mix of Y_00 and Y_20,
    # both in the pool, while p_x Y_10 and p_y Y_10 only scale and stay in
    # l = 2, |m| = 1, where the pool has no field
    def scaled_gradient(f):
        def partials(q1, q2, order):
            return [d * (1.5 if n == 1 else 1.0) for n, d in enumerate(f.partials(q1, q2, order))]
        return flib.ScalarField(f.label, partials, f.order)

    with_field_fault(monkeypatch, (1, 0), scaled_gradient)
    checks = checks_of("hermiticity", 3)
    assert [c.passed for c in checks] == [True, True, False]
    assert "Y1+0" in checks[2].field.split(":")[1].split(","), checks[2]
    assert checks[2].residual > 0.5  # 0.58
    pool = [flib.spherical_harmonic(l, m) for l, m in ((0, 0), (1, 0), (1, 1), (2, 0))]
    failing = np.abs(oplib.hermiticity_defects(pool)[2]) > 1e-10
    assert failing.any() and not np.delete(np.delete(failing, 1, 0), 1, 1).any()


def test_angular_momentum_fails_without_a_coefficient_partial(monkeypatch):
    # d_theta of L's d_phi coefficient, zeroed: the nested images L (p f)
    # and p (L f) lose a term wherever f depends on phi
    L, p = oplib.SPHERE_ANGULAR, oplib.SPHERE_MOMENTUM
    healthy = L.jet

    def faulty(theta, phi, order):
        c = healthy(theta, phi, order)
        if order:
            c[1] = c[1].copy()
            c[1][0, 1] = 0.0
        return c

    monkeypatch.setattr(L, "jet", faulty)
    checks = checks_of("angular_momentum", 19)
    axial = {"Y0+0", "Y1+0", "Y2+0", "Y3+0"}  # m = 0: d_phi f = 0
    assert {c.field for c in checks if c.passed} == axial
    assert max(c.residual for c in checks) > 10.0  # 21
    # the same identity built from the nested operator objects fails too
    f, theta, phi = flib.spherical_harmonic(2, 1), 1.0, 0.5
    l_p_f = L.value(p.apply(f), theta, phi)  # [i, j]
    p_l_f = p.value(L.apply(f), theta, phi)  # [j, i]
    eps_p_f = np.einsum("ijk,k->ij", oplib._EPSILON, p.value(f, theta, phi))
    residual = np.abs(l_p_f - p_l_f.T - 1j * eps_p_f).max()
    assert residual > 0.1, residual  # 0.37


def test_the_momentum_moments_fail_on_an_unnormalised_amplitude(monkeypatch):
    # phi_l times sqrt((2l+1)/4 pi), the Y_l0 normalisation applied twice
    healthy = splib.amplitude_recurrence

    def faulty(l, p):  # l an int or a sequence: one factor per row of the l axis
        norm = np.sqrt((2 * np.asarray(l) + 1) / (4.0 * np.pi))
        return np.reshape(norm, np.shape(l) + np.ndim(p) * (1,)) * healthy(l, p)

    monkeypatch.setattr(splib, "amplitude_recurrence", faulty)
    for check in checks_of("parseval", 9):  # l = 0..8
        assert not check.passed and check.residual > 0.03, check  # 0.0345 to 0.92
    (check,) = checks_of("moment_second", 1)
    assert not check.passed and check.residual > 0.3, check  # 0.307
    (check,) = checks_of("uncertainty_product", 1)
    assert not check.passed and check.residual > 0.2, check  # 0.239


def test_position_kinetic_fails_on_a_doubled_laplacian(monkeypatch):
    # T = -Lap / 2 twice over; only Y_00 on the plane, where p f and both
    # Laplacians vanish, still passes
    healthy = oplib.laplace_beltrami_jets
    monkeypatch.setattr(oplib, "laplace_beltrami_jets",
                        lambda frame, grad, hess: 2.0 * healthy(frame, grad, hess))
    checks = checks_of("position_kinetic", 76)  # 19 library fields on 4 charts
    assert [(c.chart, c.field) for c in checks if c.passed] == [("plane", "Y0+0")]
    assert min(c.residual for c in checks if not c.passed) > 0.1  # 0.141


def test_the_amplitude_checks_fail_when_two_l_rows_swap(monkeypatch):
    # the suite reads each l's row of one quadrature batch by its place
    healthy = splib.amplitude_quadrature

    def faulty(l, p, **rule):
        rows = healthy(l, p, **rule)
        return rows[[0, 2, 1, *range(3, len(rows))]]

    monkeypatch.setattr(splib, "amplitude_quadrature", faulty)
    for name in ("amplitude_closed_density", "amplitude_closed_signed"):
        checks = checks_of(name, 3)  # l = 0, 1, 2
        assert [c.passed for c in checks] == [True, False, False], name
        assert min(c.residual for c in checks[1:]) > 0.3, name  # 0.40 and 0.73
    checks = checks_of("amplitude_surface_match", 5)  # l = 0..4
    assert [c.passed for c in checks] == [True, False, False, True, True]
    assert min(c.residual for c in checks[1:3]) > 0.5  # 0.73


def test_parseval_fails_at_high_l_on_the_fixed_window(monkeypatch):
    # |p| <= 16 for every l, the window moments had before it grew with l
    monkeypatch.setattr(splib, "_moment_window", lambda l: 16)
    options = VerifyOptions(only=("parseval",), parseval_lmax=64)
    checks = run_verification(options).checks
    assert [c.field for c in checks if not c.passed] == [f"l={l}" for l in range(10, 65)]
    assert max(c.residual for c in checks) > 0.8  # 0.84 at l = 64


def test_density_parity_fails_on_a_grid_symmetric_only_to_rounding(monkeypatch):
    # linspace's -p and p differ in the last bit at 158 of the 241 samples
    def rounded(p_max, dp):
        half = int(round(p_max / dp))
        return np.linspace(-p_max, p_max, 2 * half + 1)

    monkeypatch.setattr(splib, "symmetric_grid", rounded)
    for check in checks_of("density_parity", 9):  # l = 0..8
        assert not check.passed and check.residual > 0.0, check


def test_frame_completeness_fails_without_the_inverse_metric(monkeypatch):
    with_frame_fault(monkeypatch, lambda frame: {"raised": frame.tangents})
    checks = checks_of("frame_completeness", 4)
    assert failing_charts(checks) == ["sphere", "torus"]
    assert min(c.residual for c in checks if not c.passed) > 0.5  # 0.89


def test_position_momentum_fails_without_the_inverse_metric(monkeypatch):
    with_frame_fault(monkeypatch, lambda frame: {"raised": frame.tangents})
    checks = checks_of("position_momentum", 76)  # 19 library fields on 4 charts
    assert failing_charts(checks) == ["sphere"] * 19 + ["torus"] * 19
    assert min(c.residual for c in checks if not c.passed) > 0.05  # 0.068


def test_laplace_beltrami_coordinates_fails_without_the_christoffel_term(monkeypatch):
    # g^{mu nu} d_mu d_nu f alone: the connection term c_l d_l f, with
    # c_l = r^l . (g^{mu nu} r_{mu nu}), is 0 when the raised tangents are
    healthy = geolib.laplace_beltrami_jets

    def faulty(frame, grad, hess):
        return healthy(dataclasses.replace(frame, raised=0.0 * frame.raised), grad, hess)

    monkeypatch.setattr(geolib, "laplace_beltrami_jets", faulty)
    monkeypatch.setattr(oplib, "laplace_beltrami_jets", faulty)
    checks = checks_of("laplace_beltrami_coordinates", 4)
    assert failing_charts(checks) == ["sphere", "torus"]
    assert min(c.residual for c in checks if not c.passed) > 0.4  # 3.2 and 0.47
    checks = checks_of("position_kinetic", 76)  # 19 library fields on 4 charts
    assert failing_charts(checks) == ["sphere"] * 19 + ["torus"] * 19
    assert min(c.residual for c in checks if not c.passed) > 0.05  # 0.066


def test_shell_determinant_fails_on_a_flipped_weingarten_map(monkeypatch):
    with_frame_fault(monkeypatch, lambda frame: {"weingarten": -frame.weingarten})
    checks = checks_of("shell_determinant", 4)
    assert failing_charts(checks) == ["sphere", "cylinder", "torus"]
    assert min(c.residual for c in checks if not c.passed) > 0.5  # 0.80


def test_geometric_potential_fails_on_a_flipped_gaussian_curvature(monkeypatch):
    # the cylinder's K is 0, so only the sphere's check sees the sign
    with_frame_fault(monkeypatch, lambda frame: {"gaussian_curvature": -frame.gaussian_curvature})
    checks = checks_of("geometric_potential", 2)
    assert failing_charts(checks) == ["sphere"]
    assert checks[0].residual > 0.5  # 1.0


def test_confinement_slope_fails_on_a_doubled_mean_curvature(monkeypatch):
    # the limit operator and the shell's normal part both read the doubled
    # M, but the fold factor's dM and dK do not; 1.05 times the tolerance
    with_frame_fault(monkeypatch, lambda frame: {"mean_curvature": 2.0 * frame.mean_curvature})
    (check,) = checks_of("confinement_slope", 1)
    assert not check.passed, check  # 0.0524 against 0.05


def test_sho_shape_match_fails_on_a_mismatched_gaussian(monkeypatch):
    monkeypatch.setattr(splib, "MATCHED_GAUSSIAN_RATE", 1.5 * splib.MATCHED_GAUSSIAN_RATE)
    (check,) = checks_of("sho_shape_match", 1)
    assert not check.passed and check.residual > 0.1, check  # 0.122 against 0.05
