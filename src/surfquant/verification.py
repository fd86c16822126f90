"""Named identity suites with tolerances, aggregated into a report.

Each suite evaluates one operator identity (or spectral property) over its
test matrix and emits CheckResult entries: worst residual per (chart,
field) with the offending point, the tolerance it was judged against and
the pass flag.  The CLI `verify` command serializes the entries as JSON;
the acceptance tests run the same suites at the tolerances fixed here.

Aggregation is deterministic: matrices are walked in a fixed order and
reduced with max, so reports are byte-stable across runs.  Each chart is
evaluated in one call over all its points (point axis last, as in the rest
of the package); the library identities stack the field library's jets on
a field axis before the point axis, so each of their residuals runs once
per chart (and block of fields), and each block's (field, point) residuals
are reduced with one first-occurrence argmax over the point axis.  The
rotation relation runs once on its three fields stacked the same way, and
the hermiticity pool is met by each p image in one contraction.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import charts as chlib
from . import fields as flib
from . import geometry as geolib
from . import operators as oplib
from . import spectra as splib

# Default tolerances: 1e-10 for identities evaluated through analytic
# derivatives, 1e-9 where second derivatives enter, 1e-8 for quadrature
# comparisons, 1e-5 for Parseval at high l.
TOLERANCES = {
    "frame_completeness": 1e-12,
    "laplace_beltrami_coordinates": 1e-10,
    "geometric_potential": 1e-12,
    "shell_determinant": 1e-12,
    "position_momentum": 1e-10,
    "position_kinetic": 1e-9,
    "angular_momentum": 1e-10,
    "sphere_component_match": 1e-12,
    "rotation_relation": 1e-10,
    "hermiticity": 1e-10,
    "confined_sum": 1e-10,
    "confinement_slope": 0.05,
    "eigenvalue_residual": 1e-10,
    "dirichlet_kernel": 1e-8,
    "amplitude_closed_density": 1e-8,
    "amplitude_closed_signed": 1e-8,
    "amplitude_surface_match": 1e-7,
    "density_parity": 0.0,
    "parseval": 1e-5,
    "moment_second": 1e-8,
    "uncertainty_product": 1e-8,
    "sho_shape_match": 0.05,
}

IDENTITY_NAMES = tuple(TOLERANCES)

# verify holds about 2.4 kB per point of the one chart it evaluates at a
# time (61 MB at 10^4 points, 134 MB at 4 x 10^4, default library), so this
# many points per chart keep it near 1 GB.  That still holds with the
# library identities' stacked fields: a block holds at most _STACK_POINTS
# field-points, so at these point counts the fields go one at a time.
MAX_POINTS_PER_CHART = 400_000

# The hermiticity pool's integrands have degree <= 5 in cos(theta), which
# Gauss-Legendre in cos(theta) integrates exactly from 3 nodes (degree
# 2n - 1); fewer give false failures.  The order-n grid has 2 n^2 points
# and its memory grows with them: the peak RSS of `verify --only
# hermiticity` is 72 MB at n = 256 and 192 MB at 512, about 30 MB of
# interpreter and numpy plus 19 complex arrays of the grid's size (the
# coefficients of p, the pool's values and gradients, and the jets of the
# field being evaluated), so the largest order keeps it near 0.7 GB.
MIN_HERMITICITY_ORDER = 3
MAX_HERMITICITY_ORDER = 1024

# commutator_suite stacks the jets of at most this many field-points
# (fields x points of a chart) into one operator evaluation: all 19 default
# fields at the default 25 points, and one field at a time from 2049 points
# on, so a large point set costs the memory of one field.  The blocks are
# consecutive runs of the library's m-major order, so a block runs each
# ladder it holds part of once, from P_m^m up to its highest l.
_STACK_POINTS = 4096

# The identities checked once per field of the field library.
LIBRARY_IDENTITIES = (
    "position_momentum",
    "position_kinetic",
    "angular_momentum",
    "sphere_component_match",
)


@dataclass(frozen=True)
class CheckResult:
    """One verified identity instance."""

    identity_name: str
    chart: Optional[str]
    field: Optional[str]
    point: Optional[tuple]
    residual: float
    tolerance: float
    passed: bool

    def to_dict(self):
        # Stable key order is part of the report contract.
        return {
            "identity_name": self.identity_name,
            "chart": self.chart,
            "field": self.field,
            "point": list(self.point) if self.point is not None else None,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerifyOptions:
    """Knobs of the verification run (mirrors the CLI flags)."""

    points_per_chart: int = 25
    lmax: int = 3
    trig_count: int = 3
    hermiticity_order: int = 64
    parseval_lmax: int = 8
    tolerance_override: Optional[float] = None
    only: Optional[tuple] = None  # subset of IDENTITY_NAMES

    def wants(self, name):
        return self.only is None or name in self.only

    def tolerance(self, name):
        if self.tolerance_override is not None:
            return float(self.tolerance_override)
        return TOLERANCES[name]


def _result(options, name, chart, field, point, residual):
    tol = options.tolerance(name)
    residual = float(residual)
    return CheckResult(
        identity_name=name,
        chart=chart,
        field=field,
        point=tuple(float(q) for q in point) if point is not None else None,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def _builtin_charts():
    return [chlib.sphere(), chlib.cylinder(), chlib.torus(), chlib.plane()]


def _worst(residuals, points):
    """Largest residual over the points, with its point.

    Ties go to the first point in order; a NaN residual wins, so it fails
    its check.  An empty point set raises instead of passing vacuously.
    """
    residuals = np.ravel(residuals)
    k = int(_argworst(residuals))
    return float(residuals[k]), tuple(points[k])


def _argworst(residuals):
    """The index of the largest residual along the last (point) axis, by
    _worst's rules: ties go to the first point, a NaN wins, and an empty
    point set raises."""
    if residuals.shape[-1] == 0:
        raise ValueError("no evaluation points: an empty check cannot pass")
    return np.argmax(residuals, axis=-1)


def geometry_suite(options):
    wanted = (
        "frame_completeness",
        "laplace_beltrami_coordinates",
        "shell_determinant",
        "geometric_potential",
    )
    if not any(options.wants(name) for name in wanted):
        return []
    out = []
    for chart in _builtin_charts():
        pts = chlib.interior_points(chart, options.points_per_chart)
        q1, q2 = pts[:, 0], pts[:, 1]
        frame = geolib.evaluate_frame(chart, q1, q2)
        if options.wants("frame_completeness"):
            res = np.abs(frame.completeness_residual()).max(axis=(0, 1))
            r, p = _worst(res, pts)
            out.append(_result(options, "frame_completeness", chart.name, None, p, r))
        if options.wants("laplace_beltrami_coordinates"):
            # the coordinate fields' jets are the frame's tangents and second
            # partials, all three coordinates on one extra axis
            lap = geolib.laplace_beltrami_jets(frame, frame.tangents, frame.second_partials)
            res = np.abs(lap - 2.0 * frame.mean_curvature * frame.normal).max(axis=0)
            r, p = _worst(res, pts)
            out.append(
                _result(
                    options, "laplace_beltrami_coordinates", chart.name, "coordinates", p, r
                )
            )
        if options.wants("shell_determinant"):
            # the four offsets on a leading axis, shape (4, N)
            sf = geolib.shell_frame(frame, np.array([-0.2, -0.05, 0.1, 0.2])[:, None])
            closed = frame.sqrt_g**2 * sf.fold_factor**2
            r, p = _worst(np.abs(sf.det - closed).max(axis=0), pts)
            out.append(_result(options, "shell_determinant", chart.name, None, p, r))
    if options.wants("geometric_potential"):
        sph = chlib.sphere()
        fr = geolib.evaluate_frame(sph, 1.0, 0.5)
        out.append(
            _result(
                options,
                "geometric_potential",
                "sphere",
                None,
                (1.0, 0.5),
                abs(geolib.geometric_potential(fr)),
            )
        )
        cyl = chlib.cylinder(radius=2.0)
        fr = geolib.evaluate_frame(cyl, 0.3, 0.1)
        out.append(
            _result(
                options,
                "geometric_potential",
                "cylinder",
                None,
                (0.3, 0.1),
                abs(geolib.geometric_potential(fr) - (-1.0 / 32.0)),
            )
        )
    return out


def commutator_suite(options):
    """The LIBRARY_IDENTITIES for every library field: [x_i, p_j] and [r, T]
    on each built-in chart, then [L_i, p_j] and the closed-form p against
    the general one on the sphere.  Each chart's frame (and the sphere's
    coefficient jets of p and L) is evaluated once on the point shape
    (1, N).  The library comes in blocks cut in m-major order, and each
    block's jets from one stacked map on the N points
    (fields.library_blocks), shape (F, N), so each residual runs once per
    chart and block, and each field's worst point comes from one argmax
    over the block.  A block holds at most _STACK_POINTS field-points, so
    a large N costs the memory of one field.  The entries follow the
    library's order, and the sphere's follow every chart's."""
    if not any(options.wants(name) for name in LIBRARY_IDENTITIES):
        return []
    out, sphere_out = [], []
    library = flib.field_library(options.lmax, options.trig_count)
    every_chart = options.wants("position_momentum") or options.wants("position_kinetic")
    for chart in _builtin_charts() if every_chart else [chlib.sphere()]:
        pts = chlib.interior_points(chart, options.points_per_chart)
        q1, q2 = pts[:, 0], pts[:, 1]
        frame = geolib.evaluate_frame(chart, q1[None], q2[None])
        if chart.name == "sphere":
            p_jet = oplib.SPHERE_MOMENTUM.jet(q1[None], q2[None], 1)
            l_jet = oplib.SPHERE_ANGULAR.jet(q1[None], q2[None], 1)
        checked = [[] for _ in library]  # per field: (the list its entry joins, entry)
        size = max(1, _STACK_POINTS // len(pts))
        for rows, block in flib.library_blocks(options.lmax, options.trig_count, size):
            f_val, f_grad, f_hess = block.partials(q1, q2, 2)
            checks = []  # (the list its entries join, identity, residuals (F, N))
            if options.wants("position_momentum"):
                res = oplib._position_momentum(frame, f_val, f_grad)
                checks.append((out, "position_momentum", np.abs(res).max(axis=(0, 1))))
            if options.wants("position_kinetic"):
                res = oplib._position_kinetic(frame, f_val, f_grad, f_hess)
                checks.append((out, "position_kinetic", np.abs(res).max(axis=0)))
            if chart.name == "sphere" and options.wants("angular_momentum"):
                res = oplib._angular_momentum(p_jet, l_jet, f_val, f_grad, f_hess)
                checks.append((sphere_out, "angular_momentum", np.abs(res).max(axis=(0, 1))))
            if chart.name == "sphere" and options.wants("sphere_component_match"):
                closed = oplib._image(p_jet[0], f_val, f_grad)
                res = closed - oplib._momentum(frame, f_val, f_grad)
                checks.append((sphere_out, "sphere_component_match", np.abs(res).max(axis=0)))
            for entries, name, res in checks:
                k = _argworst(res)
                for row, r, p in zip(rows, res[np.arange(len(k)), k], pts[k]):
                    result = _result(options, name, chart.name, library[row].label, p, r)
                    checked[row].append((entries, result))
        for field_checks in checked:
            for entries, result in field_checks:
                entries.append(result)
    return out + sphere_out


def rotation_suite(options):
    """rotation_relation for three fields, stacked on one field axis, so p's
    coefficients and each pullback's geometry are evaluated once."""
    if not options.wants("rotation_relation"):
        return []
    fields = [flib.constant(1.0), flib.spherical_harmonic(1, 0), flib.spherical_harmonic(2, 2)]
    residuals = oplib.rotation_relation_check(flib.stack(fields), oplib.rotation_sample_grid())
    return [_result(options, "rotation_relation", "sphere", f.label, None, r)
            for f, r in zip(fields, residuals)]


def hermiticity_suite(options):
    if not options.wants("hermiticity"):
        return []
    out = []
    pool = [
        flib.spherical_harmonic(0, 0),
        flib.spherical_harmonic(1, 0),
        flib.spherical_harmonic(1, 1),
        flib.spherical_harmonic(2, 0),
    ]
    pairs = [(f.label, g.label) for f in pool for g in pool]
    defects = np.abs(oplib.hermiticity_defects(pool, options.hermiticity_order))
    for axis, defect in zip(("x", "y", "z"), defects):
        r, (f, g) = _worst(defect, pairs)
        label = f"p_{axis}:{f},{g}"
        out.append(_result(options, "hermiticity", "sphere", label, None, r))
    return out


def confinement_suite(options):
    if not (options.wants("confined_sum") or options.wants("confinement_slope")):
        return []
    out = []
    profile = oplib.gaussian_profile()
    chi = flib.spherical_harmonic(1, 0)
    if options.wants("confined_sum"):
        for chart, pt in (
            (chlib.sphere(), (1.0, 0.5)),
            (chlib.torus(), (0.8, 2.0)),
            (chlib.plane(), (0.2, -0.3)),
        ):
            # the split against the Jacobian oracle, at all four q3 at once
            q3s = (0.0, 0.01, 0.1, 0.15)
            parts, direct, _ = oplib.thin_shell(chart, chi, profile, *pt, q3s)
            worst = float(np.abs(parts.total() - direct).max())
            out.append(_result(options, "confined_sum", chart.name, chi.label, pt, worst))
    if options.wants("confinement_slope"):
        q3s = np.logspace(-4, -1, 13)
        slope, _ = oplib.confinement_slope(
            chlib.sphere(), chi, profile, 1.0, 0.5, q3s
        )
        out.append(
            _result(
                options,
                "confinement_slope",
                "sphere",
                chi.label,
                (1.0, 0.5),
                abs(slope - 1.0),
            )
        )
    return out


def eigenvalue_suite(options):
    """p_z psi_p = p psi_p at 100 seeded (p, theta), all in one evaluation:
    the field is psi's map with one p per point."""
    if not options.wants("eigenvalue_residual"):
        return []
    rng = np.random.default_rng(20240502)
    p, theta = np.array(
        [(rng.uniform(-10.0, 10.0), rng.uniform(0.01, np.pi - 0.01)) for _ in range(100)]
    ).T
    eigen = flib.map_field(lambda th, ph: splib._psi_map(p, th), "psi")
    value = oplib.SPHERE_MOMENTUM.value(eigen, theta, 0.0)[2]
    residual = np.abs(value - p * splib._psi_map(p, theta))
    k = int(np.argmax(residual))
    return [
        _result(
            options,
            "eigenvalue_residual",
            "sphere",
            splib.eigenfunction_field(p[k]).label,
            (theta[k], 0.0),
            residual[k],
        )
    ]


def spectra_suite(options):
    """The momentum-spectrum identities.  Each amplitude family takes its
    orders as one l sequence, a leading l axis (see
    spectra.amplitude_quadrature): one quadrature call over l = 0..8 on
    p_grid serves the closed forms (l <= 2) and density_parity (l <=
    min(parseval_lmax, 8)), one surface overlap and one quadrature call
    over l = 0..4 serve amplitude_surface_match, and one moments call over
    l = 0..parseval_lmax serves parseval, each l on the |p| window its
    tail needs.  The entries keep the order of the identities and, within
    one, of l."""
    out = []
    if options.wants("dirichlet_kernel"):
        dp = np.linspace(0.0, 5.0, 21)
        for theta_min in (1e-3, 1e-5, 1e-7):
            L = -np.log(np.tan(0.5 * theta_min))
            values = splib.overlap_kernel(1.0 + dp, 1.0, theta_min)
            # np.max, not max(): a NaN residual must win and fail the check
            worst = np.max(np.abs(values - splib.dirichlet_kernel(dp, L)))
            out.append(
                _result(
                    options,
                    "dirichlet_kernel",
                    "sphere",
                    f"theta_min={theta_min:g}",
                    None,
                    worst,
                )
            )
    # the closed-form (l <= 2) and parity (l <= 8) checks share the
    # quadrature amplitudes on p_grid: one call, one row per l
    p_grid = splib.symmetric_grid(6.0, 0.05)
    closed = options.wants("amplitude_closed_density") or options.wants(
        "amplitude_closed_signed"
    )
    parity = range(min(options.parseval_lmax, 8) + 1 if options.wants("density_parity") else 0)
    grid_orders = range(max(3 if closed else 0, len(parity)))
    quadrature = splib.amplitude_quadrature(grid_orders, p_grid) if grid_orders else None
    if closed:
        for l in (0, 1, 2):
            quad = quadrature[l]
            closed_form = splib.amplitude_closed(l, p_grid)
            sign = splib.CLOSED_FORM_COMPARISON_SIGN[l]
            if options.wants("amplitude_closed_density"):
                out.append(
                    _result(
                        options,
                        "amplitude_closed_density",
                        None,
                        f"l={l}",
                        None,
                        float(np.max(np.abs(np.abs(quad) ** 2 - np.abs(closed_form) ** 2))),
                    )
                )
            if options.wants("amplitude_closed_signed"):
                out.append(
                    _result(
                        options,
                        "amplitude_closed_signed",
                        None,
                        f"l={l}",
                        None,
                        float(np.max(np.abs(quad - sign * closed_form))),
                    )
                )
    if options.wants("amplitude_surface_match"):
        p = np.linspace(-4.0, 4.0, 9)
        orders = range(5)
        surf = splib.amplitude_surface_overlap(orders, p)
        worst = np.max(np.abs(surf - splib.amplitude_quadrature(orders, p)), axis=1)
        for l in orders:
            out.append(
                _result(options, "amplitude_surface_match", None, f"l={l}", None, worst[l])
            )
    for l in parity:
        dens = np.abs(quadrature[l]) ** 2
        out.append(
            _result(
                options,
                "density_parity",
                None,
                f"l={l}",
                None,
                float(np.max(np.abs(dens - dens[::-1]))),
            )
        )
    if options.wants("parseval"):
        orders = range(options.parseval_lmax + 1)
        parseval = splib.moments(orders, 0)[:, 0]
        for l in orders:
            out.append(
                _result(options, "parseval", None, f"l={l}", None, abs(parseval[l] - 1.0))
            )
    if options.wants("moment_second"):
        mom = splib.moments(0, max_order=2)
        out.append(
            _result(options, "moment_second", None, "l=0", None, abs(mom[2] - 1.0 / 3.0))
        )
    if options.wants("uncertainty_product"):
        report = splib.uncertainty_report(0, 0)
        worst = max(abs(v - 1.0 / 3.0) for v in report.products.values())
        out.append(
            _result(options, "uncertainty_product", None, "Y0+0", None, worst)
        )
    if options.wants("sho_shape_match"):
        comp = splib.sho_comparison(splib.symmetric_grid(4.0, 0.01))
        out.append(
            _result(
                options,
                "sho_shape_match",
                None,
                "l=0",
                None,
                comp.max_diff_shape_matched,
            )
        )
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Every identity instance checked in a run, with the overall verdict."""

    checks: tuple

    @property
    def total(self):
        return len(self.checks)

    @property
    def failed(self):
        return sum(0 if c.passed else 1 for c in self.checks)

    @property
    def all_pass(self):
        return self.failed == 0

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "total": self.total,
            "failed": self.failed,
            "all_pass": self.all_pass,
        }

    def to_json(self):
        """json.dumps(self.to_dict(), indent=2) + "\\n", written as one table
        by the CLI's JSON writer: the checks' floats are formatted once per
        distinct magnitude, and no per-check dict is built."""
        from .cli import _json  # imported here: cli imports this module

        checks = self.checks

        def objects(values):
            return np.fromiter(values, dtype=object, count=len(checks))

        table = {  # the keys of CheckResult.to_dict
            "identity_name": objects(c.identity_name for c in checks),
            "chart": objects(c.chart for c in checks),
            "field": objects(c.field for c in checks),
            "point": objects(None if c.point is None else tuple(c.point) for c in checks),
            "residual": [c.residual for c in checks],
            "tolerance": [c.tolerance for c in checks],
            "pass": objects(c.passed for c in checks),
        }
        payload = {"checks": table, "total": self.total, "failed": self.failed,
                   "all_pass": self.all_pass}
        return _json(payload, "checks")


def run_verification(options=None):
    """Run every requested identity suite; returns a VerificationReport."""
    options = options or VerifyOptions()
    if options.points_per_chart < 1:
        raise ValueError(
            f"points per chart must be at least 1 (got {options.points_per_chart})"
        )
    if options.points_per_chart > MAX_POINTS_PER_CHART:
        raise ValueError(
            f"points per chart must be at most {MAX_POINTS_PER_CHART} "
            f"(got {options.points_per_chart})"
        )
    if not MIN_HERMITICITY_ORDER <= options.hermiticity_order <= MAX_HERMITICITY_ORDER:
        raise ValueError(
            f"hermiticity order must be at least {MIN_HERMITICITY_ORDER}, the "
            f"fewest nodes that integrate its pool exactly, and at most "
            f"{MAX_HERMITICITY_ORDER} (got {options.hermiticity_order})"
        )
    override = options.tolerance_override
    if override is not None and not 0.0 < override < np.inf:
        raise ValueError(
            f"tolerance override must be finite and positive (got {override})"
        )
    if options.parseval_lmax < 0:
        raise ValueError(
            f"parseval lmax must be at least 0 (got {options.parseval_lmax})"
        )
    if options.parseval_lmax > splib.LEGENDRE_MAX_ORDER:
        raise ValueError(
            f"parseval lmax (--parseval-lmax) must be at most "
            f"{splib.LEGENDRE_MAX_ORDER}, the highest order of the amplitudes "
            f"(got {options.parseval_lmax})"
        )
    if options.only:
        unknown = set(options.only) - set(IDENTITY_NAMES)
        if unknown:
            raise ValueError(
                f"unknown identities: {sorted(unknown)}; "
                f"known: {list(IDENTITY_NAMES)}"
            )
    if options.lmax < 0 and options.trig_count < 1 and any(
        options.wants(name) for name in LIBRARY_IDENTITIES
    ):
        raise ValueError(
            "empty field library: need lmax >= 0 or at least one trig field"
        )
    results = []
    results.extend(geometry_suite(options))
    results.extend(commutator_suite(options))
    results.extend(rotation_suite(options))
    results.extend(hermiticity_suite(options))
    results.extend(confinement_suite(options))
    results.extend(eigenvalue_suite(options))
    results.extend(spectra_suite(options))
    return VerificationReport(checks=tuple(results))
