"""Named identity suites with tolerances, aggregated into a report.

Each suite evaluates one operator identity (or spectral property) over its
test matrix and emits CheckResult entries: worst residual per (chart,
field) with the offending point, the tolerance it was judged against and
the pass flag.  The CLI `verify` command serializes the entries as JSON;
the acceptance tests run the same suites at the tolerances fixed here.

Aggregation is deterministic: matrices are walked in a fixed order and
reduced with max, so reports are byte-stable across runs.  Each chart's
frame is evaluated once per run, in one call over all its points (point
axis last, as in the rest of the package), and the charts' points are
stacked on one point axis (a chart pass, _chart_passes) that the frame
identities and the library identities share: each of their residuals runs
once per pass, and each chart's entries come from its own slice of the
axis.  The library identities also stack the field library's jets on a
field axis before the point axis, so each residual runs once per pass and
block of fields, and each (field, chart) entry comes from one
first-occurrence argmax over the chart's slice.  The rotation relation
runs once on its three fields stacked the same way, and the hermiticity
pool is met by each p image in one contraction.
"""

import dataclasses
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

# verify holds about 2.4 kB per point of the chart pass it evaluates at a
# time (61 MB at 10^4 points, 134 MB at 4 x 10^4, default library), so this
# many points per chart keep it near 1 GB.  That holds with the stacked
# axes: a pass holds as many charts as fit in _STACK_POINTS points, so at
# these point counts the charts go one at a time, and a block of fields
# holds at most _STACK_POINTS field-points, so the fields do too.
MAX_POINTS_PER_CHART = 400_000

# The hermiticity pool's integrands have degree <= 5 in cos(theta), which
# Gauss-Legendre in cos(theta) integrates exactly from 3 nodes (degree
# 2n - 1); fewer give false failures.  The order-n grid has 2 n^2 points
# and its memory grows with them: the peak RSS of `verify --only
# hermiticity` is 69 MB at n = 256 and 181 MB at 512, about 30 MB of
# interpreter and numpy plus what the contraction holds, about 19 complex
# arrays of the grid's size (the coefficients of p, the pool's values and
# gradients, one weighted image component); the jets run each theta-only
# row at (n, 1), so their transients stay below that.  The largest order
# keeps it near 0.65 GB.
MIN_HERMITICITY_ORDER = 3
MAX_HERMITICITY_ORDER = 1024

# A chart pass stacks as many charts as fit in this many points, and never
# fewer than one; commutator_suite stacks the jets of at most this many
# field-points (fields x points of a pass) into one operator evaluation.
# At the default 25 points all four charts share one pass of 100 points
# and all 19 default fields one block; the fields go one at a time from
# 513 points on and the charts from 2049, so a large point set costs the
# memory of one chart and one field.  The field blocks are consecutive
# runs of the library's m-major order, so a block runs each ladder it
# holds part of once, from P_m^m up to its highest l.
_STACK_POINTS = 4096

# The identities checked on every built-in chart's frame.
FRAME_IDENTITIES = (
    "frame_completeness",
    "laplace_beltrami_coordinates",
    "shell_determinant",
)

# The identities checked once per field of the field library.
LIBRARY_IDENTITIES = (
    "position_momentum",
    "position_kinetic",
    "angular_momentum",
    "sphere_component_match",
)

# The library identities checked on the sphere alone; a report lists them
# after the others.
_SPHERE_IDENTITIES = ("angular_momentum", "sphere_component_match")


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


@dataclass(frozen=True)
class _ChartPass:
    """Charts checked together, their points on one stacked point axis."""

    charts: list  # in the report's order
    points: np.ndarray  # (N, 2): each chart's interior points, chart after chart
    slices: list  # each chart's slice of the point axis
    frame: geolib.GeometryFrame  # every chart's frame at its points, point shape (1, N)


def _frame_map(fn, *frames):
    """The frame of fn over the frames' entries, entry by entry (and over
    each of the point's two arrays)."""
    entries = {}
    for field in dataclasses.fields(geolib.GeometryFrame):
        values = [getattr(frame, field.name) for frame in frames]
        entries[field.name] = tuple(map(fn, *values)) if field.name == "point" else fn(*values)
    return geolib.GeometryFrame(**entries)


def _chart_passes(options):
    """The charts the run's chart identities need, in consecutive passes.

    Every built-in chart when a frame identity, position_momentum or
    position_kinetic is wanted, else the sphere for the sphere-only
    identities.  A pass holds as many charts as fit in _STACK_POINTS
    points, and never fewer than one.  Each chart's frame is evaluated
    once, on its own points at point shape (1, n), and the pass's frames
    are joined along the point axis (one chart's frame is kept as it is).
    A generator, so a run holds one pass's frames at a time.
    """
    every_chart = FRAME_IDENTITIES + ("position_momentum", "position_kinetic")
    if any(options.wants(name) for name in every_chart):
        charts = _builtin_charts()
    elif any(options.wants(name) for name in _SPHERE_IDENTITIES):
        charts = [chlib.sphere()]
    else:
        return
    n = options.points_per_chart
    size = max(1, _STACK_POINTS // n)
    for k in range(0, len(charts), size):
        group = charts[k:k + size]
        points = [chlib.interior_points(chart, n) for chart in group]
        frames = [geolib.evaluate_frame(chart, pts[None, :, 0], pts[None, :, 1])
                  for chart, pts in zip(group, points)]
        frame = frames[0] if len(frames) == 1 else _frame_map(
            lambda *entries: np.concatenate(entries, axis=-1), *frames)
        slices = [slice(i * n, (i + 1) * n) for i in range(len(group))]
        yield _ChartPass(group, np.concatenate(points), slices, frame)


def geometry_suite(options, passes=None):
    """frame_completeness, laplace_beltrami_coordinates and
    shell_determinant on every built-in chart.  Each residual runs once per
    chart pass (by default every pass of _chart_passes(options)) on the
    pass's stacked frame, and each chart's entry is the worst point of its
    own slice.  The entries go chart by chart, in the passes' order."""
    if not any(options.wants(name) for name in FRAME_IDENTITIES):
        return []
    out = []
    for chart_pass in _chart_passes(options) if passes is None else passes:
        frame = chart_pass.frame
        checks = []  # (identity, field label, residuals with the point axis last)
        if options.wants("frame_completeness"):
            res = np.abs(frame.completeness_residual()).max(axis=(0, 1))
            checks.append(("frame_completeness", None, res))
        if options.wants("laplace_beltrami_coordinates"):
            # the coordinate fields' jets are the frame's tangents and second
            # partials, all three coordinates on one extra axis
            lap = geolib.laplace_beltrami_jets(frame, frame.tangents, frame.second_partials)
            res = np.abs(lap - 2.0 * frame.mean_curvature * frame.normal).max(axis=0)
            checks.append(("laplace_beltrami_coordinates", "coordinates", res))
        if options.wants("shell_determinant"):
            # the four offsets on a leading axis, shape (4, N)
            sf = geolib.shell_frame(frame, np.array([-0.2, -0.05, 0.1, 0.2])[:, None])
            closed = frame.sqrt_g**2 * sf.fold_factor**2
            checks.append(("shell_determinant", None, np.abs(sf.det - closed).max(axis=0)))
        for chart, s in zip(chart_pass.charts, chart_pass.slices):
            for name, label, res in checks:
                r, p = _worst(res[..., s], chart_pass.points[s])
                out.append(_result(options, name, chart.name, label, p, r))
    return out


def potential_suite(options):
    """geometric_potential against its closed forms on the sphere and a
    radius-2 cylinder, one point each."""
    if not options.wants("geometric_potential"):
        return []
    sph = chlib.sphere()
    fr = geolib.evaluate_frame(sph, 1.0, 0.5)
    cyl = chlib.cylinder(radius=2.0)
    fc = geolib.evaluate_frame(cyl, 0.3, 0.1)
    return [
        _result(options, "geometric_potential", "sphere", None, (1.0, 0.5),
                abs(geolib.geometric_potential(fr))),
        _result(options, "geometric_potential", "cylinder", None, (0.3, 0.1),
                abs(geolib.geometric_potential(fc) - (-1.0 / 32.0))),
    ]


def _sphere_last(entries):
    """The entries with the sphere-only library identities after the rest,
    each group in its own order."""
    return sorted(entries, key=lambda c: c.identity_name in _SPHERE_IDENTITIES)


def commutator_suite(options, passes=None):
    """The LIBRARY_IDENTITIES for every library field: [x_i, p_j] and [r, T]
    on each built-in chart, then [L_i, p_j] and the closed-form p against
    the general one on the sphere.  The charts come in passes (by default
    every pass of _chart_passes(options)), each with one frame on its
    stacked points, shape (1, N); the sphere's coefficient jets of p and L
    are evaluated once on its slice.  The library comes in blocks cut in
    m-major order, and each block's jets from one stacked map on the N
    points (fields.library_blocks), shape (F, N), so each residual runs
    once per pass and block, and each (field, chart) entry's worst point
    comes from one argmax over the chart's slice.  A block holds at most
    _STACK_POINTS field-points, so a large N costs the memory of one field.
    The entries follow the charts' order and the library's, and the
    sphere's follow every chart's."""
    if not any(options.wants(name) for name in LIBRARY_IDENTITIES):
        return []
    library = flib.field_library(options.lmax, options.trig_count)
    out = []
    for chart_pass in _chart_passes(options) if passes is None else passes:
        charts, pts, slices, frame = (chart_pass.charts, chart_pass.points,
                                      chart_pass.slices, chart_pass.frame)
        names = [chart.name for chart in charts]
        sphere = names.index("sphere") if "sphere" in names else None
        on_sphere = sphere is not None and any(
            options.wants(name) for name in _SPHERE_IDENTITIES)
        if on_sphere:
            s = slices[sphere]
            sphere_only = [(sphere, slice(None))]
            theta, phi = pts[None, s, 0], pts[None, s, 1]
            p_jet = oplib.SPHERE_MOMENTUM.jet(theta, phi, 1)
            if options.wants("angular_momentum"):
                l_jet = oplib.SPHERE_ANGULAR.jet(theta, phi, 1)
            if options.wants("sphere_component_match"):
                sphere_frame = _frame_map(lambda entry: entry[..., s], frame)
        every_chart = list(enumerate(slices))
        checked = [[[] for _ in library] for _ in charts]  # per chart and field
        size = max(1, _STACK_POINTS // len(pts))
        for rows, block in flib.library_blocks(options.lmax, options.trig_count, size):
            jets = block.partials(pts[:, 0], pts[:, 1], 2)
            checks = []  # (identity, residuals (F, n), [(chart, its slice of them)])
            if options.wants("position_momentum"):
                res = oplib._position_momentum(frame, *jets[:2])
                checks.append(("position_momentum", np.abs(res).max(axis=(0, 1)), every_chart))
            if options.wants("position_kinetic"):
                res = oplib._position_kinetic(frame, *jets)
                checks.append(("position_kinetic", np.abs(res).max(axis=0), every_chart))
            if on_sphere:
                f, g, h = (d[..., s] for d in jets)
                if options.wants("angular_momentum"):
                    res = np.abs(oplib._angular_momentum(p_jet, l_jet, f, g, h)).max(axis=(0, 1))
                    checks.append(("angular_momentum", res, sphere_only))
                if options.wants("sphere_component_match"):
                    res = oplib._image(p_jet[0], f, g) - oplib._momentum(sphere_frame, f, g)
                    checks.append(("sphere_component_match", np.abs(res).max(axis=0), sphere_only))
            for name, res, spans in checks:
                for c, span in spans:
                    part = res[:, span]
                    k = _argworst(part)
                    for row, r, p in zip(rows, part[np.arange(len(k)), k], pts[span][k]):
                        checked[c][row].append(_result(
                            options, name, names[c], library[row].label, p, r))
        out += [entry for per_chart in checked for per_field in per_chart for entry in per_field]
    return _sphere_last(out)


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
        slope, _ = oplib.confinement_slope(chlib.sphere(), chi, profile, 1.0, 0.5, q3s)
        out.append(_result(options, "confinement_slope", "sphere", chi.label, (1.0, 0.5),
                           abs(slope - 1.0)))
    return out


def eigenvalue_suite(options):
    """p_z psi_p = p psi_p at 100 seeded (p, theta), all in one evaluation:
    the field is psi's map with one p per point."""
    if not options.wants("eigenvalue_residual"):
        return []
    rng = np.random.default_rng(20240502)
    p, theta = rng.uniform([-10.0, 0.01], [10.0, np.pi - 0.01], size=(100, 2)).T
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
    p_grid serves the closed forms (l <= 2), amplitude_surface_match
    (l <= 4, at the nine integer p of p_grid in [-4, 4], against one
    surface overlap call) and density_parity (l <= min(parseval_lmax,
    8)), and one moments call over l = 0..parseval_lmax serves parseval,
    each l on the |p| window its tail needs.  The entries keep the order
    of the identities and, within one, of l."""
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
    # the closed-form (l <= 2), surface-match (l <= 4) and parity (l <= 8)
    # checks share the quadrature amplitudes on p_grid: one call, one row per l
    p_grid = splib.symmetric_grid(6.0, 0.05)
    closed = options.wants("amplitude_closed_density") or options.wants(
        "amplitude_closed_signed"
    )
    surface = range(5 if options.wants("amplitude_surface_match") else 0)
    parity = range(min(options.parseval_lmax, 8) + 1 if options.wants("density_parity") else 0)
    grid_orders = range(max(3 if closed else 0, len(surface), len(parity)))
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
    if surface:
        at = np.isin(p_grid, np.arange(-4.0, 5.0))  # p = -4, -3, ..., 4
        surf = splib.amplitude_surface_overlap(surface, p_grid[at])
        worst = np.max(np.abs(surf - quadrature[:len(surface), at]), axis=1)
        for l in surface:
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
    geometry, library = [], []
    for chart_pass in _chart_passes(options):
        # one frame evaluation per chart serves both suites
        geometry += geometry_suite(options, [chart_pass])
        library += commutator_suite(options, [chart_pass])
    results = geometry + potential_suite(options) + _sphere_last(library)
    results.extend(rotation_suite(options))
    results.extend(hermiticity_suite(options))
    results.extend(confinement_suite(options))
    results.extend(eigenvalue_suite(options))
    results.extend(spectra_suite(options))
    return VerificationReport(checks=tuple(results))
