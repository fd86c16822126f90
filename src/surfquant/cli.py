"""Command-line front end: geometry reports, distributions, confinement
study and the verification suite, with deterministic CSV/JSON output.

Subcommands
-----------
geom          per-point curvature report of a built-in surface
distribution  momentum-distribution table of Y_l0
confine       thin-shell convergence study of the gradient decomposition
verify        run the identity suites and emit a JSON report

Every output is byte-stable for a fixed invocation: floats are written in
shortest round-trip form, rows follow a fixed order, JSON keys keep
insertion order.  CSV cells print as repr with -0.0 folded into 0.0; JSON
cells print as json.dumps prints them (-0.0 kept, NaN and +-Infinity).  The
CSV and the JSON tables take their cell texts from one table (_cells) that
formats each distinct float magnitude once, -x taking "-" + repr(x), and
each writer (_csv, _json) fills one row template, repeated per row, in a
single `%`.  A table with at least _KERNEL_MIN_TEXTS texts to make takes
them from _repr.reprs, a numpy shortest-digits formatter whose texts equal
repr's byte for byte; a smaller one, such as verify's report, from repr.
Failure paths, bad flags included, print a single machine-parseable line
`error: <tag>: <message>` on stderr and exit nonzero (2 chart/config
errors, 3 quadrature truncation, 4 shell fold, 1 failed verification).

An optional `--config FILE` holds `key = value` lines (same names as the
long flags, hyphens and underscores interchangeable), read as `--key=value`
flags before argv's own: argparse checks them as argv, an explicit flag
wins, a repeatable flag (LIST_OPTIONS) takes a whitespace-separated list and
an on/off flag true or false.  A key the command does not take, a bad value
(named with the file) and a path that cannot be opened are config errors.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import charts as chlib
from . import fields as flib
from . import operators as oplib
from . import spectra as splib
from . import verification as ver
from ._repr import reprs
from .errors import (
    ChartSingularityError,
    PoleProximityError,
    QuadratureTruncationError,
    ShellFoldError,
)
from .geometry import evaluate_frame, geometric_potential, shell_frame

# `confine` evaluates here without --point; other charts use their domain
# centre, which lies inside the domain whatever the surface parameters.
CONFINE_DEFAULT_POINTS = {"sphere": (1.0, 0.5), "torus": (0.8, 2.0)}

# geom's table has one cell per point and column, 9 surface columns plus one
# per --q3 offset.  It holds at most about 0.21 kB per cell (JSON with the
# points given as --point, 0 to 60 offsets: ru_maxrss of a child process at
# 20,000 to 100,000 torus points, less that of one point; CSV and --grid hold
# less), so this many cells keep any accepted geom under about 0.9 GB.
MAX_GEOM_CELLS = 4_000_000

# _cells makes its texts with _repr.reprs, not repr, from this many distinct
# ones up.  The kernel costs about 0.2 ms a call and then 0.2-0.3 us a value,
# against repr's 0.55-0.7 us: it broke even at about 400 values (2 vCPUs,
# Python 3.11, numpy 2.4), and takes 0.7-0.8 of repr's time at 600.
_KERNEL_MIN_TEXTS = 600


def _fmt(x):
    return repr(float(x) + 0.0)  # +0.0 folds -0.0 into 0.0


def _open(path, mode="r"):
    """open(path), with a path that cannot be opened as a config error."""
    try:
        return open(path, mode, newline="" if mode == "w" else None)
    except OSError as err:
        raise ValueError(f"cannot open {path!r}: {err.strerror}") from None


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with _open(path, "w") as fh:
            fh.write(text)


_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _cells(columns, signed_zero=False):
    """(row count, the texts of the float cells of `columns` in row order).

    `columns` maps a header to a float column or to a str for every row.  A
    cell prints as repr, with -0.0 folded into 0.0 (as _fmt), or, with
    `signed_zero`, as json.dumps prints a float.  Each distinct magnitude
    is formatted once: repr(-x) == "-" + repr(x), so a negative value whose
    magnitude is also a positive cell takes that text with a "-" in front,
    and only a negative without such a twin gets its own repr.  Distinct
    values are those of the bit patterns, so -0.0 stays apart from 0.0;
    every NaN is made the one unsigned NaN first, since its text has no sign.
    From _KERNEL_MIN_TEXTS texts to make up, they come from _repr.reprs,
    which equals repr on every float; below it, from repr itself.
    """
    floats = np.column_stack([c for c in columns.values() if not isinstance(c, str)])
    floats = floats.astype(np.float64, copy=False)
    if not signed_zero:
        floats += 0.0  # folds -0.0 into 0.0
    floats[np.isnan(floats)] = np.nan
    rows = len(floats)
    distinct, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    del floats
    # The sign bit makes a pattern a negative int64, so negatives come first,
    # in order of magnitude; a twin is the positive pattern of that magnitude.
    negatives = np.searchsorted(distinct, 0)
    magnitude = distinct[:negatives] & 0x7FFF_FFFF_FFFF_FFFF
    twin = np.minimum(negatives + np.searchsorted(distinct[negatives:], magnitude),
                      len(distinct) - 1)
    paired = distinct[twin] == magnitude
    own = np.ones(len(distinct), dtype=bool)
    own[:negatives] = ~paired
    texts = np.empty(len(distinct), dtype=object)
    values = distinct[own].view(np.float64)
    if len(values) >= _KERNEL_MIN_TEXTS:
        texts[own] = reprs(values)
    else:
        texts[own] = np.frompyfunc(repr, 1, 1)(values)
    texts[:negatives][paired] = "-" + texts[twin[paired]]
    if signed_zero:
        for k in np.flatnonzero(~np.isfinite(distinct.view(np.float64))):
            texts[k] = _JSON_NON_FINITE[texts[k]]
    cells = texts[inverse.ravel()]
    del texts, inverse  # freed before the text is built: lower peak memory
    return rows, tuple(cells.tolist())


def _csv(columns):
    """CSV text of `columns`, header -> float column or a str for every row:
    one repr per distinct float magnitude (cells as _fmt, see _cells), one
    row template per row, one %."""
    rows, cells = _cells(columns)
    row = ",".join(c.replace("%", "%%") if isinstance(c, str) else "%s"
                   for c in columns.values())
    template = ",".join(columns).replace("%", "%%") + ("\n" + row) * rows + "\n"
    return template % cells


def _json(payload, table):
    """json.dumps(payload, indent=2) + "\\n", where payload[table] is a
    mapping of columns, written as the list of one object per row.  A
    column is a float column or a str for every row, as _csv takes, or an
    object array of one value per row: None, a bool, a str or a tuple of
    floats (one length in every row that has one).  Every float, a tuple's
    too, takes its text from one _cells table (json.dumps' floats), and
    each distinct other value is json.dumps'd once; the cells fill one row
    template, repeated per row, in one %.  Keys and the other values of
    payload go through json.dumps."""
    columns = payload[table]
    rows, cells = _json_cells(columns)
    row = ",\n".join(
        f"      {json.dumps(key)}: ".replace("%", "%%")
        + (json.dumps(col).replace("%", "%%") if isinstance(col, str) else "%s")
        for key, col in columns.items()
    )
    body = ["[\n", *(["    {\n" + row + "\n    }", ",\n"] * rows)[:-1], "\n  ]"]
    parts = ["{\n"]  # one join: the template is built once, not copied per level
    for key, value in payload.items():
        parts.append(f"  {json.dumps(key)}: ".replace("%", "%%"))
        if key != table:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  ").replace("%", "%%"))
        else:
            parts.extend(body if rows else ["[]"])
        parts.append(",\n")
    parts[-1] = "\n}\n"
    return "".join(parts) % cells


def _json_cells(columns):
    """(row count, the texts of the cells of _json's table `columns` that
    are not a str for every row, row by row).  The floats of an object
    column's tuples join the float columns, one per entry (0.0 in the rows
    without a tuple), and a tuple prints as an indented JSON list."""
    varying = {key: col for key, col in columns.items() if not isinstance(col, str)}
    rows = len(next(iter(varying.values()), ()))
    floats, spans = [], {}  # float columns; key -> (first, width, rows with a tuple)
    for key, col in varying.items():
        if getattr(col, "dtype", None) == object:
            listed = np.array([isinstance(v, tuple) for v in col], dtype=bool)
            width = len(col[listed.argmax()]) if listed.any() else 0
            spans[key] = (len(floats), width, listed)
            floats.extend([v[j] if is_tuple else 0.0 for v, is_tuple in zip(col, listed)]
                          for j in range(width))
        else:
            spans[key] = (len(floats), 1, None)
            floats.append(col)
    cells = np.empty((rows, len(floats)), dtype=object)
    if floats:
        cells.flat = _cells(dict(enumerate(floats)), signed_zero=True)[1]
    texts = np.empty((rows, len(varying)), dtype=object)
    for j, (key, col) in enumerate(varying.items()):
        first, width, listed = spans[key]
        if listed is None:
            texts[:, j] = cells[:, first]
            continue
        dumped = {v: json.dumps(v) for v in set(col) if not isinstance(v, tuple)}
        texts[:, j] = [None if is_tuple else dumped[v] for v, is_tuple in zip(col, listed)]
        if width:
            items = functools.reduce(lambda a, b: a + ",\n        " + b,
                                     cells[listed, first:first + width].T)
            texts[listed, j] = "[\n        " + items + "\n      ]"
    return rows, tuple(texts.ravel().tolist())


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'q1,q2' (got {text!r})")
    return float(parts[0]), float(parts[1])


def _parse_float_list(text):
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"values must be finite (got {text!r})")
    return values


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must be 'N1xN2' (got {text!r})")
    n1, n2 = int(parts[0]), int(parts[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("grid counts must be positive")
    return n1, n2


def _make_surface(args):
    params = {}
    if getattr(args, "radius", None) is not None:
        params["radius"] = float(args.radius)
    for entry in getattr(args, "param", None) or []:
        if "=" not in entry:
            raise ValueError(f"--param expects key=value (got {entry!r})")
        key, value = entry.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in params:
            raise ValueError(f"surface parameter {key!r} is set twice")
        params[key] = float(value)
    return chlib.make_chart(args.surface, **params)


def _geom_points(args, chart, columns):
    """The --point and --grid points, refused before the grid is built when
    they and the `columns` per point make more than MAX_GEOM_CELLS cells."""
    points = [_parse_point(p) for p in (args.point or [])]
    n1, n2 = _parse_grid(args.grid) if args.grid else (0, 0)
    count = len(points) + n1 * n2
    if count * columns > MAX_GEOM_CELLS:
        raise ValueError(
            f"{count} points of {columns} columns make {count * columns} table "
            f"cells, more than the {MAX_GEOM_CELLS} allowed"
        )
    if args.grid:
        for lo, hi in chart.domain:
            if not 0.0 < hi - lo < np.inf:
                raise ValueError(
                    f"--grid needs the span of each axis of the {chart.name} chart "
                    f"domain {chart.domain} to be finite and positive"
                )
        q1s = np.linspace(*chart.domain[0], n1 + 2)[1:-1]
        q2s = np.linspace(*chart.domain[1], n2 + 2)[1:-1]
        points.extend((float(a), float(b)) for a in q1s for b in q2s)
    if not points:
        raise ValueError("no evaluation points: pass --point and/or --grid")
    return points


def _require_inside(chart, q1, q2):
    """Reject the first point off the domain of a non-periodic axis (NaN too)."""
    inside = np.atleast_1d(chart.contains(q1, q2))
    if not inside.all():
        k = int(np.argmin(inside))
        a, b = np.atleast_1d(q1)[k], np.atleast_1d(q2)[k]
        raise ValueError(
            f"point ({a}, {b}) is outside the {chart.name} chart domain {chart.domain}"
        )


def _geom_columns(chart, q1, q2, offsets, hbar, mu):
    """Report columns for the points (q1, q2), evaluated in one batch, with
    one shell determinant column per entry of `offsets` (name -> q3)."""
    _require_inside(chart, q1, q2)
    # Points on the first axis, shell offsets on a second one, so a fold is
    # reported for the first point (then offset) in input order.
    frame = evaluate_frame(chart, q1[:, None], q2[:, None])
    columns = {
        "q1": q1,
        "q2": q2,
        "M": frame.mean_curvature,
        "K": frame.gaussian_curvature,
        "V_gp": geometric_potential(frame, hbar, mu),
        "n_x": frame.normal[0],
        "n_y": frame.normal[1],
        "n_z": frame.normal[2],
        "sqrt_g": frame.sqrt_g,
    }
    if offsets:
        dets = shell_frame(frame, np.array(list(offsets.values()))).det
        columns.update(zip(offsets, dets.T))
    return {key: np.ravel(col) for key, col in columns.items()}


def cmd_geom(args):
    if args.surface is None:
        # not required by the parser, so that a --config file can supply it
        raise ValueError("the following arguments are required: --surface")
    chart = _make_surface(args)
    offsets = {}  # each --q3 offset by the name of its column
    for q3 in _parse_float_list(args.q3) if args.q3 else []:
        name = f"shell_det_q3_{q3:g}"
        if name in offsets:
            raise ValueError(f"--q3 offsets {offsets[name]!r} and {q3!r} share the column {name}")
        offsets[name] = q3
    points = _geom_points(args, chart, 9 + len(offsets))
    q1, q2 = (np.array(axis) for axis in zip(*points))

    def columns(rows):
        return _geom_columns(chart, q1[rows], q2[rows], offsets, args.hbar, args.mu)

    failures = (ChartSingularityError, ShellFoldError, ValueError)
    try:
        table = columns(slice(None))
    except failures:
        # Name the first failing point in input order, as a row-by-row
        # evaluation would, whatever kind of error the batch hit first.  A
        # batch fails when one of its rows does, so bisect for the longest
        # passing prefix (points[:good]), then evaluate the next point alone.
        good, bad = 0, len(points)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                columns(slice(good, mid))
                good = mid
            except failures:
                bad = mid
        columns(slice(good, good + 1))
        raise
    if args.format == "csv":
        _write_text(args.out, _csv(table))
    else:
        payload = {"surface": chart.name, "params": chart.params, "rows": table}
        _write_text(args.out, _json(payload, "rows"))
    return 0


def cmd_distribution(args):
    if args.l < 0:
        raise ValueError("l must be nonnegative")
    extra_closed = bool(args.compare_closed)
    if extra_closed and args.l > 2:
        raise ValueError("--compare-closed requires l <= 2")
    grid = splib.symmetric_grid(args.pmax, args.dp)
    if args.method == "quadrature":
        amps = splib.amplitude_quadrature(args.l, grid, Q=args.Q, nodes=args.nodes,
                                          tolerance=args.tolerance)
    else:
        amps = splib.amplitude_recurrence(args.l, grid)
    density = np.abs(amps) ** 2
    columns = {
        "p": grid,
        "re_amp": amps.real,
        "im_amp": amps.imag,
        "density": density,
        "method": args.method,
    }
    if extra_closed:
        closed = splib.amplitude_closed(args.l, grid)
        columns["re_closed"] = closed.real
        columns["im_closed"] = closed.imag
        columns["density_closed"] = np.abs(closed) ** 2
        max_density_dev = float(np.max(np.abs(density - columns["density_closed"])))
    if args.sho_overlay:
        columns[splib.SHO_DENSITY_COLUMN] = splib.sho_density(grid)
    if args.format == "csv":
        _write_text(args.out, _csv(columns))
    else:
        _write_text(args.out, _json({"l": args.l, "samples": columns}, "samples"))
    if extra_closed:
        print(f"max_density_deviation={_fmt(max_density_dev)}")
    return 0


def _confine_field(selector):
    """The field named by --chi: 'l,m' (|m| <= l <= MAX_HARMONIC_L), trigN
    (0 <= N < MAX_TRIG_FIELDS) or const."""
    text = selector.strip().lower()
    if text in ("const", "1"):
        return flib.constant(1.0)
    try:
        if text.startswith("trig"):
            index = int(text[4:] or 0)
            if index >= 0:
                return flib.trig_library(index + 1)[index]
        else:
            l, m = (int(tok) for tok in text.split(","))
            if abs(m) <= l:
                return flib.spherical_harmonic(l, m)
    except ValueError:
        pass
    raise ValueError(
        f"--chi must be 'l,m' with |m| <= l <= {flib.MAX_HARMONIC_L}, trigN with "
        f"0 <= N < {flib.MAX_TRIG_FIELDS}, or const (got {selector!r})"
    )


def cmd_confine(args):
    chart = _make_surface(args)
    chi = _confine_field(args.chi)
    gaussian = args.profile == "gaussian"
    profile = oplib.gaussian_profile(args.width) if gaussian else oplib.flat_profile()
    if args.point:
        q1, q2 = _parse_point(args.point)
    elif chart.name in CONFINE_DEFAULT_POINTS:
        q1, q2 = CONFINE_DEFAULT_POINTS[chart.name]
    else:
        q1, q2 = (0.5 * (lo + hi) for lo, hi in chart.domain)
    _require_inside(chart, q1, q2)
    q3_values = _parse_float_list(args.q3) if args.q3 else list(np.logspace(-4, -1, 13))
    slope, rows = oplib.confinement_slope(chart, chi, profile, q1, q2, q3_values)
    q3s, deviations = zip(*rows)
    columns = {"q3": q3s, "deviation": deviations}
    if args.format == "csv":
        _write_text(args.out, _csv(columns) + f"# loglog_slope={_fmt(slope)}\n")
    else:
        payload = {
            "surface": chart.name,
            "chi": chi.label,
            "profile": profile.label,
            "point": [q1, q2],
            "rows": columns,
            "loglog_slope": slope,
        }
        _write_text(args.out, _json(payload, "rows"))
    print(f"loglog_slope={_fmt(slope)}")
    return 0


def cmd_verify(args):
    options = ver.VerifyOptions(
        points_per_chart=args.points,
        lmax=args.lmax,
        trig_count=args.trig,
        hermiticity_order=args.order,
        parseval_lmax=args.parseval_lmax,
        tolerance_override=args.tolerance,
        only=tuple(args.only) if args.only else None,
    )
    report = ver.run_verification(options)
    _write_text(args.out, report.to_json())
    if args.out is not None:
        print(f"verify: {report.total - report.failed}/{report.total} checks passed")
    return 0 if report.all_pass else 1


def _add_common(parser, with_format=True):
    parser.add_argument("--config", help="key=value config file with defaults")
    parser.add_argument("--out", help="output path (default: stdout)")
    if with_format:
        parser.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so they print
    as the one `error: config: ...` line (exit 2) of every other bad input.
    Subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="surfquant",
        description="Quantum mechanics on parametric surfaces: curvature "
        "reports, momentum distributions, confinement study, identity "
        "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_geom = sub.add_parser("geom", help="pointwise curvature report")
    _add_common(p_geom)
    p_geom.add_argument(
        "--surface", help="sphere|cylinder|torus|plane (required, here or in --config)"
    )
    p_geom.add_argument("--radius", type=float, help="radius shortcut parameter")
    p_geom.add_argument(
        "--param", action="append", help="named surface parameter key=value"
    )
    p_geom.add_argument("--point", action="append", help="evaluation point 'q1,q2'")
    p_geom.add_argument("--grid", help="interior grid 'N1xN2'")
    p_geom.add_argument("--q3", help="comma list of shell offsets")
    p_geom.add_argument("--hbar", type=float, default=1.0)
    p_geom.add_argument("--mu", type=float, default=1.0)
    p_geom.set_defaults(func=cmd_geom)

    p_dist = sub.add_parser("distribution", help="momentum distribution table")
    _add_common(p_dist)
    p_dist.add_argument("--l", type=int, default=0, help="angular quantum number")
    p_dist.add_argument("--pmax", type=float, default=6.0)
    p_dist.add_argument("--dp", type=float, default=0.05)
    p_dist.add_argument("--Q", type=float, default=splib.DEFAULT_Q)
    p_dist.add_argument("--nodes", type=int, default=splib.DEFAULT_NODES)
    p_dist.add_argument(
        "--method", choices=("quadrature", "closed_form"), default="closed_form"
    )
    p_dist.add_argument(
        "--compare-closed",
        action="store_true",
        help="add closed-form columns (l <= 2) and print the max deviation",
    )
    p_dist.add_argument(
        "--sho-overlay",
        action="store_true",
        help="append the oscillator ground-state momentum density column",
    )
    p_dist.add_argument(
        "--tolerance", type=float, default=1e-8, help="truncation tail tolerance"
    )
    p_dist.set_defaults(func=cmd_distribution)

    p_conf = sub.add_parser("confine", help="thin-shell convergence study")
    _add_common(p_conf)
    p_conf.add_argument("--surface", default="sphere")
    p_conf.add_argument("--radius", type=float)
    p_conf.add_argument("--param", action="append")
    p_conf.add_argument(
        "--chi", default="1,0", help="surface factor: 'l,m' harmonic, trigN or const"
    )
    p_conf.add_argument("--profile", choices=("gaussian", "flat"), default="gaussian")
    p_conf.add_argument("--width", type=float, default=1.0)
    p_conf.add_argument(
        "--point",
        help="evaluation point 'q1,q2' (default: 1,0.5 on the sphere, 0.8,2 on "
        "the torus, the domain centre otherwise)",
    )
    p_conf.add_argument("--q3", help="comma list of shell offsets")
    p_conf.set_defaults(func=cmd_confine)

    p_ver = sub.add_parser("verify", help="run identity suites, emit JSON report")
    _add_common(p_ver, with_format=False)
    defaults = ver.VerifyOptions
    p_ver.add_argument("--points", type=int, default=defaults.points_per_chart,
                       help="points per chart")
    p_ver.add_argument("--lmax", type=int, default=defaults.lmax, help="harmonic library depth")
    p_ver.add_argument("--trig", type=int, default=defaults.trig_count, help="random trig fields")
    p_ver.add_argument("--order", type=int, default=defaults.hermiticity_order,
                       help="hermiticity order")
    p_ver.add_argument("--parseval-lmax", type=int, default=defaults.parseval_lmax)
    p_ver.add_argument(
        "--tolerance", type=float, default=None, help="override every tolerance"
    )
    p_ver.add_argument(
        "--only",
        action="append",
        help=f"restrict to named identities ({', '.join(ver.IDENTITY_NAMES)})",
    )
    p_ver.set_defaults(func=cmd_verify)
    commands = {
        "geom": p_geom, "distribution": p_dist, "confine": p_conf, "verify": p_ver
    }
    return parser, commands


# Options that take one value per flag (action="append"); a config file
# lists their values separated by whitespace.
LIST_OPTIONS = {"geom": ("param", "point"), "confine": ("param",), "verify": ("only",)}


def _load_config(path):
    values = {}
    with _open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _point_spellings(geom_parser):
    """--point and those of its prefixes that argparse reads as --point."""
    spellings = set()
    for prefix in ("--point"[:k] for k in range(3, len("--point") + 1)):
        try:
            args, _ = geom_parser.parse_known_args([prefix, "x"])
        except ValueError:  # a prefix of several options
            continue
        if args.point == ["x"]:
            spellings.add(prefix)
    return spellings


def _lift_points(argv, spellings):
    """Split a `geom` argv into (argv without its --point flags, their values
    in argv order), in one pass; `spellings` are those of _point_spellings.

    argparse rescans the remaining option indices once per option token, so
    its cost grows with the square of the number of --point flags; the
    remaining argv holds the few other options.  A lift is exact when it
    cannot change how argparse reads any other token, so nothing is lifted,
    and argparse reads the whole argv, when a --point follows a `-`-led token
    without `=` (an option would take the --point as its missing value) or
    has a missing, empty or `-`-led value.  Scanning stops at `--`.
    """
    if argv[:1] != ["geom"]:
        return argv, []
    rest, points = argv[:1], []
    i = 1
    while i < len(argv) and argv[i] != "--":
        name, eq, value = argv[i].partition("=")
        if name not in spellings:
            rest.append(argv[i])
            i += 1
            continue
        if not eq:
            value = argv[i + 1] if i + 1 < len(argv) else ""
        previous = argv[i - 1]
        if (not value or (not eq and value.startswith("-"))
                or (previous.startswith("-") and "=" not in previous)):
            return argv, []
        points.append(value)
        i += 1 if eq else 2
    return rest + argv[i:], points


@functools.cache
def _shared_parser():
    """build_parser()'s parser and geom's _point_spellings, made on the
    first call; the parser is never mutated after."""
    parser, commands = build_parser()
    return parser, _point_spellings(commands["geom"])


def _parse_args(argv):
    """Parse argv; a --config file's lines are read as flags before argv's.

    A `geom` argv's --point flags are lifted out first (_lift_points) and
    set as `point` after the parse.  Without --config argv is parsed once.
    With it, every key must be an option of the invoked command, and argv
    is parsed again with the file's lines as `--key=value` flags after the
    command, so argparse checks them as it checks argv and a later explicit
    flag wins.  A LIST_OPTIONS key gives one flag per item, none when argv
    gives that flag; an on/off flag is `--key` for true, absent for false.
    An error of the second parse names the file.
    """
    parser, spellings = _shared_parser()

    def parse(argv):
        rest, points = _lift_points(argv, spellings)
        args = parser.parse_args(rest)
        if points:
            args.point = points
        return args

    args = parse(argv)
    if args.config is None:
        return args
    values = _load_config(args.config)
    unknown = sorted(set(values) - (set(vars(args)) - {"func", "command", "config"}))
    if unknown:
        raise ValueError(
            f"{args.config}: {args.command} takes no option {', '.join(unknown)}"
        )
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if key in LIST_OPTIONS.get(args.command, ()):
            # an append flag would add to the file's list, not replace it
            flags += [] if getattr(args, key) else [f"{flag}={v}" for v in value.split()]
        elif isinstance(getattr(args, key), bool):  # on/off: argparse refuses --key=text
            flags += {"true": [flag], "false": []}.get(value.lower(), [f"{flag}={value}"])
        else:
            flags.append(f"{flag}={value}")
    start = argv.index(args.command) + 1
    try:
        return parse(argv[:start] + flags + argv[start:])
    except ValueError as err:
        raise ValueError(f"{args.config}: {err}") from None


_ERROR_TAGS = (
    (ChartSingularityError, "chart-singularity", 2),
    (PoleProximityError, "pole-proximity", 2),
    (QuadratureTruncationError, "quadrature-truncation", 3),
    (ShellFoldError, "shell-fold", 4),
    (ValueError, "config", 2),
)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not 0.0 < tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive (got {tolerance})")
        return args.func(args)
    except tuple(exc for exc, _, _ in _ERROR_TAGS) as err:
        for exc_type, tag, code in _ERROR_TAGS:
            if isinstance(err, exc_type):
                print(f"error: {tag}: {err}", file=sys.stderr)
                return code
        raise  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
