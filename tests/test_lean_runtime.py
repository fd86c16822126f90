"""The runtime needs numpy only: closed-form fields, radical-inverse Halton
points, and the CLI inputs that used to crash or pass vacuously.

scipy and sympy appear here only as oracles.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from scipy.special import sph_harm_y
from scipy.stats import qmc

import surfquant
from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import spectra as splib
from surfquant import verification as ver
from surfquant.cli import main
from surfquant.geometry import laplace_beltrami

from conftest import plane_wave
from sympy_oracle import PHI, THETA, from_expr

SRC = str(Path(surfquant.__file__).resolve().parent.parent)
ORACLE_RTOL = 5e-14

CLI_CALLS = [
    ["verify", "--points", "2"],
    ["geom", "--surface", "torus", "--grid", "3x4", "--q3", "0.1,-0.2"],
    ["distribution", "--l", "1", "--pmax", "2", "--dp", "0.25", "--compare-closed"],
]


def run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True).stdout


def test_import_loads_neither_scipy_nor_sympy():
    loaded = json.loads(run_python(
        "import json, sys, surfquant\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('scipy', 'sympy'))))\n"
    ))
    assert loaded == []


def test_the_float_formatter_builds_its_tables_on_the_first_large_table():
    sizes = json.loads(run_python(
        "import json, numpy as np, surfquant\n"
        "from surfquant import _repr, cli\n"
        "sizes = [_repr._tables.cache_info().currsize]\n"
        "cli._csv({'x': np.arange(1.0, cli._KERNEL_MIN_TEXTS) / 7})\n"
        "sizes.append(_repr._tables.cache_info().currsize)\n"
        "cli._csv({'x': np.arange(1.0, cli._KERNEL_MIN_TEXTS + 1) / 7})\n"
        "sizes.append(_repr._tables.cache_info().currsize)\n"
        "print(json.dumps(sizes))\n"
    ))
    assert sizes == [0, 0, 1]


def test_cli_runs_with_scipy_and_sympy_blocked(capsys):
    # None in sys.modules makes any import of the package raise ImportError.
    results = json.loads(run_python(
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = sys.modules['sympy'] = None\n"
        "from surfquant.cli import main\n"
        "results = []\n"
        f"for argv in {CLI_CALLS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps(results))\n"
    ))
    for argv, (code, text) in zip(CLI_CALLS, results):
        assert code == 0, argv
        assert main(argv) == 0
        assert capsys.readouterr().out == text, argv
    assert json.loads(results[0][1])["all_pass"] is True


@pytest.mark.parametrize("n", [0, 1, 2, 7, 80, 201, 500])
def test_interior_points_are_scipys_halton_points(n):
    # Periodic unit axes take the Halton points without inset or scaling.
    unit = chlib.from_map(lambda u, v: np.array([u, v, 0.0]),
                          domain=((0.0, 1.0), (0.0, 1.0)), periodic=(True, True))
    expected = qmc.Halton(d=2, scramble=False).random(n + 1)[1:]
    assert np.array_equal(chlib.interior_points(unit, n), expected)


# -- closed-form fields against the sympy oracle -------------------------------

POINT_SETS = {
    "scalar": (0.8, 0.4),
    "1-D": (np.linspace(0.05, 3.09, 13), np.linspace(-4.0, 9.0, 13)),
    "broadcast": (np.linspace(0.1, 3.0, 6)[:, None], np.linspace(-3.0, 7.0, 5)[None, :]),
}


def trig_oracle(k, seed=20240501):
    theta, phi = THETA, PHI
    basis = [sp.Integer(1), sp.cos(theta), sp.sin(theta) * sp.cos(phi),
             sp.sin(2 * theta) * sp.sin(phi), sp.cos(theta) * sp.cos(2 * phi),
             sp.sin(theta) * sp.sin(2 * phi)]
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k + 1, len(basis)))[k]
    # 17 digits, so the lambdified coefficients are the drawn doubles
    expr = sum(sp.Float(float(c), 17) * b for c, b in zip(coeffs, basis))
    return from_expr(expr, label=f"trig{k}")


@lru_cache(maxsize=None)
def oracle(kind, *args):
    theta, phi = THETA, PHI
    if kind == "ylm":
        expr = sp.Ynm(*args, theta, phi).expand(func=True)
    elif kind == "wave":
        k, axis = args
        expr = sp.exp(sp.I * sp.Float(k) * (theta, phi)[axis])
    else:
        return trig_oracle(*args)
    return from_expr(expr)


def assert_matches_oracle(fld, ref):
    for name, (q1, q2) in POINT_SETS.items():
        shape = np.broadcast(q1, q2).shape
        value = fld.value(q1, q2)
        if shape == ():
            assert type(value) is complex
        jets = zip(("value", "grad", "hess"), ((), (2,), (2, 2)),
                   fld.partials(q1, q2, 2), ref.partials(q1, q2, 2))
        for jet, lead, ours, theirs in jets:
            ours, theirs = np.asarray(ours), np.asarray(theirs)
            assert ours.shape == lead + shape, (fld.label, name, jet)
            assert ours.dtype == complex
            scale = np.maximum(1.0, np.abs(theirs))
            assert np.max(np.abs(ours - theirs) / scale) <= ORACLE_RTOL, (fld.label, name, jet)


@pytest.mark.parametrize("l", range(7))
def test_spherical_harmonics_match_the_sympy_oracle(l):
    for m in range(-l, l + 1):
        assert_matches_oracle(flib.spherical_harmonic(l, m), oracle("ylm", l, m))


def test_trig_library_matches_the_sympy_oracle():
    for k, fld in enumerate(flib.trig_library(4)):
        assert fld.label == f"trig{k}"
        assert_matches_oracle(fld, oracle("trig", k))


@pytest.mark.parametrize("k", [2.5, -1.3, 0.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_plane_wave_matches_the_sympy_oracle(k, axis):
    assert_matches_oracle(plane_wave(k, axis), oracle("wave", k, axis))


def chart_oracle(name):
    """The built-in charts' maps at their default parameters, in sympy."""
    q1, q2 = THETA, PHI
    w = 2 + sp.cos(q2) / 2
    return {
        "sphere": [sp.sin(q1) * sp.cos(q2), sp.sin(q1) * sp.sin(q2), sp.cos(q1)],
        "cylinder": [sp.cos(q1), sp.sin(q1), q2],
        "torus": [w * sp.cos(q1), w * sp.sin(q1), sp.sin(q2) / 2],
        "plane": [q1, q2, sp.Integer(0)],
    }[name]


@pytest.mark.parametrize("name", ["sphere", "cylinder", "torus", "plane"])
def test_coordinate_fields_match_the_sympy_oracle(name):
    chart = chlib.make_chart(name)
    for axis, expr in enumerate(chart_oracle(name)):
        assert_matches_oracle(flib.coordinate_field(chart, axis), from_expr(expr))


@pytest.mark.parametrize("p", [1.7, -4.2, 0.0])
def test_eigenfunction_field_matches_the_sympy_oracle(p):
    expr = sp.exp(-sp.I * sp.Float(p) * sp.log(sp.tan(THETA / 2))) / (2 * sp.pi * sp.sin(THETA))
    assert_matches_oracle(splib.eigenfunction_field(p), from_expr(expr))


def test_harmonics_stay_finite_at_the_poles():
    # Y_lm also serves as a field on charts whose q1 reaches 0 or pi.
    for l in range(flib.MAX_HARMONIC_L + 1):
        for m in range(-l, l + 1):
            jets = flib.spherical_harmonic(l, m).partials(np.array([0.0, np.pi]), 0.3, 2)
            for jet in jets:  # value, gradient, Hessian
                assert np.all(np.isfinite(jet)), (l, m)


def test_spherical_harmonics_match_scipy_up_to_the_bound():
    theta = np.linspace(0.02, np.pi - 0.02, 201)[:, None]
    phi = np.linspace(-3.0, 7.0, 9)[None, :]
    for l in range(flib.MAX_HARMONIC_L + 1):
        for m in range(-l, l + 1):
            ours = flib.spherical_harmonic(l, m).value(theta, phi)
            assert np.max(np.abs(ours - sph_harm_y(l, m, theta, phi))) <= 1e-13, (l, m)


def test_harmonics_are_laplace_beltrami_eigenfunctions_up_to_the_bound():
    # checks the second-order jets of the recurrence, which scipy cannot
    sphere = chlib.sphere()
    q1, q2 = chlib.interior_points(sphere, 50).T
    for l in range(flib.MAX_HARMONIC_L + 1):
        for m in sorted({-l, -(l // 3), 0, l // 2, l}):
            fld = flib.spherical_harmonic(l, m)
            value = fld.value(q1, q2)
            residual = laplace_beltrami(sphere, fld, q1, q2) + l * (l + 1) * value
            scale = (l * (l + 1) + 1) * np.maximum(1.0, np.abs(value))
            assert np.max(np.abs(residual) / scale) <= 1e-13, (l, m)


def test_field_library_bounds():
    with pytest.raises(ValueError, match=f"l <= {flib.MAX_HARMONIC_L}"):
        flib.spherical_harmonic(flib.MAX_HARMONIC_L + 1, 0)
    # each library is rejected before any field is built
    flib.spherical_harmonic.cache_clear()
    with pytest.raises(ValueError, match=f"l <= {flib.MAX_HARMONIC_L}"):
        flib.harmonic_library(flib.MAX_HARMONIC_L + 1)
    assert flib.spherical_harmonic.cache_info().currsize == 0
    for count in (-1, flib.MAX_TRIG_FIELDS + 1, 100_000_000):
        with pytest.raises(ValueError, match="trig count"):
            flib.trig_library(count)


# -- CLI inputs that crashed or passed vacuously ---------------------------------

def run_cli(args, capsys):
    code = main(list(args))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--Q", "inf"], ["--Q", "nan"], ["--Q", "0"], ["--Q", "-3"],
    ["--Q", str(splib.MAX_PANELS + 1)],
    ["--nodes", "40000000"], ["--nodes", "0"],
    ["--Q", "2", "--nodes", str(2 * splib.MAX_PANEL_NODES + 1)],
])
def test_distribution_rejects_bad_rules(args, capsys):
    code, err = run_cli(["distribution", "--method", "quadrature", "--pmax", "1",
                         "--tolerance", "1"] + args, capsys)
    assert code == 2 and err.startswith("error: config: need")


def test_distribution_keeps_rules_up_to_the_caps(capsys):
    quadrature = ["distribution", "--method", "quadrature"]
    assert run_cli(quadrature + ["--pmax", "1", "--tolerance", "1", "--Q", "2",
                                 "--nodes", str(2 * splib.MAX_PANEL_NODES)], capsys)[0] == 0
    # a short Q is still a truncation error, not a config one
    assert run_cli(quadrature + ["--Q", "10"], capsys)[0] == 3


def test_verify_rejects_a_negative_parseval_lmax(capsys):
    code, err = run_cli(["verify", "--only", "parseval", "--parseval-lmax", "-1"], capsys)
    assert code == 2 and err.startswith("error: config: parseval lmax")


@pytest.mark.parametrize("chi", ["trig-1", "trigx", "trig1.5", "1,2", "2,-3",
                                 "-1,0", "1,0,0", "1", "x", "",
                                 f"{flib.MAX_HARMONIC_L + 1},0", "100,0",
                                 f"trig{flib.MAX_TRIG_FIELDS}", "trig100000000"])
def test_confine_rejects_bad_field_selectors(chi, capsys):
    code, err = run_cli(["confine", f"--chi={chi}", "--q3", "0.01,0.1"], capsys)
    if chi == "1":  # the constant field
        assert code == 0
    else:
        assert code == 2 and err.startswith("error: config: --chi"), err


@pytest.mark.parametrize("chi", [f"{flib.MAX_HARMONIC_L},-{flib.MAX_HARMONIC_L}", "40,7"])
def test_confine_takes_harmonics_up_to_the_bound(chi, capsys):
    code = main(["confine", f"--chi={chi}"])
    slope = float(capsys.readouterr().out.rsplit("loglog_slope=", 1)[1])
    assert code == 0 and np.isfinite(slope)


@pytest.mark.parametrize("args", [
    ["--lmax", str(flib.MAX_HARMONIC_L + 1)], ["--lmax", "100"],
    ["--trig", str(flib.MAX_TRIG_FIELDS + 1)], ["--trig", "100000000"], ["--trig", "-1"],
])
def test_verify_rejects_field_libraries_past_the_bounds(args, capsys):
    code, err = run_cli(["verify", "--only", "position_momentum"] + args, capsys)
    assert code == 2 and err.startswith("error: config:"), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("order", ["-3", "0", "1", "2"])
def test_verify_rejects_a_hermiticity_order_below_three(order, capsys):
    code, err = run_cli(["verify", "--only", "hermiticity", "--order", order], capsys)
    assert code == 2 and err.startswith("error: config: hermiticity order must be at least 3")
    assert len(err.splitlines()) == 1


def test_verify_hermiticity_passes_from_order_three(capsys):
    assert run_cli(["verify", "--only", "hermiticity", "--order", "3"], capsys)[0] == 0


@pytest.mark.parametrize("args", [
    ["verify", "--points", "1000000000000"],
    ["verify", "--points", str(ver.MAX_POINTS_PER_CHART + 1)],
    ["verify", "--order", "100000"],
    ["verify", "--order", str(ver.MAX_HERMITICITY_ORDER + 1)],
    ["geom", "--surface", "torus", "--grid", "100000x100000"],
    ["geom", "--surface", "torus", "--grid", "1000x1000", "--point", "1,1"],
])
def test_size_bounds_refuse_before_allocating(args, capsys):
    # each argv asks for more points than its cap, and allocates nothing
    code, err = run_cli(args, capsys)
    assert code == 2 and err.startswith("error: config:"), err
    assert len(err.splitlines()) == 1
