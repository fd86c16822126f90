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
from scipy.stats import qmc

import surfquant
from surfquant import charts as chlib
from surfquant import fields as flib
from surfquant import spectra as splib
from surfquant.cli import main

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
    theta, phi = flib.THETA, flib.PHI
    basis = [sp.Integer(1), sp.cos(theta), sp.sin(theta) * sp.cos(phi),
             sp.sin(2 * theta) * sp.sin(phi), sp.cos(theta) * sp.cos(2 * phi),
             sp.sin(theta) * sp.sin(2 * phi)]
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(k + 1, len(basis)))[k]
    # 17 digits, so the lambdified coefficients are the drawn doubles
    expr = sum(sp.Float(float(c), 17) * b for c, b in zip(coeffs, basis))
    return flib.from_expr(expr, (theta, phi), f"trig{k}")


@lru_cache(maxsize=None)
def oracle(kind, *args):
    theta, phi = flib.THETA, flib.PHI
    if kind == "ylm":
        expr = sp.Ynm(*args, theta, phi).expand(func=True)
    elif kind == "wave":
        k, axis = args
        expr = sp.exp(sp.I * sp.Float(k) * (theta, phi)[axis])
    else:
        return trig_oracle(*args)
    return flib.from_expr(expr, (theta, phi), "oracle")


def assert_matches_oracle(fld, ref):
    for name, (q1, q2) in POINT_SETS.items():
        shape = np.broadcast(q1, q2).shape
        value = fld.value(q1, q2)
        if shape == ():
            assert type(value) is complex
        for jet, lead in (("value", ()), ("grad", (2,)), ("hess", (2, 2))):
            ours = np.asarray(getattr(fld, jet)(q1, q2))
            theirs = np.asarray(getattr(ref, jet)(q1, q2))
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
    assert_matches_oracle(flib.plane_wave(k, axis), oracle("wave", k, axis))


def test_harmonics_stay_finite_at_the_poles():
    # Y_lm also serves as a field on charts whose q1 reaches 0 or pi.
    for l in range(4):
        for m in range(-l, l + 1):
            fld = flib.spherical_harmonic(l, m)
            for jet in (fld.value, fld.grad, fld.hess):
                assert np.all(np.isfinite(jet(np.array([0.0, np.pi]), 0.3)))


def test_sympy_symbols_stay_reachable():
    assert isinstance(flib.THETA, sp.Symbol) and flib.PHI.name == "phi"
    with pytest.raises(AttributeError):
        flib.NOT_A_SYMBOL


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
    code, err = run_cli(["distribution", "--pmax", "1", "--tolerance", "1"] + args, capsys)
    assert code == 2 and err.startswith("error: config: need")


def test_distribution_keeps_rules_up_to_the_caps(capsys):
    assert run_cli(["distribution", "--pmax", "1", "--tolerance", "1", "--Q", "2",
                    "--nodes", str(2 * splib.MAX_PANEL_NODES)], capsys)[0] == 0
    # a short Q is still a truncation error, not a config one
    assert run_cli(["distribution", "--Q", "10"], capsys)[0] == 3


def test_verify_rejects_a_negative_parseval_lmax(capsys):
    code, err = run_cli(["verify", "--only", "parseval", "--parseval-lmax", "-1"], capsys)
    assert code == 2 and err.startswith("error: config: parseval lmax")


@pytest.mark.parametrize("chi", ["trig-1", "trigx", "trig1.5", "1,2", "2,-3",
                                 "-1,0", "1,0,0", "1", "x", ""])
def test_confine_rejects_bad_field_selectors(chi, capsys):
    code, err = run_cli(["confine", f"--chi={chi}", "--q3", "0.01,0.1"], capsys)
    if chi == "1":  # the constant field
        assert code == 0
    else:
        assert code == 2 and err.startswith("error: config: --chi"), err
