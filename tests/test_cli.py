import argparse
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfquant import charts as chlib
from surfquant import cli
from surfquant import spectra as splib
from surfquant._repr import reprs
from surfquant.cli import _csv, _fmt, _json, main
from surfquant.errors import ShellFoldError
from surfquant.geometry import evaluate_frame, shell_frame


def run(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


def test_geom_sphere_row(tmp_path):
    out = tmp_path / "geom.csv"
    assert run(["geom", "--surface", "sphere", "--radius", "1",
                "--point", "1.0,0.5", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:5] == ["q1", "q2", "M", "K", "V_gp"]
    row = rows[0]
    assert abs(float(row["M"]) + 1.0) < 1e-12
    assert abs(float(row["K"]) - 1.0) < 1e-12
    assert abs(float(row["V_gp"])) < 1e-12


def test_geom_plane_and_cylinder(tmp_path):
    out = tmp_path / "plane.csv"
    assert run(["geom", "--surface", "plane", "--point", "0,0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0]["M"]) == 0.0 and float(rows[0]["K"]) == 0.0

    out2 = tmp_path / "cyl.csv"
    assert run(["geom", "--surface", "cylinder", "--radius", "2",
                "--point", "0,1", "--out", str(out2)]) == 0
    _, rows = read_csv(out2)
    assert abs(float(rows[0]["V_gp"]) + 1.0 / 32.0) < 1e-12


def test_geom_shell_columns_and_grid(tmp_path):
    out = tmp_path / "geom.csv"
    assert run(["geom", "--surface", "sphere", "--grid", "3x4",
                "--q3", "0.0,0.1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[-2:] == ["shell_det_q3_0", "shell_det_q3_0.1"]
    assert len(rows) == 12
    for row in rows:
        g = float(row["sqrt_g"]) ** 2
        assert abs(float(row["shell_det_q3_0"]) - g) < 1e-12
        assert abs(float(row["shell_det_q3_0.1"]) - g * 1.21**2) < 1e-12


def test_geom_singularity_exit_code(tmp_path, capsys):
    code = run(["geom", "--surface", "sphere", "--point", "0,0",
                "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 2
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: chart-singularity:")
    assert "(0.0, 0.0)" in err_lines[0]


def test_geom_unknown_surface_rejected(tmp_path, capsys):
    code = run(["geom", "--surface", "mobius", "--point", "0,0"])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_geom_wrong_parameter_rejected(capsys):
    code = run(["geom", "--surface", "torus", "--radius", "1", "--point", "1,1"])
    assert code == 2
    assert "does not take parameters" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["geom", "--surface", "sphere", "--radius", "3", "--param", "radius=2", "--point", "1,1"],
     "radius"),
    (["geom", "--surface", "torus", "--param", "minor_radius=0.3", "--param",
      "minor_radius=0.4", "--point", "1,1"], "minor_radius"),
    (["confine", "--surface", "torus", "--param", "minor_radius=0.3", "--param",
      "minor-radius=0.4"], "minor_radius"),
])
def test_a_surface_parameter_set_twice_is_refused(argv, key, capsys):
    # the last value used to win silently
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: config: surface parameter {key!r} is set twice\n"


def test_geom_json_format(tmp_path):
    out = tmp_path / "geom.json"
    assert run(["geom", "--surface", "torus", "--point", "0.5,1.0",
                "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["surface"] == "torus"
    assert list(payload["rows"][0])[:5] == ["q1", "q2", "M", "K", "V_gp"]


def test_distribution_table_and_compare(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    assert run(["distribution", "--l", "0", "--pmax", "6", "--dp", "0.05",
                "--compare-closed", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:5] == ["p", "re_amp", "im_amp", "density", "method"]
    assert header[5:] == ["re_closed", "im_closed", "density_closed"]
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert abs(float(center["density"]) - np.pi / 4.0) < 1e-8
    stdout = capsys.readouterr().out
    assert "max_density_deviation=" in stdout
    assert float(stdout.split("=")[1]) < 1e-8


def test_distribution_l2_zeros(tmp_path):
    out = tmp_path / "dist2.csv"
    assert run(["distribution", "--l", "2", "--pmax", "2", "--dp", "0.01",
                "--out", str(out)]) == 0
    _, rows = read_csv(out)
    root = 1.0 / np.sqrt(3.0)
    near = [r for r in rows if abs(abs(float(r["p"])) - root) < 0.006]
    assert near and all(float(r["density"]) < 1e-4 for r in near)


def test_distribution_closed_form_method(tmp_path, capsys):
    out = tmp_path / "closed.csv"
    assert run(["distribution", "--l", "2", "--pmax", "1", "--dp", "0.5",
                "--method", "closed_form", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["p", "re_amp", "im_amp", "density", "method"]
    assert len(rows) == 5
    raw = out.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    assert all(r["method"] == "closed_form" for r in rows)
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    # the overlap sign, as the quadrature's: the verbatim table has -sqrt(5 pi)/8
    assert abs(float(center["re_amp"]) - np.sqrt(5 * np.pi) / 8.0) < 1e-12
    # the recurrence covers every l, and matches the quadrature in sign
    paths = {}
    for method in ("closed_form", "quadrature"):
        path = tmp_path / f"l5_{method}.csv"
        assert run(["distribution", "--l", "5", "--pmax", "1", "--dp", "0.5",
                    "--method", method, "--out", str(path)]) == 0
        paths[method] = np.array([[float(r[k]) for k in ("im_amp", "re_amp")]
                                  for r in read_csv(path)[1]])
    assert np.max(np.abs(paths["closed_form"] - paths["quadrature"])) < 1e-13
    assert np.all(paths["closed_form"][:, 1] == 0.0)


def test_distribution_sho_overlay(tmp_path):
    out = tmp_path / "dist.csv"
    assert run(["distribution", "--l", "0", "--pmax", "1", "--dp", "0.5",
                "--sho-overlay", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "sho_density"
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert abs(float(center["sho_density"]) - 1.0 / np.sqrt(np.pi)) < 1e-12


def test_distribution_truncation_exit_code(tmp_path, capsys):
    # Q <= 1 at the default --nodes was a config error about the nodes the
    # user never gave: "need 1 <= nodes <= 1024 at Q = 1 ... got 1280"
    for Q in ("8", "1.5", "1", "0.5"):
        code = run(["distribution", "--l", "0", "--Q", Q, "--pmax", "1",
                    "--dp", "0.5", "--method", "quadrature", "--out", str(tmp_path / "d.csv")])
        assert code == 3, Q
        assert "error: quadrature-truncation:" in capsys.readouterr().err


def test_distribution_compare_closed_requires_low_l(capsys):
    code = run(["distribution", "--l", "3", "--pmax", "1", "--dp", "0.5",
                "--compare-closed"])
    assert code == 2
    assert "error: config:" in capsys.readouterr().err


def test_confine_slope_and_rows(tmp_path, capsys):
    out = tmp_path / "confine.csv"
    assert run(["confine", "--surface", "sphere", "--chi", "1,0",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "q3,deviation"
    slope_line = [l for l in text.splitlines() if l.startswith("# loglog_slope=")][0]
    slope = float(slope_line.split("=")[1])
    assert 0.95 <= slope <= 1.05
    assert "loglog_slope=" in capsys.readouterr().out


def test_confine_plane_zero_deviation(tmp_path):
    out = tmp_path / "confine.csv"
    assert run(["confine", "--surface", "plane", "--chi", "trig0",
                "--q3", "0.05,0.1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert all(float(r["deviation"]) == 0.0 for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius", ["1e-80", "1e77"])
def test_confine_on_a_sphere_near_the_ends_of_the_float_range(radius, capsys):
    # the shell's fold factor and d_mu M, d_mu K at |M| = 1e80 and 1e-77:
    # every row and the slope finite, with no RuntimeWarning, on offsets
    # 1e-4 and 1e-1 radii out, where the slope tends to 1; the large
    # sphere's profile width is its radius, as the unit sphere's is
    offsets = {"1e-80": ["--q3", "1e-84,1e-81"],
               "1e77": ["--q3", "1e73,1e76", "--width", "1e77"]}[radius]
    assert run(["confine", "--surface", "sphere", "--radius", radius] + offsets) == 0
    header, *lines, comment, slope_line = capsys.readouterr().out.splitlines()
    assert header == "q3,deviation" and len(lines) == 2
    assert comment.startswith("# loglog_slope=") and slope_line == comment[2:]
    rows = np.array([line.split(",") for line in lines], dtype=float)
    slope = float(slope_line.split("=")[1])
    assert np.isfinite(rows).all() and np.isfinite(slope)
    assert 0.95 <= slope <= 1.05


def test_confine_refuses_offsets_past_the_curvature_length(capsys):
    # the default offsets 1e-4..1e-1 lie about 1e76 radii out on this
    # sphere, where the fit says nothing about q3 -> 0 (slope -1.0004);
    # the cylinder's length is its radius, 1/k_max with k_max = 1/r, not
    # 1/|M| = 2r, and these offsets reach it (slope -0.916)
    for argv, largest in ([["--surface", "sphere", "--radius", "1e-80"], "0.1"],
                          [["--surface", "cylinder", "--q3", "0.5,1.0,1.5,1.9"], "1.9"]):
        assert run(["confine"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            f"error: config: the offset q3={largest} reaches the curvature length")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radius, length", [("1e13", "1e+13"), ("1e77", "1e+77")])
def test_confine_refuses_offsets_whose_deviations_are_rounding(radius, length, capsys):
    # the default offsets are 1e-17 and 1e-81 radii at the least, where the
    # deviations are rounding (slopes 36.4 and 0.0232)
    assert run(["confine", "--surface", "sphere", "--radius", radius]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(
        f"error: config: the offset q3=0.0001 is less than 1e-13 of the curvature "
        f"length 1/k_max = {length} (q3 k_max = ")


def test_confine_fold_exit_code(tmp_path, capsys):
    code = run(["confine", "--surface", "sphere", "--q3", "-1.0",
                "--out", str(tmp_path / "c.csv")])
    assert code == 4
    assert "error: shell-fold:" in capsys.readouterr().err


def test_verify_subset_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--only", "parseval", "--parseval-lmax", "2",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert payload["total"] == 3
    # report entry key order is part of the interface
    assert list(payload["checks"][0]) == [
        "identity_name", "chart", "field", "point", "residual", "tolerance", "pass",
    ]


def test_verify_tolerance_plumbing(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--only", "moment_second", "--tolerance", "1e-16",
                "--out", str(out)])
    assert code == 1  # below machine precision: expected failure
    payload = json.loads(out.read_text())  # report still written
    assert payload["failed"] >= 1
    assert payload["checks"][0]["tolerance"] == 1e-16


def test_verify_unknown_identity(capsys):
    code = run(["verify", "--only", "nonsense"])
    assert code == 2
    assert "unknown identities" in capsys.readouterr().err


def test_verify_negative_tolerance_rejected(capsys):
    code = run(["verify", "--only", "parseval", "--tolerance", "-1"])
    assert code == 2


def test_outputs_are_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["distribution", "--l", "1", "--pmax", "3", "--dp", "0.1",
            "--compare-closed"]
    assert run(args + ["--out", str(a)]) == 0
    deviation_line = capsys.readouterr().out
    assert float(deviation_line.split("=")[1]) < 1e-8  # l = 1 closed-form match
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    g1 = tmp_path / "g1.csv"
    g2 = tmp_path / "g2.csv"
    gargs = ["geom", "--surface", "torus", "--grid", "4x4", "--q3", "0.1"]
    assert run(gargs + ["--out", str(g1)]) == 0
    assert run(gargs + ["--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()

    c = tmp_path / "c.json"
    d = tmp_path / "d.json"
    vargs = ["verify", "--only", "dirichlet_kernel"]
    assert run(vargs + ["--out", str(c)]) == 0
    assert run(vargs + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_csv_uses_lf_and_decimal_points(tmp_path):
    out = tmp_path / "geom.csv"
    run(["geom", "--surface", "sphere", "--point", "1.0,0.5", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# distribution defaults\n"
        "l = 2\n"
        "pmax = 1\n"
        "dp = 0.5\n"
    )
    out = tmp_path / "from_cfg.csv"
    assert run(["distribution", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5  # pmax 1, dp 0.5
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert abs(float(center["density"]) - 5.0 * np.pi / 64.0) < 1e-8  # l = 2

    out2 = tmp_path / "flag_wins.csv"
    assert run(["distribution", "--config", str(cfg), "--l", "0",
                "--out", str(out2)]) == 0
    _, rows2 = read_csv(out2)
    center2 = [r for r in rows2 if float(r["p"]) == 0.0][0]
    assert abs(float(center2["density"]) - np.pi / 4.0) < 1e-8  # flag overrode l


def test_config_file_with_an_equals_sign_flag(tmp_path):
    cfg = tmp_path / "l.cfg"
    cfg.write_text("l = 1\npmax = 1\ndp = 0.5\n")
    out = tmp_path / "eq.csv"
    assert run(["distribution", f"--config={cfg}", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert float(center["density"]) == 0.0  # l = 1 vanishes at p = 0


@pytest.mark.parametrize("argv, message", [
    (["distribution", "--dp", "abc"], "argument --dp: invalid float value: 'abc'"),
    (["distribution", "--method", "spline"], "argument --method: invalid choice"),
    (["geom", "--point", "1,1"], "the following arguments are required: --surface"),
    ([], "the following arguments are required: command"),
    (["verify", "--format", "csv"], "unrecognized arguments: --format csv"),
])
def test_usage_errors_print_one_config_line(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {message}")
    assert captured.err.count("\n") == 1


def test_help_still_prints_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["distribution", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: surfquant distribution")


def test_config_file_lists_and_required_surface(tmp_path, capsys):
    cfg = tmp_path / "geom.cfg"
    cfg.write_text("surface = torus\n"
                   "param = major_radius=3 minor_radius=1\n"
                   "point = 1,2 0.5,0.5\n"
                   "q3 = 0.1\n")
    assert run(["geom", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",shell_det_q3_0.1") and len(lines) == 3
    assert [line.split(",")[:2] for line in lines[1:]] == [["1.0", "2.0"], ["0.5", "0.5"]]
    # M of the (3, 1) torus at q2 = 0 is -(a + 2b) / (2b(a + b)) = -5/8
    assert run(["geom", "--config", str(cfg), "--point", "0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.0,0.0,-0.625,")  # flags replace

    cfg = tmp_path / "verify.cfg"
    cfg.write_text("only = parseval moment_second\nparseval-lmax = 1\n")
    assert run(["verify", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["identity_name"] for c in report["checks"]] == ["parseval"] * 2 + ["moment_second"]

    cfg = tmp_path / "confine.cfg"
    cfg.write_text("surface = torus\nparam = major_radius=3 minor_radius=1\n"
                   "chi = 1\npoint = 1,0.5\nq3 = 0.01,0.1\nformat = json\n")
    assert run(["confine", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out.split("loglog_slope=")[0])
    assert payload["surface"] == "torus" and payload["chi"] == "const(1)"
    assert payload["point"] == [1.0, 0.5]


def test_distribution_is_exact_at_high_l_by_either_method(tmp_path):
    exact = splib.amplitude_recurrence(24, splib.symmetric_grid(30.0, 0.25))
    for method in ("closed_form", "quadrature"):
        out = tmp_path / f"{method}.csv"
        assert run(["distribution", "--l", "24", "--pmax", "30", "--dp", "0.25",
                    "--method", method, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        amps = np.array([float(r["re_amp"]) + 1j * float(r["im_amp"]) for r in rows])
        assert np.max(np.abs(amps - exact)) <= 1e-13


def test_config_key_the_command_does_not_take(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("pmx = 10\n")
    code = run(["distribution", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config:") and "pmx" in captured.err
    # a key of another command is unknown to this one too
    cfg.write_text("lmax = 2\n")
    assert run(["distribution", "--config", str(cfg)]) == 2
    assert "lmax" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing config", "directory config", "missing out dir"])
def test_unopenable_paths_are_config_errors(where, tmp_path, capsys):
    args = {
        "missing config": ["--config", str(tmp_path / "none.cfg")],
        "directory config": ["--config", str(tmp_path)],
        "missing out dir": ["--out", str(tmp_path / "no" / "d.csv")],
    }[where]
    code = run(["distribution", "--pmax", "1", "--dp", "0.5"] + args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config:")
    assert len(captured.err.splitlines()) == 1


def test_argv_is_parsed_once_without_config(monkeypatch, capsys):
    calls = []
    parse = argparse.ArgumentParser.parse_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    assert run(["geom", "--surface", "sphere", "--point", "1,0.5"]) == 0
    assert calls == ["surfquant"]


@pytest.mark.parametrize("q3", ["0.01", "0.01,0.01", "0", "-0.01,0.02"])
def test_confine_needs_two_distinct_positive_offsets(q3, capfd):
    code = run(["confine", f"--q3={q3}"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    # one line, with no LAPACK complaint and no numpy warning before it
    assert captured.err.startswith("error: config: the log-log slope needs")
    assert len(captured.err.splitlines()) == 1


DISTRIBUTION_HEADER = ["p", "re_amp", "im_amp", "density", "method",
                       "re_closed", "im_closed", "density_closed", "sho_density"]


def test_distribution_csv_and_json_layout(tmp_path, capsys):
    args = ["distribution", "--l", "1", "--pmax", "2", "--dp", "0.25",
            "--compare-closed", "--sho-overlay"]
    csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
    assert run(args + ["--out", str(csv_path)]) == 0
    assert run(args + ["--format", "json", "--out", str(json_path)]) == 0
    deviations = capsys.readouterr().out.splitlines()
    assert len(deviations) == 2 and deviations[0] == deviations[1]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(DISTRIBUTION_HEADER)
    assert len(lines) == 1 + 17
    payload = json.loads(json_path.read_text())
    assert list(payload) == ["l", "samples"] and payload["l"] == 1
    assert len(payload["samples"]) == 17
    for line, sample in zip(lines[1:], payload["samples"]):
        assert list(sample) == DISTRIBUTION_HEADER
        assert sample["method"] == "closed_form"  # the default
        # the CSV prints each JSON value in shortest form, -0.0 folded
        cells = [sample[k] if k == "method" else repr(sample[k] + 0.0)
                 for k in DISTRIBUTION_HEADER]
        assert line == ",".join(cells)


def test_column_formatter_matches_fmt():
    column = np.array([-0.0, 0.0, -1e-300, 0.1, -2.5, 1e22, np.inf, np.nan])
    text = _csv({"a": column, "label": "x%y", "b": column[::-1].tolist()})
    header, *lines = text.splitlines()
    assert header == "a,label,b" and text.endswith("\n")
    assert lines == [f"{_fmt(a)},x%y,{_fmt(b)}" for a, b in zip(column, column[::-1])]
    assert lines[0].startswith("0.0,")


def _reference_csv(columns):
    """The CSV text printed one cell at a time with _fmt."""
    rows = len(next(c for c in columns.values() if not isinstance(c, str)))
    lines = [",".join(c if isinstance(c, str) else _fmt(c[k]) for c in columns.values())
             for k in range(rows)]
    return "\n".join([",".join(columns)] + lines) + "\n"


# Few values, so that repeats and +-x pairs are common, and the edge cases of
# shortest round-trip printing: signed zeros, non-finite values, subnormals,
# and the exponent switches near 1e16 and 1e-4.
CELL_POOL = [0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1 / 3, -1 / 3, np.nan, -np.nan, np.inf,
             -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
             9999999999999998.0, 1e-4, 9.999999999999999e-05, -1e-4, 1e-5]
CELLS = st.one_of(st.sampled_from(CELL_POOL), st.floats(width=64))


@st.composite
def csv_tables(draw):
    rows = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5).filter(any))
    columns = {}
    for j, is_float in enumerate(kinds):
        if is_float:
            column = draw(st.lists(CELLS, min_size=rows, max_size=rows))
            columns[f"f{j}"] = np.array(column) if draw(st.booleans()) else column
        else:
            columns[f"s%{j}"] = draw(st.text(alphabet="ab%s(d)r%, ", max_size=6))
    return columns


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_tables())
@example({"a": [5e-324], "s": "%%", "b": [-0.0]})  # one row
@example({"a": [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e16, -1e16]})  # one column
@example({"a": [1e-5]})  # one row, one column
@example({"%": "%(a)s", "a": [2.0, -2.0, 2.0], "%%": "%%"})
# negatives of one column with (-1.5, -0.1, -inf) and without (-2.5, -1e-300)
# a positive twin in the other columns, and a -nan beside a nan
@example({"a": [-1.5, -2.5, -0.1, -np.inf, -1e-300, -np.nan],
          "b": np.array([0.1, 3.0, 1.5, 7.0, np.nan, 1e-300 * 2]),
          "c": [np.inf, 2.5e-3, 0.0, -0.0, 4.0, 1.0]})
def test_csv_matches_the_per_cell_reference(columns):
    assert _csv(columns) == _reference_csv(columns)


@pytest.mark.parametrize("count", [cli._KERNEL_MIN_TEXTS - 1, cli._KERNEL_MIN_TEXTS])
def test_csv_just_below_and_above_the_kernel_size_matches_the_reference(count, monkeypatch):
    # _cells makes its texts with _repr.reprs from _KERNEL_MIN_TEXTS of them up
    rng = np.random.default_rng([7, count])
    magnitudes = np.unique(rng.random(count) * 10.0 ** rng.integers(-8, 20, count))
    assert len(magnitudes) == count  # the texts _cells makes: one per magnitude
    # every negative has its positive twin, so the count of texts stays put
    columns = {"x": magnitudes, "label": "a%s", "y": -magnitudes[::-1]}
    calls = []
    monkeypatch.setattr(cli, "reprs", lambda x: calls.append(len(x)) or reprs(x))
    text = _csv(columns)
    assert calls == ([count] if count >= cli._KERNEL_MIN_TEXTS else [])
    assert text == _reference_csv(columns)


def _reference_json(payload, table):
    """The JSON text of the dict form: one dict of Python floats and strs
    (and an object column's values, a tuple as a list of floats) per row of
    payload[table], through json.dumps."""
    columns = payload[table]

    def cell(col, k):
        if isinstance(col, str):
            return col
        if getattr(col, "dtype", None) == object:
            return [float(x) for x in col[k]] if isinstance(col[k], tuple) else col[k]
        return float(col[k])

    rows = len(next(c for c in columns.values() if not isinstance(c, str)))
    dicts = [{key: cell(col, k) for key, col in columns.items()} for k in range(rows)]
    return json.dumps({**payload, table: dicts}, indent=2) + "\n"


JSON_TEXT = st.text(alphabet='a%s"\\\né', max_size=4)


@st.composite
def json_payloads(draw):
    """A csv_tables table, with a str column whose key and text json.dumps
    escapes, at a drawn place among head entries of every kind."""
    table = draw(csv_tables())
    if draw(st.booleans()):
        table[draw(JSON_TEXT)] = draw(JSON_TEXT)
    head = draw(st.dictionaries(JSON_TEXT, st.one_of(
        CELLS, st.integers(), JSON_TEXT, st.lists(CELLS, max_size=3),
        st.dictionaries(JSON_TEXT, CELLS, max_size=2)), max_size=3))
    key = draw(JSON_TEXT.filter(lambda k: k not in head))
    items = list(head.items())
    items.insert(draw(st.integers(0, len(items))), (key, table))
    return dict(items), key


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_payloads())
@example(({"l": 1, "samples": {"p": [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf],
                                "method": "closed_form"}}, "samples"))
@example(({"rows": {"a": [-1.5, -2.5, 1.5, -np.inf, 5e-324, -0.0]}, "%": "%s"}, "rows"))
def test_json_matches_the_per_row_reference(case):
    payload, table = case
    assert _json(payload, table) == _reference_json(payload, table)


def objects(values):
    return np.fromiter(values, dtype=object, count=len(values))


@st.composite
def object_tables(draw):
    """Tables of float, str and object columns, the object columns' rows
    None, bools, strs json.dumps escapes, or tuples of one drawn width."""
    rows = draw(st.integers(0, 8))
    columns = {}
    for j in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["float", "str", "objects", "tuples"]))
        if kind == "float":
            columns[f"f{j}"] = draw(st.lists(CELLS, min_size=rows, max_size=rows))
        elif kind == "str":
            columns[f"s%{j}"] = draw(JSON_TEXT)
        elif kind == "objects":
            values = st.one_of(st.none(), st.booleans(), JSON_TEXT)
            columns[f"o{j}"] = objects(draw(st.lists(values, min_size=rows, max_size=rows)))
        else:
            width = draw(st.integers(1, 3))
            values = st.one_of(st.none(), st.tuples(*[CELLS] * width))
            columns[f"t{j}"] = objects(draw(st.lists(values, min_size=rows, max_size=rows)))
    if not any(not isinstance(col, str) for col in columns.values()):
        columns["f"] = draw(st.lists(CELLS, min_size=rows, max_size=rows))
    return {"head": 1, "rows": columns, "tail": [0.5, None]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(object_tables())
@example({"rows": {"point": objects([(-0.0, 0.5), None]), "pass": objects([True, False]),
                   "field": objects([None, 'f"%s\\']), "residual": [np.nan, -np.inf]}})
@example({"rows": {"point": objects([None, None]), "name": "x"}})  # no tuple at all
@example({"rows": {"point": objects([]), "r": []}, "total": 0})  # no row
def test_json_object_columns_match_the_per_row_reference(payload):
    assert _json(payload, "rows") == _reference_json(payload, "rows")


@pytest.mark.parametrize("argv", [
    ["distribution", "--l", "1", "--pmax", "2", "--dp", "0.25", "--compare-closed",
     "--sho-overlay"],
    ["geom", "--surface", "plane", "--point", "0,0", "--q3", "0.1"],
    ["geom", "--surface", "torus", "--grid", "4x5", "--point", "0.5,1", "--q3",
     "0.01,-0.2"],
    ["confine", "--surface", "torus", "--chi", "trig2"],
], ids=["distribution", "geom-plane", "geom-torus", "confine"])
def test_cli_json_bytes_are_those_of_the_dict_form(argv, tmp_path, capsys, monkeypatch):
    argv = argv + ["--format", "json"]
    out = tmp_path / "table.json"
    assert run(argv + ["--out", str(out)]) == 0
    summary = capsys.readouterr().out  # the deviation or slope line, if any
    assert run(argv) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(cli, "_json", _reference_json)
    assert run(argv) == 0
    assert printed == capsys.readouterr().out
    assert out.read_bytes().decode() + summary == printed


def test_plane_geom_json_keeps_the_sign_of_zero(capsys):
    # V_gp = -(hbar^2 / 2 mu)(M^2 - K) is -0.0 on the plane: the CSV folds
    # it into 0.0, the JSON prints it as json.dumps does
    argv = ["geom", "--surface", "plane", "--point", "0,0", "--q3", "0.1"]
    assert run(argv + ["--format", "json"]) == 0
    cells = ['"q1": 0.0', '"q2": 0.0', '"M": 0.0', '"K": 0.0', '"V_gp": -0.0',
             '"n_x": 0.0', '"n_y": 0.0', '"n_z": 1.0', '"sqrt_g": 1.0',
             '"shell_det_q3_0.1": 1.0']
    assert capsys.readouterr().out == (
        '{\n  "surface": "plane",\n  "params": {\n    "extent": 1.0\n  },\n'
        '  "rows": [\n    {\n      ' + ",\n      ".join(cells) + "\n    }\n  ]\n}\n"
    )
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0,1.0,1.0"


@pytest.mark.parametrize("argv", [
    ["geom", "--surface", "torus", "--grid", "3x4", "--q3", "0.01"],
    ["distribution", "--l", "2", "--compare-closed"],
])
def test_cli_float_cells_print_as_fmt(argv, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run(argv + ["--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows
    cells = [row[key] for row in rows for key in header if key != "method"]
    assert len(cells) == len(rows) * (len(header) - ("method" in header))
    assert all(cell == _fmt(float(cell)) for cell in cells)


@pytest.mark.parametrize("args", [
    ["--dp", "0"], ["--dp", "-0.05"], ["--dp", "nan"], ["--dp", "inf"],
    ["--pmax", "nan"], ["--pmax", "inf"], ["--pmax", "-1"],
    ["--pmax", "1001", "--dp", "1"],
])
def test_distribution_rejects_bad_grids(args, capsys):
    code = run(["distribution"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: config:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("args, message", [
    (["--l", "1", "--pmax", "1e308"], "the p grid's sample count 2 p_max / dp + 1 overflows"),
    (["--pmax", "10", "--dp", "1e-300"], "the p grid would have 2e+301 samples"),
    (["--pmax", "1000", "--dp", "1e-3"], "the p grid would have 2000001 samples"),
], ids=["overflow", "tiny-dp", "past-the-cap"])
def test_distribution_refuses_an_oversized_grid(args, message, capsys):
    code = run(["distribution"] + args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {message}")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("args, message", [
    # 500,000 points: under the old cap of 1,000,000 points, over the cell bound
    (["--grid", "1000x500"], "500000 points of 9 columns make 4500000 table cells"),
    (["--grid", "100x100", "--q3=" + ",".join(f"{1e-5 * k:.5g}" for k in range(1, 401))],
     "10000 points of 409 columns make 4090000 table cells"),
], ids=["grid", "offsets"])
def test_geom_refuses_too_many_table_cells(args, message, capsys, monkeypatch):
    frames = []
    monkeypatch.setattr(cli, "evaluate_frame", lambda *a: frames.append(a))
    code = run(["geom", "--surface", "torus"] + args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: config: {message}, more than the {cli.MAX_GEOM_CELLS} allowed\n"
    )
    assert frames == []  # refused before any frame is evaluated


def test_distribution_resolves_large_p(capsys):
    # the true density at p = 60 is about 4e-82; a fixed 32-node rule gave 1.8e-3
    assert run(["distribution", "--pmax", "60", "--dp", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 25
    assert all(float(row.split(",")[3]) < 1e-28 for row in rows if "60.0," in row)


def test_verify_rejects_an_empty_field_library(capsys):
    code = run(["verify", "--lmax", "-1", "--trig", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config: empty field library")
    # suites that use no field library still run
    assert run(["verify", "--lmax", "-1", "--trig", "0",
                "--only", "dirichlet_kernel"]) == 0


@pytest.mark.parametrize("command", [
    ["geom", "--surface", "torus", "--point", "1,1", "--q3", "nan"],
    ["geom", "--surface", "torus", "--point", "1,1", "--q3", "0.1,inf"],
    ["confine", "--q3", "0.01,nan"],
])
def test_non_finite_shell_offsets_are_rejected(command, capsys):
    code = run(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config: values must be finite")


@pytest.mark.parametrize("q3, first, second", [
    ("0.1,0.1000001", 0.1, 0.1000001),  # both print as 0.1
    ("0.2,0.1,2e-1", 0.2, 0.2),
])
def test_shell_offsets_that_share_a_column_name_are_rejected(q3, first, second, capsys):
    # was one shell_det_q3_0.1 column holding the last offset's determinant, exit 0
    code = run(["geom", "--surface", "torus", "--point", "1,1", "--q3", q3])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: config: --q3 offsets {first!r} and {second!r} "
                            f"share the column shell_det_q3_{first:g}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", [
    ["confine", "--width", "0"],  # was a ZeroDivisionError traceback, exit 1
    ["confine", "--width", "nan"],  # was nan rows and loglog_slope=nan, exit 0
    ["confine", "--width", "-1"],
    ["confine", "--width", "inf"],
    ["confine", "--width", "1e-200"],  # was a ZeroDivisionError traceback, exit 1
    ["confine", "--width", "1e200"],  # was an OverflowError traceback, exit 1
    ["geom", "--surface", "sphere", "--point", "1,0.5", "--hbar", "nan"],  # V_gp nan
    ["geom", "--surface", "sphere", "--point", "1,0.5", "--mu", "inf"],  # V_gp 0.0
    ["geom", "--surface", "sphere", "--point", "1,0.5", "--hbar", "0"],
    ["verify", "--only", "parseval", "--tolerance", "nan"],  # wrote "tolerance": NaN
    ["verify", "--only", "parseval", "--tolerance", "inf"],  # passed every check
    ["distribution", "--method", "quadrature", "--Q", "2", "--tolerance", "nan"],
    ["distribution", "--tolerance", "inf"],
    # two RuntimeWarnings, then a chart-singularity error naming a tangent degeneracy
    ["geom", "--surface", "sphere", "--radius", "inf", "--point", "1,1"],
    # a tangent degeneracy reported at a regular point
    ["geom", "--surface", "sphere", "--radius", "nan", "--point", "1,1"],
    # "the geometric potential overflows"
    ["geom", "--surface", "torus", "--param", "major_radius=inf", "--point", "1,1"],
    ["confine", "--surface", "cylinder", "--param", "half_height=-inf"],
    # a finite extent whose grid span overflows: a RuntimeWarning, then
    # "point (inf, inf) is outside"
    ["geom", "--surface", "plane", "--param", "extent=1e308", "--grid", "2x2"],
])
def test_non_finite_or_non_positive_constants_are_config_errors(command, capsys):
    code = run(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config:")
    assert "finite and positive" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["geom", "--surface", "torus", "--point", "1,1", "--q3", "1e200"],  # was shell_det nan
    ["geom", "--surface", "cylinder", "--point", "1,0", "--q3", "1e160"],  # was inf
    ["geom", "--surface", "sphere", "--point", "1,0.5", "--point", "1,1", "--q3", "0.1,1e200"],
    ["confine", "--q3", "1e200,1e201"],  # was nan rows and loglog_slope=nan
    ["confine", "--surface", "cylinder", "--q3", "0.01,1e160"],
])
def test_overflowing_shell_offsets_are_config_errors(command, capsys):
    code = run(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: config: shell offset q3=1e+")
    assert "overflows the shell metric" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("option, value", [("--hbar", "1e200"), ("--mu", "1e-320")])
def test_an_overflowing_geometric_potential_is_a_config_error(option, value, capsys):
    # was V_gp inf, exit 0; the error names the first failing point
    code = run(["geom", "--surface", "sphere", "--point", "1,0.5", "--point", "1,1",
                option, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: config: the geometric potential overflows at (1.0, 0.5) "
        f"(hbar={1e200 if option == '--hbar' else 1.0}, "
        f"mu={1e-320 if option == '--mu' else 1.0})\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, point", [
    # was seven RuntimeWarnings, then a shell-fold error with factor nan, exit 4
    (["confine", "--surface", "sphere", "--radius", "1e200"], (1.0, 0.5)),
    # sqrt g overflows: the frame is scaled per point, so it answers radii
    # from about 1e-154 to 1e154 (1e100 and 1e-100 were refused before)
    (["geom", "--surface", "sphere", "--radius", "1e200", "--point", "1,1"], (1.0, 1.0)),
    # K = 1/R^2 overflows
    (["geom", "--surface", "sphere", "--radius", "1e-155", "--point", "1,1"], (1.0, 1.0)),
    (["geom", "--surface", "sphere", "--radius", "1e-200", "--point", "1,1"], (1.0, 1.0)),
])
def test_a_frame_past_the_float_range_is_a_config_error(command, point, capsys):
    code = run(command)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: config: the sphere chart's frame is not finite at {point}: its "
        "metric or curvatures overflow or underflow the float range\n"
    )


def test_confine_past_the_float_range_of_the_profile_is_silent(capsys):
    # q3^2 overflows in the Gaussian profile, which is 0.0 there
    assert run(["confine", "--surface", "plane", "--q3", "1e300,1e301"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "1e+300,0.0\n1e+301,0.0\n" in captured.out


def test_flat_profile_ignores_the_width(capsys):
    assert run(["confine", "--profile", "flat", "--width", "nan"]) == 0
    assert "nan" not in capsys.readouterr().out


def test_shell_frame_treats_nan_as_a_fold():
    frame = evaluate_frame(chlib.torus(), 1.0, 1.0)
    with pytest.raises(ShellFoldError):
        shell_frame(frame, np.nan)
    with pytest.raises(ShellFoldError):
        shell_frame(frame, np.array([0.1, np.nan]))


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of one CLI call; -h exits through SystemExit."""
    try:
        code = run(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PLANE = ["geom", "--surface", "plane", "--param", "extent=5"]
PLANE_ROW = ",0.0,0.0,0.0,0.0,0.0,1.0,1.0"  # M, K, V_gp, n, sqrt_g on the plane


@pytest.mark.parametrize("argv, message", [
    (PLANE + ["--point"], "argument --point: expected one argument"),
    (PLANE + ["--point", "-1,2"], "argument --point: expected one argument"),
    (PLANE + ["--q3", "--point", "1,2", "0.1"], "argument --q3: expected one argument"),
    (PLANE + ["--point", "1,2", "--", "--point", "3,4"], "unrecognized arguments:"),
    (PLANE + ["--p", "1,2"], "ambiguous option: --p could match --param, --point"),
    (PLANE + ["--point="], "point must be 'q1,q2' (got '')"),
    (PLANE + ["--point", ""], "point must be 'q1,q2' (got '')"),
    (PLANE + ["--point", "1,2", "--point", "3,4", "0.5"], "unrecognized arguments: 0.5"),
])
def test_rejected_point_flags_read_as_argparse_reads_them(argv, message, capsys, monkeypatch):
    code, out, err = outcome(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config: {message}") and err.count("\n") == 1
    monkeypatch.setattr(cli, "_lift_points", lambda argv, parser: (argv, []))
    assert outcome(argv, capsys) == (code, out, err)


@pytest.mark.parametrize("argv, rows", [
    (PLANE + ["--point=-1,2"], ["-1.0,2.0"]),
    (PLANE + ["--point", "-1, 2", "--point", "1,1"], ["-1.0,2.0", "1.0,1.0"]),
    (PLANE + ["--point", "1,1", "--point", "-1, 2"], ["1.0,1.0", "-1.0,2.0"]),
    (PLANE + ["--poi", "1,1", "--point", "2,2", "--po=3,3"], ["1.0,1.0", "2.0,2.0", "3.0,3.0"]),
    (PLANE + ["--q3=0.1", "--point", "1,2", "--point", "3,4", "--format", "json"], None),
    (["geom", "--config", "{cfg}"], ["1.0,2.0", "0.5,0.5"]),
    (["geom", "--config", "{cfg}", "--point", "0.3,0.3"], ["0.3,0.3"]),
    (PLANE + ["--point", "1,1", "--grid", "1x1", "--point", "2,2"],
     ["1.0,1.0", "2.0,2.0", "0.0,0.0"]),
    (PLANE + ["--point", "1,1", "-h"], None),
    (["confine", "--point", "1,0.5"], None),
])
def test_accepted_point_flags_read_as_argparse_reads_them(
        argv, rows, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "points.cfg"
    cfg.write_text("surface = plane\nparam = extent=5\npoint = 1,2 0.5,0.5\n")
    argv = [str(cfg) if arg == "{cfg}" else arg for arg in argv]
    code, out, err = outcome(argv, capsys)
    assert (code, err) == (0, "")
    if rows is not None:
        assert out.splitlines()[1:] == [row + PLANE_ROW for row in rows]
    monkeypatch.setattr(cli, "_lift_points", lambda argv, parser: (argv, []))
    assert outcome(argv, capsys) == (code, out, err)


def test_point_flags_are_lifted_unless_a_neighbour_would_read_differently():
    spellings = cli._shared_parser()[1]
    assert spellings == {"--po", "--poi", "--poin", "--point"}  # --p is also --param
    lifted = PLANE + ["--poi", "1,1", "--q3=0.1", "--point", "2,2", "--po=-3,3",
                      "--format", "json", "--", "--point", "4,4"]
    assert cli._lift_points(lifted, spellings) == (
        PLANE + ["--q3=0.1", "--format", "json", "--", "--point", "4,4"],
        ["1,1", "2,2", "-3,3"],
    )
    for tail in (["--point"], ["--point", "-1,2"], ["--point", ""], ["--point="],
                 ["--q3", "--point", "1,2"], ["--q3", "--po=1,2"]):
        assert cli._lift_points(PLANE + tail, spellings) == (PLANE + tail, [])
    assert cli._lift_points(["confine", "--point", "1,2"], spellings) == (
        ["confine", "--point", "1,2"], [])


def test_geom_reads_many_points_in_linear_time(tmp_path):
    rng = np.random.default_rng(7)
    argv = ["geom", "--surface", "torus", "--q3=0.01", "--out", str(tmp_path / "g.csv")]
    for q1, q2 in rng.uniform(0.0, 6.0, size=(20000, 2)).tolist():
        argv += ["--point", f"{q1!r},{q2!r}"]
    start = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - start < 4.0  # a quadratic argv scan takes ~20 s
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 20001


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
def test_geom_bisects_for_the_first_failing_point(n, capsys, monkeypatch):
    calls = []
    geom_columns = cli._geom_columns

    def counting(chart, q1, q2, *args):
        calls.append(len(q1))
        return geom_columns(chart, q1, q2, *args)

    monkeypatch.setattr(cli, "_geom_columns", counting)
    argv = ["geom", "--surface", "sphere"]
    for q2 in np.linspace(0.0, 6.0, n - 1).tolist():
        argv += ["--point", f"1.0,{q2!r}"]
    code, out, err = outcome(argv + ["--point", "0.0,1.0"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: chart-singularity: sphere chart singular at (0.0, 1.0)")
    assert len(calls) <= int(np.ceil(np.log2(n))) + 2  # a per-point search makes n + 1
    assert calls[-1] == 1


# Per surface: the geom flags and its good, singular, outside-domain and
# folding points (the torus has no bounded axis, the sphere no point-wise fold).
GEOM_MIXES = {
    "sphere": (["--q3", "0.1"], ["1.0,0.5", "2.0,3.0", "3.0,6.0", "0.5,0.1"],
               ["0.0,1.0", "1.0,nan"], ["4.0,1.0", "-1.0,2.0", "nan,1.0"], []),
    "torus": (["--q3", "0.1,1.6"], ["0.0,0.0", "1.0,2.0", "2.0,1.0", "5.0,5.5"],
              ["0.0,nan", "nan,1.0"], [], ["0.0,3.14159", "1.0,3.0", "4.0,3.3"]),
}


@pytest.mark.parametrize("surface", sorted(GEOM_MIXES))
@pytest.mark.parametrize("seed", range(6))
def test_geom_names_the_first_failing_point_of_a_mix(surface, seed, capsys):
    flags, *kinds = GEOM_MIXES[surface]
    rng = np.random.default_rng(seed)
    pool = [point for kind in kinds for point in kind]
    weights = np.concatenate([np.full(len(kind), 1.0 if j == 0 else 0.1)
                              for j, kind in enumerate(kinds)])
    points = rng.choice(pool, size=int(rng.integers(1, 24)), p=weights / weights.sum())
    base = ["geom", "--surface", surface] + flags
    reference = (0, "")
    for point in points:  # the first point that fails alone, in input order
        code, _, err = outcome(base + [f"--point={point}"], capsys)
        if code:
            reference = (code, err)
            break
    code, _, err = outcome(base + [f"--point={point}" for point in points], capsys)
    assert (code, err) == reference


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "json.cfg"
    cfg.write_text("format = json\n")
    argv = ["geom", "--surface", "sphere", "--point", "1,0.5"]
    assert run(argv + ["--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["surface"] == "sphere"
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("q1,q2,M,K,")


@pytest.mark.parametrize("command, line", [
    ("geom", "format = xml"),
    ("confine", "profile = bogus"),
    ("distribution", "method = spline"),
])
def test_config_values_must_be_choices(command, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"surface = sphere\npoint = 1,0.5\n{line}\n" if command == "geom"
                   else f"{line}\n")
    code, out, err = outcome([command, "--config", str(cfg)], capsys)
    key, value = (tok.strip() for tok in line.split("="))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config: {cfg}: argument --{key}: invalid choice: '{value}'")
    assert err.count("\n") == 1


# Per command: a config file and the flags that give the same options.
CONFIG_AS_FLAGS = {
    "distribution": (
        "l = 2\npmax = 1.5\ndp=0.25\nmethod = quadrature\n"
        "compare_closed = true\nsho-overlay = false\n",
        ["--l", "2", "--pmax", "1.5", "--dp", "0.25", "--method", "quadrature",
         "--compare-closed"],
    ),
    "geom": (
        "surface = torus\nparam = major_radius=3 minor_radius=1\n"
        "point = 1,2 -0.5,0.5\nq3 = 0.1\nhbar = 2\nformat = json\n",
        ["--surface", "torus", "--param", "major_radius=3", "--param", "minor_radius=1",
         "--point", "1,2", "--point=-0.5,0.5", "--q3", "0.1", "--hbar", "2",
         "--format", "json"],
    ),
    "confine": (
        "surface = torus\nparam = major_radius=3\nprofile = flat\nwidth = 2\n"
        "point = 1,0.5\n",
        ["--surface", "torus", "--param", "major_radius=3", "--profile", "flat",
         "--width", "2", "--point", "1,0.5"],
    ),
    "verify": (
        "only = parseval moment_second\nparseval-lmax = 16\npoints = 3\n"
        "tolerance = 1e-9\n",
        ["--only", "parseval", "--only", "moment_second", "--parseval-lmax", "16",
         "--points", "3", "--tolerance", "1e-9"],
    ),
}


@pytest.mark.parametrize("command", sorted(CONFIG_AS_FLAGS))
def test_config_values_parse_as_their_flags(command, tmp_path):
    text, flags = CONFIG_AS_FLAGS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    from_file = vars(cli._parse_args([command, "--config", str(cfg)]))
    from_flags = vars(cli._parse_args([command] + flags))
    assert from_file.pop("config") == str(cfg) and from_flags.pop("config") is None
    assert from_file == from_flags


@pytest.mark.parametrize("line, message", [
    ("dp = true", "argument --dp: invalid float value: 'true'"),
    ("l = false", "argument --l: invalid int value: 'false'"),
    ("compare_closed = no", "argument --compare-closed: ignored explicit argument 'no'"),
    ("compare_closed = 0", "argument --compare-closed: ignored explicit argument '0'"),
    ("sho_overlay = off", "argument --sho-overlay: ignored explicit argument 'off'"),
])
def test_config_values_are_checked_as_flags(line, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"pmax = 1\n{line}\n")
    code, out, err = outcome(["distribution", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: config: {cfg}: {message}\n")


@pytest.mark.filterwarnings("error")
def test_closed_form_columns_are_silent_at_the_largest_p(capfd):
    pmax = str(splib.MAX_ABS_P)
    assert run(["distribution", "--compare-closed", "--pmax", pmax, "--dp", "10"]) == 0
    captured = capfd.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith("max_density_deviation=")
