import json

import numpy as np
import pytest

from surfquant import charts as chlib
from surfquant.cli import _fmt, _fmt_column, main
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
    _, rows = read_csv(out)
    assert all(r["method"] == "closed_form" for r in rows)
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert abs(float(center["re_amp"]) + np.sqrt(5 * np.pi) / 8.0) < 1e-12
    code = run(["distribution", "--l", "5", "--pmax", "1", "--dp", "0.5",
                "--method", "closed_form"])
    assert code == 2
    assert "closed forms available" in capsys.readouterr().err


def test_distribution_sho_overlay(tmp_path):
    out = tmp_path / "dist.csv"
    assert run(["distribution", "--l", "0", "--pmax", "1", "--dp", "0.5",
                "--sho-overlay", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[-1] == "sho_density"
    center = [r for r in rows if float(r["p"]) == 0.0][0]
    assert abs(float(center["sho_density"]) - 1.0 / np.sqrt(np.pi)) < 1e-12


def test_distribution_truncation_exit_code(tmp_path, capsys):
    code = run(["distribution", "--l", "0", "--Q", "8", "--pmax", "1",
                "--dp", "0.5", "--out", str(tmp_path / "d.csv")])
    assert code == 3
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
        assert sample["method"] == "quadrature"
        # the CSV prints each JSON value in shortest form, -0.0 folded
        cells = [sample[k] if k == "method" else repr(sample[k] + 0.0)
                 for k in DISTRIBUTION_HEADER]
        assert line == ",".join(cells)


def test_column_formatter_matches_fmt():
    column = np.array([-0.0, 0.0, -1e-300, 0.1, -2.5, 1e22, np.inf, np.nan])
    assert _fmt_column(column) == [_fmt(x) for x in column]
    assert _fmt_column(column)[0] == "0.0"


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


def test_shell_frame_treats_nan_as_a_fold():
    frame = evaluate_frame(chlib.torus(), 1.0, 1.0)
    with pytest.raises(ShellFoldError):
        shell_frame(frame, np.nan)
    with pytest.raises(ShellFoldError):
        shell_frame(frame, np.array([0.1, np.nan]))
