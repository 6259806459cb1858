import cmath
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import qborel
from qborel.cli import main


EULER = {"kind": "differential", "basis": "delta",
         "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
         "rhs": [[0.0, 0.0], [1.0, 0.0]]}

EXAMPLE41 = {"kind": "differential", "basis": "delta",
             "coefficients": [[[-1.0, 0.0]], [[1.0, 0.0]],
                              [[0.0, 0.0], [1.0, 0.0]],
                              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                               [1.0, 0.0], [1.0, 0.0]]]}

QEULER = {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
          "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
          "rhs": [[0.0, 0.0], [1.0, 0.0]]}

# z delta^2 y + delta y - y = 0: no series of valuation 0 solves it
ZERO_SERIES = {"kind": "differential", "basis": "delta",
               "coefficients": [[[-1.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}

# z sigma_q^2 y + sigma_q y - y = 0: the rz-Borel operator of its theta
# chain has the zero polynomial as its coefficient b_0
SIGMA_ZERO_COEFFICIENT = {"kind": "q_difference", "basis": "sigma_q", "q": 1.05,
                          "coefficients": [[[-1.0, 0.0]], [[1.0, 0.0]],
                                           [[0.0, 0.0], [1.0, 0.0]]]}

# (1 - z) delta y + y = z: a convergent series, summed without sections
CONVERGENT = {"kind": "differential", "basis": "delta",
              "coefficients": [[[1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
              "rhs": [[0.0, 0.0], [1.0, 0.0]]}

# (1 - z) delta_q y + y = z: a q-family whose limit is CONVERGENT
QCONVERGENT = {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
               "coefficients": [[[1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
               "rhs": [[0.0, 0.0], [1.0, 0.0]]}

# b0 = 1 + sqrt(q-1): entry [z^0] = [1 + 1*s], b1 = z; its (A3) constant
# c1 grows like (q-1)^(-1/2), so the family fails (A3)
FAILING_FAMILY = {
    "kind": "q_difference_family",
    "basis": "delta_q",
    "coefficients": [
        [[[1.0, 0.0], [1.0, 0.0]]],
        [[[0.0, 0.0]], [[1.0, 0.0]]],
    ],
    "rhs": [[0.0, 0.0], [1.0, 0.0]],
    "limit": EULER,
}

SIGMA_MINUS_TWO = {"kind": "q_difference", "basis": "sigma_q", "q": 2.0,
                   "coefficients": [[[-2.0, 0.0]], [[1.0, 0.0]]]}


@pytest.fixture
def opfiles(tmp_path):
    paths = {}
    for name, doc in (("euler", EULER), ("ex41", EXAMPLE41),
                      ("qeuler", QEULER), ("sigma2", SIGMA_MINUS_TWO),
                      ("zero", ZERO_SERIES), ("sigma_zero", SIGMA_ZERO_COEFFICIENT),
                      ("convergent", CONVERGENT), ("qconvergent", QCONVERGENT),
                      ("failing_family", FAILING_FAMILY)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def _run_fresh(code: str) -> str:
    """Standard output of `python -c code` in a fresh process on this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qborel.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_scipy_integrate_and_fft_unloaded():
    # scipy.fft and scipy.special are imported by the functions that use
    # them, so a fresh `import qborel.cli` loads none of these packages
    code = ("import sys, qborel.cli; print([m for m in ('scipy.integrate', "
            "'scipy.fft', 'scipy.special') if m in sys.modules])")
    assert _run_fresh(code) == "[]"


def test_stokes_jump_leaves_scipy_integrate_unloaded():
    # no module of the package imports scipy.integrate: building and
    # evaluating the Euler Stokes jump at pi, stage-table checks included,
    # leaves it unloaded
    code = ("import math, sys\n"
            "from qborel import classical as cl\n"
            "from qborel.operators import LinearOperator\n"
            "from qborel.series import Polynomial, PowerSeries, SectorPoint\n"
            "op = LinearOperator('differential', 'delta', (Polynomial([1.0]), "
            "Polynomial([0.0, 1.0])), None, PowerSeries([0.0, 1.0]))\n"
            "(J,) = cl.stokes_jump(None, op, math.pi, [SectorPoint.from_polar(0.2, math.pi)])\n"
            "print(abs(abs(J) - 2 * math.pi * math.exp(-5.0)) < 1e-9, "
            "'scipy.integrate' in sys.modules)")
    # |J| = 2 pi e^(1/z) at z = -0.2
    assert _run_fresh(code) == "True False"


def test_continuous_confluence_leaves_scipy_fft_unloaded(opfiles):
    # on the benchmark's q-grid every continuous level kernel has fewer than
    # 2 048 taps (the rule's M is 1 from q = 1.05 down), so no level is
    # correlated by FFT blocks, and neither is the classical row's
    argv = ["confluence", "--op", opfiles["qeuler"], "--direction", "0", "--z", "0.1,0",
            "--q-grid", "1.5,1.2,1.1,1.05,1.02,1.01", "--mode", "continuous"]
    code = ("import contextlib, io, sys\n"
            "from qborel.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(rc, 'scipy.fft' in sys.modules)")
    assert _run_fresh(code) == "0 False"


def test_ladder_example41(opfiles, tmp_path, capsys):
    out = tmp_path / "ladder.csv"
    rc = main(["ladder", "--op", opfiles["ex41"], "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "kappa_tilde,1,4" in text
    assert "kappa_tilde,3,20/3" in text
    assert "kappa_tilde,5,5" in text
    assert "beta,,20" in text


def test_ladder_of_a_convergent_operator_is_one_row(opfiles, capsys):
    rc = main(["ladder", "--op", opfiles["convergent"]])
    assert rc == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows == ["field,index,value", "convergent,,true"]


def test_polygon_outputs(opfiles, capsys):
    rc = main(["polygon", "--op", opfiles["ex41"]])
    assert rc == 0
    text = capsys.readouterr().out
    assert "slope,,,0,1" in text and "slope,,,1,1" in text and "slope,,,2,1" in text
    rc = main(["polygon", "--op", opfiles["sigma2"]])
    text = capsys.readouterr().out
    assert rc == 0
    assert "2.0,0.0" in text or "2.0,-0.0" in text  # characteristic root 2


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["polygon", "--op", str(bad)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_sum_rows_and_domain_error_row(opfiles, capsys):
    rc = main(["sum", "--op", opfiles["euler"], "--direction", "0",
               "--z", "0.1,0", "--z", "1.0,1.0"])
    assert rc == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert "0.0915633" in text
    assert any("domain-error" in l for l in lines)
    # residual column under tolerance for the good row
    good = [l for l in lines if l.endswith(",ok")][0]
    residual = float(good.split(",")[5])
    assert residual < 1e-5


def test_sum_of_the_zero_series_operator_is_an_argument_error(opfiles, capsys):
    # ArgumentError is a ConfigError: exit 2, as for the other argument errors
    rc = main(["sum", "--op", opfiles["zero"], "--direction", "0", "--z", "0.1,0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error[argument]: valuation 0 is not an admissible")
    assert "Traceback" not in err


def test_sum_of_a_convergent_operator_reports_its_residual_and_no_growth(opfiles, tmp_path):
    # the convergent sum has no sections: its rows carry the computed
    # residual, and no column of any grid or growth
    out = tmp_path / "sum.csv"
    zs = [0.1, 0.3 + 0.1j]
    rc = main(["sum", "--op", opfiles["convergent"], "--direction", "0",
               "--out", str(out)] + [f"--z={z.real},{z.imag}" for z in zs])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line.endswith(",ok")]
    assert len(rows) == 2
    op = qborel.parse_operator(json.dumps(CONVERGENT))
    S = qborel.multisum(None, op, 0.0)
    for z, row in zip(zs, rows):
        expected = S.residual(op, qborel.SectorPoint.from_complex(z))
        assert float(row[5]) == expected
        assert 0.0 < expected <= 1e-10
        assert len(row) == 7


def test_qsum_and_pole_row(opfiles, capsys):
    q = 1.05
    # point on the recorded level-k_r pole spiral: |z| = (q^3-1)^(1/3),
    # arg = pi/3 (the first kernel arm of the ladder sum)
    r = (q**3 - 1.0) ** (1.0 / 3.0)
    zr = r * math.cos(math.pi / 3)
    zi = r * math.sin(math.pi / 3)
    rc = main(["qsum", "--op", opfiles["qeuler"], "--direction", "0",
               "--z", "0.1,0", f"--z={zr},{zi}",
               f"--z=-0.2,0,{math.pi}", "--mode", "discrete"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0.0915879" in text
    assert "pole-spiral-error" in text     # on the recorded spiral
    assert "domain-error" in text          # outside the sector d +/- pi/k_r


def test_qsum_theta_mode_pole(opfiles, capsys):
    # the single-level theta summation has its poles on (q-1)[d+pi]
    rc = main(["qsum", "--op", opfiles["qeuler"], "--direction", "0",
               f"--z={-(1.05 - 1.0)},0,{math.pi}", "--mode", "theta"])
    assert rc == 0
    assert "pole-spiral-error" in capsys.readouterr().out


def test_qsum_theta_rows_report_the_computed_residual(opfiles, tmp_path):
    # the theta sum has no ladder; its rows carry S.residual like the others
    out = tmp_path / "theta.csv"
    zs = [0.3, 0.05, 0.2 + 0.1j]
    rc = main(["qsum", "--op", opfiles["qeuler"], "--direction", "0", "--mode", "theta",
               "--out", str(out)] + [f"--z={z.real},{z.imag}" for z in zs])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line.endswith(",ok")]
    assert len(rows) == 3
    op = qborel.parse_operator(json.dumps(QEULER))
    S = qborel.q_multisum(None, op, 0.0, mode="theta")
    for z, row in zip(zs, rows):
        expected = S.residual(op, qborel.SectorPoint.from_complex(z))
        assert float(row[5]) == expected
        assert 0.0 < expected <= 1e-12


def test_qsum_theta_with_a_zero_borel_coefficient(opfiles, capsys):
    # the theta chain's continuation gives a zero coefficient a zero row;
    # the value agrees with the discrete sum
    rows = {}
    for mode in ("theta", "discrete"):
        rc = main(["qsum", "--op", opfiles["sigma_zero"], "--direction", "0",
                   "--mode", mode, "--z", "0.1,0"])
        assert rc == 0
        rows[mode] = capsys.readouterr().out.splitlines()[-1].split(",")
        assert rows[mode][-1] == "ok"
    theta, discrete = (float(rows[m][3]) for m in ("theta", "discrete"))
    assert theta == pytest.approx(discrete, rel=1e-13)
    assert theta == pytest.approx(0.154426587178559, rel=1e-13)


def test_confluence_table_and_determinism(opfiles, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["confluence", "--op", opfiles["qeuler"], "--direction", "0",
            "--z", "0.1,0", "--q-grid", "1.5,1.2", "--mode", "discrete"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert "verdict: monotone" in a.read_text()


def test_confluence_requires_grid(opfiles, capsys):
    rc = main(["confluence", "--op", opfiles["qeuler"], "--z", "0.1,0"])
    assert rc == 2


def test_validate_requires_grid(opfiles, capsys):
    rc = main(["validate", "--op", opfiles["qeuler"]])
    assert rc == 2
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("fault, path", [("pair", "coefficients[1][1][0]"),
                                         ("limit", "limit")])
def test_malformed_family_document_exits_2(tmp_path, capsys, fault, path):
    family = {"kind": "q_difference_family", "basis": "delta_q",
              "coefficients": [[[[1.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]]],
              "rhs": [[0.0, 0.0], [1.0, 0.0]], "limit": EULER}
    if fault == "pair":
        family["coefficients"][1][1][0] = [1.0]
    else:
        del family["limit"]
    f = tmp_path / "family.json"
    f.write_text(json.dumps(family))
    rc = main(["validate", "--op", str(f), "--q-grid", "1.5,1.2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error[parse]" in err and path in err


@pytest.mark.parametrize("argv", [
    ["polygon", "--plot", "p.csv"],
    ["polygon", "--mode", "theta"],
    ["ladder", "--q-grid", "9"],
    ["sum", "--mode", "theta"],
    ["validate", "--z", "0.1,0"],
    ["hypergeom", "--order", "80"],
])
def test_option_the_command_does_not_read_exits_2(opfiles, capsys, argv):
    op = [] if argv[0] == "hypergeom" else ["--op", opfiles["qeuler"]]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + op + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hypergeom", "--upper", "abc", "--p", "0.5"],
    ["hypergeom", "--alphas", "0.5,1.7", "--p-grid", "0.5,x"],
    ["hypergeom", "--alphas", "0.5,1.7", "--betas", "q"],
    ["hypergeom", "--upper", "3,5", "--p", "nan"],
    ["sum", "--op", "euler", "--z", "nan,0"],
    ["sum", "--op", "euler", "--z", "inf,0"],
    ["sum", "--op", "euler", "--direction", "nan", "--z", "0.1,0"],
    ["confluence", "--op", "qeuler", "--z", "0.1,0", "--q-grid", "nan,1.2"],
])
def test_a_malformed_number_exits_2(opfiles, capsys, argv):
    # a number that does not parse, or is not finite, is a configuration
    # error (exit 2, from the command or from argparse), never a traceback
    argv = [opfiles.get(a, a) if i and argv[i - 1] == "--op" else a for i, a in enumerate(argv)]
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_confluence_bad_grid_order(opfiles, capsys):
    rc = main(["confluence", "--op", opfiles["qeuler"], "--z", "0.1,0",
               "--q-grid", "1.1,1.2"])
    assert rc == 2


def test_validate_family_failure_exits_4(opfiles, capsys):
    rc = main(["validate", "--op", opfiles["failing_family"], "--q-grid",
               "1.5,1.2,1.1,1.05,1.02"])
    assert rc == 4


def test_confluence_on_a_failing_family_writes_its_table_and_exits_4(opfiles, capsys):
    # on this grid the deviation sqrt(q - 1) of b0 falls by less than 5x
    rc = main(["confluence", "--op", opfiles["failing_family"], "--z", "0.1,0",
               "--q-grid", "1.5,1.3,1.2"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "# verdict: FAIL (A1=False A2=True A3=False)" in captured.out
    assert captured.out.splitlines()[-1] == "q,Sq_re_0,Sq_im_0,abs_error_0"
    assert captured.err.startswith("error[validation]: confluence assumptions")


def test_validate_refuses_a_one_value_grid(opfiles, capsys):
    # one q gives no A1 trend and no A3 slope
    rc = main(["validate", "--op", opfiles["qeuler"], "--q-grid", "1.5"])
    assert rc == 2
    assert ("error[argument]: validation needs at least 2 distinct q values"
            in capsys.readouterr().err)


def test_validate_pass(opfiles):
    rc = main(["validate", "--op", opfiles["qeuler"], "--q-grid", "1.5,1.2,1.1"])
    assert rc == 0


def test_hypergeom_command(capsys):
    rc = main(["hypergeom", "--upper", "0.2,0.7", "--lower", "0.1",
               "--p", "0.4", "--z", "0.5,0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "connection-infinity" in text


def test_hypergeom_closed_form_matches_the_theta_pipeline(capsys):
    # r > s + 1: the row compares qsum_closed_form with the theta q-sum of
    # the q-Borel continuation of 2phi0(3, 5; -; p)
    rc = main(["hypergeom", "--upper", "3,5", "--p", "0.8333333333333334",
               "--z", "0.15,0"])
    assert rc == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if l.startswith("closed-form-vs-pipeline")]
    assert len(rows) == 1
    assert rows[0][-1] == "ok"
    assert float(rows[0][5]) <= 1e-12


def test_hypergeom_classical_limit_grid(capsys):
    # the README example: the closed-form q-sums of 2phi0(p^0.3, p^0.9; -; p)
    # at z (1 - p)^(-1) approach the Borel sum of 2F0(0.3, 0.9; -) at z = 2
    # about linearly in 1 - p
    grid = (0.7, 0.8, 0.9, 0.95, 0.99)
    rc = main(["hypergeom", "--upper", "3,5", "--p", "0.8333333333333334", "--z", "0.15,0",
               "--alphas", "0.3,0.9", "--p-grid", ",".join(map(str, grid)), "--z", "2.0,0"])
    assert rc == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if l.startswith(("classical-limit-rhs", "limit-grid-p="))]
    target, *limits = rows
    assert target[0] == "classical-limit-rhs" and target[-1] == "ok"
    assert [r[0] for r in limits] == [f"limit-grid-p={p}" for p in grid]
    assert all(r[-1] == "ok" and r[3] == target[1] for r in limits)
    errors = [float(r[5]) for r in limits]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert all(0.02 * (1 - p) < e < 0.03 * (1 - p) for p, e in zip(grid, errors))


@pytest.mark.parametrize("argv, status", [
    # r = s + 3: the theta pipeline does not apply (and rphi(params, None, 80)
    # overflows at n = 57)
    (["--upper", "0.2,0.7,3", "--p", "0.8", "--z", "0.15,0", "--direction", "0.5"],
     "unsupported-error"),
    # r = s + 2 on the pipeline's pole spiral (q - 1) q^Z e^{i pi}, q = 1.2
    (["--upper", "3,5", "--p", "0.8333333333333334", f"--z=-0.2,0,{math.pi}"],
     "pole-spiral-error"),
])
def test_hypergeom_pipeline_error_is_a_row(capsys, argv, status):
    rc = main(["hypergeom"] + argv)
    assert rc == 0
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if l.startswith("closed-form-vs-pipeline")]
    assert len(rows) == 1
    assert rows[0][3:] == ["", "", "", status]
    assert all(math.isfinite(float(v)) for v in rows[0][1:3])


def test_stokes_command(opfiles, capsys):
    rc = main(["stokes", "--op", opfiles["qeuler"], "--direction",
               f"{math.pi}", f"--z=-0.2,0,{math.pi}", "--q-grid", "1.2",
               "--mode", "discrete"])
    assert rc == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    classical = [l for l in lines if l.startswith("classical")][0]
    # |J e^{-1/z}| column = 2 pi for the classical probe
    assert abs(float(classical.split(",")[5]) - 2 * math.pi) < 1e-6
    qrow = [l for l in lines if l.startswith("1.2")][0]
    assert float(qrow.split(",")[6]) < 1e-6  # sigma_q-invariance residual


def test_stokes_off_the_singular_set_writes_zero_q_jumps(opfiles, capsys):
    # d = 0.5 is not a singular direction of the Euler limit: no lateral
    # pair, so every jump and every invariance residual is exactly 0
    rc = main(["stokes", "--op", opfiles["qeuler"], "--direction", "0.5",
               "--z", "0.2,0.1", "--q-grid", "1.3,1.2"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines() if l.startswith(("1.3", "1.2"))]
    assert len(rows) == 2
    for row in rows:
        assert row[3:] == ["0.0", "0.0", "0.0", "0.0", "ok"]
    assert "verdict: no-stokes-phenomenon" in out


def test_stokes_on_a_family_with_a_convergent_limit_has_no_jump(opfiles, capsys):
    # the limit chain has no ladder: one classical row of zeros per point,
    # and no q-grid is read
    rc = main(["stokes", "--op", opfiles["qconvergent"], "--direction", "0",
               "--z", "0.2,0.1", "--q-grid", "1.3,1.2"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[1:] == ["classical,0.2,0.1,0.0,0.0,0.0,0.0,ok"]
    assert "# verdict: no-stokes-phenomenon" in out


def test_resonant_operator_exits_3(tmp_path, capsys):
    # -2 y + delta y + z delta^2 y = z^2: inconsistent resonant row n = 2
    doc = {"kind": "differential", "basis": "delta",
           "coefficients": [[[-2.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           "rhs": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(doc))
    rc = main(["sum", "--op", str(path), "--direction", "0", "--z", "0.1,0"])
    assert rc == 3
    assert "error[resonance]" in capsys.readouterr().err


def test_stokes_point_outside_the_classical_sector_gives_an_error_row(opfiles, capsys):
    rc = main(["stokes", "--op", opfiles["qeuler"], "--direction", f"{math.pi}",
               f"--z=-0.2,0,{math.pi}", "--z=0.2,0", "--q-grid", "1.2"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    classical = [l.split(",") for l in lines if l.startswith("classical")]
    assert [row[-1] for row in classical] == ["ok", "domain-error"]
    assert abs(float(classical[0][5]) - 2 * math.pi) < 1e-6


def test_stokes_q_point_outside_its_sector_marks_only_its_own_row(opfiles, capsys):
    # z = 0.2 lies outside the q-sectors about pi +/- pi/24; the q = 1.2 row
    # of z = -0.2 is the one the command writes when -0.2 is the only --z
    argv = ["stokes", "--op", opfiles["qeuler"], "--direction", f"{math.pi}",
            f"--z=-0.2,0,{math.pi}", "--q-grid", "1.2"]

    def q_rows(extra):
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l.startswith("1.2,")]

    both = q_rows(["--z=0.2,0"])
    (single,) = q_rows([])
    assert [l.split(",")[-1] for l in both] == ["ok", "domain-error"]
    assert both[0] == single


def test_stokes_verdict_reads_the_first_ok_classical_row(opfiles, capsys):
    # arg z = pi + 0.45 lies in the q-sectors about pi +/- pi/24 but outside
    # the classical ones (half-opening pi/6)
    z = cmath.rect(0.2, math.pi + 0.45)
    rc = main(["stokes", "--op", opfiles["qeuler"], "--direction", f"{math.pi}",
               f"--z={z.real!r},{z.imag!r},{math.pi + 0.45!r}",
               f"--z=-0.2,0,{math.pi}", "--q-grid", "1.2,1.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "# verdict: approaching-classical" in out
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    statuses = [l.split(",")[-1] for l in rows]
    assert statuses == ["domain-error"] + ["ok"] * 5


def test_confluence_plot_emission(opfiles, tmp_path):
    plot = tmp_path / "plot.csv"
    rc = main(["confluence", "--op", opfiles["qeuler"], "--direction", "0",
               "--z", "0.1,0", "--q-grid", "1.5,1.2", "--mode", "discrete",
               "--out", str(tmp_path / "t.csv"), "--plot", str(plot)])
    assert rc == 0
    text = plot.read_text()
    assert "q_minus_1" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2 and rows[0].startswith("0.5")


# ---------------------------------------------------------------------------
# one limit chain per command


@pytest.fixture
def built_chains(monkeypatch):
    """The operator kind of every section chain built, in order."""
    from qborel import classical as cl
    from qborel import qsummation as qs

    built = []
    build = cl._build_sections

    def counting(op, *args, **kwargs):
        built.append(op.kind)
        return build(op, *args, **kwargs)

    monkeypatch.setattr(cl, "_build_sections", counting)
    monkeypatch.setattr(qs, "_build_sections", counting)
    return built


def test_stokes_builds_one_limit_chain_and_one_q_chain_per_q(opfiles, capsys,
                                                             built_chains):
    # two --z samples: the classical jumps at both points share one lateral
    # pair of the limit chain, and the q-jumps at z and q z one q pair per q
    rc = main(["stokes", "--op", opfiles["qeuler"], "--direction", f"{math.pi}",
               f"--z=-0.2,0,{math.pi}", f"--z=-0.25,0,{math.pi}",
               "--q-grid", "1.3,1.2", "--mode", "discrete"])
    assert rc == 0
    assert built_chains == ["differential", "q_difference", "q_difference"]
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    for prefix in ("1.3", "1.2"):
        rows = [l for l in lines if l.startswith(prefix)]
        assert len(rows) == 2 and all(l.endswith(",ok") for l in rows)
        assert all(float(l.split(",")[6]) < 1e-6 for l in rows)


def test_confluence_builds_one_limit_chain(opfiles, capsys, built_chains):
    grid = [1.5, 1.3, 1.2]
    rc = main(["confluence", "--op", opfiles["qeuler"], "--direction", "0",
               "--z", "0.1,0", "--q-grid", ",".join(map(str, grid)),
               "--mode", "discrete"])
    assert rc == 0
    assert len(built_chains) == 1 + len(grid)
    assert built_chains[0] == "differential"
    assert "# verdict: monotone" in capsys.readouterr().out


def test_cli_drift_names_the_numeric_cell_that_moved_most():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "cli_drift.py")
    spec = importlib.util.spec_from_file_location("cli_drift", path)
    drift = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drift)
    base = ("# command: stokes\n# classical: 0.5\nz_re,jump_re,status\n"
            "0.1,-2.0,ok\n0.2,4.0,ok\n0.3,,domain-error\n")
    head = ("# command: stokes\n# classical: 0.5000000001\nz_re,jump_re,status\n"
            "0.1,-2.000002,ok\n0.2,4.0,ok\n0.3,,pole-error\n")
    rel, cell, a, b = drift.largest_change(base, head)
    assert (cell, a, b) == ("row 1, jump_re", "-2.0", "-2.000002")
    assert rel == pytest.approx(2e-6 / 2.000002, rel=1e-9)
    assert drift.largest_change(base, base)[0] == 0.0
    assert drift.largest_change("a,b\nx,y\n", "a,b\nx,z\n") is None
