"""CLI tests, run in-process through meijergap.cli.main (and through a
fresh interpreter for the ``argv=None`` path and a closed stdout)."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import meijergap
from meijergap import cli
from meijergap.asymptotics import compute_coeffs
from meijergap.errors import SingularityError
from meijergap.fredholm import gauss_legendre_grid, log_gap_determinant
from meijergap.kernel import BesselKernel, ProcessParams, _series_rings, kernel_eval_series
from meijergap.verify import run_checks

LEFT_FLAGS = ["--r", "3", "--q", "2", "--nu", "1.31,2.15,3.19", "--mu", "1.87,2.61"]
BESSEL_FLAGS = ["--r", "1", "--q", "0", "--nu", "0"]
NEG_FLAGS = ["--r", "2", "--q", "0", "--nu=-0.5,0.7"]
NEG_LN_C = compute_coeffs(ProcessParams(2, 0, (-0.5, 0.7))).ln_c
RIGHT_LN_C = compute_coeffs(ProcessParams(4, 1, (1.31, 2.15, 2.61, 3.19), (1.87,))).ln_c
SWEEP_FLAGS = ["--s-min", "1", "--s-max", "256", "--points", "9"]


class TestCoeffs:
    def test_json_output(self, capsys):
        assert cli.main(["coeffs", *LEFT_FLAGS, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["lnC"] - (-2.963)) < 1e-3
        assert payload["rho"] == 0.5
        assert payload["a"] == 1.0
        assert abs(payload["C"] - math.exp(payload["lnC"])) < 1e-15

    def test_text_output(self, capsys):
        assert cli.main(["coeffs", "--r", "1", "--q", "0", "--nu", "0"]) == 0
        out = capsys.readouterr().out
        assert "rho = 0.5" in out
        assert "b = 0" in out

    def test_overflowing_constant_text(self, capsys):
        # ln C = 1196.1 at r = 1, nu = 40: C is above the largest double
        assert cli.main(["coeffs", "--r", "1", "--q", "0", "--nu", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "lnC = 1196.11" in lines[4]
        assert lines[5] == "   C = inf"

    def test_overflowing_constant_json(self, capsys):
        # JSON has no infinity, so C is null; the output parses as standard JSON
        assert cli.main(["coeffs", "--r", "1", "--q", "0", "--nu", "40", "--format", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-standard JSON constant {name}"))
        assert payload["C"] is None
        assert abs(payload["lnC"] - 1196.113) < 1e-3

    def test_invalid_params_exit_2(self, capsys):
        assert cli.main(["coeffs", "--r", "2", "--q", "2", "--nu", "1,2", "--mu", "1,2"]) == 2
        assert "requires r > q" in capsys.readouterr().err

    def test_missing_params_exit_2(self, capsys):
        assert cli.main(["coeffs", "--r", "2"]) == 2
        assert "required: --q, --nu" in capsys.readouterr().err

    def test_negative_list_in_equals_form(self, capsys):
        # "--nu -0.5,0.7" reads -0.5,0.7 as an option; the = form keeps it a value
        assert cli.main(["coeffs", "--r", "2", "--q", "0", "--nu=-0.5,0.7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nu"] == [-0.5, 0.7]
        assert payload["lnC"] == NEG_LN_C


class TestKernelCmd:
    def test_bessel_reduction_point(self, capsys):
        assert cli.main(["kernel", "--r", "1", "--q", "0", "--nu", "0", "--x", "1", "--y", "1"]) == 0
        val = float(capsys.readouterr().out)
        assert abs(val - 4.0 * BesselKernel(0.0).matrix([4.0])[0, 0]) < 1e-8

    @pytest.mark.parametrize("nu, x", [("0.5", 1e-18), ("2", 1e-16)])
    def test_near_zero_matches_bessel_reduction(self, capsys, nu, x):
        # K(x, 1) = 4 x^(-nu/2) K_Be(4x, 4) at r = 1: 0.554365664794229 and
        # 0.0644716247372014 here, which the kernel meets to 1e-14; the
        # earlier panel contours printed 4.2165 for nu = 0.5 and exited 2
        # for nu = 2
        assert cli.main(["kernel", "--r", "1", "--q", "0", "--nu", nu, "--x", str(x), "--y", "1"]) == 0
        ref = 4.0 * x ** (-float(nu) / 2.0) * BesselKernel(float(nu)).matrix([4.0 * x, 4.0])[0, 1]
        assert abs(float(capsys.readouterr().out) - ref) <= 1e-12 * abs(ref)

    def test_heavy_grading_matches_bessel_reduction(self, capsys):
        # r = 1, nu = -0.8: the t-rule is graded as t = tau^46, and on
        # (135, 220) it takes 152 points.  The Bessel reduction
        # 4 (y/x)^(nu/2) K_Be(4x, 4y), taken in mpmath at 40 digits, gives
        # -0.0044814485151597906.  A fixed 80-point t-rule gives
        # -0.00447148890660694, 2.2e-3 off, with no error
        assert cli.main(["kernel", "--r", "1", "--q", "0", "--nu=-0.8", "--x", "200", "--y", "150"]) == 0
        ref = -0.0044814485151597906
        assert abs(float(capsys.readouterr().out) - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("x", ["-1", "nan", "inf"])
    def test_nonpositive_x_exit_2(self, capsys, x):
        assert cli.main(["kernel", "--r", "1", "--q", "0", "--nu", "0", "--x", x, "--y", "1"]) == 2
        assert "error: x and y must be positive and finite" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert cli.main(["kernel", "--r", "1", "--q", "0", "--nu", "0", "--x", "1", "--y", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["K"] - 4.0 * BesselKernel(0.0).matrix([4.0])[0, 0]) < 1e-8


class TestDetCmd:
    def test_tiny_interval(self, capsys):
        assert cli.main(["det", "--r", "1", "--q", "0", "--nu", "0", "--s", "1e-8", "--nodes", "4"]) == 0
        assert abs(float(capsys.readouterr().out) - 1.0) < 1e-6

    def test_non_finite_param_exit_2(self, capsys):
        assert cli.main(["det", "--r", "1", "--q", "0", "--nu", "nan", "--s", "1"]) == 2
        assert capsys.readouterr().err == "error: requires every nu_j and mu_k finite and > -1\n"

    def test_zero_nodes_exit_2(self, capsys):
        assert cli.main(["det", "--r", "1", "--q", "0", "--nu", "0", "--s", "1", "--nodes", "0"]) == 2
        assert "node count m must be at least 2" in capsys.readouterr().err

    def test_zero_s_exit_2(self, capsys):
        assert cli.main(["det", "--r", "1", "--q", "0", "--nu", "0", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s must be positive" in captured.err

    @pytest.mark.parametrize("s", ["inf", "1e400"])
    def test_infinite_s_exit_2(self, s, capsys):
        assert cli.main(["det", *BESSEL_FLAGS, "--s", s]) == 2
        assert "s must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "1", "nan", "0", "-1"])
    def test_bad_tol_exit_2(self, tol, capsys):
        # from tol = 1 up the truncation bound stops the rays early: at inf
        # BES at s = 1 printed 0.643650287799004, against 0.643616797930814
        # at the default tol
        assert cli.main(["det", *BESSEL_FLAGS, "--s", "1", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 < tol < 1" in captured.err

    def test_bessel_like_default_grid_matches_bessel_route(self, capsys):
        # nu_min = 0.5 < 1 is graded (kappa = 2); r = 1 on [0, s] and the
        # Bessel kernel on [0, 4s] define the same determinant.  The
        # ungraded grid printed 3.10852e-06, 3.6% low
        assert cli.main(["det", "--r", "1", "--q", "0", "--nu", "0.5", "--s", "16"]) == 0
        det = float(capsys.readouterr().out)
        ref = math.exp(log_gap_determinant(64.0, gauss_legendre_grid(64.0, 200, kappa=2), BesselKernel(0.5)))
        assert abs(det - ref) <= 1e-8 * ref

    def test_gin2_default_grid_converged(self, capsys):
        # GIN2's kernel behaves like ln x at 0; on the graded grid 80 and
        # 200 nodes agree to 7e-11 (the ungraded grid: 3.868294e-4 against
        # 3.867523e-4)
        dets = []
        for m in ("80", "200"):
            assert cli.main(["det", "--r", "2", "--q", "0", "--nu", "0,1", "--s", "16", "--nodes", m]) == 0
            dets.append(float(capsys.readouterr().out))
        assert abs(dets[0] - dets[1]) <= 1e-9 * dets[1]


class TestConverge:
    def _run(self, tmp_path, name="out.csv", extra=()):
        out = tmp_path / name
        code = cli.main(
            [
                "converge", "--r", "1", "--q", "0", "--nu", "0.5",
                "--s-min", "1", "--s-max", "4", "--points", "3", "--nodes", "40",
                "--out", str(out), *extra,
            ]
        )
        return code, out

    def test_csv_format_and_roundtrip(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == 0
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "s,log_det,asymptotic,f"
        assert lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 3
        for fields in rows:
            s, ld, asym, f = (float(tok) for tok in fields)
            # parse -> format reproduces the emitted fields bit-identically
            assert [f"{v:.15g}" for v in (s, ld, asym, f)] == fields
            # the compensated column is definitionally s^rho (log_det - asym),
            # up to the 15-significant-digit serialization
            assert abs(f - s**0.5 * (ld - asym)) < 1e-13 * max(1.0, abs(f))

    def test_determinism(self, tmp_path):
        _, first = self._run(tmp_path, "a.csv")
        _, second = self._run(tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_single_point_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = cli.main(
            ["converge", "--r", "1", "--q", "0", "--nu", "0", "--s-min", "1",
             "--s-max", "4", "--points", "1", "--nodes", "20", "--out", str(out)]
        )
        assert code == 2

    def test_single_node_exit_2(self, tmp_path, capsys):
        # the later --nodes overrides the 40 of _run
        code, out = self._run(tmp_path, extra=("--nodes", "1"))
        assert code == 2
        assert not out.exists()
        assert "node count m must be at least 2" in capsys.readouterr().err

    def test_infinite_s_max_exit_2(self, tmp_path, capsys):
        code, out = self._run(tmp_path, extra=("--s-max", "inf"))
        assert code == 2
        assert not out.exists()
        assert "requires 0 < s-min < s-max < inf" in capsys.readouterr().err

    def test_bessel_case_f_bounded_and_grid_stable(self, tmp_path):
        # the nu=0 process has an all-zero expansion beyond -s', so the
        # compensated column must stay bounded and be insensitive to the
        # Nystrom node count
        fs = {}
        for m in (40, 60):
            out = tmp_path / f"bessel{m}.csv"
            code = cli.main(
                ["converge", "--r", "1", "--q", "0", "--nu", "0", "--s-min", "1",
                 "--s-max", "8", "--points", "4", "--nodes", str(m), "--out", str(out)]
            )
            assert code == 0
            rows = out.read_text().strip().split("\n")[1:]
            fs[m] = [float(line.split(",")[3]) for line in rows]
        assert all(abs(f) < 1.0 for f in fs[40])
        assert max(abs(a - b) for a, b in zip(fs[40], fs[60])) < 1e-8

    def test_underflow_rows_and_exit_3(self, tmp_path, monkeypatch, capsys):
        def failing(s, grid, kernel):
            raise SingularityError("beyond the envelope")

        monkeypatch.setattr(cli, "log_gap_determinant", failing)
        code, out = self._run(tmp_path)
        assert code == 3
        lines = out.read_text().strip().split("\n")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "" and fields[3] == ""
            assert fields[2] != ""
        assert "warning" in capsys.readouterr().err


class TestConfig:
    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 3\nq = 2\nnu = 1.31,2.15,3.19\nmu = 1.87,2.61\nformat = text\n")
        assert cli.main(["coeffs", "--config", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)  # flag overrode the config format
        assert payload["r"] == 3

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "commented.cfg"
        cfg.write_text("# Bessel case\n\nr = 1  # trailing comment\n   \nq = 0\nnu = 0\n")
        assert cli.main(["coeffs", "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out
        assert cli.main(["coeffs", *BESSEL_FLAGS]) == 0
        assert from_file == capsys.readouterr().out

    def test_line_without_equals_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r = 1\nq 0\n")
        assert cli.main(["coeffs", "--config", str(cfg), "--nu", "0"]) == 2
        assert "malformed config line: 'q 0'" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli.main(["coeffs", "--config", str(cfg), "--r", "1", "--q", "0", "--nu", "0"]) == 2

    def test_config_value_outside_choices_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "xml.cfg"
        cfg.write_text("format = xml\n")
        assert cli.main(["det", "--config", str(cfg), "--r", "1", "--q", "0", "--nu", "0", "--s", "1"]) == 2
        assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err

    def test_negative_list_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("r = 2\nq = 0\nnu = -0.5,0.7\nformat = json\n")
        assert cli.main(["coeffs", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["lnC"] == NEG_LN_C

    def test_shared_file_and_flag_override(self, tmp_path, capsys):
        # one file serves coeffs and det: keys of other subcommands are dropped
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("r = 1\nq = 0\nnu = 0\ns = 4\nnodes = 60\ns-min = 1\nout = x.csv\n")

        def det(*argv):
            assert cli.main(["det", *argv]) == 0
            return capsys.readouterr().out

        assert cli.main(["coeffs", "--config", str(cfg)]) == 0
        assert "rho = 0.5" in capsys.readouterr().out
        from_file = det("--config", str(cfg))
        assert from_file == det(*BESSEL_FLAGS, "--s", "4", "--nodes", "60")
        assert from_file != det(*BESSEL_FLAGS, "--s", "4")
        assert det("--config", str(cfg), "--nodes", "80") == det(*BESSEL_FLAGS, "--s", "4", "--nodes", "80")


def _printed(argv, capsys, tmp_path):
    """The number a run prints on stdout."""
    assert cli.main(argv) == 0
    return float(capsys.readouterr().out)


def _ln_c(argv, capsys, tmp_path):
    """lnC from a ``coeffs --format json`` run."""
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)["lnC"]


def _log_det_at_1(argv, capsys, tmp_path):
    """ln det on the s = 1 row of a ``converge`` run's CSV."""
    out = tmp_path / "run.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = (line.split(",") for line in out.read_text().splitlines()[1:])
    return next(float(log_det) for s, log_det, *_ in rows if float(s) == 1.0)


def _series_twice(params, capsys, tmp_path):
    """kernel_eval_series(0.5, 0.7) twice on an empty ring cache: the first
    call builds the parameter set's residue rings and t-rule, the second
    reuses them (one miss, one hit) and keeps the first call's bits."""
    first, again = (kernel_eval_series(0.5, 0.7, params) for _ in range(2))
    info = _series_rings.cache_info()
    assert (info.misses, info.hits, again) == (1, 1, first)
    return first


PINNED = [
    # a 9-point sweep on one shared kernel handle built for s_max, whose
    # fills all multiply every stored contour node
    pytest.param(
        _log_det_at_1, ["converge", *LEFT_FLAGS, *SWEEP_FLAGS, "--nodes", "100"], -0.0355654591394162, 1e-10,
        id="converge-LEFT",
    ),
    # the same sweep near x = 0: NEG's kappa = 4 grids reach x = 1.7e-18 and
    # |K| = 5e8, so no fill is cleared by the rounding guard's scalar screen
    # and each takes the entrywise one
    pytest.param(
        _log_det_at_1, ["converge", *NEG_FLAGS, *SWEEP_FLAGS, "--nodes", "200"], -1.86517667113037, 1e-10,
        id="converge-NEG",
    ),
    # grid, contour build, fill and slogdet, as a user's `meijergap det`
    # runs them; only a finite positive value is checked until the grading
    # of ROADMAP item 1 moves it (LEFT at s = 32 is on an ungraded kappa = 1
    # grid; it prints 1.31477424424167e-07)
    pytest.param(_printed, ["det", *LEFT_FLAGS, "--s", "32", "--nodes", "200"], None, None, id="det-LEFT"),
    # NEG's kappa = 4 grid puts its first node at x = 1.7e-18, where the
    # fill's phases Im(u) ln x are largest
    pytest.param(
        _printed, ["det", *NEG_FLAGS, "--s", "1", "--nodes", "200"], 0.154868846613637, 1e-10, id="det-NEG"
    ),
    # a contour build on (0.9 x, 1.1 y) and one pointwise fill
    pytest.param(
        _printed, ["kernel", *LEFT_FLAGS, "--x", "0.5", "--y", "1.5"], 0.140871742376504, 1e-10, id="kernel-LEFT"
    ),
    # r - q = 6, twice the benchmark catalogue's largest r - q, on the finer
    # step h = 0.2/7: it prints 0.00792590367238966, and the residue series
    # gives 0.007925903672389647 (1.3e-15 apart)
    pytest.param(
        _printed, ["kernel", "--r", "6", "--q", "0", "--nu", "0,1,2,3,4,5", "--x", "0.5", "--y", "0.7"],
        0.007925903672389647, 1e-10, id="kernel-r6",
    ),
    # the residue series quoted above, bit for bit
    pytest.param(
        _series_twice, ProcessParams(6, 0, (0, 1, 2, 3, 4, 5)), 0.007925903672389647, 0.0, id="series-r6"
    ),
    # r - q = 8, where |F| at gamma's crossing is 3.6e-10: the truncation
    # measures each contour's terms against the other contour's crossing,
    # so gamma keeps its digits; it prints 0.000197795776450792, and the
    # residue series gives 0.00019779577645079929
    pytest.param(
        _printed, ["kernel", "--r", "8", "--q", "0", "--nu", "0,1,2,3,4,5,6,7", "--x", "0.5", "--y", "0.7"],
        0.00019779577645079929, 1e-10, id="kernel-r8",
    ),
    # the entry point prints the library's value; TestComputeCoeffs pins
    # that to 1e-12 of the closed form in mpmath at 40 digits
    pytest.param(
        _ln_c, ["coeffs", "--r", "4", "--q", "1", "--nu", "1.31,2.15,2.61,3.19", "--mu", "1.87", "--format", "json"],
        RIGHT_LN_C, 0.0, id="coeffs-RIGHT",
    ),
    # nu_1 = -0.9 puts G(1 + nu_1) at G(0.1), shifted by 11 recurrence
    # steps; lnC reads -5.044303703287843, and the closed form in mpmath at
    # 40 digits gives -5.0443037032878310
    pytest.param(
        _ln_c, ["coeffs", "--r", "2", "--q", "1", "--nu=-0.9,3.5", "--mu", "0.2", "--format", "json"],
        -5.0443037032878310, 1e-12, id="coeffs-near-pole",
    ),
]


@pytest.mark.parametrize("read, args, ref, rtol", PINNED)
def test_pinned_value(read, args, ref, rtol, capsys, tmp_path, fresh_series_rings):
    """The values the subcommands print on the showcase sets, past the
    benchmark catalogue and near a pole of G, each pinned to its reference
    under -W error; every row starts on an empty residue-ring cache."""
    value = read(args, capsys, tmp_path)
    if ref is None:
        assert 0.0 < value < math.inf
    else:
        assert abs(value - ref) <= rtol * abs(ref), f"{value!r} is not {ref!r} to {rtol:g}"


def _run_module(*argv, stdout=subprocess.PIPE):
    """``python -W error -m meijergap.cli ARGV`` in a subprocess that imports
    the package under test."""
    src = str(Path(meijergap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "meijergap.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "command, defaults",
    [
        ([], ()),
        (["coeffs"], ("(default text)",)),
        (["kernel"], ("(default 1e-12)", "(default text)")),
        (["det"], ("(default 80)", "(default 1e-12)")),
        (["converge"], ("(default 100)", "(default 9)")),
        (["verify"], ("(default fast)",)),
    ],
    ids=["top", "coeffs", "kernel", "det", "converge", "verify"],
)
def test_help_renders(command, defaults, capsys):
    """argparse formats the %(default)s help strings only when it prints help."""
    assert cli.main([*command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())  # undo line wrapping
    for text in defaults:
        assert text in out


def test_console_entry_point():
    """``python -m meijergap.cli`` reads its flags from sys.argv."""
    proc = _run_module("--version")
    assert (proc.returncode, proc.stdout.strip()) == (0, f"meijergap {meijergap.__version__}")
    proc = _run_module("coeffs", *BESSEL_FLAGS)
    assert proc.returncode == 0, proc.stderr
    assert "rho = 0.5" in proc.stdout


def test_closed_stdout_exits_141():
    """A stdout whose reader is gone ends the run with 128 + SIGPIPE and
    prints nothing, not a usage error: the pipe's read end is closed before
    the run starts, so the first write fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module("coeffs", "--r", "2", "--q", "0", "--nu", "0.5,0.7", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")



def test_overflowing_parameter_exits_2():
    """A Barnes-G value past the largest double is reported by the typed
    RangeError alone: exit 2 with no numpy warning, under -W error too."""
    proc = _run_module("coeffs", "--r", "1", "--q", "0", "--nu", "1e200")
    assert proc.returncode == 2, proc.stderr
    assert "result overflowed double precision" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_overflowing_contour_factors_exit_2():
    """Contour factors past the largest double (mu = 200) are reported by
    the build's typed AccuracyError alone: exit 2 with no numpy warning,
    under -W error too."""
    proc = _run_module("kernel", "--r", "2", "--q", "1", "--nu", "0.5,1", "--mu", "200", "--x", "0.5", "--y", "0.7")
    assert proc.returncode == 2, proc.stderr
    assert "non-finite separable coefficients" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_overflowing_fill_exits_2():
    """Powers x^-u past the largest double in the kernel fill are reported
    by the typed AccuracyError alone: exit 2 with no numpy warning, under
    -W error too."""
    proc = _run_module("det", "--r", "3", "--q", "0", "--nu", "1.31,2.15,3.19", "--s", "1e6", "--nodes", "50")
    assert proc.returncode == 2, proc.stderr
    assert "kernel entries or bounds not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


class TestVerify:
    def test_fast_level_passes(self, capsys):
        start = time.perf_counter()
        assert cli.main(["verify", "--level", "fast"]) == 0
        assert time.perf_counter() - start < 60.0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 10
        assert "[FAIL]" not in out

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="level must be 'fast' or 'full'"):
            run_checks("medium")

    def test_detects_injected_fault(self, monkeypatch, capsys):
        import meijergap.asymptotics

        original = meijergap.asymptotics.log_constant_bessel
        monkeypatch.setattr(
            meijergap.asymptotics, "log_constant_bessel", lambda nu: -original(nu) - 0.1
        )
        assert cli.main(["verify", "--level", "fast"]) == 1
        assert "[FAIL]" in capsys.readouterr().out
