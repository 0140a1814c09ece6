"""Command-line surface: artifacts, exit codes, determinism, config handling."""

import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptw import cli
from gptw.cli import load_config, main, write_pgm
from gptw.field import TorusGrid, read_field, write_field
from gptw.functionals import Params, action, certify
from gptw.ansatz import (VortexAnsatz, constant, fitted_vortex_ansatz, plane_wave,
                         vortex_test_function)


def _csv_row(path):
    header, row = path.read_text().splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


def _assert_certificates_written(csv_path, field_path):
    # the certificate CSV holds the certificates of the stored field, its
    # spectral tail included
    f, c = read_field(field_path)
    p = Params(c=c)
    cert = certify(f, p)
    row = _csv_row(csv_path)
    assert float(row["tail"]) == cert.tail
    assert float(row["residual"]) == cert.residual
    assert float(row["action"]) == action(f, p).action


@pytest.fixture
def pw_file(tmp_path):
    g = TorusGrid((64, 64), 4 * np.pi)
    path = tmp_path / "pw.gptw"
    write_field(path, plane_wave(-1, 1.0, g), c=1.0)
    return path


class TestInfoAndCertify:
    def test_info(self, pw_file, capsys):
        assert main(["info", str(pw_file)]) == 0
        out = capsys.readouterr().out
        assert "sizes: 64x64" in out
        assert "speed c: 1" in out

    def test_info_truncated_exits_2(self, tmp_path, pw_file, capsys):
        bad = tmp_path / "trunc.gptw"
        bad.write_bytes(pw_file.read_bytes()[:50])
        assert main(["info", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_info_missing_file_exits_2(self, capsys):
        assert main(["info", "/nonexistent/field.gptw"]) == 2

    @pytest.mark.parametrize("command", ["info", "certify"])
    def test_nonfinite_period_exits_2(self, tmp_path, capsys, command):
        # the header period is the f64 after magic, version, N and two sizes
        bad = tmp_path / "inf.gptw"
        write_field(bad, constant(0.0, TorusGrid((16, 16), 5.0)), c=1.0)
        raw = bytearray(bad.read_bytes())
        raw[20:28] = struct.pack("<d", np.inf)
        bad.write_bytes(bytes(raw))
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_certify_plane_wave(self, pw_file, capsys):
        assert main(["certify", str(pw_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        row = dict(zip(header, out[1].split(",")))
        assert float(row["residual"]) <= 1e-9
        assert abs(complex(float(row["cert_integral_re"]), float(row["cert_integral_im"]))) <= 1e-9
        assert float(row["tail"]) <= 1e-12

    def test_certify_overflowing_gradient(self, pw_file, capsys):
        # c * xi1 overflows: the residual reads as non-finite, the run exits 0
        with np.errstate(all="ignore"):
            assert main(["certify", str(pw_file), "--c", "1e308"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        row = dict(zip(out[0].split(","), out[1].split(",")))
        assert not np.isfinite(float(row["residual"]))

    def test_csv_row(self):
        grid16, p1 = TorusGrid((16, 16), 2 * np.pi), Params(c=1.0)
        header, row = cli._certificate_csv(constant(0.0, grid16), p1).splitlines()
        assert header.split(",")[0] == "T"
        assert len(row.split(",")) == len(header.split(","))
        assert row.split(",")[1] == "1"

    def test_certify_out_matches_stdout(self, tmp_path, pw_file, capsys):
        out = tmp_path / "cert"
        assert main(["certify", str(pw_file), "--out", str(out)]) == 0
        assert (out / "certificate.csv").read_text() == capsys.readouterr().out


class TestMinimizeCommand:
    def test_run_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["minimize", "--c", "1", "--T", "14", "--size", "32",
                     "--R", "2.5", "--out", str(out)])
        assert code == 0
        # the start is not resolved on 16^2, so the descent stays on 32^2
        assert "coarse=32x32 (0 iterations)" in capsys.readouterr().out
        assert (out / "summary.csv").exists()
        assert (out / "certificate.csv").exists()
        assert (out / "minimizer.gptw").exists()
        assert (out / "run_config.txt").exists()
        assert (out / "progress.log").exists()
        f, c = read_field(out / "minimizer.gptw")
        assert c == 1.0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "c,T,action,residual,classification"
        assert float(summary[1].split(",")[2]) < 0
        # one row per accepted iteration; actions never rise beyond the
        # descent's acceptance allowance 1e-14 * (1 + |I|) (near convergence
        # steps are flat to a few ulps)
        rows = [line.split() for line in (out / "progress.log").read_text().splitlines()]
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        actions = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-14 * (1 + abs(a)) for a, b in zip(actions, actions[1:]))
        _assert_certificates_written(out / "certificate.csv", out / "minimizer.gptw")

    def test_determinism(self, tmp_path):
        args = ["minimize", "--c", "1", "--T", "14", "--size", "32", "--R", "2.5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("summary.csv", "certificate.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "minimizer.gptw").read_bytes() == (out2 / "minimizer.gptw").read_bytes()

    def test_images_flag(self, tmp_path):
        out = tmp_path / "imgs"
        code = main(["minimize", "--c", "1", "--T", "14", "--size", "32",
                     "--R", "2.5", "--out", str(out), "--images"])
        assert code == 0
        raw = (out / "minimizer_modulus.pgm").read_bytes()
        assert raw.startswith(b"P5\n32 32\n255\n")
        assert len(raw) == len(b"P5\n32 32\n255\n") + 32 * 32
        assert (out / "minimizer_phase.pgm").exists()

    def test_validation_error_exits_2(self, tmp_path, capsys):
        # support does not fit the requested period
        code = main(["minimize", "--c", "1", "--T", "7", "--size", "16",
                     "--R", "2.0", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_overflowing_start_exits_3(self, tmp_path, capsys):
        # the action and gradient overflow at the start: the descent returns
        # it unconverged, and every file is written
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["minimize", "--size", "32", "--T", "13", "--R", "3",
                         "--c", "1e308", "--out", str(out)])
        assert code == 3
        assert sorted(p.name for p in out.iterdir()) == [
            "certificate.csv", "minimizer.gptw", "progress.log", "run_config.txt",
            "summary.csv"]
        assert (out / "progress.log").read_text() == ""
        row = _csv_row(out / "summary.csv")
        # the start lies in the reflection class H, where the residual
        # overflows to inf; a start off H overflows to nan through complex
        # products of inf and 0
        assert float(row["action"]) == -np.inf
        assert float(row["residual"]) == np.inf

    def test_overflowing_start_prints_no_warning(self, tmp_path):
        # the overflow saturates inside np.errstate, so the run's stderr
        # holds no numpy RuntimeWarning; a fresh interpreter shows what a
        # user of the command sees
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from gptw.cli import main; sys.exit(main(sys.argv[1:]))",
             "minimize", "--size", "32", "--T", "13", "--R", "3", "--c", "1e308",
             "--out", str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert run.returncode == 3, run.stderr
        assert "action=-inf residual=inf" in run.stdout
        assert "RuntimeWarning" not in run.stderr, run.stderr

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_nonfinite_speed_exits_2(self, tmp_path, capsys, c):
        code = main(["minimize", "--c", c, "--T", "14", "--size", "32",
                     "--R", "2.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "finite" in capsys.readouterr().err


class TestMountainPassCommand:
    ARGS = ["mp", "--c", "1", "--T", "29", "--size", "32", "--R", "3.5", "--nodes", "9"]

    # minimize runs the same start without --nodes
    @pytest.mark.parametrize("args", [ARGS, ["minimize", *ARGS[1:-2]]], ids=["mp", "minimize"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys, args, tol):
        assert main(args + ["--tol", tol, "--out", str(tmp_path / "x")]) == 2
        assert "grad_tol must be positive" in capsys.readouterr().err

    def test_run_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "mp"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        # the string relaxes on 32^2, and Newton's coarse stage reports its
        # grid and steps as minimize's coarse descent does
        stdout = capsys.readouterr().out
        assert "relax=32x32 coarse=" in stdout and " steps) -> " in stdout
        for name in ("saddle.csv", "path_actions.csv", "saddle_certificate.csv",
                     "run_config.txt", "saddle.gptw"):
            assert (out / name).exists()
        rows = (out / "saddle.csv").read_text().splitlines()
        assert rows[0] == "gamma,M,action,residual,witness_value,classification"
        assert float(rows[1].split(",")[4]) < 0
        _assert_certificates_written(out / "saddle_certificate.csv", out / "saddle.gptw")
        # the node actions relax_path returned are those of the stored path
        lines = (out / "path_actions.csv").read_text().splitlines()
        assert len(lines) == 1 + 9
        for i, line in enumerate(lines[1:]):
            f, c = read_field(out / f"path_{i:03d}.gptw")
            assert float(line.split(",")[2]) == action(f, Params(c=c)).action

    def test_images_flag(self, tmp_path):
        out = tmp_path / "mp"
        assert main(self.ARGS + ["--out", str(out), "--images"]) == 0
        for name in ("saddle_modulus.pgm", "saddle_phase.pgm"):
            raw = (out / name).read_bytes()
            assert raw.startswith(b"P5\n32 32\n255\n")
            assert len(raw) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_witness_no_convergence_exits_3(self, tmp_path, capsys, lobpcg_fails):
        out = tmp_path / "mp"
        assert main(self.ARGS + ["--out", str(out)]) == 3
        assert lobpcg_fails
        assert "mp:" in capsys.readouterr().err
        assert not (out / "saddle.csv").exists()

    def test_witness_breakdown_exits_3(self, tmp_path, capsys, lobpcg_raises):
        lobpcg_raises(ValueError("array must not contain infs or NaNs"))
        out = tmp_path / "mp"
        assert main(self.ARGS + ["--out", str(out)]) == 3
        assert "mp:" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["run_config.txt"]


class TestScanCommand:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "scan"
        code = main(["scan", "--c", "1", "--T", "1.0,1.5,1.8", "--starts", "2",
                     "--size", "16", "--out", str(out)])
        assert code == 0
        rows = (out / "threshold.csv").read_text().splitlines()
        assert rows[0] == "T,all_constant,nonconstant,unconverged"
        assert rows[1].startswith("1,true")
        assert rows[2].startswith("1.5,true")
        assert rows[3].startswith("1.8,true")
        assert any("case1_bound" in r for r in rows)

    def test_no_period_exits_2(self, tmp_path, capsys):
        assert main(["scan", "--T", "", "--out", str(tmp_path / "scan")]) == 2
        assert "at least one period" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["spectrum", "--c", "1", "--T", str(2 * np.pi),
                     "--size", "16", "--count", "2", "--out", str(out)])
        assert code == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "c,T,value,mode,branch"
        first = float(rows[1].split(",")[2])
        assert first == pytest.approx(2 - np.sqrt(2), abs=1e-8)

    def test_images_flag(self, tmp_path):
        # the positivity criterion on a 64 x 64 lattice of (c, T)
        out = tmp_path / "spec"
        assert main(["spectrum", "--size", "16", "--count", "2", "--out", str(out),
                     "--images"]) == 0
        raw = (out / "positivity.pgm").read_bytes()
        assert raw.startswith(b"P5\n64 64\n255\n")
        assert len(raw) == len(b"P5\n64 64\n255\n") + 64 * 64

    def test_no_convergence_exits_3(self, tmp_path, capsys, lobpcg_fails):
        out = tmp_path / "spec"
        code = main(["spectrum", "--size", "16", "--count", "2", "--out", str(out)])
        assert code == 3
        assert "spectrum:" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()

    def test_count_beyond_block_limit_exits_2(self, tmp_path, capsys):
        # 8^2 nodes give 128 real coordinates, 127 off the phase direction,
        # and 26 eigenpairs need 130
        out = tmp_path / "spec"
        code = main(["spectrum", "--size", "8", "--count", "26", "--out", str(out)])
        assert code == 2
        assert "complement" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()


class TestTestfnCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "tf"
        code = main(["testfn", "--R", "4", "--out", str(out)])
        assert code == 0
        rows = (out / "testfn.csv").read_text().splitlines()
        assert rows[0].startswith("R,T,size")
        assert float(rows[1].split(",")[6]) < 0  # negative action at R=4, c=1

    @pytest.mark.parametrize("flags, ansatz", [
        (["--core-width", "0.5", "--cutoff-inner", "13", "--cutoff-outer", "15"],
         VortexAnsatz(4.0, 0.5, 13.0, 15.0)),
        (["--core-width", "0.5"], replace(fitted_vortex_ansatz(4.0, 33.0), core_width=0.5)),
    ])
    def test_vortex_flags_act(self, tmp_path, flags, ansatz):
        # R = 4 runs on 64^2 at T = 33; a flag that is set replaces that
        # field of the fitted ansatz, the others keep their fitted values
        out = tmp_path / "tf"
        assert main(["testfn", "--R", "4", *flags, "--out", str(out)]) == 0
        row = _csv_row(out / "testfn.csv")
        assert (row["T"], row["size"]) == ("33", "64")
        rep = action(vortex_test_function(ansatz, TorusGrid((64, 64), 33.0)), Params(c=1.0))
        for key in ("kinetic", "potential", "momentum", "action"):
            assert float(row[key]) == getattr(rep, key)

    def test_cutoffs_out_of_order_exit_2(self, tmp_path, capsys):
        code = main(["testfn", "--R", "4", "--cutoff-inner", "15", "--cutoff-outer", "13",
                     "--out", str(tmp_path / "tf")])
        assert code == 2
        assert "cutoff_outer" in capsys.readouterr().err


class TestConfigHandling:
    def test_load_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nc = 0.5\nT = 14\nmax-iters = 10\n")
        values = load_config(cfg)
        assert values == {"c": "0.5", "T": "14", "max_iters": "10"}

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("c 0.5\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 10\nsize = 16\nR = 2.0\nc = 1.0\nmax-iters = 4000\n")
        out = tmp_path / "cfgrun"
        code = main(["minimize", "--config", str(cfg), "--T", "14",
                     "--size", "32", "--R", "2.5", "--out", str(out)])
        assert code == 0
        text = (out / "run_config.txt").read_text()
        assert "T = 14" in text
        assert "size = 32" in text
        assert "max_iters = 4000" in text

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "y")])
        assert code == 2

    @pytest.mark.parametrize("command,settings,csv", [
        ("scan", {"c": "1", "T": "1.0,1.5", "size": "16", "starts": "1", "band": "2"},
         "threshold.csv"),
        ("testfn", {"c": "1", "R": "4,8"}, "testfn.csv"),
    ])
    def test_config_file_matches_flags(self, tmp_path, command, settings, csv):
        # list-valued keys (scan T, testfn R) stay strings in a config file,
        # exactly as their flags do
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        assert main([command, "--config", str(cfg), "--out", str(by_file)]) == 0
        argv = [command, "--out", str(by_flags)]
        for key, value in settings.items():
            argv += ["--" + key, value]
        assert main(argv) == 0
        assert (by_file / csv).read_bytes() == (by_flags / csv).read_bytes()

        def config_lines(out):
            lines = (out / "run_config.txt").read_text().splitlines()
            return [line for line in lines if not line.startswith("out = ")]
        assert config_lines(by_file) == config_lines(by_flags)

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_run_config_feeds_back(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["scan", "--T", "1.0,1.5", "--size", "16", "--starts", "1"]
        assert main(argv + ["--out", str(first)]) == 0
        config = first / "run_config.txt"
        assert main(["scan", "--config", str(config), "--out", str(second)]) == 0
        assert (first / "threshold.csv").read_bytes() == (second / "threshold.csv").read_bytes()

    def test_run_config_of_another_command_exits_2(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["scan", "--T", "1.0", "--size", "16", "--starts", "1",
                     "--out", str(first)]) == 0
        code = main(["minimize", "--config", str(first / "run_config.txt"),
                     "--out", str(tmp_path / "second")])
        assert code == 2
        assert "scan" in capsys.readouterr().err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _flag_sets(draw):
    """A command and a random subset of its flags with values of their types."""
    command = draw(st.sampled_from(sorted(cli._DEFAULTS)))
    flags = {}
    for key in cli._DEFAULTS[command]:
        if key == "out" or not draw(st.booleans()):
            continue
        kind = cli._key_type(command, key)
        if "choices" in cli._FLAGS[key]:
            value = draw(st.sampled_from(cli._FLAGS[key]["choices"]))
        elif kind is int:
            value = draw(st.integers(-10**9, 10**9))
        elif kind is float:
            value = draw(_FINITE)
        else:  # scan T, testfn R: comma lists
            value = ",".join(repr(x) for x in draw(st.lists(_FINITE, min_size=1, max_size=3)))
        flags[key] = value
    return command, flags


class TestRunConfigProperty:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_flag_sets())
    def test_resolved_config_reads_back(self, case):
        # resolves and records the configuration as every command does,
        # without running its solver
        command, flags = case
        parser = cli.build_parser()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, f"--out={Path(tmp) / 'run'}"]
            argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
            resolved = cli._resolve(parser.parse_args(argv))
            written = cli._prepare_out(resolved, command) / "run_config.txt"
            back = cli._resolve(parser.parse_args([command, "--config", str(written)]))
        assert back == resolved


# (command, flag, value, key in run_config.txt or None when argparse must
# reject the flag because the command does not read it)
_FLAG_CASES = [
    ("minimize", "--seed", "1", None),
    ("spectrum", "--tol", "0.1", None),
    ("spectrum", "--max-iters", "1", None),
    ("scan", "--N", "3", None),
    ("scan", "--tol", "0.1", None),
    ("scan", "--max-iters", "1", None),
    ("scan", "--images", None, None),
    ("testfn", "--T", "10", None),
    ("testfn", "--N", "2", None),
    ("testfn", "--size", "64", None),
    ("testfn", "--seed", "1", None),
    ("testfn", "--tol", "0.1", None),
    ("testfn", "--max-iters", "1", None),
    ("testfn", "--images", None, None),
    ("scan", "--c", "0.5", "c = 0.5"),
    ("scan", "--T", "1.2", "T = 1.2"),
    ("scan", "--size", "12", "size = 12"),
    ("scan", "--starts", "1", "starts = 1"),
    ("scan", "--seed", "3", "seed = 3"),
    ("scan", "--band", "3", "band = 3"),
]


@pytest.mark.parametrize("command,flag,value,recorded", _FLAG_CASES)
def test_flag_registration(tmp_path, command, flag, value, recorded):
    out = tmp_path / "run"
    argv = [command, flag] + ([value] if value is not None else []) + ["--out", str(out)]
    if recorded is None:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert not out.exists()
        return
    base = {"--T": "1.0", "--size": "16", "--starts": "1", "--band": "2"}
    for key, default in base.items():
        if key != flag:
            argv += [key, default]
    assert main(argv) == 0
    lines = (out / "run_config.txt").read_text().splitlines()
    assert recorded in lines
    assert f"out = {out}" in lines


# (argv without --out, message on stderr) of runs rejected with exit 2: the
# first five fail on the flags themselves, the last three inside the solver
_REJECTED = [
    (["minimize", "--size", "32", "--T", "40", "--R", "8", "--tol", "nan"],
     "grad_tol must be positive"),
    (["mp", "--size", "32", "--T", "29", "--R", "3.5", "--nodes", "9", "--max-iters", "0"],
     "max_iters must be >= 1"),
    (["spectrum", "--size", "7"], "axis sizes must be even"),
    (["scan", "--T", ","], "at least one period"),
    (["testfn", "--R", "1"], "half separation must be >= 2"),
    (["mp", "--size", "32", "--T", "29", "--R", "3.5", "--nodes", "2"], "node_count"),
    (["spectrum", "--size", "8", "--count", "26"], "complement"),
    (["scan", "--T", "1.0", "--size", "16", "--starts", "0"], "starts must be >= 1"),
]


@pytest.mark.parametrize("argv,message", _REJECTED)
def test_rejected_run_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestPgm:
    def test_write_pgm(self, tmp_path):
        data = np.linspace(0, 1, 12).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, data)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        body = raw.split(b"255\n", 1)[1]
        assert body[0] == 0 and body[-1] == 255
