"""CLI behaviour: output formats, exit codes, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from betheq import asmcounts, bethe, cli, conjectures, ed
from betheq.cli import EXIT_FAIL, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, run


README = Path(__file__).resolve().parent.parent / "README.md"


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestAsm:
    def test_count_prints_bare_integer(self, capsys):
        code, out = run_capture(capsys, ["asm", "count", "--n", "5"])
        assert code == EXIT_OK
        assert out.strip() == "429"

    def test_other_counts(self, capsys):
        assert run_capture(capsys, ["asm", "v", "--n", "7"])[1].strip() == "26"
        assert run_capture(capsys, ["asm", "n8", "--n", "6"])[1].strip() == "11"
        assert run_capture(capsys, ["asm", "ht", "--n", "5"])[1].strip() == "25"

    def test_invalid_parity_is_usage_error(self, capsys):
        code, _ = run_capture(capsys, ["asm", "v", "--n", "4"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("which", list(cli.ASM_COUNTS))
    def test_runs_a_patched_count(self, capsys, monkeypatch, which):
        monkeypatch.setattr(asmcounts, cli.ASM_COUNTS[which], lambda n: 1000 + n)
        assert run_capture(capsys, ["asm", which, "--n", "3"]) == (EXIT_OK, "1003\n")


class TestQpoly:
    def test_periodic_n2(self, capsys):
        code, out = run_capture(
            capsys, ["qpoly", "--boundary", "periodic", "--n", "2"]
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["e"] == ["1", "11/5", "1"]

    def test_unknown_boundary_is_usage_error(self, capsys):
        code, _ = run_capture(capsys, ["qpoly", "--boundary", "moebius", "--n", "2"])
        assert code == EXIT_USAGE


class TestVerify:
    def test_conj_n4(self, capsys):
        code, out = run_capture(capsys, ["verify", "conj", "--n", "4"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["lhs"] == "74088"
        assert data["rhs"] == "74088"
        assert data["equal"] is True

    def test_verify_requires_n(self, capsys):
        code, _ = run_capture(capsys, ["verify", "conj"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["verify", "hyp1", "--n", "-3"],
        ["verify", "hyp2", "--n", "-3"],
        ["verify", "all", "--max-n", "0"],
        ["verify", "all", "--max-n", "-2"],
    ])
    def test_checking_nothing_is_a_usage_error(self, capsys, argv):
        # an empty range of n must not read as a pass
        code, out = run_capture(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        # verify all takes --max-n only and a named identity --n only; the
        # other flag would otherwise be ignored
        (["verify", "all", "--n", "2"], "verify all takes --max-n K, not --n"),
        (["verify", "all", "--n", "2", "--max-n", "1"], "verify all takes --max-n K, not --n"),
        # the exact reports would run before the numeric ones fail
        (["verify", "all", "--max-n", "1", "--precision", "32"],
         "precision must be at least 64 bits"),
        (["verify", "conj", "--n", "1", "--precision", "63"],
         "precision must be at least 64 bits"),
        (["verify", "conj", "--n", "1", "--max-n", "9"], "verify conj takes --n K, not --max-n"),
        (["verify", "all"], "verify all requires --max-n K"),
    ])
    def test_bad_option_fails_before_any_report(self, capsys, argv, message):
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_hyp_identities(self, capsys):
        code, out = run_capture(capsys, ["verify", "hyp1", "--n", "6"])
        assert code == EXIT_OK
        assert json.loads(out)["equal"] is True

    def test_umbrella(self, capsys):
        code, out = run_capture(capsys, ["verify", "all", "--max-n", "2"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["equal"] is True
        assert len(data["reports"]) >= 7

    def test_conj2_target_prints_exactly(self, capsys):
        code, out = run_capture(capsys, ["verify", "conj2", "--n", "7"])
        assert code == EXIT_OK
        assert json.loads(out)["rhs"] == (
            "318496282180454348370485880375633477697602939456000000")

    def test_report_carries_method_and_precision(self, capsys):
        _, out = run_capture(
            capsys, ["verify", "conj2", "--n", "1", "--precision", "128"]
        )
        data = json.loads(out)
        assert data["method"] == "numeric"
        assert data["precision_bits"] == 128
        assert data["tolerance"] is not None


class TestRoots:
    def test_roots_json(self, capsys):
        code, out = run_capture(
            capsys,
            ["roots", "--boundary", "periodic", "--n", "3", "--precision", "128"],
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["L"] == 7
        assert len(data["roots"]) == 3
        assert all(
            set(r) == {"re", "im", "precision"} and r["precision"] == 128
            for r in data["roots"]
        )

    def test_roots_report_iterations_and_reconstruction_error(self, capsys):
        code, out = run_capture(
            capsys,
            ["roots", "--boundary", "reflecting", "--n", "4", "--precision", "128"],
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert 1 <= data["iterations"] < 64 + 8 * 128 // 16
        assert 0 <= float(data["reconstruction_error"]) <= 2.0 ** (20 - 128)

    def test_determinism(self, capsys):
        argv = ["roots", "--boundary", "twisted", "--n", "4", "--precision", "96"]
        _, out1 = run_capture(capsys, argv)
        _, out2 = run_capture(capsys, argv)
        assert out1 == out2


class TestDiag:
    def test_small_periodic_chain(self, capsys):
        code, out = run_capture(
            capsys, ["diag", "--L", "5", "--boundary", "periodic"]
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["dim"] == 10
        assert abs(float(data["energy"]["re"]) + 15 / 4) < 1e-9
        assert abs(float(data["ratio"]) - 2) < 1e-9

    def test_periodic_chain_above_dense_cap(self, capsys):
        # largest/smallest groundstate component of the L = 15 chain is A_7
        code, out = run_capture(
            capsys, ["diag", "--boundary", "periodic", "--L", "15"]
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["dim"] == 6435
        assert abs(float(data["ratio"]) - 218348) < 1e-8 * 218348

    def test_reflecting_single_site(self, capsys):
        # the sector matrix is zero, so the start vector is already exact
        code, out = run_capture(
            capsys, ["diag", "--L", "1", "--boundary", "reflecting"]
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["dim"] == 1
        assert float(data["energy"]["re"]) == 0.0

    @pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
    def test_empty_chain_is_usage_error(self, capsys, boundary):
        code, out = run_capture(capsys, ["diag", "--L", "0", "--boundary", boundary])
        assert code == EXIT_USAGE
        assert out == ""

    @pytest.mark.parametrize("boundary", ["periodic", "twisted"])
    def test_single_site_closed_chain_is_usage_error(self, capsys, boundary):
        # one site has no bond to close the chain with
        code, out = run_capture(capsys, ["diag", "--L", "1", "--boundary", boundary])
        assert code == EXIT_USAGE
        assert out == ""

    def test_arnoldi_nonconvergence_exits_numeric(self, capsys, monkeypatch):
        monkeypatch.setattr(ed, "ARNOLDI_TOL", 0.0)
        monkeypatch.setattr(ed, "ARNOLDI_MAX_RESTARTS", 3)
        code = run(["diag", "--L", "5", "--boundary", "periodic"])
        assert code == EXIT_NUMERIC
        assert "Arnoldi did not converge in 3 restarts" in capsys.readouterr().err


class TestSchur:
    def test_from_evalues(self, capsys):
        # s_(2) from e-values of variables {1, 2}: h_2 = e1^2 - e2 = 7
        code, out = run_capture(
            capsys, ["schur", "--partition", "2", "--evalues", "1,3,2"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["schur"] == "7"

    def test_fewer_evalues_than_nvars_is_usage_error(self, capsys):
        # e_2 and e_3 are missing; they must not be taken as 0
        code = run(["schur", "--partition", "2,2", "--evalues", "1,11/5", "--nvars", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "3 variables need e_0..e_3, got 2 e-values" in captured.err

    def test_negative_nvars_is_usage_error(self, capsys):
        code = run(["schur", "--partition", "2,1", "--evalues", "1,3,3,1", "--nvars", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "nvars must be >= 0, got -1" in captured.err

    def test_staircase_from_periodic_evalues(self, capsys):
        code, out = run_capture(
            capsys,
            ["schur", "--partition", "2,0", "--evalues", "1,11/5,1", "--nvars", "2"],
        )
        assert code == EXIT_OK
        # s_(2) in 2 variables from e = (1, 11/5, 1): e1^2 - e2
        assert json.loads(out)["schur"] == "96/25"


class TestFormats:
    def test_pretty(self, capsys):
        code, out = run_capture(
            capsys, ["--format", "pretty", "verify", "conj", "--n", "2"]
        )
        assert code == EXIT_OK
        assert "equal: True" in out

    def test_csv(self, capsys):
        code, out = run_capture(
            capsys, ["--format", "csv", "verify", "conj", "--n", "2"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "lhs" in lines[0]


class TestParser:
    def test_back_to_back_commands_share_no_state(self, capsys, monkeypatch):
        # one parser serves every call in the process; a patched _cmd_verify
        # must still be the one that runs
        seen = []
        verify = cli._cmd_verify

        def spy(args):
            seen.append(vars(args).copy())
            return verify(args)

        monkeypatch.setattr(cli, "_cmd_verify", spy)
        code, out = run_capture(capsys, ["verify", "conj", "--n", "2"])
        assert code == EXIT_OK
        assert json.loads(out)["n"] == 2
        code, out = run_capture(capsys, ["verify", "all", "--max-n", "1"])
        assert code == EXIT_OK
        reports = json.loads(out)["reports"]
        assert [r["n"] for r in reports] == [1] * len(conjectures.VERIFIERS)
        assert seen == [
            {"format": "json", "command": "verify", "which": "conj", "n": 2,
             "max_n": None, "precision": 256},
            {"format": "json", "command": "verify", "which": "all", "n": None,
             "max_n": 1, "precision": 256},
        ]


class TestReadme:
    def test_cli_block_runs(self, capsys):
        # every line of the sh block under "## CLI", comment stripped, exits 0
        section = README.read_text().split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        outs = {}
        for line in block.splitlines():
            prog, *argv = shlex.split(line, comments=True)
            assert prog == "betheq", line
            code, outs[" ".join(argv)] = run_capture(capsys, argv)
            assert code == EXIT_OK, line
        assert outs["asm count --n 5"].strip() == "429"
        assert json.loads(outs["verify conj --n 4"])["lhs"] == "74088"


class TestExitCodes:
    def test_usage_error_on_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_closed_output_pipe_exits_quietly(self):
        # The reader closes the pipe before betheq writes, as `| head -c 10`
        # can: the command exits 1 with nothing on stderr, no traceback.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = [sys.executable, "-m", "betheq.cli", *"roots --boundary reflecting --n 6".split()]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_FAIL
        assert err == b""

    def test_failing_verification_exits_one(self, capsys, monkeypatch):
        import betheq.conjectures as conj
        from betheq.conjectures import VerificationReport

        def fake(n):
            return VerificationReport(
                conjecture="conj", n=n, lhs=1, rhs=2, equal=False, method="exact"
            )

        monkeypatch.setattr(conj, "verify_periodic_product", fake)
        assert run(["verify", "conj", "--n", "2"]) == EXIT_FAIL

    def test_nonconvergence_in_one_report_keeps_the_others(self, capsys, monkeypatch):
        conj2 = conjectures.VERIFIERS["conj2"]

        def flaky(n, precision):
            if n == 2:
                raise bethe.NonConvergenceError(
                    "forced", degree=n, precision=precision, iterations=7,
                    correction=mp.mpf(1))
            return conj2(n, precision)

        monkeypatch.setitem(conjectures.VERIFIERS, "conj2", flaky)
        code, out = run_capture(capsys, ["verify", "all", "--max-n", "2"])
        assert code == EXIT_NUMERIC
        data = json.loads(out)
        assert data["equal"] is False
        assert len(data["reports"]) == 2 * len(conjectures.VERIFIERS)
        failed = [r for r in data["reports"] if not r["equal"]]
        assert failed == [{
            "conjecture": "conj2", "n": 2, "equal": False, "error": "forced",
            "degree": 2, "precision_bits": 256, "iterations": 7,
            "correction": "1.0",
        }]
