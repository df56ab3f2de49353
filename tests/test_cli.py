import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import conic_butterfly
from conic_butterfly import GaussianRational, RetryBudget
from conic_butterfly.cli import main
from conic_butterfly.fuzz import _RUNNERS
from conic_butterfly.scenario_io import parse_scenario, run_document, serialize_scenario
from generic_formulas import exact_text
from test_golden import FIXTURES, GOLDEN

# a device whose every write fails with ENOSPC
DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full here")


@pytest.fixture
def fixture_path(fixtures_dir):
    def resolve(name: str) -> str:
        return str(fixtures_dir / f"{name}.scn")

    return resolve


class TestVerify:
    def test_holds_fixture(self, fixture_path, capsys):
        status = main(["verify", fixture_path("butterfly_circle")])
        out, _err = capsys.readouterr()
        assert status == 0
        assert "report damn" in out
        assert "verdict HOLDS" in out
        assert "report expect" in out
        assert out.endswith("end\n")

    def test_expect_mismatch_exits_1(self, fixture_text, tmp_path, capsys):
        corrupted = fixture_text("lemma1").replace(
            "expect point p (2 : 1 : 1)", "expect point p (3 : 1 : 1)")
        target = tmp_path / "corrupted.scn"
        target.write_text(corrupted, encoding="utf-8")
        status = main(["verify", str(target)])
        out, _err = capsys.readouterr()
        assert status == 1
        assert "verdict VIOLATED" in out
        assert "residual" in out

    def test_reflected_witness_residual_bytes(self, tmp_path, capsys):
        # the residual is unreduced, so it pins the raw coordinates of y' = reflect(y)
        doc = ("check nut\nbackend gauss\nconic symmetric 0 1/2 1/2 0 -1 0\n"
               "line k (1 : 1 : 0)\npoint y (1 : 1 : 1)\npoint z (1 : 2 : 3)\n"
               "expect point y' (1 : 1 : 0)\n")
        target = tmp_path / "nut.scn"
        target.write_text(doc, encoding="utf-8")
        status = main(["verify", str(target)])
        out, _err = capsys.readouterr()
        assert status == 1
        assert "witness y' point (1 : 1/5 : -1/3)\n" in out
        assert "residual -5\n" in out

    def test_residual_past_the_digit_limit_prints_exactly(self, tmp_path, capsys):
        """Cell 0 of `butterfly fuzz --seed 11 --height 120 --checks damn` with
        a wrong cross-ratio pin: its residual has more digits than the
        interpreter's int-to-str limit, and the report still prints it."""
        _, make_doc = _RUNNERS["damn"](Random("11:0:damn"), GaussianRational, 120,
                                       RetryBudget(), 0)
        text = serialize_scenario(make_doc()) + "expect ratio cr 2\n"
        target = tmp_path / "big.scn"
        target.write_text(text, encoding="utf-8")
        status = main(["verify", str(target)])
        out, _err = capsys.readouterr()
        assert status == 1
        want = exact_text(run_document(parse_scenario(text))[1].residual)
        assert len(want) > sys.get_int_max_str_digits() > 0
        assert f"\nresidual {want}\n" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        target = tmp_path / "broken.scn"
        target.write_text("check mono\nconic symmetric 1 0 0\n", encoding="utf-8")
        status = main(["verify", str(target)])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error: line 2")

    def test_missing_file_exits_2(self, capsys):
        status = main(["verify", "/nonexistent/nowhere.scn"])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")

    def test_out_flag_writes_file(self, fixture_path, tmp_path, capsys):
        target = tmp_path / "report.txt"
        status = main(["verify", fixture_path("lemma1"), "--out", str(target)])
        out, _err = capsys.readouterr()
        assert status == 0
        assert out == ""
        assert "verdict HOLDS" in target.read_text(encoding="utf-8")

    def test_unwritable_out_exits_2(self, fixture_path, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        status = main(["verify", fixture_path("lemma1"), "--out", str(target)])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == ""
        assert err.startswith("error:")

    @needs_dev_full
    def test_full_disk_exits_2(self, fixture_path, capsys):
        status = main(["verify", fixture_path("lemma1"), "--out", DEV_FULL])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")


class TestFuzz:
    def test_small_campaign(self, capsys):
        status = main(["fuzz", "--seed", "7", "--count", "2", "--height", "5",
                       "--checks", "mono,nut"])
        out, err = capsys.readouterr()
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "campaign seed=7 count=2 backend=gauss height=5 checks=mono,nut"
        assert lines[-1].startswith("summary cells=4")
        assert err.startswith("runtime ")

    def test_byte_identity_across_jobs(self, capsys):
        argv = ["fuzz", "--seed", "11", "--count", "2", "--height", "5",
                "--checks", "sack,pascal"]
        assert main(argv) == 0
        serial, _ = capsys.readouterr()
        assert main(argv + ["--jobs", "2"]) == 0
        parallel, _ = capsys.readouterr()
        assert serial == parallel

    def test_default_checks_by_backend(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "1", "--height", "4"]) == 0
        gauss_out, _ = capsys.readouterr()
        assert "checks=mono,jap,nut,sack,pascal,damn,cutl" in gauss_out.splitlines()[0]
        assert main(["fuzz", "--seed", "3", "--count", "1", "--height", "4",
                     "--backend", "prime"]) == 0
        prime_out, _ = capsys.readouterr()
        assert "checks=mono,jap,nut,sack,pascal,damn" in prime_out.splitlines()[0]
        assert "cutl" not in prime_out.splitlines()[0]

    def test_cutl_prime_exits_2(self, capsys):
        status = main(["fuzz", "--seed", "1", "--count", "1",
                       "--backend", "prime", "--checks", "cutl"])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")

    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "stream.txt"
        status = main(["fuzz", "--seed", "5", "--count", "1", "--height", "4",
                       "--checks", "nut", "--out", str(target)])
        out, _err = capsys.readouterr()
        assert status == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("campaign seed=5")
        assert "summary" in text

    def test_zero_jobs_exits_2(self, capsys):
        status = main(["fuzz", "--seed", "1", "--count", "1", "--jobs", "0"])
        out, err = capsys.readouterr()
        assert status == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "stream.txt"
        status = main(["fuzz", "--seed", "1", "--count", "1", "--checks", "nut",
                       "--out", str(target)])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")

    @needs_dev_full
    def test_full_disk_exits_2(self, capsys):
        status = main(["fuzz", "--seed", "1", "--count", "1", "--checks", "nut",
                       "--out", DEV_FULL])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")

    def test_closed_pipe_exits_2(self):
        # the reader is gone before the first write, like `butterfly fuzz ... | head -0`
        env = dict(os.environ, PYTHONPATH=str(Path(conic_butterfly.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from conic_butterfly.cli import main; sys.exit(main())",
             "fuzz", "--seed", "1", "--count", "1", "--height", "4", "--checks", "nut"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error:")
        assert "Exception ignored" not in err


class TestDemo:
    def test_lemma1(self, capsys):
        status = main(["demo", "lemma1"])
        out, _err = capsys.readouterr()
        assert status == 0
        assert "(2 : 1 : 1)" in out or "(1 : 1/2 : 1/2)" in out
        assert "harmonic" in out
        assert "involution" in out

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        status = main(["demo", "lemma1", "--out", str(tmp_path / "missing" / "demo.txt")])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")

    @needs_dev_full
    def test_full_disk_exits_2(self, capsys):
        status = main(["demo", "lemma1", "--out", DEV_FULL])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")


class _BrokenStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1"],
    ["fuzz", "--seed", "1", "--count", "1", "--height", "4", "--checks", "nut"],
    ["demo", "lemma1"],
], ids=("verify", "fuzz", "demo"))
def test_broken_stdout_exits_2(argv, fixture_path, monkeypatch, capsys):
    if argv[0] == "verify":
        argv = ["verify", fixture_path(argv[1])]
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    status = main(argv)
    _out, err = capsys.readouterr()
    assert status == 2
    assert err.startswith("error: [Errno 32] Broken pipe")


class TestRender:
    def test_writes_svg(self, fixture_path, tmp_path, capsys):
        target = tmp_path / "butterfly.svg"
        status = main(["render", fixture_path("butterfly_circle"), "--out", str(target)])
        _out, err = capsys.readouterr()
        assert status == 0
        assert err.strip() == f"wrote {target}"
        assert target.read_text(encoding="utf-8").startswith("<svg")

    def test_prime_document_exits_2(self, tmp_path, capsys):
        doc = ("check nut\nbackend prime\nconic symmetric 0 1 1 0 -2 0\n"
               "line k (1 : 0 : 0)\npoint y (1 : 1 : 1)\npoint z (1 : 2 : 3)\n")
        source = tmp_path / "prime.scn"
        source.write_text(doc, encoding="utf-8")
        status = main(["render", str(source), "--out", str(tmp_path / "x.svg")])
        _out, err = capsys.readouterr()
        assert status == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("name", FIXTURES)
def test_byte_order_mark_is_dropped(name, fixture_text, tmp_path, capsys):
    """A fixture saved with a UTF-8 byte-order mark verifies and renders to its goldens."""
    source = tmp_path / f"{name}.scn"
    source.write_text("\ufeff" + fixture_text(name), encoding="utf-8")
    assert main(["verify", str(source)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify_{name}.txt").read_text(encoding="utf-8")
    target = tmp_path / f"{name}.svg"
    assert main(["render", str(source), "--out", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / f"render_{name}.svg").read_bytes()
