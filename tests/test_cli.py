"""End-to-end behavior of the lfr command."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from lfr import VerifyError, lfi_check_sig, parse_lfi
from lfr.cli import main

from conftest import GOLDEN_DIR, GOLDEN_NAMES, checkout_env, golden_path
from gen import deep_text


GOOD = [n for n in GOLDEN_NAMES]


class TestCheck:
    @pytest.mark.parametrize("name", GOOD)
    def test_goldens_exit_zero(self, name, capsys):
        assert main(["check", str(golden_path(name))]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "declarations" in out

    def test_rejected_signature_exits_one(self, capsys):
        assert main(["check", str(golden_path("bad-odd"))]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "at-odd*" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no-such-file.lfr"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "broken.lfr"
        p.write_text("nat : type\n")
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "broken.lfr:" in err and "error:" in err

    def test_quiet_suppresses_report(self, capsys):
        assert main(["check", "--quiet", str(golden_path("nat"))]) == 0
        assert capsys.readouterr().out == ""

    def test_trace_replays_rule_names(self, capsys):
        assert main(["check", "--trace", str(golden_path("nat"))]) == 0
        out = capsys.readouterr().out
        assert "rule trace (" in out
        assert "Π-F" in out

    def test_oracle_audit_line(self, capsys):
        # Elaborating applied sorts compares argument sorts atomically,
        # so the audit has comparisons to count.
        rc = main(["check", "--oracle-depth", "4",
                   str(golden_path("double"))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle audit:" in out
        assert "0 disagreements" in out

    def test_nested_binder_diagnostic_names_checker_binder(self, capsys):
        # The checker opens the inner binder of [x] [y] s y as x', and the
        # diagnostic shows the term under that name.
        assert main(["check", str(golden_path("bad-nested"))]) == 1
        err = capsys.readouterr().err
        assert "bad-nested.lfr:13:1: error:" in err
        assert "argument 1 of fs2: term s x': none of the synthesized " \
            "sorts [odd] is a subsort of even" in err

    def test_intersection_class_tries_every_side(self, capsys):
        # The left side of double*'s class accepts z but not s (s z); the
        # right side accepts both, so the sort is well formed.
        assert main(["check", "--quiet", str(golden_path("class-inter"))]) == 0
        assert main(["verify", "--quiet",
                     str(golden_path("class-inter"))]) == 0

    def test_strict_rejects_repeated_refinement(self, tmp_path, capsys):
        p = tmp_path / "twice.lfr"
        p.write_text("nat : type.\nz : nat.\neven << nat.\n"
                     "z :: even.\nz :: even.\n")
        assert main(["check", str(p)]) == 0
        capsys.readouterr()
        assert main(["check", "--strict", str(p)]) == 1
        assert "refinement" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where, digit", [
        ("nat : type.\nc : \u00b2.\n", "2:5", "\u00b2"),
        ("nat : type.\nc : nat.\nc :: \u2460.\n", "3:6", "\u2460"),
        ("nat : type.\nc : nat -> nat -> nat.\n%infix right \u00b2 c.\n",
         "3:14", "\u00b2"),
    ], ids=["type", "refinement", "precedence"])
    def test_non_ascii_digit_is_a_lexing_error(self, tmp_path, text, where,
                                              digit):
        # str.isdigit accepts these, and int() does not: a number is made
        # of ASCII digits only.
        src = tmp_path / "digits.lfr"
        src.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", str(src)],
            capture_output=True, text=True, encoding="utf-8",
            env={**checkout_env(), "PYTHONUTF8": "1"})
        assert proc.returncode == 2
        assert proc.stderr == \
            f"{src}:{where}: error: unexpected character {digit!r}\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text, where", [
        ("nat : type.\nc : {0}.\n", "2:5"),
        ("nat : type.\nc : nat -> nat -> nat.\n%infix right {0} c.\n",
         "3:14"),
    ], ids=["type", "precedence"])
    def test_long_numeral_is_a_parse_error(self, tmp_path, text, where):
        # int() refuses more than sys.get_int_max_str_digits() digits.
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        src = tmp_path / "long.lfr"
        src.write_text(text.format(digits))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 2
        assert proc.stderr == (f"{src}:{where}: error: numeral of "
                               f"{len(digits)} digits is too long\n")


class TestTranslate:
    def _src(self, tmp_path, name="even-odd"):
        p = tmp_path / f"{name}.lfr"
        p.write_text(golden_path(name).read_text())
        return p

    def test_writes_output_and_sidecar(self, tmp_path, capsys):
        src = self._src(tmp_path)
        assert main(["translate", str(src)]) == 0
        out_path = src.with_suffix(".lfi")
        prov_path = tmp_path / "even-odd.lfi.prov"
        assert out_path.exists() and prov_path.exists()
        printed = capsys.readouterr().out
        assert "wrote" in printed and "verified:" in printed
        sig = parse_lfi(out_path.read_text(), str(out_path))
        lfi_check_sig(sig)
        for line in prov_path.read_text().splitlines():
            name, label = line.split("\t")
            assert name and label

    def test_custom_output_path(self, tmp_path):
        src = self._src(tmp_path)
        dest = tmp_path / "custom.out"
        assert main(["translate", str(src), "-o", str(dest)]) == 0
        assert dest.exists()
        assert (tmp_path / "custom.out.prov").exists()

    def test_emission_is_deterministic(self, tmp_path):
        src = self._src(tmp_path, "double")
        dest1 = tmp_path / "one.lfi"
        dest2 = tmp_path / "two.lfi"
        assert main(["translate", "--quiet", str(src), "-o", str(dest1)]) == 0
        assert main(["translate", "--quiet", str(src), "-o", str(dest2)]) == 0
        assert dest1.read_bytes() == dest2.read_bytes()

    def test_no_verify_skips_recheck(self, tmp_path, capsys, monkeypatch):
        import lfr.cli as cli

        def boom(sig, result):
            raise AssertionError("verification ran")

        monkeypatch.setattr(cli, "verify_translation", boom)
        src = self._src(tmp_path)
        assert main(["translate", "--no-verify", str(src)]) == 0

    def test_verify_failure_exits_three_but_keeps_files(self, tmp_path,
                                                        capsys, monkeypatch):
        import lfr.cli as cli

        def fail(sig, result):
            raise VerifyError("induced failure")

        monkeypatch.setattr(cli, "verify_translation", fail)
        src = self._src(tmp_path)
        assert main(["translate", str(src)]) == 3
        assert src.with_suffix(".lfi").exists()
        assert (tmp_path / "even-odd.lfi.prov").exists()
        assert "induced failure" in capsys.readouterr().err


def _after_leading_comment(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    while lines and (lines[0].startswith(b"%") or not lines[0].strip()):
        lines.pop(0)
    return b"".join(lines)


class TestPinnedOutput:
    @pytest.mark.parametrize("name", ("even-odd", "double", "coerce", "cbv",
                                      "nested"))
    def test_translate_writes_pinned_bytes(self, name, tmp_path):
        # Byte equality also pins binder names, which criterion 8's
        # comparison up to alpha-equivalence does not.
        dest = tmp_path / f"{name}.lfi"
        assert main(["translate", "--quiet", str(golden_path(name)),
                     "-o", str(dest)]) == 0
        pinned = golden_path(name).with_suffix(".lfi").read_bytes()
        assert dest.read_bytes() == _after_leading_comment(pinned)

    @pytest.mark.parametrize("name", ("coherence", "class-inter", "deep-8",
                                      "deep-9"))
    def test_check_trace_and_audit_match_pin(self, name, tmp_path,
                                             monkeypatch, capsys):
        # The shared synthesis of an argument must replay what running it
        # again would show: its rule names and its audited comparisons.
        # A .trace pin holds the accepted run's stdout, an .err pin the
        # rejected run's stderr.
        trace = GOLDEN_DIR / f"{name}.trace"
        pinned = trace if trace.exists() else trace.with_suffix(".err")
        text = _after_leading_comment(pinned.read_bytes()).decode()
        want = (0, text, "") if pinned == trace else (1, "", text)
        if name.startswith("deep-"):
            (tmp_path / f"{name}.lfr").write_text(deep_text(int(name[5:])))
            monkeypatch.chdir(tmp_path)
        else:
            monkeypatch.chdir(GOLDEN_DIR)
        rc = main(["check", "--trace", "--oracle-depth", "3", f"{name}.lfr"])
        out, err = capsys.readouterr()
        assert (rc, re.sub(r"(?m)^(ok: .*) in \d+\.\d+s$", r"\1", out),
                err) == want


class TestVerify:
    @pytest.mark.parametrize("name", GOOD)
    def test_goldens_verify(self, name, capsys):
        assert main(["verify", str(golden_path(name))]) == 0
        assert "verified:" in capsys.readouterr().out

    def test_rejected_signature_fails_before_translation(self, capsys):
        assert main(["verify", str(golden_path("bad-odd"))]) == 1

    def test_exhausted_budget_exits_three(self, monkeypatch, capsys):
        monkeypatch.setenv("LFR_FUEL", "2")
        assert main(["verify", str(golden_path("double"))]) == 3
        assert "search budget exhausted" in capsys.readouterr().err


REPO = Path(__file__).resolve().parent.parent


def _declared_script(name: str) -> str:
    """The `module:attr` entry that `pyproject.toml` declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (REPO / "pyproject.toml").open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert name in scripts, f"no [project.scripts] entry for {name!r}"
    return scripts[name]


def _write_console_script(bin_dir: Path, name: str, entry: str) -> Path:
    """Write the wrapper an installer generates for a console-script entry."""
    module, _, attr = entry.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    script.chmod(script.stat().st_mode | 0o111)
    return script


class TestEntrypoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", "--quiet",
             str(golden_path("cbv"))],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0

    def test_installed_script(self, tmp_path):
        script = _write_console_script(
            tmp_path / "bin", "lfr", _declared_script("lfr"))

        def run(name):
            return subprocess.run(
                [str(script), "check", "--quiet", str(golden_path(name))],
                capture_output=True, text=True, env=checkout_env())

        proc = run("nat")
        assert proc.returncode == 0, proc.stderr
        # Exit 1 shows main's status reaches the shell: a wrapper that
        # dropped it would exit 0 on both inputs.
        proc = run("bad-odd")
        assert proc.returncode == 1, proc.stderr

    def test_too_deep_input_exits_four(self, tmp_path):
        # Parsing 150 nested parentheses exceeds the default recursion
        # limit; that is an internal error, not a verdict on the input.
        src = tmp_path / "deep-150.lfr"
        src.write_text(deep_text(150))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: internal error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
