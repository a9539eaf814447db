"""End-to-end behavior of the lfr command."""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lfr import VerifyError, lfi_check_sig, parse_lfi
import lfr.cli as cli
from lfr.cli import main
from lfr.lfi import ITUnitT, LfiDecl
from lfr.parser import SourceLines, tokenize

from conftest import (FUEL_TEXT, GOLDEN_DIR, GOLDEN_NAMES, LATER_EDGE_TEXTS,
                      REJECTED_REFINEMENTS, TYPED_BASE, checkout_env,
                      golden_path)
from gen import binders_text, deep_text
from oracles import node_replace


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

    @pytest.mark.parametrize("tail, error, kind, message, span",
                             REJECTED_REFINEMENTS.values(),
                             ids=REJECTED_REFINEMENTS)
    def test_rejected_refinement(self, tmp_path, capsys, tail, error, kind,
                                 message, span):
        p = tmp_path / "typed.lfr"
        p.write_text(TYPED_BASE + tail)
        code = main(["check", str(p)])
        line, col = span[:2]
        assert (code, *capsys.readouterr()) == (
            1, "", f"{p}:{line}:{col}: error: {message}\n")

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no-such-file.lfr"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "broken.lfr"
        p.write_text("nat : type\n")
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "broken.lfr:" in err and "error:" in err

    def test_quiet_suppresses_report(self, capsys, monkeypatch):
        # The report's lines are built only when it is printed.
        import lfr.cli as cli

        def unused(decl):
            raise AssertionError("a report line was built")

        monkeypatch.setattr(cli, "_decl_line", unused)
        assert main(["check", "--quiet", str(golden_path("nat"))]) == 0
        assert capsys.readouterr().out == ""

    def test_empty_signature_reports_no_kinds(self, tmp_path, capsys):
        # No declaration of any kind: the count stands without a list.
        p = tmp_path / "empty.lfr"
        p.write_text("% nothing declared\n")
        assert main(["check", str(p)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"checking {p}"
        assert re.fullmatch(r"ok: 0 declarations in \d+\.\d{3}s", out[1])
        assert len(out) == 2

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

    @pytest.mark.parametrize("data, where, byte", [
        (b"nat : type.\n\xff\n", "2:1", "0xff"),
        (b"nat : type.\r\nc : nat. % caf\xc3\xa9 \xe9t\xe9\n", "2:17",
         "0xe9"),
    ], ids=["line-start", "after-multibyte"])
    def test_non_utf8_input_is_a_lexing_error(self, tmp_path, data, where,
                                              byte):
        # The byte's place counts the characters before it, and a CRLF as
        # one line break, as the lexer reads them.
        src = tmp_path / "latin1.lfr"
        src.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 2
        assert proc.stderr == \
            f"{src}:{where}: error: invalid UTF-8 byte {byte}\n"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("data", [
        b"nat : type.\nz : nat.\n@\n",
        b"@nat : type.\n",
        b"\xff\n",
        b"nat : type\n",
    ], ids=["lexing-line-3", "lexing-1-1", "invalid-byte-1-1", "parsing"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, data,
                                                capsys):
        # Editors may save UTF-8 with a byte-order mark.  It is dropped
        # before lexing, so the first real character is still 1:1 and
        # every diagnostic is the one the file without the mark gets.
        plain, marked = tmp_path / "plain.lfr", tmp_path / "marked.lfr"
        plain.write_bytes(data)
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        assert main(["check", str(plain)]) == 2
        expected = capsys.readouterr().err.replace(str(plain), str(marked))
        assert main(["check", str(marked)]) == 2
        assert capsys.readouterr().err == expected

    def test_signature_with_leading_byte_order_mark_checks(self, tmp_path,
                                                           capsys):
        src = tmp_path / "nat.lfr"
        src.write_bytes(b"\xef\xbb\xbf" + golden_path("nat").read_bytes())
        assert main(["check", "--quiet", str(src)]) == 0
        assert main(["verify", "--quiet", str(src)]) == 0

    @pytest.mark.parametrize("data, where", [
        (b"nat : type.\n\xef\xbb\xbfz : nat.\n", "2:1"),
        (b"nat : \xef\xbb\xbftype.\n", "1:7"),
        (b"\xef\xbb\xbf\xef\xbb\xbfnat : type.\n", "1:1"),
    ], ids=["line-start", "mid-line", "second-leading"])
    def test_byte_order_mark_elsewhere_is_a_lexing_error(self, tmp_path, data,
                                                         where, capsys):
        src = tmp_path / "bom.lfr"
        src.write_bytes(data)
        assert main(["check", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"{src}:{where}: error: unexpected character '\\ufeff'\n")

    @pytest.mark.parametrize("depth", ["-5", "-1", "two"])
    def test_bad_oracle_depth_is_a_usage_error(self, depth, capsys):
        # A negative depth would audit with a search that finds nothing.
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--oracle-depth", depth, str(golden_path("nat"))])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument --oracle-depth: expected a non-negative integer, "
                f"got {depth!r}") in err

    def test_zero_oracle_depth_is_accepted(self, capsys):
        assert main(["check", "--quiet", "--oracle-depth", "0",
                     str(golden_path("nat"))]) == 0

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


    @pytest.mark.parametrize("path", ["/", ""], ids=["root", "empty"])
    def test_input_with_no_file_name_is_a_read_error(self, path, capsys):
        # No output name can be derived from it; it names a directory, so
        # it fails as check fails to read it.
        assert main(["translate", path]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot read {path}: {os.strerror(errno.EISDIR)}\n")

    @pytest.mark.parametrize("dest, reason", [
        ("missing/x.lfi", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, dest,
                                                reason):
        src = self._src(tmp_path)
        out = tmp_path / dest
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "translate", str(src), "-o",
             str(out)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write {out}: {reason}\n"
        assert proc.stdout == ""

    def test_unwritable_sidecar_is_a_usage_error(self, tmp_path, capsys):
        # The output is written, and its sidecar's path is a directory.
        src = self._src(tmp_path)
        (tmp_path / "even-odd.lfi.prov").mkdir()
        assert main(["translate", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / 'even-odd.lfi.prov'}: "
            f"Is a directory\n")

    @pytest.mark.parametrize("src_name, out", [
        ("nat.lfi", None),
        ("nat.lfr", "nat.lfr"),
        ("nat.lfi.prov", "nat.lfi"),
    ], ids=["default-output", "output", "sidecar"])
    def test_output_naming_the_input_is_a_usage_error(self, tmp_path,
                                                      src_name, out, capsys):
        # The translation would overwrite the signature it came from.
        src = tmp_path / src_name
        src.write_text(golden_path("nat").read_text())
        args = ["translate", str(src)]
        if out is not None:
            args += ["-o", str(tmp_path / out)]
        named = src.with_suffix(".lfi") if out is None else src
        assert main(args) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {named}: it is the input file\n")
        assert list(tmp_path.iterdir()) == [src]
        assert src.read_text() == golden_path("nat").read_text()

    def test_output_naming_the_input_through_a_link(self, tmp_path, capsys):
        src = tmp_path / "nat.lfr"
        src.write_text(golden_path("nat").read_text())
        link = tmp_path / "link.lfi"
        link.symlink_to(src)
        assert main(["translate", str(src), "-o", str(link)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {link}: it is the input file\n")
        assert src.read_text() == golden_path("nat").read_text()


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

    @pytest.mark.parametrize("name, flags", [
        pytest.param(name, flags, id=name + suffix)
        for name in ("coherence", "class-inter", "deep-8", "deep-9")
        for suffix, flags in (("", ("--trace", "--oracle-depth", "3")),
                              ("-trace", ("--trace",)),
                              ("-audit", ("--oracle-depth", "3")))])
    def test_check_trace_and_audit_match_pin(self, name, flags, tmp_path,
                                             monkeypatch, capsys):
        # The shared synthesis of an argument must replay what running it
        # again would show: its rule names and its audited comparisons.
        # A .trace pin holds the accepted run's stdout, an .err pin the
        # rejected run's stderr.  With one flag, the other's line is gone.
        trace = GOLDEN_DIR / f"{name}.trace"
        pinned = trace if trace.exists() else trace.with_suffix(".err")
        text = _after_leading_comment(pinned.read_bytes()).decode()
        for flag, line in (("--trace", "rule trace ("),
                           ("--oracle-depth", "oracle audit: ")):
            if flag not in flags:
                text = "".join(kept for kept in text.splitlines(True)
                               if not kept.startswith(line))
        want = (0, text, "") if pinned == trace else (1, "", text)
        if name.startswith("deep-"):
            (tmp_path / f"{name}.lfr").write_text(deep_text(int(name[5:])))
            monkeypatch.chdir(tmp_path)
        else:
            monkeypatch.chdir(GOLDEN_DIR)
        rc = main(["check", *flags, f"{name}.lfr"])
        out, err = capsys.readouterr()
        assert (rc, re.sub(r"(?m)^(ok: .*) in \d+\.\d+s$", r"\1", out),
                err) == want

    def test_coercion_formations_are_audited(self, tmp_path, capsys):
        # The formations a coercion's steps convert between are derived at
        # the switch: their comparisons are audited, their rules not traced.
        path = tmp_path / "formation.lfr"
        path.write_text(LATER_EDGE_TEXTS["formation"])
        assert main(["check", "--trace", "--oracle-depth", "3",
                     str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "oracle audit: 6 atomic comparisons, 0 disagreements" in lines
        assert lines[-1].startswith("rule trace (18 steps): ")


def _bench_workloads():
    """bench/workloads.py of this checkout, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # for its dataclass
    spec.loader.exec_module(module)
    return module


def _workload_text(name: str) -> str:
    """The text of an input of the benchmark's workloads at seed 1."""
    workloads = _bench_workloads()
    inputs = (i for w in workloads.WORKLOADS
              for i in workloads.make_workload(w, 1, GOLDEN_DIR))
    return next(i.text for i in inputs if i.name == name)


class TestPinnedDigests:
    """lfr translate writes the .lfi and .prov files it wrote when the
    translator and verify derived every formation again, pinned by
    sha256: the benchmark's inputs at seed 1 and two generated ones."""

    PINNED = {
        "wide": (
            "b326a2ac3591737cd1963364b4ee9d9008d32199c2a1015e2f06f9883ee7dc91",
            "8f7f0a2dc07a162f671119024611b26a4eac489da1aeb733fa2c42306f322c0b"),
        "deep-12": (
            "8e4825868dd4a8875260e533874b10594c4e2b4a48aacedb6adeab313dd1bee0",
            "d51008b694c57e986055b01670af6c8f6b9d0949161654e1eb5522df7b11abeb"),
        "binders": (
            "cf3494bbe15e7aeb1331b99c09c09a1ad50e7f8a1e78f9d6232dcb453d02eaf4",
            "6cd5d1c855b3f4d61aa6cf089ea447e41a21cc099327bddd51166fdc2b49180b"),
        "binders_text(16)": (
            "2178bb16d139a5087642685e61de6cda571069442fc1fe0937d75d348644f949",
            "ba253b1013e822843461ea7d05c07a93e2b7ed3ca97cf5e16dbe15e55454ee4e"),
        "deep_text(8)": (
            "67ee367f779c680e5b705683c195d56149c92cac929960b7e3a8bca3685c6964",
            "928a94e06cd1623df486a556026fe8f409350a61e2989d34c874970a44762bc1"),
    }
    TEXTS = {"binders_text(16)": lambda: binders_text(16),
             "deep_text(8)": lambda: deep_text(8)}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_translate_writes_pinned_digests(self, name, tmp_path):
        text = self.TEXTS.get(name, lambda: _workload_text(name))()
        src, dest = tmp_path / "in.lfr", tmp_path / "out.lfi"
        src.write_text(text)
        assert main(["translate", "--quiet", str(src), "-o", str(dest)]) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (dest, tmp_path / "out.lfi.prov"))
        assert digests == self.PINNED[name]

    def test_rejected_depth_writes_nothing(self, tmp_path, capsys):
        # deep_text(9) is rejected at its last line, before translation.
        src = tmp_path / "in.lfr"
        src.write_text(deep_text(9))
        assert main(["translate", "--quiet", str(src)]) == 1
        assert capsys.readouterr().err.startswith(f"{src}:13:1: error: ")
        assert list(tmp_path.iterdir()) == [src]


class TestVerify:
    @pytest.mark.parametrize("name", GOOD)
    def test_goldens_verify(self, name, capsys):
        assert main(["verify", str(golden_path(name))]) == 0
        assert "verified:" in capsys.readouterr().out

    def test_rejected_signature_fails_before_translation(self, capsys):
        assert main(["verify", str(golden_path("bad-odd"))]) == 1

    def test_proof_failure_is_located(self, monkeypatch, capsys):
        # z^ at the predicate of top: the emitted signature still checks,
        # and the re-check of z's proof fails at z's refinement.
        import lfr.cli as cli
        import lfr.translate

        def tampered(sig):
            result = lfr.translate.trans_sig(sig)
            return node_replace(result, lfi_sig=type(result.lfi_sig)(
                [LfiDecl(d.name, ITUnitT(), d.span) if d.name == "z^" else d
                 for d in result.lfi_sig]))

        monkeypatch.setattr(cli, "trans_sig", tampered)
        path = golden_path("even-odd")
        line = next(i for i, text in enumerate(
            path.read_text().splitlines(), 1) if text.startswith("z ::"))
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"{path}:{line}:1: error: translated proof for z failed "
            f"re-checking: ")

    @pytest.mark.parametrize("name", sorted(LATER_EDGE_TEXTS))
    @pytest.mark.parametrize("command", ["check", "translate", "verify"])
    def test_edge_declared_later_is_not_used(self, command, name, tmp_path):
        path = tmp_path / f"{name}.lfr"
        path.write_text(LATER_EDGE_TEXTS[name])
        assert main([command, "--quiet", str(path)]) == 0

    def test_signature_failure_is_located(self, monkeypatch, capsys):
        # z^ at the predicate of top: the emitted signature fails at
        # dbl/z^, whose formation proof uses z^ at even.
        import lfr.cli as cli
        import lfr.translate

        def tampered(sig):
            result = lfr.translate.trans_sig(sig)
            return node_replace(result, lfi_sig=type(result.lfi_sig)(
                [LfiDecl(d.name, ITUnitT(), d.span) if d.name == "z^" else d
                 for d in result.lfi_sig]))

        monkeypatch.setattr(cli, "trans_sig", tampered)
        path = golden_path("double")
        line = path.read_text().splitlines().index("dbl/z :: double* z z.") + 1
        assert main(["verify", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"{path}:{line}:1: error: translated signature failed re-checking "
            f"at dbl/z^: ")

    def test_exhausted_budget_exits_three(self, monkeypatch, capsys):
        monkeypatch.setenv("LFR_FUEL", "2")
        assert main(["verify", str(golden_path("double"))]) == 3
        assert "search budget exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "translate", "verify"])
    @pytest.mark.parametrize("text, fuel, line_col, where", [
        # With no fuel the first walk, in the LF checker, runs out, at the
        # first declaration that substitutes.
        ((GOLDEN_DIR / "cbv.lfr").read_text(), "0", "24:1", "arg"),
        # Here the first walk to run out is the sort checker's, setting
        # c's second domain sort (its domtype step) to z in k's
        # refinement (see FUEL_TEXT).  That stops the run; it does not
        # reject c's one function component and leave c z ([y] z)
        # without a sort.
        (FUEL_TEXT, "3", "9:22", "domtype/arg"),
    ], ids=["lf", "sort"])
    def test_exhausted_budget_is_not_a_rejection(self, command, text, fuel,
                                                 line_col, where,
                                                 monkeypatch, tmp_path,
                                                 capsys):
        src = tmp_path / "input.lfr"
        src.write_text(text)
        monkeypatch.setenv("LFR_FUEL", fuel)
        assert main([command, str(src)]) == 3
        assert capsys.readouterr() == (
            "", f"{src}:{line_col}: error: search budget exhausted: metric "
                f"exhausted at {where}\n")
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("command", ["check", "translate", "verify"])
    def test_non_integer_budget_is_a_usage_error(self, command, monkeypatch,
                                                 tmp_path, capsys):
        # One line and no traceback, before any stage runs: translate
        # writes nothing next to its input.
        src = tmp_path / "double.lfr"
        src.write_text(golden_path("double").read_text())
        monkeypatch.setenv("LFR_FUEL", "abc")
        assert main([command, str(src)]) == 2
        assert capsys.readouterr() == (
            "", "error: LFR_FUEL must be an integer, got 'abc'\n")
        assert list(tmp_path.iterdir()) == [src]


# The usage text, help and argument errors of every form of call, taken
# from `python -m lfr.cli` with COLUMNS=80 on Python 3.11, before a call of
# one command built that command's parser alone.  Each case runs in a
# directory holding F, a rejected signature (bad-odd.lfr), and G, an
# accepted one (nat.lfr), so that no output shows a time.
USAGE_CASES = json.loads((GOLDEN_DIR / "cli-usage.json").read_text())


def _run_in(tmp_path, monkeypatch, capsys, argv) -> tuple:
    """(exit status, stdout, stderr) of main(argv), in a directory holding
    F and G, at COLUMNS=80."""
    shutil.copy(golden_path("bad-odd"), tmp_path / "F")
    shutil.copy(golden_path("nat"), tmp_path / "G")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LFR_FUEL", raising=False)
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return (code, *capsys.readouterr())


def _usage_id(case) -> str:
    return " ".join(case["argv"]) or "(none)"


def _count_parsers(monkeypatch) -> list[int]:
    """A one-item list that counts the ArgumentParsers built from now."""
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestUsage:
    # argparse's wording and layout change between Python versions.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the pin was taken on Python 3.11")
    @pytest.mark.parametrize("case", USAGE_CASES, ids=_usage_id)
    def test_matches_pin(self, case, tmp_path, monkeypatch, capsys):
        assert _run_in(tmp_path, monkeypatch, capsys, case["argv"]) == (
            case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("case", USAGE_CASES, ids=_usage_id)
    def test_full_parser_agrees(self, case, tmp_path, monkeypatch, capsys):
        # On any Python: a call that the parser of every command parses
        # gives the same output.
        fast = _run_in(tmp_path, monkeypatch, capsys, case["argv"])
        monkeypatch.setattr(cli, "_parse_args",
                            lambda argv: cli._build_parser().parse_args(argv))
        assert _run_in(tmp_path, monkeypatch, capsys, case["argv"]) == fast

    @pytest.mark.parametrize("argv", [
        ["check", "--quiet", "G"], ["translate", "--quiet", "G"],
        ["verify", "--quiet", "G"]], ids=["check", "translate", "verify"])
    def test_a_command_builds_one_parser(self, argv, tmp_path, monkeypatch,
                                         capsys):
        built = _count_parsers(monkeypatch)
        assert _run_in(tmp_path, monkeypatch, capsys, argv) == (0, "", "")
        assert built == [1]

    def test_a_usage_error_builds_every_parser(self, tmp_path, monkeypatch,
                                               capsys):
        # The command's own parser, then the full parser: the top level
        # and, for each command, its arguments and its subparser.
        built = _count_parsers(monkeypatch)
        assert _run_in(tmp_path, monkeypatch, capsys,
                       ["check", "G", "--bogus"])[0] == 2
        assert built == [8]

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import lfr.cli\n"
             "print(len(built))\n"],
            capture_output=True, text=True, env=checkout_env())
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def _close_stdout() -> None:
    """Close descriptor 1 in a child before it runs the command."""
    os.close(1)


class TestStandardOutput:
    """A failed write to standard output: one line and exit 2, like an
    output path translate cannot write, with no traceback and no report
    at interpreter exit."""

    @staticmethod
    def _run(argv, stdout, tmp_path,
             closed: bool = False) -> subprocess.CompletedProcess:
        src = tmp_path / "cbv.lfr"
        src.write_text(golden_path("cbv").read_text())
        return subprocess.run(
            [sys.executable, "-m", "lfr.cli", *argv, str(src)],
            stdout=stdout, stderr=subprocess.PIPE, text=True,
            env=checkout_env(), preexec_fn=_close_stdout if closed else None)

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [["check"], ["check", "--trace"],
                                      ["translate"], ["verify"]],
                             ids=" ".join)
    def test_full_device(self, argv, tmp_path):
        with open("/dev/full", "w") as full:
            proc = self._run(argv, full, tmp_path)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [["check"], ["check", "--trace"],
                                      ["translate"], ["verify"]],
                             ids=" ".join)
    def test_closed_pipe(self, argv, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._run(argv, write, tmp_path)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.EPIPE)}\n")

    @staticmethod
    def _help(argv, stdout,
              closed: bool = False) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "lfr.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True,
            env=checkout_env(), preexec_fn=_close_stdout if closed else None)

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"],
                                      ["translate", "--help"]], ids=" ".join)
    def test_help_to_full_device(self, argv):
        with open("/dev/full", "w") as full:
            proc = self._help(argv, full)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"]], ids=" ".join)
    def test_help_to_closed_pipe(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._help(argv, write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.EPIPE)}\n")

    @pytest.mark.parametrize("argv", [["check"], ["check", "--trace"],
                                      ["translate"], ["verify"]],
                             ids=" ".join)
    def test_closed_descriptor(self, argv, tmp_path):
        # With descriptor 1 closed, Python starts with sys.stdout None, and
        # print to None writes nothing without an error.
        proc = self._run(argv, None, tmp_path, closed=True)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.EBADF)}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"],
                                      ["translate", "--help"]], ids=" ".join)
    def test_help_to_closed_descriptor(self, argv):
        proc = self._help(argv, None, closed=True)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write standard output: "
               f"{os.strerror(errno.EBADF)}\n")

    def test_nothing_to_write_to_closed_descriptor(self, tmp_path):
        proc = self._run(["check", "--quiet"], None, tmp_path, closed=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="no /dev/full on this system")
    def test_nothing_to_write(self, tmp_path):
        # --quiet writes nothing, so nothing fails.
        with open("/dev/full", "w") as full:
            proc = self._run(["check", "--quiet"], full, tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")


def _token_lines(text: str) -> list[list[str]]:
    """The tokens of a source signature, line by line."""
    lines: dict[int, list[str]] = {}
    where = SourceLines(text, "<golden>")
    texts, offsets = tokenize(text, "<golden>", False)
    for tok, offset in zip(texts[:-1], offsets):
        lines.setdefault(where.span(offset).line, []).append(tok)
    return list(lines.values())


FUZZ_SOURCES = {p.stem: _token_lines(p.read_text())
                for p in sorted(GOLDEN_DIR.glob("*.lfr"))}
FUZZ_VOCABULARY = sorted({tok for lines in FUZZ_SOURCES.values()
                          for line in lines for tok in line}
                         | {"(", ")", "{", "}", "[", "]", ".", "0", "99",
                            "%infix", "left", "right", "none"})


@st.composite
def mangled_sources(draw):
    """A golden signature with a few tokens deleted, duplicated or swapped,
    or a random stream of tokens from the goldens' vocabulary."""
    if draw(st.booleans()):
        lines = draw(st.lists(st.lists(st.sampled_from(FUZZ_VOCABULARY),
                                       max_size=12), min_size=1, max_size=4))
    else:
        lines = [list(line) for line in
                 FUZZ_SOURCES[draw(st.sampled_from(sorted(FUZZ_SOURCES)))]]
        for _ in range(draw(st.integers(1, 3))):
            places = [(i, j) for i, line in enumerate(lines)
                      for j in range(len(line))]
            if not places:
                break
            i, j = draw(st.sampled_from(places))
            edit = draw(st.sampled_from(("delete", "duplicate", "swap")))
            if edit == "delete":
                del lines[i][j]
            elif edit == "duplicate":
                lines[i].insert(j, lines[i][j])
            else:
                k, m = draw(st.sampled_from(places))
                lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestFuzz:
    """Mangled signatures end in a documented exit code, never in an
    exception that escapes the command."""

    @settings(max_examples=200)
    @given(mangled_sources(), st.sampled_from(("check", "translate",
                                               "verify")))
    def test_every_input_gets_an_exit_code(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "fuzz.lfr"
            src.write_text(text, encoding="utf-8")
            args = [command, str(src)]
            if command == "translate":
                args += ["-o", str(Path(tmp) / "fuzz.lfi")]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(args)
        assert code in range(5), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()


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

    @pytest.mark.parametrize("command", ["check", "translate", "verify"])
    def test_deep_input_under_the_limit_exits_zero(self, command, tmp_path):
        # Deep at d=300 fits under the default recursion limit in every
        # stage (d=326 does not): the parser takes two frames per
        # parenthesis, and the sort checker and the target checker three
        # per level of nesting.
        src = tmp_path / "deep-300.lfr"
        src.write_text(deep_text(300))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", command, "--quiet", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["check", "translate", "verify"])
    def test_deep_input_under_the_limit_gets_its_diagnostic(self, command,
                                                            tmp_path):
        # Deep at an odd depth is rejected at its last line, a verdict on
        # the input rather than an internal error.
        src = tmp_path / "deep-301.lfr"
        src.write_text(deep_text(301))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", command, "--quiet", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"{src}:13:1: error: ")
        assert proc.stderr.count("\n") == 1

    def test_too_deep_input_exits_four(self, tmp_path):
        # Checking 400 nested parentheses exceeds the default recursion
        # limit; that is an internal error, not a verdict on the input.
        src = tmp_path / "deep-400.lfr"
        src.write_text(deep_text(400))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", "check", str(src)],
            capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: internal error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
