"""Tests for the benchmark's workload generators and tracer.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (ROOT / "src", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from lfr import CheckError, check_signature, parse_signature, trans_sig  # noqa: E402
from lfr.printer import pp_lfi_decl  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WIDE_N, WORKLOADS, make_workload  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SEEDS = (0, 1, 7, 12345)


def inputs(name: str, seed: int):
    return make_workload(name, seed, GOLDEN)


def lfi_bytes(text: str) -> int:
    result = trans_sig(check_signature(parse_signature(text)))
    return sum(len(pp_lfi_decl(d)) + 1 for d in result.lfi_sig)


@pytest.mark.parametrize("seed", SEEDS)
def test_declaration_counts(seed):
    (wide,) = inputs("wide", seed)
    assert len(parse_signature(wide.text)) == 6 * WIDE_N + 4
    for deep in inputs("deep", seed):
        assert len(parse_signature(deep.text)) == 13
        assert len(deep.text.splitlines()) == 13


@pytest.mark.parametrize("name", WORKLOADS)
def test_expected_verdicts(name):
    for inp in inputs(name, 3):
        sig = parse_signature(inp.text, filename="in.lfr")
        if inp.exit_code == 0:
            check_signature(sig)
            continue
        with pytest.raises(CheckError) as err:
            check_signature(sig)
        assert err.value.span.line == inp.error_line


def test_wide_emits_8n_plus_4_declarations():
    (wide,) = inputs("wide", 5)
    result = trans_sig(check_signature(parse_signature(wide.text)))
    assert len(result.lfi_sig) == wide.lfi_decls == 8 * WIDE_N + 4


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_bytes(name):
    assert inputs(name, 42) == inputs(name, 42)


@pytest.mark.parametrize("name", WORKLOADS)
def test_other_seeds_same_sizes(name):
    base = inputs(name, SEEDS[0])
    for seed in SEEDS[1:]:
        other = inputs(name, seed)
        assert [i.text for i in other] != [i.text for i in base]
        for a, b in zip(base, other):
            assert len(a.text) == len(b.text)
            assert len(parse_signature(a.text)) == len(parse_signature(b.text))
            assert (a.exit_code, a.lfi_decls, a.error_line) == \
                (b.exit_code, b.lfi_decls, b.error_line)


@pytest.mark.parametrize("name", ("deep", "binders"))
def test_other_seeds_same_output_size(name):
    accepted = [[i for i in inputs(name, s) if i.exit_code == 0][0]
                for s in SEEDS[:2]]
    assert lfi_bytes(accepted[0].text) == lfi_bytes(accepted[1].text)


def test_tracer_restores_every_name():
    before = {(o, a): getattr(tracer._resolve(o), a)
              for o, a, _, _ in tracer.WRAPS}
    t = tracer.Tracer()
    with t:
        assert all(getattr(tracer._resolve(o), a) is not fn
                   for (o, a), fn in before.items())
    assert all(getattr(tracer._resolve(o), a) is fn
               for (o, a), fn in before.items())


def test_traced_pass_counts_layers(tmp_path):
    from lfr.cli import main
    t = tracer.Tracer()
    t.begin_pass()
    out = tmp_path / "nat.lfi"
    with t, t.root():
        assert main(["translate", "--quiet", "-o", str(out),
                     str(GOLDEN / "nat.lfr")]) == 0
    t.end_pass()
    m = t.pass_metrics(0)
    assert set(m) == set(tracer.METRICS)
    assert m["translate.lfi_decls"] == len(out.read_text().splitlines())
    assert m["printer.bytes_per_s"] > 0 and m["parser.bytes_per_s"] > 0
    assert m["lfr_check.rule_steps"] > 0 and m["lfi.check_calls"] > 0
    assert m["stage.verify_sig_s"] + m["stage.verify_proofs_s"] > 0
    assert t.name[0] == t.span_names.index(tracer.ROOT)
    assert t.write(tmp_path / "spans.tsv.gz") == len(t.name)


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.tail(values) == (30.0, 75.0, 40)
    assert run.tail(values[:11]) == (1.0, 100 / 11, 11)
