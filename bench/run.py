"""The lfr benchmark: time to a verdict and to a certified `.lfi`.

Run from the root of a checkout:

    python3 bench/run.py --workload wide --seed 1 --seconds 35 --trace 0

It drives `lfr.cli.main` in this process, from one thread, as a closed
loop with one client: each CLI call starts after the previous one ends.
A correctness gate runs first (see `gate`).  Then, for `--seconds`:

- `--trace 0` repeats a pass of `lfr translate --quiet -o OUT` followed
  by passes of `lfr check --quiet` over the workload's inputs and prints
  the end-to-end metrics;
- `--trace 1` alternates an untraced and a traced translate pass and
  prints the per-layer metrics of the traced passes (see tracer.py).

Times are scaled to a reference host by calibrate.py.

A report of every metric goes to standard output; its last line is one
JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 when every check passed, 1 when one failed, 2 on bad usage
or when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Speedometer  # noqa: E402
from workloads import WORKLOADS, Input, make_workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
GOLDENS = ("nat", "even-odd", "double", "coerce", "cbv", "coherence",
           "bad-odd")
PINNED = ("coerce", "double", "even-odd")
SETUP_SAMPLES = 7
CHECK_SHARE = 0.1
TAIL_BEYOND = 10
MAX_SECONDS = 120.0

END_TO_END_UNITS = {
    "check_s": "s",
    "certify_s": "s",
    "certify_tail_s": "s",
    "lfi_bytes": "bytes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Client:
    """Calls the CLI and checks each answer against the known one."""

    def __init__(self, work: Path) -> None:
        from lfr.cli import main
        self.main = main
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.emitted: dict[str, bytes] = {}   # first .lfi of each input

    def call(self, argv: list[str]) -> tuple[int | None, str]:
        """Exit code (None if the CLI raised) and what it wrote to stderr."""
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                return self.main(argv), err.getvalue()
        except (Exception, SystemExit) as e:  # a crash the CLI would show
            return None, f"{type(e).__name__}: {e}"

    def run(self, inp: Input, path: Path, command: str,
            pinned: bytes | None = None, root=None) -> float:
        """One input through a CLI command, then its checks.

        Returns the wall time of the call.  A translation must equal
        `pinned` when given, and otherwise the input's first translation.
        `root` is a context the call runs in (a trace span).
        """
        out = self.work / f"{inp.name}.lfi"
        argv = (["translate", "--quiet", "-o", str(out), str(path)]
                if command == "translate" else [command, "--quiet", str(path)])
        self.attempted += 1
        with root or contextlib.nullcontext():
            t0 = time.perf_counter()
            code, err = self.call(argv)
            elapsed = time.perf_counter() - t0
        if code != inp.exit_code:
            self._fail(command, inp, f"exit {code}, expected {inp.exit_code}"
                       f" {err.strip()[:300]}")
        elif inp.error_line is not None and \
                not re.search(rf":{inp.error_line}:\d+: error", err):
            self._fail(command, inp, f"no diagnostic at line "
                       f"{inp.error_line}: {err.strip()[:300]}")
        elif command == "translate" and code == 0:
            got = out.read_bytes()
            want = self.emitted.setdefault(inp.name, got) \
                if pinned is None else pinned
            if got != want:
                self._fail(command, inp, "emitted .lfi differs from the "
                           + ("first pass's" if pinned is None else "pinned"))
            if inp.lfi_decls is not None:
                n = len(Path(f"{out}.prov").read_text().splitlines())
                if n != inp.lfi_decls:
                    self._fail(command, inp, f"{n} target declarations, "
                               f"expected {inp.lfi_decls}")
        return elapsed

    def _fail(self, command: str, inp: Input, detail: str) -> None:
        self.failures.append(f"{command} {inp.name}: {detail}")


def gate(client: Client, jobs) -> None:
    """Checks made before timing.

    Every golden goes through `translate`: bad-odd exits 1, the rest 0,
    and the pinned goldens' `.lfi` equal tests/golden's byte for byte
    (after the pinned file's leading comment).  Every generated input
    goes through `verify` and gets its known verdict; a rejection must
    name the expected line.  The timed passes repeat these checks on
    every call and also check each translation's size and bytes.
    """
    for name in GOLDENS:
        inp = Input(f"golden-{name}", "", 1 if name == "bad-odd" else 0)
        pinned = _pinned(GOLDEN / f"{name}.lfi") if name in PINNED else None
        client.run(inp, GOLDEN / f"{name}.lfr", "translate", pinned)
    for inp, path in jobs:
        client.run(inp, path, "verify")


def _pinned(path: Path) -> bytes:
    """A pinned translation without its leading comment and blank lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    while lines and (lines[0].startswith(b"%") or not lines[0].strip()):
        lines.pop(0)
    return b"".join(lines)


def timed_pass(client: Client, jobs, command: str, tracer=None) -> float:
    """Wall time of one pass: every input once, each after the last."""
    gc.collect()
    return sum(client.run(inp, path, command,
                          root=tracer.root() if tracer is not None else None)
               for inp, path in jobs)


def setup_times(samples: int) -> list[float]:
    """Seconds a fresh interpreter takes to `import lfr`, several times.

    Each child times its own import, then scales it by the calibration
    loop run twice in the same child.  The loop runs after the import so
    that the modules it needs do not make the import look cheaper.
    """
    probe = ("import time; t = time.perf_counter(); import lfr; "
             "t = time.perf_counter() - t; import calibrate; "
             "s = calibrate.Speedometer(); print(repr(t * s.factor()))")
    env = {k: v for k, v in os.environ.items() if k != "LFR_FUEL"}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count).  With no more than
    TAIL_BEYOND samples there is no such percentile; the maximum stands in.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    k = n - TAIL_BEYOND           # 1-based rank with TAIL_BEYOND above it
    return s[k - 1], 100.0 * k / n, n


def measure_end_to_end(client: Client, jobs, seconds: float, report):
    """Rounds of one translate pass and check passes for `seconds`.

    A round runs check passes until they took CHECK_SHARE of the
    translate pass's time, at least one, so a cheap check is sampled
    often.  At least TAIL_BEYOND + 1 translate passes are made, unless
    that takes MAX_SECONDS.
    """
    speed = Speedometer()
    check, certify, wall = [], [], []
    start = time.perf_counter()
    while True:
        wall.append(timed_pass(client, jobs, "translate"))
        certify.append(wall[-1] * speed.factor())
        group = [timed_pass(client, jobs, "check")]
        while sum(group) < CHECK_SHARE * wall[-1]:
            group.append(timed_pass(client, jobs, "check"))
        f = speed.factor()
        check += [t * f for t in group]
        used = time.perf_counter() - start
        if used + used / len(certify) > seconds and (
                len(certify) > TAIL_BEYOND or used > MAX_SECONDS):
            break
    value, pct, n = tail(certify)
    report.append(f"passes: {len(check)} check, {len(certify)} translate "
                  f"in {time.perf_counter() - start:.1f} s")
    report.append(f"certify_tail_s is p{pct:.1f} of {n} translate passes")
    report.append(f"unscaled median translate pass "
                  f"{statistics.median(wall)!r} s")
    return {
        "check_s": statistics.median(check),
        "certify_s": statistics.median(certify),
        "certify_tail_s": value,
        "lfi_bytes": float(sum(len(client.emitted.get(inp.name, b""))
                               for inp, _ in jobs)),
    }


def measure_layers(client: Client, jobs, seconds: float, report,
                   spans_out: Path):
    """Alternate untraced and traced translate passes for `seconds`."""
    from tracer import METRICS, Tracer
    tracer = Tracer()
    speed = Speedometer()
    plain, traced, factors = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(timed_pass(client, jobs, "translate") * speed.factor())
        tracer.begin_pass()
        with tracer:
            wall = timed_pass(client, jobs, "translate", tracer)
        tracer.end_pass()
        factors.append(speed.factor())
        traced.append(wall * factors[-1])
        used = time.perf_counter() - start
        if used + used / len(plain) > seconds:
            break
    per_pass = [_scaled(tracer.pass_metrics(k), factors[k], METRICS)
                for k in range(len(tracer.passes))]
    m = {name: statistics.median(p[name] for p in per_pass)
         for name in METRICS}
    m["trace.overhead_ratio"] = (statistics.median(traced)
                                 / statistics.median(plain))
    written = tracer.write(spans_out)
    report.append(f"passes: {len(plain)} untraced, {len(traced)} traced "
                  f"translate in {time.perf_counter() - start:.1f} s")
    report.append(f"trace.overhead_ratio base: untraced certify_s "
                  f"{statistics.median(plain):.4f} s")
    report.append(f"spans: {written} written to {spans_out}")
    shares = {
        "(lfr_check.build_closure_s + syntax.erase_sig_s) / stage.check_s":
            (m["lfr_check.build_closure_s"] + m["syntax.erase_sig_s"])
            / m["stage.check_s"],
        "translate.acheck_s / (stage.translate_s + stage.verify_proofs_s)":
            m["translate.acheck_s"]
            / (m["stage.translate_s"] + m["stage.verify_proofs_s"]),
        "lfi.check_s / traced certify_s":
            m["lfi.check_s"] / statistics.median(traced),
    }
    for what, share in shares.items():
        report.append(f"share {what} = {share:.3f}")
    return m, {**METRICS, "trace.overhead_ratio": "ratio"}


def _scaled(metrics: dict, factor: float, units: dict) -> dict:
    """Per-layer metrics with times and rates scaled to the reference host."""
    power = {"s": 1, "B/s": -1}
    return {name: value * factor ** power[units[name]]
            if units[name] in power else value
            for name, value in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lfr" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: run from the root of an lfr checkout "
              f"({SRC / 'lfr'} or {GOLDEN} is missing)", file=sys.stderr)
        return 2
    # The settings the `lfr` command runs under: default budget and
    # recursion limit, one thread.
    os.environ.pop("LFR_FUEL", None)
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    metrics, units = {}, {}
    try:
        jobs = []
        for inp in make_workload(args.workload, args.seed, GOLDEN):
            jobs.append((inp, work / f"{inp.name}.lfr"))
            jobs[-1][1].write_text(inp.text)
        client = Client(work)
        gate(client, jobs)
        # Before the calibration loop's own allocations can count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if client.failures:
            report.append("correctness gate failed; nothing timed")
        elif args.trace:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            metrics, units = measure_layers(
                client, jobs, args.seconds, report,
                out / f"spans-{args.workload}.tsv.gz")
        else:
            metrics = measure_end_to_end(client, jobs, args.seconds, report)
            metrics["peak_rss_mb"] = peak_rss_mb
            metrics["setup_s"] = statistics.median(setup_times(SETUP_SAMPLES))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(client.failures)
    attempted = client.attempted
    report.append(f"fail_rate = {failed / attempted!r} ratio "
                  f"({failed} of {attempted} inputs)")
    for f in client.failures[:20]:
        report.append(f"FAIL {f}")
    for name, value in metrics.items():
        report.append(f"{name} = {value!r} {units[name]}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
