"""ordext benchmark: CLI and library latency on two workloads.

    python3 bench/run.py --workload deps --seed 1 --seconds 50 --trace 0

How a run works, its correctness gate and its metrics: bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import gen

# ops and spans import ordext, so they are imported only after
# load_program() has put this checkout's src/ first on sys.path.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

SETUPS = 5
MIN_CLI_SAMPLES = 100
# In-process runs per CLI run of an operation: the library percentiles
# rest on twice as many samples for about a fifth more run time.
LIB_REPEATS = 2
STARTUP_SAMPLES = 15
TRACED_PASSES = 3
REFERENCE_SEED = 0
# End-to-end timings are in units of a fixed calibration loop; see slowness().
CAL_REF_MS = 1.5
SETUP_CALIBRATIONS = 9
# A one-element file: `count` on it is the CLI start-up floor.
STARTUP_FILE = ("probe-one.txt", "solo\n---\n")


class Unavailable(Exception):
    """The program under test or the recorded digests are missing."""


def load_program():
    """Import ordext from this checkout's src/, never from anywhere else."""
    package = SRC / "ordext"
    if not (package / "__init__.py").is_file():
        raise Unavailable(f"no ordext package at {package}")
    sys.path.insert(0, str(SRC))
    import ordext

    if Path(ordext.__file__).resolve().parent != package.resolve():
        raise Unavailable(f"imported ordext from {ordext.__file__}, not {package}")
    return ordext


def slowness() -> float:
    """How slow the machine is right now: a fixed pure-Python loop's time over CAL_REF_MS.

    The loop does not touch ordext.  The shared machine's speed swings by
    up to 1.6x, within milliseconds and for minutes at a time, and every
    timing moves with it; each timed sample is divided by the mean of the
    slowness measured just before and just after it, so the swing cancels.
    CAL_REF_MS is the loop's typical time on the 2-vCPU machine the
    benchmark was tuned on.
    """
    start = perf_counter()
    table = {}
    for i in range(2000):
        table[f"k{i}"] = i * i & 0xFFFF
    bits = 0
    for _, value in sorted(table.items(), key=lambda kv: kv[1]):
        bits |= 1 << (value % 61)
    return (perf_counter() - start) * 1e3 / CAL_REF_MS


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Spawner:
    """The small process that runs every CLI subprocess (bench/spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, args: list[str], cwd: Path, hash_seed: int):
        """One `python -m ordext` run: (seconds, exit code, stdout, stderr, max RSS KiB)."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
        env.pop("ORDEXT_ENUM_LIMIT", None)
        request = [[sys.executable, "-m", "ordext", *args], str(cwd), env]
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        elapsed, code, out_len, err_len, rss = json.loads(self.proc.stdout.readline())
        return elapsed, code, self.proc.stdout.read(out_len), self.proc.stdout.read(err_len), rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Samples:
    """Everything measured for one operation of the list."""

    def __init__(self):
        self.cli_ms: list[float] = []  # wall time
        self.lib_ms: list[float] = []
        self.cli_slowness: list[float] = []  # slowness() around each sample
        self.lib_slowness: list[float] = []
        self.digests: list[str | None] = []  # one per sample, None when it errored
        self.errors: list[str] = []
        self.text: str | None = None  # first in-process stdout

    def failed(self, reference: str | None, wrong: str | None) -> int:
        if wrong:
            return len(self.digests)
        return sum(1 for d in self.digests if d is None or d != reference)


class Run:
    def __init__(self, args, spawner: Spawner):
        self.args = args
        self.spawner = spawner
        self.work = OUT / f"work-{args.workload}"
        self.hash_rng = random.Random(f"hash:{args.seed}")
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.max_rss_kib = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)

    def cli(self, args: list[str]):
        self.attempted += 1
        elapsed, code, out, err, rss = self.spawner.run(args, self.work, self.hash_rng.getrandbits(32))
        ok = code == 0 and b"Traceback" not in err
        return elapsed, ok, out, err, rss

    # -- set-up -----------------------------------------------------------
    def setup(self):
        """One set-up; also its seconds and the machine's slowness() around it."""
        before = [slowness() for _ in range(SETUP_CALIBRATIONS)]
        start = perf_counter()
        w = gen.build(self.args.workload, self.args.seed, self.args.profile)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, text in [*w.files.items(), STARTUP_FILE]:
            (self.work / name).write_text(text, encoding="utf-8")
        expected = check.expect(w)
        _, ok, out, err, _ = self.cli(["count", STARTUP_FILE[0]])
        if not ok or out != b"1\n":
            self.fail(f"warm-up invocation failed: {err.decode(errors='replace')[-300:]}")
        elapsed = perf_counter() - start
        after = [slowness() for _ in range(SETUP_CALIBRATIONS)]
        return w, expected, elapsed, statistics.median(before + after)

    # -- timed loops ------------------------------------------------------
    def lib(self, op, texts, s: Samples, tracer=None, op_id: int = 0) -> float | None:
        """One in-process run of `op`; its seconds, or None when it raised."""
        import ops

        self.attempted += 1
        start = perf_counter()
        try:
            out = ops.run(op, texts) if tracer is None else tracer.run(op_id, ops.run, op, texts)
        except Exception as exc:  # a failed operation is counted, the run goes on
            s.digests.append(None)
            s.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.counts["formats.bytes_out"] += len(out.encode())
        s.digests.append(digest(out.encode()))
        if s.text is None:
            s.text = out
        return elapsed

    def measure(self, w, samples: list[Samples], budget: float) -> None:
        """Whole cycles: each operation as a CLI subprocess, then LIB_REPEATS times in-process.

        Pairing the two keeps both exposed to the same machine state, and
        spreads each operation's samples over the whole run.  No cycle
        starts that would end past the budget, once MIN_CLI_SAMPLES ran.
        """
        least = MIN_CLI_SAMPLES if self.args.profile == "full" else 1
        start, n, cycle = perf_counter(), 0, 0.0
        while n < least or perf_counter() - start + cycle < budget:
            cycle_start = perf_counter()
            before = slowness()
            for op, s in zip(w.ops, samples):
                elapsed, ok, out, err, rss = self.cli(op.argv())
                after = slowness()
                s.cli_ms.append(elapsed * 1e3)
                s.cli_slowness.append((before + after) / 2)
                before = after
                s.digests.append(digest(out) if ok else None)
                if not ok:
                    s.errors.append(err.decode(errors="replace")[-300:])
                self.max_rss_kib = max(self.max_rss_kib, rss)
                for _ in range(LIB_REPEATS):
                    elapsed = self.lib(op, w.files, s)
                    after = slowness()
                    if elapsed is not None:
                        s.lib_ms.append(elapsed * 1e3)
                        s.lib_slowness.append((before + after) / 2)
                    before = after
            n += len(w.ops)
            cycle = perf_counter() - cycle_start

    def lib_pass(self, ops_list, texts, samples: list[Samples], tracer=None) -> float:
        """One in-process pass over `ops_list`; returns its wall time in seconds."""
        start = perf_counter()
        for i, (op, s) in enumerate(zip(ops_list, samples)):
            self.lib(op, texts, s, tracer, i)
        return perf_counter() - start

    # -- correctness gate -------------------------------------------------
    def gate(self, w, expected, samples: list[Samples], recorded: list[str] | None) -> None:
        for i, (op, s) in enumerate(zip(w.ops, samples)):
            label = f"op {i} {' '.join(op.argv())}"
            wrong = "no successful output" if s.text is None else check.check(op, s.text, w, expected[i])
            reference = recorded[i] if recorded else (digest(s.text.encode()) if s.text is not None else None)
            bad = s.failed(reference, wrong)
            if bad:
                why = wrong or (s.errors[0] if s.errors else "stdout digest mismatch")
                self.notes.append(f"{label}: {bad} failed samples: {why}")
            self.failed += bad

    def reference_replay(self, table: dict) -> None:
        """Replay the reference seed in-process against its recorded digests."""
        import ops

        recorded = table.get(str(REFERENCE_SEED))
        if recorded is None:
            raise Unavailable(f"no recorded digests for reference seed {REFERENCE_SEED}")
        w = gen.build(self.args.workload, REFERENCE_SEED, self.args.profile)
        for i, op in enumerate(w.ops):
            self.attempted += 1
            try:
                got = digest(ops.run(op, w.files).encode())
            except Exception as exc:  # counted as a failed operation
                got = f"{type(exc).__name__}: {exc}"
            if i >= len(recorded) or got != recorded[i]:
                self.fail(f"reference seed op {i} {' '.join(op.argv())}: digest {got}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(samples: list[Samples], setup_times: list[float], max_rss_kib: int) -> dict:
    """Every CLI and library sample is divided by the slowness() measured around it."""
    cli = [t / v for s in samples for t, v in zip(s.cli_ms, s.cli_slowness)]
    lib = [t / v for s in samples for t, v in zip(s.lib_ms, s.lib_slowness)]
    return {
        "cli_op_p50_ms": metric(statistics.median(cli), "ms"),
        "cli_op_p90_ms": metric(percentile(cli, 90), "ms"),
        "lib_op_p50_ms": metric(statistics.median(lib), "ms"),
        "lib_op_p90_ms": metric(percentile(lib, 90), "ms"),
        "lib_ops_per_s": metric(len(lib) / (sum(lib) / 1e3), "1/s"),
        "peak_rss_mb": metric(max_rss_kib / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


LAYERS = ("formats", "core", "extension", "policy", "constructions")
SPAN_METRICS = (
    "formats.parse", "formats.format",
    "core.validate", "core.poset", "core.closure", "core.incomparable", "core.order",
    "extension.linearize", "extension.szpilrajn", "extension.extend", "extension.enumerate", "extension.count",
    "policy.arrange",
    "constructions.bipartition", "constructions.blocks", "constructions.interleave", "constructions.is_dense",
)
COUNT_METRICS = (
    "formats.bytes_in", "formats.bytes_out", "core.pairs_in", "core.pairs_closed",
    "extension.orders_out", "policy.arrange_calls", "policy.candidates", "policy.draws",
)


def pass_breakdown(tracer, ops_list) -> dict[str, float]:
    """Self time per span name (ms), library time, and layer shares of one traced pass."""
    from spans import ROOT as ROOT_SPAN

    own = {name: 0.0 for name in SPAN_METRICS}
    own[ROOT_SPAN] = 0.0
    lib_s = seeded_s = seeded_policy_s = 0.0
    for (op_id, _, _, name, start, end), self_s in tracer.self_times():
        own[name] += self_s * 1e3
        seeded = ops_list[op_id].seeded
        if name == ROOT_SPAN:
            lib_s += end - start
            seeded_s += (end - start) if seeded else 0.0
        elif name == "policy.arrange" and seeded:
            seeded_policy_s += self_s
    out = {f"{name}_ms": value for name, value in own.items() if name != ROOT_SPAN}
    out["trace.unattributed_ms"] = own[ROOT_SPAN]
    out["trace.library_ms"] = lib_s * 1e3
    for layer in LAYERS:
        layer_ms = sum(v for k, v in own.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = layer_ms / (lib_s * 1e3)
    # Zero on a workload without seeded operations.
    out["policy.seeded_share"] = seeded_policy_s / seeded_s if seeded_s else 0.0
    return out


def print_op_table(tracer, ops_list) -> None:
    """Per operation: library time, unattributed time, and the heaviest spans."""
    from spans import ROOT as ROOT_SPAN

    per_op: dict[int, dict[str, float]] = {}
    for (op_id, _, _, name, _, _), self_s in tracer.self_times():
        row = per_op.setdefault(op_id, {})
        row[name] = row.get(name, 0.0) + self_s * 1e3
    for op_id, row in sorted(per_op.items()):
        total = sum(row.values())
        heavy = sorted(((v, k) for k, v in row.items() if k != ROOT_SPAN), reverse=True)[:3]
        spans = ", ".join(f"{k} {v:.2f}" for v, k in heavy)
        print(f"op {op_id:3d} {total:9.2f} ms  unattributed {row.get(ROOT_SPAN, 0.0):.3f} ms  "
              f"{' '.join(ops_list[op_id].argv())[:60]}  [{spans}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--profile", default="full", choices=tuple(gen.SIZES),
                        help="input sizes; smoke is for the self-test")
    parser.add_argument("--digests", type=Path, default=DIGESTS, help="recorded stdout digests")
    args = parser.parse_args(argv)

    try:
        load_program()
        table = json.loads(args.digests.read_text(encoding="utf-8"))[args.profile][args.workload]
    except (Unavailable, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spawner = Spawner()
    try:
        return execute(args, table, spawner)
    finally:
        spawner.close()


def execute(args, table: dict, spawner: Spawner) -> int:
    """Set up, measure, gate and print the result line; the exit status."""
    from spans import Tracer

    run = Run(args, spawner)
    setup_times = []
    for _ in range(SETUPS):
        w, expected, seconds, slow = run.setup()
        setup_times.append(seconds / slow)
    samples = [Samples() for _ in w.ops]

    startup_ms = []
    if args.trace:
        for _ in range(STARTUP_SAMPLES):
            elapsed, ok, _, _, _ = run.cli(["count", STARTUP_FILE[0]])
            startup_ms.append(elapsed * 1e3)
            if not ok:
                run.fail("start-up probe failed")

    run.measure(w, samples, args.seconds)

    if args.trace:
        # Untraced and traced passes alternate, so the overhead ratio
        # compares passes made in the same machine state.  Each pass starts
        # from a collected heap: the spans kept from earlier passes would
        # otherwise make the next pass pay for their garbage collection.
        untraced, tracers = [], []
        for _ in range(TRACED_PASSES):
            gc.collect()
            untraced.append(run.lib_pass(w.ops, w.files, samples))
            gc.collect()
            tracer = Tracer()
            restore = tracer.install()
            try:
                tracers.append((run.lib_pass(w.ops, w.files, samples, tracer), tracer))
            finally:
                restore()

    recorded = table.get(str(args.seed))
    if recorded is None:
        run.reference_replay(table)
    run.gate(w, expected, samples, recorded)

    if args.trace:
        passes = [pass_breakdown(tracer, w.ops) for _, tracer in tracers]
        middle = sorted(range(len(tracers)), key=lambda k: tracers[k][0])[len(tracers) // 2]
        print_op_table(tracers[middle][1], w.ops)
        tracers[middle][1].write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                                 {i: " ".join(op.argv()) for i, op in enumerate(w.ops)})
        metrics = {name: metric(statistics.median(p[name] for p in passes), "ms")
                   for name in passes[0] if name.endswith("_ms")}
        for name in passes[0]:
            if name.endswith("share"):
                metrics[name] = metric(statistics.median(p[name] for p in passes), "ratio")
        counts = tracers[middle][1].counts
        metrics.update({name: metric(counts[name], "count") for name in COUNT_METRICS})
        per_op_gap = [statistics.median(s.cli_ms) - statistics.median(s.lib_ms) for s in samples if s.cli_ms and s.lib_ms]
        metrics["cli.startup_ms"] = metric(statistics.median(startup_ms), "ms")
        metrics["cli.overhead_ms"] = metric(statistics.median(per_op_gap), "ms")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(t for t, _ in tracers) / statistics.median(untraced), "ratio")
        metrics["error_rate"] = metric(run.failed / run.attempted, "ratio")
    else:
        metrics = end_to_end(samples, setup_times, run.max_rss_kib)

    (OUT / f"samples-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        [{"op": " ".join(op.argv()), "cli_ms": s.cli_ms, "lib_ms": s.lib_ms,
          "cli_slowness": s.cli_slowness, "lib_slowness": s.lib_slowness} for op, s in zip(w.ops, samples)]))
    for note in run.notes:
        print(f"FAIL {note}")
    stdout_sha = hashlib.sha256("".join(s.text or "" for s in samples).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(w.ops)} operations, "
          f"{sum(len(s.cli_ms) for s in samples)} CLI samples, {sum(len(s.lib_ms) for s in samples)} library samples, "
          f"stdout sha256 {stdout_sha}")
    cli = [t for s in samples for t in s.cli_ms]
    lib = [t for s in samples for t in s.lib_ms]
    print(f"uncalibrated wall time: CLI p50 {statistics.median(cli):.2f} ms, p90 {percentile(cli, 90):.2f} ms; "
          f"library p50 {statistics.median(lib):.2f} ms, p90 {percentile(lib, 90):.2f} ms")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
