"""Self-test of the benchmark at smoke sizes.

    python3 bench/selftest.py

Checks that:
- every workload runs with `--trace 0` and `--trace 1`, passes its
  correctness gate and prints, as its last line, exactly the metrics
  BENCHMARK.json names for that mode, each with its declared unit;
- a corrupted recorded digest makes the run fail;
- a directory holding only BENCHMARK.json and bench/ (no program) makes
  the run exit non-zero without printing a result.
Exit status 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SELFTEST_DIR = run.OUT / "selftest"


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "0", "--trace", str(trace), "--profile", "smoke")
            out = result(proc)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and out is not None and out.get("correct") is True, f"{label}: passes")
            if out is None:
                continue
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            got = {name: m.get("unit") for name, m in out["metrics"].items()}
            expect(got == declared[trace], f"{label}: metric names and units match BENCHMARK.json")

    SELFTEST_DIR.mkdir(parents=True, exist_ok=True)
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    recorded = table["smoke"]["deps"][str(run.REFERENCE_SEED)]
    recorded[0] = "0" * len(recorded[0])
    corrupt = SELFTEST_DIR / "corrupt-digests.json"
    corrupt.write_text(json.dumps(table), encoding="utf-8")
    proc = bench("--workload", "deps", "--seed", str(run.REFERENCE_SEED), "--trace", "0",
                 "--profile", "smoke", "--digests", str(corrupt))
    out = result(proc)
    expect(proc.returncode != 0 and out is not None and out["correct"] is False and out["failed"] > 0,
           "corrupted recorded digest fails the run")

    bare = SELFTEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "deps", "--seed", "0", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and result(proc) is None, "without the program: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
