"""Record the stdout digests that the benchmark's correctness gate compares.

    python3 bench/record.py

For every workload, the full profile at RECORDED_SEEDS and the smoke
profile at seed 0: run each operation in-process, require the
independent check in check.py to pass, and store a digest of its stdout
in bench/digests.json.  Re-record only when the generator changes; a
change to ordext that alters a digest is a change in behaviour.
"""

from __future__ import annotations

import json
import sys

import check
import gen
import run

RECORDED_SEEDS = range(32)


def main() -> int:
    run.load_program()
    import ops

    table: dict = {}
    for profile, seeds in (("full", RECORDED_SEEDS), ("smoke", [run.REFERENCE_SEED])):
        for workload in gen.WORKLOADS:
            for seed in seeds:
                w = gen.build(workload, seed, profile)
                digests = []
                for op, expected in zip(w.ops, check.expect(w)):
                    out = ops.run(op, w.files)
                    wrong = check.check(op, out, w, expected)
                    if wrong:
                        print(f"{profile} {workload} seed {seed} {' '.join(op.argv())}: {wrong}", file=sys.stderr)
                        return 1
                    digests.append(run.digest(out.encode()))
                table.setdefault(profile, {}).setdefault(workload, {})[str(seed)] = digests
            print(f"recorded {profile} {workload}", file=sys.stderr)
    lines = ["{"]
    for p, (profile, workloads) in enumerate(table.items()):
        lines.append(f'  "{profile}": {{')
        for q, (workload, seeds) in enumerate(workloads.items()):
            lines.append(f'    "{workload}": {{')
            rows = [f'      "{seed}": {json.dumps(d)}' for seed, d in seeds.items()]
            lines.append(",\n".join(rows))
            lines.append("    }" + ("," if q < len(workloads) - 1 else ""))
        lines.append("  }" + ("," if p < len(table) - 1 else ""))
    lines.append("}")
    run.DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
