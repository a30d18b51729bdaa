"""Runs the benchmark's CLI subprocesses, one at a time; run.py starts it.

    python3 -S bench/spawner.py

Linux carries the high-water RSS of the process that spawns a child into
the child's ru_maxrss.  Spawned by the benchmark process, whose heap holds
the workload and every sample, each child would report that heap as its
own peak memory.  This process stays smaller than any `python -m ordext`
run (no site module, standard modules only), so the RSS it reads is the
child's.

Protocol, one operation at a time: a JSON line `[argv, cwd, env]` on
stdin; on stdout a JSON line `[seconds, exit code, stdout length, stderr
length, max RSS KiB]`, then the child's raw stdout and stderr bytes.
"""

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter

OP_TIMEOUT_S = 60


def spawn(argv: list[str], cwd: str, env: dict[str, str]):
    """Run `argv`: (seconds, exit code, stdout, stderr, max RSS KiB).

    Timed from spawn to reaping; the child is reaped with os.wait4 so
    its own ru_maxrss is read.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + OP_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - perf_counter()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = (b"".join(chunks[pipe]) for pipe in (proc.stdout, proc.stderr))
    return elapsed, proc.returncode, out, err, usage.ru_maxrss


def main() -> None:
    replies = sys.stdout.buffer
    for line in sys.stdin.buffer:
        elapsed, code, out, err, rss = spawn(*json.loads(line))
        replies.write(json.dumps([elapsed, code, len(out), len(err), rss]).encode() + b"\n" + out + err)
        replies.flush()


if __name__ == "__main__":
    main()
