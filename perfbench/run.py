#!/usr/bin/env python3
"""Build and run the closed-loop SQL benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a cargo package of its own
(perfbench/Cargo.toml) that builds the server crates from source; the build
goes to $CARGO_TARGET_DIR, or .bench_build when that is unset. The last line
of standard output is the benchmark's JSON result. Exits non-zero, without a
result line, when the build or the run fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

# A run must end well inside three minutes; the first build may take longer
# and is not bounded here.
RUN_TIMEOUT_S = 170


def descendants(pid: int) -> list:
    """Every live process below `pid` (the benchmark runs shards as child
    processes of its own)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if parent == pid:
            children.append(int(entry))
    return children + [d for child in children for d in descendants(child)]


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    run = subprocess.Popen([str(binary), *sys.argv[1:]], env=env)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        for pid in descendants(run.pid) + [run.pid]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        run.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
