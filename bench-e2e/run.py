#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 bench-e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `dn-serve` and the
benchmark binary from source into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. Every file a run writes stays
under `.bench_out/`. The last line of stdout is the run's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

# The contract allows a run 180 s; stop short of it.
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(args):
    # Cargo reports on stderr; keep stdout for the benchmark's result.
    done = subprocess.run(["cargo"] + args, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"bench-e2e: cargo {' '.join(args)} failed")


def git_revision():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "server")
    ):
        sys.exit("bench-e2e: the repository's sources are not next to the benchmark")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    cargo(["build", "--release", "--offline", "--bin", "dn-serve"])
    cargo(["build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")])

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target, "release", "dn-serve"),
        "--out-dir", out_dir,
        "--git-rev", git_revision(),
    ]
    # The benchmark binary and its dn-serve children share a fresh process
    # group, so whatever ends this script ends all of them.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        # A killed benchmark binary leaves its scratch tree behind.
        shutil.rmtree(os.path.join(out_dir, f"run-{proc.pid}"), ignore_errors=True)

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(143)))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        sys.exit(f"bench-e2e: the run took longer than {RUN_TIMEOUT_S} s")
    except KeyboardInterrupt:
        stop()
        raise
    stop()
    sys.exit(code)


if __name__ == "__main__":
    main()
