#!/usr/bin/env python3
"""Entry point of the subvt benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fleet_tt --seed 1 --seconds 20 --trace 0

Builds the harness from source, runs one workload, writes a result file
with the run's provenance under .bench_out/, and prints the result as
the last line of standard output. Exits non-zero, printing no result,
when the sources are missing, the build fails or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("fleet_tt", "shootout_faults", "corpus_resume")
# Every run must end within 180 s; the first one may also build.
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout the whole group
    (the harness and its reference child) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def command_output(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({e})"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(root, detail):
    if os.path.isdir(os.path.join(root, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"], root)
    else:
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"], root),
        "git_commit": commit,
        "workers": detail.get("workers"),
        "dies_per_cell": detail.get("dies_per_cell"),
        "seed": detail.get("seed"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "docs/scenarios"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    code, _ = run_group(build, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail("building the harness failed")

    exe = os.path.join(target, "release", "perfbench-harness")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--root", root]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"the harness exited with {code}")
    result = json.loads(lines[-1])
    detail = result.pop("detail")

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump({"provenance": provenance(root, detail), "result": result,
                   "detail": detail}, f, indent=1)
        f.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
