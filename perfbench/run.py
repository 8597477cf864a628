#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload flow-batch --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It builds perfbench.exe and the
hlpower CLI with dune into .bench_build/ (or $CARGO_TARGET_DIR), then
runs the workload.  The last line of standard output is the result
object; everything the run starts is stopped before this script exits.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["flow-batch", "serve-bind", "session-edit", "head-bind"]
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", ".c", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def stop_group(pgid):
    """SIGTERM, then SIGKILL, whatever is left of the run's process group,
    and wait until it is gone."""
    for sig, grace in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "lib", "bin", "BENCH_pr10.json"]:
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} not found; run from the repository root")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/perfbench.exe", "./bin/hlpower_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cli = os.path.join(build_dir, "default", "bin", "hlpower_cli.exe")
    # One compute domain in the benchmark process; the daemons get their
    # worker counts as flags, and no other HLP_ knob leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HLP_")}
    env["HLP_JOBS"] = "1"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", cli, "--rev", source_rev()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        rc = 1
    except KeyboardInterrupt:
        rc = 1
    finally:
        stop_group(proc.pid)
        proc.wait()
    sys.exit(rc)


if __name__ == "__main__":
    main()
