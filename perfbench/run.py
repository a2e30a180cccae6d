#!/usr/bin/env python3
"""Build and run the atcsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The first call configures and builds the
simulator and the benchmark binaries in Release mode under $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild incrementally.  With --trace 0
the untraced binary times the end-to-end metrics; with --trace 1 the traced
binary alternates untraced and traced repetitions and prints the per-layer
metrics, the tracing overhead between neighbouring repetitions and a check
that all of them simulated the same thing.  The last line of stdout is the
result object.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lu512_atc_s1", "mixed512_atcpm_s4", "lu16k_atc_s8")
# Headroom past --seconds for the last repetition and process teardown.
GRACE_S = 60


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures (once) and builds both binaries; returns their directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    return out


def revision():
    """Git revision of the checkout, or a digest of the benchmarked sources."""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                return rev.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode() + b"\0")
                h.update(f.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_binary(binary, args, seconds):
    """Runs one binary and passes on its detail and result lines."""
    cmd = [str(binary)] + args
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} did not finish within {seconds + GRACE_S:.0f} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{binary.name} exited {done.returncode}")
    print(lines[-2])
    print(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: 7 for lu, 97 for mixed)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    bindir = build()
    cmd = ["--workload", args.workload, "--revision", revision(),
           "--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace == 0:
        run_binary(bindir / "atcbench", cmd, args.seconds)
        return
    seed = "default" if args.seed is None else args.seed
    spans = bindir / "spans" / f"{args.workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    run_binary(bindir / "atcbench_traced", cmd + ["--spans", str(spans)],
               args.seconds)


if __name__ == "__main__":
    main()
