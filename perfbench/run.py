#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lubm_read --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is built from this checkout's
sources with the repository's own CMakeLists.txt, in $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the result
JSON; the exit status is non-zero when the build fails or any answer was
wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("lubm_read", "lubm_sharded", "sensor_rw")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_revision(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      binary_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(binary_dir, "perfbench")


def check_metrics(root, metrics, trace):
    """The result must hold exactly the manifest's metrics for this mode
    (end_to_end untraced, per_layer traced), each in its unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    wrong_unit = sorted(n for n in set(wanted) & set(metrics)
                        if metrics[n].get("unit") != wanted[n])
    for what, names in (("missing", missing), ("not in the manifest", extra),
                        ("in the wrong unit", wrong_unit)):
        if names:
            fail(f"metrics {what}: " + ", ".join(names))
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("BENCHMARK.json", "CMakeLists.txt",
                   os.path.join("src", "core", "database.h")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from a full checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)

    env = dict(os.environ, PERFBENCH_SOURCE_REVISION=source_revision(root))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "results")]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output (exit status {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last line is not JSON: " + lines[-1][:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: " + ", ".join(sorted(result)))
    if proc.returncode == 0:
        check_metrics(root, result["metrics"], args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or result["correct"] is not True:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
