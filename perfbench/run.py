#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload clickbench|tpch|serving \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the engine libraries plus the fusion_perfbench program) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Generated data lives under .bench_data/ and is
deleted when the run ends; traced runs leave their spans in .bench_out/.
A run still going after 30 s + 2.4 x --seconds is killed and run once
more, and the output says so. The last line of standard output is the
result JSON. See README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170  # both attempts together


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "bench/workloads", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    """Configure (once) and build fusion_perfbench; returns its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target_dir)),
                             "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "fusion_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "fusion_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["clickbench", "tpch", "serving"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # A run that has not finished by the first limit is taken as hung
    # (README.md: a rare deadlock in the engine's QueryScheduler), killed,
    # and run once more with the same seed in the time that is left. The
    # output says so, above the result.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    first_limit = min(RUN_TIMEOUT_S, 30 + 2.4 * args.seconds)
    source = source_id()
    notes = []
    proc = None
    for attempt in (1, 2):
        work_dir = os.path.join(ROOT, ".bench_data",
                                f"{args.workload}-{args.seed}-{os.getpid()}-{attempt}")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--expected-dir", os.path.join(BENCH_DIR, "expected"),
               "--out-dir", os.path.join(ROOT, ".bench_out"),
               "--source-id", source]
        limit = first_limit if attempt == 1 else deadline - time.monotonic()
        if limit <= 0:
            break
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=limit)
            break
        except subprocess.TimeoutExpired:
            note = (f"# attempt {attempt} did not finish within {limit:.0f} s "
                    f"and was killed")
            notes.append(note)
            print(f"perfbench: {note[2:]}", file=sys.stderr)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    if proc is None:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: fusion_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write("".join(note + "\n" for note in notes) + proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
