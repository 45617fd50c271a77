#!/usr/bin/env python3
"""Build and run the Clio benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload rw-fabric|kv-ycsb-a|alloc-churn \
        --seed N --seconds T --trace 0|1

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls rebuild incrementally. Build output goes
to stderr. The benchmark binary then runs in the foreground and prints
its report on stderr and one JSON object as the last line of stdout.
With --trace 1 the spans of the first traced round are written to
<build>/traces/<workload>-seed<N>.json (Chrome trace-event format).
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("rw-fabric", "kv-ycsb-a", "alloc-churn")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            return None
        value = next(it, None)
        if value is None:
            return None
        opts[flag[2:]] = value
    return opts


def build(here, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", here, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("simulator sources not found at %s"
                    % os.path.join(root, "src"))

    opts = parse(argv)
    required = ("workload", "seed", "seconds", "trace")
    if opts is None or any(k not in opts for k in required):
        return fail("usage: run.py --workload W --seed N --seconds T "
                    "--trace 0|1")

    if opts["workload"] not in WORKLOADS:
        return fail("unknown workload %r (choose from %s)"
                    % (opts["workload"], ", ".join(WORKLOADS)))

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        build(here, build_dir)
    except (RuntimeError, subprocess.CalledProcessError) as err:
        return fail("build failed: %s" % err)

    cmd = [os.path.join(build_dir, "perfbench_clio")]
    for key in required:
        cmd += ["--" + key, opts[key]]
    if opts["trace"] == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (opts["workload"], opts["seed"]))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
