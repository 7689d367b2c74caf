#!/usr/bin/env python3
"""Runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (perfbench/CMakeLists.txt, Release, with
the library sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs it with
the given arguments.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  A traced run also writes its
spans as a Chrome trace to <build dir>/traces/<workload>-<seed>.json.

Exit codes: those of the benchmark program (0 ok, 1 failed check,
2 usage error), or 1 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "amped_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "amped_perfbench")


def revision():
    """The git commit, or a digest of the benchmarked sources."""
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def flag(args, name, default):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return default


def main(args):
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    extra = ["--commit", revision()]
    if flag(args, "--trace", "0") == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        extra += ["--trace-out", os.path.join(traces, "%s-%s.json" % (
            flag(args, "--workload", "none"), flag(args, "--seed", "1")))]
    sys.stdout.flush()
    return subprocess.run([binary] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
