#!/usr/bin/env python3
"""Self-test of the repository benchmark.  From the root of a checkout:

    python3 perfbench/selftest.py

Checks, at the shortest run length (--seconds 1):
  * every workload prints, as its last line, a JSON object with exactly
    the keys correct, attempted, failed and metrics; untraced runs
    report exactly BENCHMARK.json's end_to_end metrics and traced runs
    exactly its per_layer metrics, each with the unit listed there;
  * the output checks pass on the unmodified program, and fail (exit 1,
    correct false) when one expected value is corrupted by a flipped
    bit (--corrupt-expectation);
  * an unknown flag or workload exits 2 with a message, and --help
    prints usage and exits 0.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            what = "%s --trace %s" % (workload, trace)
            proc = run(["--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", trace])
            result = result_of(proc)
            expect(proc.returncode == 0 and result is not None,
                   what + ": exits 0 with a JSON result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   what + ": result has exactly the four keys")
            expect(result["correct"] is True and result["attempted"] >= 1
                   and result["failed"] == 0,
                   what + ": correct, attempted >= 1, nothing failed")
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(units == wanted[trace],
                   what + ": every metric printed with its unit")
            for name in set(units) ^ set(wanted[trace]):
                print("     mismatch: " + name)

        proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "0", "--corrupt-expectation"])
        result = result_of(proc)
        expect(proc.returncode == 1 and result is not None
               and result["correct"] is False,
               workload + ": a flipped expected bit fails the check")

    for args, what in ((["--workload", "sweep-casestudy", "--bogus"],
                        "unknown flag"),
                       (["--workload", "no-such-workload"],
                        "unknown workload")):
        proc = run(args)
        expect(proc.returncode == 2 and "amped_perfbench:" in proc.stderr,
               what + " exits 2 with a message")
    proc = run(["--help"])
    expect(proc.returncode == 0 and "usage:" in proc.stdout,
           "--help prints usage and exits 0")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
