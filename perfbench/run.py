#!/usr/bin/env python3
"""Builds and runs the pdx benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload bulk_exchange --seed 1 \
      --seconds 12 --trace 0
  python3 perfbench/run.py --self-test

The benchmark runner (perfbench/src) is a CMake package of its own that
compiles the pdx library from ../src, so every run measures the sources it
sits next to. The build goes to .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set) and is incremental: only the
first run in a fresh checkout compiles. Build output goes to stderr.

With --trace 0 the runner measures the workload once. With --trace 1 it
runs twice, each time in a process of its own and for half the seconds:
untraced, then traced (spans on, then the per-layer figures), and the
tracing overhead of every end-to-end metric is traced - untraced. The
runner's report lines are passed through; the last line is the JSON result
holding exactly the metrics BENCHMARK.json names for the run (end_to_end
with --trace 0, per_layer with --trace 1). The exit code is the runner's,
or 2 when the build fails or a named metric is missing.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "pdx_perfbench"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT)
        if result.returncode != 0:
            return False
    return True


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no pdx sources next to the benchmark (src/ missing)",
              file=sys.stderr)
        return 2
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "pdx_perfbench")
    if "--self-test" in argv:
        code, lines = run_runner(binary, out, argv)
        print("\n".join(lines))
        return code
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if flag(argv, "--trace") != "1":
        code, measured = run_runner(binary, out, argv)
        if code != 0:
            return code
        return print_result(measured, spec["end_to_end"])

    half = str(float(flag(argv, "--seconds") or 10) / 2)
    code, untraced = run_runner(
        binary, out, with_flag(with_flag(argv, "--seconds", half),
                               "--trace", "0"))
    if code != 0:
        return code
    code, traced = run_runner(binary, out, with_flag(argv, "--seconds", half))
    if code != 0:
        return code
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in traced["metrics"] or name not in untraced["metrics"]:
            continue
        after = traced["metrics"][name]["value"]
        before = untraced["metrics"][name]["value"]
        traced["metrics"]["trace_overhead." + name] = {
            "value": after - before, "unit": metric["unit"]}
        print("trace_overhead.%s = %.6g %s  [traced %.6g - untraced %.6g, "
              "each in a process of its own]"
              % (name, after - before, metric["unit"], after, before))
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    return print_result(traced, spec["per_layer"])


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def with_flag(argv, name, value):
    if name not in argv[:-1]:
        return argv + [name, value]
    i = argv.index(name)
    return argv[:i + 1] + [value] + argv[i + 2:]


def run_runner(binary, out, argv):
    """Runs the runner and passes its report lines through. Returns its exit
    code and its parsed JSON result (for --self-test, its output lines)."""
    # The runner writes its span log and report under the build directory
    # and binds its Unix socket by a path relative to the checkout root, so
    # run it from there.
    rel_out = os.path.relpath(out, ROOT)
    result = subprocess.run([binary, "--out-dir", rel_out] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or "--self-test" in argv:
        if result.returncode != 0:
            sys.stdout.write(result.stdout)
        return result.returncode, lines
    for line in lines[:-1]:
        print(line)
    return 0, json.loads(lines[-1])


def print_result(measured, wanted):
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in measured["metrics"]]
    if missing:
        print("perfbench: metrics not measured: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    measured["metrics"] = {n: measured["metrics"][n] for n in names}
    print(json.dumps(measured))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
