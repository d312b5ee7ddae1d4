#!/usr/bin/env python3
"""Builds and runs the PRIVATE-IYE end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: inproc-3200, uds-200, durable-mix, or `all` (each in turn, then a
summary table). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. `--self-check` instead runs each named
workload twice with the same seed and requires identical answer digests and
exact counts.

The benchmark binary is built from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; runtime files go to
.bench_run/ there.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["inproc-3200", "uds-200", "durable-mix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(bdir, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_once(binary, workload, seed, seconds, trace, sha):
    """Runs one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(".bench_run", f"{os.getpid()}-{workload}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as e:
        code, out, err = 124, e.stdout or "", e.stderr or ""
        if isinstance(out, bytes):
            out, err = out.decode(errors="replace"), (err or b"").decode(errors="replace")
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if err:
        sys.stderr.write(err)
    return code, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def exact_line(lines):
    for line in lines:
        if line.startswith("exact: "):
            return line
    return None


def self_check(binary, workloads, seed, sha):
    ok = True
    for workload in workloads:
        seen = []
        for _ in range(2):
            code, lines = run_once(binary, workload, seed, 2, 1, sha)
            seen.append(exact_line(lines) if code == 0 else None)
        same = seen[0] is not None and seen[0] == seen[1]
        ok = ok and same
        print(f"self-check {workload}: {'OK' if same else 'DIFFERS'}")
        for line in seen:
            print(f"  {line}")
    return 0 if ok else 1


def run_all(binary, args, sha):
    results = {}
    for workload in WORKLOADS:
        code, lines = run_once(binary, workload, args.seed, args.seconds, args.trace, sha)
        print("\n".join(lines[:-1]))
        result = result_of(lines)
        if code != 0 or result is None:
            log(f"{workload} failed (exit {code})")
            return code or 1
        results[workload] = result
    print(f"\nsummary (seed {args.seed}, {args.seconds} s per workload, trace {args.trace}):")
    names = list(next(iter(results.values()))["metrics"].keys())
    print(f"  {'metric':<36}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:>16.4f}" for w in WORKLOADS)
        print(f"  {name + ' (' + unit + ')':<36}{cells}")
    combined = {
        "correct": all(r["correct"] and r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main():
    # On SIGTERM, unwind through subprocess.run (which kills and waits for
    # the benchmark process) and the work-directory cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.self_check:
        return self_check(binary, workloads, args.seed, sha)
    if args.workload == "all":
        return run_all(binary, args, sha)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace, sha)
    if lines:
        print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
