#!/usr/bin/env python3
"""Layered sweep benchmark of the dispatch-trace simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator sources
plus perfbench/driver.cpp) into .bench_build/, gives the run a private
trace cache and result store under .bench_build/runs/, pins every
VMIB_* knob, sets the workload up three times from an empty cache,
and then:

  --trace 0  times whole sweeps over the warm cache and prints the
             end-to-end metrics of BENCHMARK.json;
  --trace 1  records spans around the layer calls and prints the
             per-layer metrics of BENCHMARK.json.

Every swept cell is checked against the reference fingerprints in
perfbench/reference/ (a mega-trace seed without one is checked against
a separate materialized-decode sweep). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-reference W [--seed N]

regenerates the stored references of workload W.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
DRIVER = os.path.join(CMAKE_DIR, "perfbench_driver")
SPEC_DIR = os.path.join(BENCH_DIR, "specs")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

WORKLOADS = ("paper-sweeps", "btb-geometry", "mega-trace", "sharded-store")
# Set-ups per run: at least SETUP_REPEATS, more while they have taken
# less than SETUP_MIN_S in total (a small workload sets up in 0.2 s).
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 4.0
MAX_THREADS = 4
# Every run must end well inside three minutes once the build exists.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_child(cmd, env, deadline, log_path):
    """Runs cmd to completion in its own process group, output to
    log_path; kills the whole group if the deadline passes."""
    with open(log_path, "ab") as out:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("timed out: " + " ".join(cmd))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-3000:].decode(errors="replace")
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd[:2]),
                                                proc.returncode, tail))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no simulator sources (src/) beside perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    deadline = time.monotonic() + 850.0
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_child(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], os.environ.copy(),
                  deadline, log_path)
    run_child(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "perfbench_driver", "sweep_driver"], os.environ.copy(),
              deadline, log_path)


def pinned_env(threads):
    """The environment every child runs under: no inherited VMIB_*
    knob, the execution-shape knobs pinned to their defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VMIB_")}
    env.update({
        "VMIB_THREADS": str(threads),
        "VMIB_GANG_KERNEL": "scalar",
        "VMIB_TRACE_COMPRESS": "on",
        "VMIB_TRACE_DECODE": "auto",
        "VMIB_DECODE_BUDGET": str(256 << 20),
        "VMIB_GANG_CHUNK": str(1 << 16),
        "VMIB_RESULT_STORE": "off",
        # A fixed mmap threshold: large blocks (trace arenas) go back to
        # the kernel when freed, so peak RSS is the live footprint, not
        # whatever glibc's adaptive threshold happened to retain.
        "MALLOC_MMAP_THRESHOLD_": str(128 << 10),
    })
    return env


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
            tag = "L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(
                kind, ""))
            sizes[tag] = size
    except OSError:
        pass
    return sizes


def source_revision():
    """The git commit when there is one, else a digest of the sources
    the benchmark builds (a plain checkout has no .git)."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def host_fingerprint():
    info = json.loads(subprocess.run([DRIVER, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    if info.get("build_type") != "Release":
        raise BenchError("refusing a %s build" % info.get("build_type"))
    return {"nproc": os.cpu_count(), "compiler": info["compiler"],
            "build_type": info["build_type"], "caches": cache_sizes(),
            "revision": source_revision()}


class Run:
    """One benchmark run: a private directory, a pinned environment,
    and the driver invocations."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = os.path.join(BUILD_DIR, "runs",
                                "%s-s%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "refs"))
        self.threads = min(MAX_THREADS, os.cpu_count() or 1)
        self.log = os.path.join(self.dir, "driver.log")

    def driver(self, mode, cache, out, *extra):
        env = pinned_env(self.threads)
        env["VMIB_TRACE_CACHE"] = cache
        cmd = [DRIVER, mode, "--workload=" + self.workload,
               "--seed=%d" % self.seed, "--specs=" + SPEC_DIR,
               "--rundir=" + self.dir, "--out=" + out] + list(extra)
        run_child(cmd, env, self.deadline, self.log)
        with open(out) as f:
            return json.load(f)

    def setups(self, probe):
        """Sets the workload up from an empty cache, repeatedly (once
        when probing layers); returns the warm cache and the results."""
        results, cache = [], None
        start = time.monotonic()
        while len(results) < (1 if probe else SETUP_REPEATS) or (
                not probe and len(results) < SETUP_MAX_REPEATS
                and time.monotonic() - start < SETUP_MIN_S):
            if cache:
                shutil.rmtree(cache, ignore_errors=True)
            cache = os.path.join(self.dir, "cache-%d" % len(results))
            extra = ["--probe"] if probe else []
            results.append(self.driver(
                "setup", cache,
                os.path.join(self.dir, "setup-%d.json" % len(results)),
                *extra))
        return cache, results

    def reference_dirs(self, cache):
        """Stored references; a mega-trace seed without one gets its
        reference from a separate, untimed sweep in the other decode
        shape (materialized)."""
        own = os.path.join(self.dir, "refs")
        if self.workload == "mega-trace":
            self.driver("reference", cache,
                        os.path.join(self.dir, "reference.json"),
                        "--refs=" + REFERENCE_DIR, "--missing-only",
                        "--outdir=" + own)
        return REFERENCE_DIR + "," + own

    def measure(self, trace):
        cache, setups = self.setups(probe=trace)
        refs = self.reference_dirs(cache)
        out = os.path.join(self.dir, "result.json")
        extra = ["--seconds=%g" % self.seconds, "--refs=" + refs]
        if trace:
            spans = os.path.join(BUILD_DIR, "spans-%s.json" % self.workload)
            res = self.driver("trace", cache, out, "--spans=" + spans,
                              *extra)
            # Set-up layers come from the set-up process.
            res["metrics"].update(
                {k: v for k, v in setups[0]["metrics"].items()
                 if k != "setup_s"})
        else:
            res = self.driver("sweep", cache, out, *extra)
            res["metrics"]["setup_s"] = statistics.median(
                s["metrics"]["setup_s"] for s in setups)
        for s in setups:
            res["attempted"] += s["attempted"]
            res["failed"] += s["failed"]
            res["notes"] += s["notes"]
        # The complement of the cell error rate: a metric that is never 0.
        res["metrics"]["cells_correct_frac"] = (
            1.0 - res["failed"] / res["attempted"] if res["attempted"] else 0.0)
        return res


def report(res, spec_metrics, trace):
    """Prints the human-readable summary lines and returns the final
    JSON object restricted to the metrics BENCHMARK.json names."""
    metrics = {}
    missing = []
    for m in spec_metrics:
        if m["name"] not in res["metrics"]:
            missing.append(m["name"])
            continue
        value = res["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        line = "  %-44s %16.6g %s" % (m["name"], value, m["unit"])
        samples = res.get("samples", {}).get(m["name"])
        if samples:
            line += "  (mean of %d; median %.6g, max %.6g)" % (
                len(samples), statistics.median(samples), max(samples))
        print(line)
    if missing:
        raise BenchError("driver did not report: " + ", ".join(missing))
    if trace and res.get("shares"):
        print("  layer self-time shares of the decomposed sweep "
              "(harness.executor.serial_wall_s):")
        ranked = sorted(res["shares"].items(), key=lambda kv: -kv[1])
        for layer, share in ranked:
            print("    %-40s %6.1f%%" % (layer, 100 * share))
        print("  largest layer: " + ranked[0][0])
    for note in res["notes"]:
        print("  note: " + note)
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", choices=WORKLOADS)
    args = p.parse_args()
    if not args.workload and not args.write_reference:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        host = host_fingerprint()
        if args.write_reference:
            run = Run(args.write_reference, args.seed, args.seconds)
            try:
                cache, _ = run.setups(probe=True)
                run.driver("reference", cache,
                           os.path.join(run.dir, "reference.json"),
                           "--outdir=" + REFERENCE_DIR)
            finally:
                shutil.rmtree(run.dir, ignore_errors=True)
            return 0
        print("host " + json.dumps(host, sort_keys=True))
        run = Run(args.workload, args.seed, args.seconds)
        try:
            res = run.measure(trace=args.trace == 1)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        out = report(res, spec["per_layer" if args.trace else "end_to_end"],
                     args.trace == 1)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
