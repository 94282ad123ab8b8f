#!/usr/bin/env python3
"""Audit benchmark: time to verdict of glifs_audit, end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kernels|rtos|rtos_fleet \\
        --seed N --seconds S --trace 0|1

The benchmark builds glifs_audit and its own tool from the checkout's
sources into .bench_build/, writes the workload's firmware and rendered
policy files into a fresh temporary directory under .bench_tmp/, and
audits them one at a time (a closed loop with one client). Each audit is
timed from fork to exit with wait4, whose rusage covers the whole audit
process tree, and its --stats-json run report is checked against the
known answer.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of the traced
layer replay (perfbench_tool replay) plus the program's own counters.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import fcntl
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
TMP = os.path.join(ROOT, ".bench_tmp")
OUT = os.path.join(ROOT, ".bench_out")

AUDIT_TIMEOUT_S = 150
SETUP_SAMPLES = 20

KERNELS = ["mult", "binSearch", "tea8", "intFilt", "tHold", "div", "inSort",
           "rle", "intAVG", "autocorr", "FFT", "ConvEn", "Viterbi"]

# programs: firmware basenames audited in one round; flags: extra
# glifs_audit flags; stride: mean cycles between the traced run's
# harvest cuts; cache_reference: store the serial analysis the
# fleet's is compared with.
WORKLOADS = {
    "kernels": {"programs": KERNELS, "flags": [], "stride": 50,
                "cache_reference": False},
    "rtos": {"programs": ["rtos"], "flags": [], "stride": 500,
             "cache_reference": True},
    "rtos_fleet": {"programs": ["rtos"], "flags": ["--explore-jobs", "4"],
                   "stride": 500, "cache_reference": False},
}

C1 = "C1-untainted-code-tainted-pc"
C2 = "C2-store-untainted-partition"


# The built executables.
Bins = collections.namedtuple("Bins", "audit tool spawn")


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the perfbench package (CMakeLists.txt here)."""
    for rel in ("src/CMakeLists.txt", "tools/glifs_audit.cc"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"glifs sources not found: {rel} is missing")
    # The compiler and every child keep their temporary files in the
    # checkout too.
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))]]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return Bins(*(os.path.join(BUILD, name) for name in
                  ("glifs_audit", "perfbench_tool", "perfbench_spawn")))


def child_env():
    # Fault-injection and telemetry knobs of the program must not leak
    # in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("GLIFS_")}


# One finished glifs_audit: wall and CPU seconds, ru_maxrss, exit code
# (None when killed) and the parsed run report (None when absent).
Audit = collections.namedtuple("Audit", "wall cpu maxrss_kb code report")


def run_audit(bins, fw, policy, flags, report_path=None):
    """Run one glifs_audit under perfbench_spawn and return an Audit;
    code is None when the audit was killed by a signal or timed out."""
    args = [bins.spawn, str(AUDIT_TIMEOUT_S), bins.audit, fw, "--policy",
            policy]
    args += flags
    if report_path:
        args += ["--stats-json", report_path]
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                       env=child_env(), timeout=AUDIT_TIMEOUT_S + 30)
    if r.returncode != 0:
        raise BenchError(f"perfbench_spawn exited {r.returncode}")
    wall, cpu, maxrss_kb, status = r.stdout.split()
    code = int(status) if int(status) >= 0 else None
    report = None
    if report_path and code is not None:
        try:
            with open(report_path) as f:
                report = json.load(f)
        except (OSError, ValueError):
            report = None
    return Audit(float(wall), float(cpu), int(maxrss_kb), code, report)


def analysis_key(report):
    """The report's analysis section without its wall time."""
    a = dict(report["analysis"])
    a.pop("analysis_seconds", None)
    return json.dumps(a, sort_keys=True)


def check_audit(audit, name, expect, reference):
    """Return None if the audit gave the known answer, else why not."""
    if audit.code is None:
        return "crashed or timed out"
    r = audit.report
    if r is None:
        return f"no run report (exit {audit.code})"
    if r.get("exit_code") != audit.code:
        return f"exit {audit.code} but report says {r.get('exit_code')}"
    verdict = r.get("verdict")
    if (verdict, audit.code) not in (("secure", 0), ("violations", 1)):
        return f"verdict {verdict} with exit {audit.code}"
    if not r["analysis"]["completed"]:
        return "analysis did not complete"
    if name in expect:
        kinds = {v["kind"] for v in r["analysis"]["violations"]}
        want_c1, want_c2 = expect[name]
        if (C1 in kinds) != want_c1 or (C2 in kinds) != want_c2:
            return (f"C1 {C1 in kinds}/C2 {C2 in kinds}, Table 2 says "
                    f"{want_c1}/{want_c2}")
    else:
        if verdict != "secure":
            return f"verdict {verdict}, expected secure"
        if reference is not None and analysis_key(r) != reference:
            return "analysis differs from the serial audit's"
    return None


def load_expect(workdir):
    expect = {}
    with open(os.path.join(workdir, "expect.tsv")) as f:
        for line in f:
            name, c1, c2 = line.split()
            expect[name] = (c1 == "1", c2 == "1")
    return expect


def reference_cache(bins, workdir, program):
    """Where the serial audit's analysis of @program is cached: one file
    per (binary, firmware, policy) under .bench_out/."""
    h = hashlib.sha256()
    for path in (bins.audit, os.path.join(workdir, program + ".s"),
                 os.path.join(workdir, program + ".policy")):
        with open(path, "rb") as f:
            h.update(f.read())
    return os.path.join(OUT, f"serial-{program}-{h.hexdigest()[:20]}.json")


def save_reference(cache, report):
    os.makedirs(OUT, exist_ok=True)
    with open(cache + ".part", "w") as f:
        f.write(analysis_key(report))
    os.replace(cache + ".part", cache)


def serial_reference(bins, workdir, program):
    """The serial audit's analysis of @program, from the cache or, on a
    miss, from an untimed serial audit."""
    cache = reference_cache(bins, workdir, program)
    if not os.path.isfile(cache):
        log(f"perfbench: computing the serial reference audit of {program}")
        a = run_audit(bins, os.path.join(workdir, program + ".s"),
                      os.path.join(workdir, program + ".policy"), [],
                      os.path.join(workdir, "serial.json"))
        why = check_audit(a, program, {}, None)
        if why:
            raise BenchError(f"serial reference audit of {program}: {why}")
        save_reference(cache, a.report)
    with open(cache) as f:
        return f.read()


def run_round(bins, workdir, programs, flags, expect, reference, tag):
    """Audit every program once, in order. Returns (audits, failures)."""
    audits, failures = [], []
    for i, p in enumerate(programs):
        a = run_audit(bins, os.path.join(workdir, p + ".s"),
                      os.path.join(workdir, p + ".policy"), flags,
                      os.path.join(workdir, f"{tag}-{i}.json"))
        why = check_audit(a, p, expect, reference)
        if why:
            failures.append(f"{p}: {why}")
        audits.append(a)
    return audits, failures


def high_percentile(samples):
    """Highest integer percentile with at least ten samples above it,
    as (percentile, value), or None when there are too few samples."""
    s = sorted(samples)
    n = len(s)
    for p in range(99, 0, -1):
        idx = int(p / 100 * n)
        if idx < n and n - idx - 1 >= 10:
            return p, s[idx]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(bins, workdir, wl, programs, seconds, expect, reference):
    """The untraced run: rounds for @seconds, with set-up samples taken
    before and after them so that they see more than one moment of the
    machine's load."""
    halt_policy = os.path.join(workdir, programs[0] + ".policy")
    setups, failures = [], []

    def sample_setup(n):
        for _ in range(n):
            a = run_audit(bins, os.path.join(workdir, "halt.s"), halt_policy,
                          wl["flags"])
            if a.code != 0:
                failures.append(f"halt: exit {a.code}, expected 0 (secure)")
            setups.append(a.wall)

    sample_setup(SETUP_SAMPLES // 2)
    rounds = []
    attempted = SETUP_SAMPLES
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        audits, fails = run_round(bins, workdir, programs, wl["flags"],
                                  expect, reference, f"r{len(rounds)}")
        attempted += len(audits)
        failures += fails
        if wl["cache_reference"] and not fails:
            # The fleet workload checks its analysis against this.
            save_reference(reference_cache(bins, workdir, programs[0]),
                           audits[0].report)
        rounds.append({
            "wall": sum(a.wall for a in audits),
            "cpu": sum(a.cpu for a in audits),
            "rss_mb": max(a.maxrss_kb for a in audits) / 1024.0,
            "cycles": sum(a.report["analysis"]["cycles_simulated"]
                          for a in audits if a.report),
        })
    sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    walls = [r["wall"] for r in rounds]
    pct = high_percentile(walls)
    print(f"wall_s samples: {len(walls)} rounds of {len(programs)} audits; "
          + (f"p{pct[0]} {pct[1]:.4f} s" if pct else
             "no tail percentile (needs at least 11 rounds)"))
    print(f"setup_s samples: {len(setups)} one-halt audits, "
          f"min {min(setups):.5f} s, max {max(setups):.5f} s")
    med = statistics.median
    metrics = {
        "wall_s": metric(med(walls), "s"),
        "cpu_s": metric(med(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": metric(med(r["rss_mb"] for r in rounds), "MB"),
        "setup_s": metric(med(setups), "s"),
        "sim_cycles": metric(med(r["cycles"] for r in rounds), "count"),
    }
    return metrics, attempted, failures


def stat(stats, path):
    """A scalar counter from a run report's stats tree (0 when absent,
    as the explore.* counters are in serial audits)."""
    group, name = path.split(".", 1)
    return stats.get(group, {}).get(name, 0)


def ratio(num, den):
    return num / den if den else 0.0


def traced(bins, workdir, wl, programs, seed, seconds, expect,
           reference, workload):
    """The traced run: one checked round for the program's counters,
    then the layer replay."""
    audits, failures = run_round(bins, workdir, programs, wl["flags"],
                                 expect, reference, "t")
    reports = [a.report for a in audits if a.report]
    if len(reports) != len(audits):
        return {}, len(audits), failures

    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    files = []
    for p in programs:
        files += [os.path.join(workdir, p + ".s"),
                  os.path.join(workdir, p + ".policy")]
    r = subprocess.run([bins.tool, "replay", "--seed", str(seed), "--stride",
                        str(wl["stride"]), "--seconds", str(seconds),
                        "--out", spans] + files,
                       stdout=subprocess.PIPE, text=True, env=child_env(),
                       timeout=AUDIT_TIMEOUT_S)
    attempted = len(audits) + 1
    if r.returncode != 0:
        failures.append(f"replay exited {r.returncode}")
        return {}, attempted, failures
    replay = json.loads(r.stdout)
    audit_cycles = [rep["analysis"]["cycles_simulated"] for rep in reports]
    for prog, cycles in zip(replay["programs"], audit_cycles):
        if prog["harvest_cycles"] != cycles:
            failures.append(f"{prog['firmware']}: harvest chain simulated "
                            f"{prog['harvest_cycles']} cycles, audit "
                            f"{cycles}")
    if replay["metrics"]["replay.mismatches"]:
        failures.append(f"{replay['metrics']['replay.mismatches']} replayed "
                        "segments differ from PathSim::runSegment")
    print(f"spans written to {os.path.relpath(spans, ROOT)}")

    def total(path):
        return sum(stat(rep["stats"], path) for rep in reports)

    units = {"calls": "count", "us": "us", "share": "ratio"}
    metrics = {}
    for name, value in replay["metrics"].items():
        suffix = name.rsplit(".", 1)[1]
        unit = units.get(suffix, "count")
        if name == "ift.checkpoint.bytes_per_state":
            unit = "B/state"
        elif name in ("replay.unaccounted", "replay.overhead"):
            unit = "ratio"
        elif name == "replay.seconds":
            unit = "s"
        metrics[name] = metric(value, unit)
    cycles = sum(audit_cycles)
    hits, misses = total("explore.cache_hits"), total("explore.cache_misses")
    paths, forks = total("engine.paths"), total("engine.por_forks")
    evals, skipped = total("sim.gate_evals"), total("sim.gate_evals_skipped")
    lookups, subsumed = (total("state_table.lookups"),
                         total("state_table.subsumed"))
    seconds_total = sum(rep["analysis"]["analysis_seconds"]
                        for rep in reports)
    metrics.update({
        "replay.coverage": metric(
            ratio(replay["metrics"]["replay.cycles"], cycles), "ratio"),
        "engine.us_per_cycle": metric(ratio(seconds_total, cycles) * 1e6,
                                      "us"),
        "engine.cycles": metric(cycles, "count"),
        "engine.paths": metric(paths, "count"),
        "engine.cycles_per_path": metric(ratio(cycles, paths),
                                         "cycles/path"),
        "engine.por_forks": metric(forks, "count"),
        "engine.por_forks_per_path": metric(ratio(forks, paths),
                                            "forks/path"),
        "explore.cache_hits": metric(hits, "count"),
        "explore.cache_misses": metric(misses, "count"),
        "explore.memo_hit_ratio": metric(ratio(hits, hits + misses),
                                         "ratio"),
        "sim.gate_evals": metric(evals, "count"),
        "sim.gate_evals_skipped": metric(skipped, "count"),
        "sim.dirty_ratio": metric(ratio(evals, evals + skipped), "ratio"),
        "state_table.lookups": metric(lookups, "count"),
        "state_table.subsumed": metric(subsumed, "count"),
        "state_table.subsumed_ratio": metric(ratio(subsumed, lookups),
                                             "ratio"),
    })
    return metrics, attempted, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    try:
        bins = build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        r = subprocess.run([bins.tool, "gen", workdir], env=child_env())
        if r.returncode != 0:
            log("perfbench: workload generation failed")
            return 2
        expect = load_expect(workdir)
        programs = list(wl["programs"])
        random.Random(args.seed).shuffle(programs)
        reference = None
        if args.workload == "rtos_fleet":
            reference = serial_reference(bins, workdir, "rtos")

        if args.trace:
            metrics, attempted, failures = traced(
                bins, workdir, wl, programs, args.seed,
                args.seconds, expect, reference, args.workload)
        else:
            metrics, attempted, failures = measure(
                bins, workdir, wl, programs, args.seconds, expect,
                reference)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        log(f"perfbench: FAILED {f}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"attempted, {len(failures)} failed, fail_ratio "
          f"{len(failures) / attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and bool(metrics),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
