#!/usr/bin/env python3
"""The repository benchmark: host cost of simulating the mesh.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds perfbench/ with CMake into $CARGO_TARGET_DIR (default .bench_build,
relative to the checkout root), then runs meshbench iterations of one
workload for --seconds, each in a fresh process: set-up, the workload's
fixed simulated window, drain and collection. It checks the simulated
outputs (conservation, digest stability, seed sensitivity, thread
invariance), prints every metric by name and unit, and ends with one JSON
line. --trace 0 reports the end-to-end metrics; --trace 1 alternates
traced and untraced iterations, runs the layer probes once and reports the
per-layer metrics, the ledger and the tracing overhead. --smoke runs every
workload briefly and checks it. Exit code 0 means every check passed.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent

# name -> engine threads, as meshbench runs it by default.
WORKLOADS = {"elibrary_bulk": 1, "fanout_small": 2, "config_churn": 1}

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_request", "ns"),
    ("allocs_per_request", "count"),
    ("peak_rss_mb", "MB"),
]

# (name, unit); every per-layer metric is better when lower.
PER_LAYER = [
    ("sim.events", "count"), ("sim.task_heap_allocs", "count"),
    ("sim.epochs", "count"), ("sim.event_ns", "ns"),
    ("sim.event_allocs", "count"), ("sim.share", "ratio"),
    ("net.packets", "count"), ("net.bytes", "B"), ("net.drops", "count"),
    ("net.packet_ns", "ns"), ("net.packet_allocs", "count"),
    ("net.share", "ratio"),
    ("transport.segments", "count"), ("transport.retransmits", "count"),
    ("transport.connections", "count"), ("transport.segment_ns", "ns"),
    ("transport.segment_allocs", "count"), ("transport.share", "ratio"),
    ("http.parse_ns_small", "ns"), ("http.parse_allocs_small", "count"),
    ("http.parse_ns_large", "ns"), ("http.parse_allocs_large", "count"),
    ("http.serialize_ns", "ns"), ("http.share", "ratio"),
    ("mesh.requests", "count"), ("mesh.retries", "count"),
    ("mesh.hop_ns", "ns"), ("mesh.hop_allocs", "count"),
    ("tls.handshakes", "count"), ("tls.records", "count"),
    ("mesh.share", "ratio"),
    ("cp.epochs", "count"), ("cp.pushes", "count"), ("cp.push_bytes", "B"),
    ("cp.push_ns_per_sidecar", "ns"), ("cp.push_allocs_per_sidecar", "count"),
    ("cp.share", "ratio"),
    ("app.build_s", "s"), ("app.build_allocs", "count"),
    ("obs.series", "count"), ("obs.spans", "count"), ("obs.snapshot_s", "s"),
    ("obs.record_ns", "ns"), ("obs.record_allocs", "count"),
    ("obs.share", "ratio"),
    ("proc.sys_s", "s"), ("proc.minor_faults", "count"),
    ("proc.allocs", "count"), ("ledger.residual_share", "ratio"),
    ("trace.overhead_s", "s"),
]

# Counts that are levels at the end of the run, not work done during it.
LEVELS = ("cp.sidecars", "obs.series")

# (metric, probe, field) for the probe-derived per-layer metrics.
PROBE_METRICS = [
    ("sim.event_ns", "probe.sim", "ns"),
    ("sim.event_allocs", "probe.sim", "allocs"),
    ("net.packet_ns", "probe.net", "ns"),
    ("net.packet_allocs", "probe.net", "allocs"),
    ("transport.segment_ns", "probe.transport", "ns"),
    ("transport.segment_allocs", "probe.transport", "allocs"),
    ("http.parse_ns_small", "probe.http.parse_small", "ns"),
    ("http.parse_allocs_small", "probe.http.parse_small", "allocs"),
    ("http.parse_ns_large", "probe.http.parse_large", "ns"),
    ("http.parse_allocs_large", "probe.http.parse_large", "allocs"),
    ("http.serialize_ns", "probe.http.serialize", "ns"),
    ("mesh.hop_ns", "probe.mesh", "ns"),
    ("mesh.hop_allocs", "probe.mesh", "allocs"),
    ("cp.push_ns_per_sidecar", "probe.cp", "ns"),
    ("cp.push_allocs_per_sidecar", "probe.cp", "allocs"),
    ("obs.record_ns", "probe.obs", "ns"),
    ("obs.record_allocs", "probe.obs", "allocs"),
]

# Iteration i of a run simulates sub-seed seed * 16 + i % SUB_SEEDS, so a
# run's medians span several arrival sequences (a workload's cost depends
# on its request mix) and every sub-seed repeats, which is what the digest
# stability check compares.
SUB_SEEDS = 6
MIN_ITERATIONS = SUB_SEEDS + 1
SMOKE_SCALE = 0.1
ITERATION_TIMEOUT_S = 150

# glibc adapts its mmap threshold to the sizes it has freed, so whether a
# megabyte body is a fresh mmap (page faults and kernel time) or heap
# memory depends on the allocation history: elibrary_bulk's run time
# differed 2x between seeds with the adaptive threshold. Pinning it at
# glibc's own 128 KiB default makes every large buffer an mmap, on every
# seed, so the kernel cost of big bodies is measured, not left to chance.
MALLOC_ENV = {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds meshbench; returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    configure = ["cmake", "-S", str(SOURCE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(build_dir), "--target", "meshbench",
                "-j", jobs]
    for step in (configure, compile_):
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return build_dir / "meshbench"


def iterate(binary, workload, seed, scale, trace=False, probes=False,
            threads=None):
    """Runs one meshbench iteration in a fresh process; returns its JSON."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--scale={scale}"]
    if threads is not None:
        cmd.append(f"--threads={threads}")
    if trace:
        cmd.append("--trace")
    if probes:
        cmd.append("--probes")
    result = subprocess.run(cmd, capture_output=True, text=True,
                            timeout=ITERATION_TIMEOUT_S,
                            env=dict(os.environ, **MALLOC_ENV))
    if result.returncode != 0 or not result.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited {result.returncode}: "
                         f"{result.stderr.strip()[-500:]}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def sub_seed(seed, index):
    return seed * 16 + index % SUB_SEEDS


def phases(it):
    s = it["samples"]
    return {"build": ledger.proc_delta(s["started"], s["built"]),
            "run": ledger.proc_delta(s["converged"], s["collected"])}


def run_counts(it):
    counts = ledger.count_delta(it["setup_counts"], it["run_counts"])
    for name in LEVELS:
        counts[name] = it["run_counts"][name]
    return counts


def conservation_failures(it):
    t = it["traffic"]
    failures = []
    if t["generated"] < 1:
        failures.append("no requests generated")
    if t["generated"] != t["completed"] + t["errored"] + t["abandoned"]:
        failures.append(f"generated {t['generated']} != completed "
                        f"{t['completed']} + errored {t['errored']} + "
                        f"abandoned {t['abandoned']}")
    if t["abandoned"]:
        failures.append(f"{t['abandoned']} requests pending after drain")
    return failures


def check(binary, workload, iterations, scale):
    """Correctness failures of a run's iterations; empty when correct."""
    failures = []
    for it in iterations:
        failures += conservation_failures(it)
    digests = {}
    for it in iterations:
        digests.setdefault(it["seed"], set()).add(it["digest"])
    for seed, seen in sorted(digests.items()):
        if len(seen) != 1:
            failures.append(f"digest differs across runs of seed {seed}: "
                            f"{sorted(seen)}")
    if len(digests) < 2:
        failures.append("fewer than two seeds to compare")
    elif len({min(seen) for seen in digests.values()}) != len(digests):
        failures.append("different seeds give the same digest")
    threads = WORKLOADS[workload]
    if threads > 1:
        first = iterations[0]
        single = iterate(binary, workload, first["seed"], scale, threads=1)
        if single["digest"] != first["digest"]:
            failures.append(f"digest differs between 1 and {threads} "
                            f"engine threads")
    return failures


def end_to_end(iterations):
    setup = [ns / 1e9 for it in iterations for ns in it["setup_ns"]]
    runs = [phases(it)["run"] for it in iterations]
    requests = [it["traffic"]["generated"] for it in iterations]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median([r["wall_s"] for r in runs]),
        "cpu_s": statistics.median([r["cpu_s"] for r in runs]),
        "ns_per_request": statistics.median(
            [r["wall_s"] * 1e9 / n for r, n in zip(runs, requests)]),
        "allocs_per_request": statistics.median(
            [r["allocs"] / n for r, n in zip(runs, requests)]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
    }


def per_layer(plain, traced, probed):
    counts = run_counts(plain[0])
    values = {name: counts[name] for name, _ in PER_LAYER if name in counts}
    probes = probed["probes"]
    for metric, probe, field in PROBE_METRICS:
        values[metric] = probes[probe][field]
    plain_runs = [phases(it)["run"] for it in plain]
    run_s = statistics.median([r["wall_s"] for r in plain_runs])
    # The ledger pairs the counts of plain[0] with its own run time.
    shares = ledger.ledger(counts, probes, plain_runs[0]["wall_s"])
    for layer in ledger.LAYERS:
        values[f"{layer}.share"] = shares[layer]
    values["ledger.residual_share"] = shares["residual"]
    builds = [phases(it)["build"] for it in plain]
    values["app.build_s"] = statistics.median([b["wall_s"] for b in builds])
    values["app.build_allocs"] = statistics.median(
        [b["allocs"] for b in builds])
    values["obs.snapshot_s"] = statistics.median(
        [ledger.self_times(it["spans"])["collect.snapshot"]["total_s"]
         for it in traced])
    values["proc.sys_s"] = statistics.median(
        [r["sys_s"] for r in plain_runs])
    values["proc.minor_faults"] = statistics.median(
        [r["minor_faults"] for r in plain_runs])
    values["proc.allocs"] = statistics.median(
        [r["allocs"] for r in plain_runs])
    # Traced iteration i repeats plain iteration i's sub-seed.
    values["trace.overhead_s"] = statistics.median(
        [phases(t)["run"]["wall_s"] - phases(p)["run"]["wall_s"]
         for p, t in zip(plain, traced)])
    return values


def run_workload(binary, workload, seed, seconds, trace, scale=1.0):
    """Iterates for `seconds`; returns (iterations, traced, probed)."""
    plain, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < seconds
           or len(plain) < MIN_ITERATIONS):
        it_seed = sub_seed(seed, len(plain))
        plain.append(iterate(binary, workload, it_seed, scale))
        if trace:
            traced.append(iterate(binary, workload, it_seed, scale,
                                  trace=True))
    probed = (iterate(binary, workload, sub_seed(seed, 0), scale, trace=True,
                      probes=True)
              if trace else None)
    return plain, traced, probed


def write_trace(workload, seed, traced):
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps([it["spans"] for it in traced]))
    return path


def report(workload, seed, seconds, trace, binary, scale=1.0):
    """Runs, checks and prints one workload; returns True when correct."""
    plain, traced, probed = run_workload(binary, workload, seed, seconds,
                                         trace, scale)
    failures = check(binary, workload,
                     plain + traced + ([probed] if probed else []), scale)
    attempted = sum(it["traffic"]["generated"] for it in plain)
    failed = sum(it["traffic"]["errored"] + it["traffic"]["abandoned"]
                 for it in plain)
    first = plain[0]["traffic"]
    print(f"workload {workload} seed {seed}: {len(plain)} untraced + "
          f"{len(traced)} traced iterations over {SUB_SEEDS} sub-seeds, "
          f"{attempted} simulated requests untraced")
    print(f"  sub-seed {plain[0]['seed']}: digest {plain[0]['digest']}, "
          f"simulated p50 {first['p50_ms']:.3f} ms, "
          f"p99 {first['p99_ms']:.3f} ms")
    print(f"  error_ratio = {failed / attempted:.6g} ratio")
    if trace:
        metrics = per_layer(plain, traced, probed)
        units = dict(PER_LAYER)
        path = write_trace(workload, seed, traced + [probed])
        selfs = ledger.self_times(probed["spans"])
        print(f"  spans written to {path}; self time of the probed run:")
        for name, entry in sorted(selfs.items()):
            print(f"    {name:<24} n={entry['count']:<4} "
                  f"total {entry['total_s']:.6f} s  "
                  f"self {entry['self_s']:.6f} s")
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return not failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced, and check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        binary = build()
        if args.smoke:
            ok = all([report(w, args.seed, 0, True, binary, SMOKE_SCALE)
                      for w in WORKLOADS])
        else:
            ok = report(args.workload, args.seed, args.seconds,
                        bool(args.trace), binary)
    except (BenchError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
