#!/usr/bin/env python3
"""Coverage gate: every src/ function some experiment runs, or a listed reason.

    python3 tools/coverage_gate.py --build=build-cov --bench-build=build-cov-bench
    python3 tools/coverage_gate.py ... --no-run      # gate the counts already on disk

Both trees must be built with `--coverage` (Debug, so lines map 1:1):

    cmake -S . -B build-cov -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
    cmake --build build-cov -j --target meshsim bench_check quickstart \\
      resilience elibrary_priority tracing_observability
    cmake -S perfbench -B build-cov-bench -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS=--coverage
    cmake --build build-cov-bench -j --target meshbench

The script deletes old counts, runs every experiment (the eleven meshsim
scenarios, the four examples, the three meshbench workloads untraced and
with --trace --probes, and bench_check on every report written), then reads
`gcov --json-format` from both trees. A function's key is
`src/FILE: qualified::name`, with no line, parameters or template arguments,
so overloads and instantiations at one definition merge; a key is zero-hit
only when all of them are. It exits 1 when a zero-hit key is missing from
the allowlist, or when a listed key is called or no longer exists. The
allowlist holds one `key  # reason` per line.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "bench", "baselines", "coverage_allowlist.txt")

# Short scenarios run for one simulated second; cp, mtls and chaos_elibrary
# run at their default lengths, since shorter runs end before their fault
# and recovery phases.
SHORT_SCENARIOS = ["fig4", "overload", "sidecar_overhead",
                   "ablation_components", "lb_policies", "compute_priority",
                   "scavenger", "meshscale"]
FULL_SCENARIOS = ["cp", "mtls", "chaos_elibrary"]
EXAMPLES = ["quickstart", "resilience", "elibrary_priority",
            "tracing_observability"]
WORKLOADS = ["elibrary_bulk", "config_churn", "fanout_small"]
THREADS = "--threads=4"  # the same thread-pool paths on any runner


def experiments(build, bench_build):
    """(label, argv, report or None) for every run the gate counts."""
    meshsim = os.path.join(build, "bench", "meshsim")
    runs = []
    for name in SHORT_SCENARIOS + FULL_SCENARIOS:
        report = os.path.join(build, f"BENCH_{name}.json")
        argv = [meshsim, f"--scenario={name}", THREADS, f"--json-out={report}"]
        if name in SHORT_SCENARIOS:
            argv.append("--duration=1")
        if name == "fig4":
            argv.append("--csv")
        runs.append((name, argv, report))
    for name in EXAMPLES:
        runs.append((name, [os.path.join(build, "examples", name)], None))
    meshbench = os.path.join(bench_build, "meshbench")
    for name in WORKLOADS:
        argv = [meshbench, f"--workload={name}", "--seed=16", "--scale=0.1"]
        runs.append((f"meshbench {name}", argv, None))
        runs.append((f"meshbench {name} traced", argv + ["--trace", "--probes"],
                     None))
    return runs


def run_experiments(build, bench_build):
    for tree in (build, bench_build):
        for d, _, files in os.walk(tree):
            for f in files:
                if f.endswith(".gcda"):
                    os.remove(os.path.join(d, f))
    bench_check = os.path.join(build, "tools", "bench_check")
    for label, argv, report in experiments(build, bench_build):
        start = time.monotonic()
        steps = [argv]
        if report is not None:  # bench_check exits 1 on a failed comparison
            steps.append([bench_check, f"--baseline={report}",
                          f"--current={report}"])
        for step in steps:
            run = subprocess.run(step, stdin=subprocess.DEVNULL,
                                 capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{' '.join(step)} exited {run.returncode}:\n"
                         f"{run.stdout[-2000:]}{run.stderr[-2000:]}")
        print(f"ran {label} ({time.monotonic() - start:.0f} s)", flush=True)


def gcov_documents(tree):
    gcdas = sorted(os.path.abspath(os.path.join(d, f))
                   for d, _, fs in os.walk(tree) for f in fs
                   if f.endswith(".gcda"))
    if not gcdas:
        sys.exit(f"no .gcda files under {tree}: build with --coverage and run")
    out = subprocess.run(["gcov", "--json-format", "--stdout", *gcdas],
                         capture_output=True, text=True, check=True,
                         cwd=tree).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _strip_templates(text):
    """Drops every <...> group, keeping the `<` and `>` of operator names."""
    out, depth, i = [], 0, 0
    while i < len(text):
        op = re.match(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)", text[i:])
        if op and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            if depth == 0:
                out.append(op.group(0))
            i += len(op.group(0))
            continue
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def _strip_parens(text):
    """Drops every (...) group; `operator()` keeps its name."""
    out, depth = [], 0
    for c in text.replace("operator()", "operator\x00"):
        if c == "(":
            depth += 1
        elif c == ")" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out).replace("\x00", "()")


def qualified_name(demangled):
    """`R ns::C<T>::f<U>(A) const` -> `ns::C::f`."""
    anonymous = "(anonymous namespace)"
    name = re.sub(r"\[abi:[^\]]*\]", "", demangled).replace(anonymous, "\x01")
    name = _strip_parens(_strip_templates(name))
    # Member qualifiers, also those of an enclosing function (`f() const::`).
    name = re.sub(r"\s+(const|volatile|&&|&)(?=::|\s|$)", "", name.strip())
    # The qualified name is the last space-free token, except that
    # conversion operators and operator new/delete carry spaces.
    m = re.search(r"(\S*::)?operator\s+\w.*$", name)
    name = m.group(0) if m else name.split()[-1]
    return name.replace("\x01", anonymous)


def function_calls(documents, src_root):
    """{key: (calls summed over instantiations and trees, first line)}."""
    src = os.path.join(os.path.abspath(src_root), "src") + os.sep
    calls = collections.Counter()
    lines = {}
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.abspath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = "src/" + path[len(src):]
            for fn in f["functions"]:
                key = f"{rel}: {qualified_name(fn['demangled_name'])}"
                calls[key] += fn["execution_count"]
                line = fn["start_line"]
                lines[key] = min(lines.get(key, line), line)
    return {key: (calls[key], lines[key]) for key in calls}


def zero_lines(documents, src_root):
    src = os.path.join(os.path.abspath(src_root), "src") + os.sep
    hits = collections.Counter()
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = os.path.abspath(os.path.join(cwd, f["file"]))
            if path.startswith(src):
                for ln in f["lines"]:
                    hits[(path, ln["line_number"])] += ln["count"]
    return sum(1 for count in hits.values() if count == 0)


def read_allowlist(path):
    """{key: reason}; exits on a line without a reason."""
    allowed = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, reason = line.partition("  # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}:{number}: entry has no `  # reason`")
            allowed[key.strip()] = reason.strip()
    return allowed


def gate(functions, allowed):
    """Returns the list of failure messages (empty when the gate passes)."""
    failures = []
    for key in sorted(functions):
        calls, line = functions[key]
        if calls == 0 and key not in allowed:
            file, _, name = key.partition(": ")
            failures.append(f"{file}:{line}: never run by any experiment: "
                            f"{name} (add an experiment or list `{key}`)")
    for key in sorted(allowed):
        if key not in functions:
            failures.append(f"allowlist entry no longer exists: {key}")
        elif functions[key][0] > 0:
            failures.append(f"allowlist entry is now called "
                            f"{functions[key][0]} times: {key}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default="build-cov",
                        help="coverage build of the repo (meshsim, examples)")
    parser.add_argument("--bench-build", default="build-cov-bench",
                        help="coverage build of perfbench/ (meshbench)")
    parser.add_argument("--allowlist", default=ALLOWLIST)
    parser.add_argument("--no-run", action="store_true",
                        help="gate the counts already written")
    parser.add_argument("--list-zero", action="store_true",
                        help="print every zero-hit key, listed or not")
    args = parser.parse_args(argv)

    if not args.no_run:
        run_experiments(args.build, args.bench_build)
    documents = gcov_documents(args.build) + gcov_documents(args.bench_build)
    functions = function_calls(documents, ROOT)
    zero = sorted(k for k, (calls, _) in functions.items() if calls == 0)
    sites = {(k.partition(": ")[0], functions[k][1]) for k in zero}
    if args.list_zero:
        for key in zero:
            print(key)
    allowed = read_allowlist(args.allowlist)
    failures = gate(functions, allowed)
    print(f"{len(functions)} src/ functions, {len(zero)} zero-hit at "
          f"{len(sites)} sites, {zero_lines(documents, ROOT)} zero-hit lines; "
          f"{len(allowed)} allowlist entries")
    for message in failures:
        print(message)
    print("coverage gate: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
