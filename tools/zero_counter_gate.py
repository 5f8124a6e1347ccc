#!/usr/bin/env python3
"""Zero-counter gate: a counter that never moves is a witness or has a reason.

    python3 tools/zero_counter_gate.py
    python3 tools/zero_counter_gate.py --baselines=DIR --list=FILE

Reads only the committed reports (`bench/baselines/BENCH_*.json`). A
counter name is every key of a point's `counters`, plus every series of
kind `counter` in the report's `metrics` block with its labels stripped
(`cp_push_nacks_total{service=x}` counts as `cp_push_nacks_total`). A name
that is 0 in every report carrying it must be listed in
`bench/baselines/zero_counters.txt`, one per line, as either

    NAME  witness: <the failure it counts, which must stay 0>
    NAME  idle: <why the mechanism stays although no run makes it act>

The coverage gate sees code that never runs; this one sees code that runs
but whose counter never leaves 0. It exits 1 on an unlisted zero counter,
on a listed name that is non-zero in some report (a witness that fired,
or an idle mechanism that now acts, so its entry is stale), and on a
listed name no report carries any more.
"""

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(ROOT, "bench", "baselines")
ZERO_LIST = os.path.join(BASELINES, "zero_counters.txt")
KINDS = ("witness", "idle")


def counter_values(report):
    """Yields (name, where, value) for every counter in one report."""
    for point in report.get("points", []):
        for name, value in point.get("counters", {}).items():
            yield name, point.get("id", "?"), value
    for key, series in report.get("metrics", {}).get("series", {}).items():
        if series.get("kind") == "counter":
            yield key.partition("{")[0], key, series.get("value", 0)


def collect(reports):
    """{name: [(report, where, value), ...]} over `{report name: report}`."""
    seen = {}
    for report_name in sorted(reports):
        for name, where, value in counter_values(reports[report_name]):
            seen.setdefault(name, []).append((report_name, where, value))
    return seen


def read_list(path):
    """{name: (kind, reason)}; exits on a malformed line."""
    listed = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, rest = line.partition(" ")
            kind, sep, reason = rest.strip().partition(":")
            if kind not in KINDS or not sep or not reason.strip():
                sys.exit(f"{path}:{number}: expected `NAME  witness: ...` or "
                         f"`NAME  idle: ...`")
            if name in listed:
                sys.exit(f"{path}:{number}: {name} listed twice")
            listed[name] = (kind, reason.strip())
    return listed


def gate(seen, listed):
    """Returns the list of failure messages (empty when the gate passes)."""
    failures = []
    for name in sorted(seen):
        moved = [s for s in seen[name] if s[2] != 0]
        if name not in listed:
            if not moved:
                where = sorted({r for r, _, _ in seen[name]})
                failures.append(
                    f"counter is 0 in every baseline: {name} "
                    f"({', '.join(where)}); give it a run that moves it, "
                    f"delete it, or list it as witness or idle")
            continue
        if moved:
            report, where, value = moved[0]
            kind = listed[name][0]
            what = ("witness fired" if kind == "witness"
                    else "idle counter now acts, so its entry is stale")
            failures.append(f"{what}: {name} = {value:g} in {report} "
                            f"({where})")
    for name in sorted(listed):
        if name not in seen:
            failures.append(f"listed counter no longer in any baseline: "
                            f"{name}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baselines", default=BASELINES,
                        help="directory of committed BENCH_*.json reports")
    parser.add_argument("--list", default=ZERO_LIST,
                        help="the witness/idle list")
    args = parser.parse_args(argv)

    reports = {}
    for path in sorted(glob.glob(os.path.join(args.baselines,
                                              "BENCH_*.json"))):
        with open(path) as f:
            reports[os.path.basename(path)] = json.load(f)
    if not reports:
        sys.exit(f"no BENCH_*.json under {args.baselines}")
    seen = collect(reports)
    listed = read_list(args.list)
    failures = gate(seen, listed)
    zero = sum(1 for v in seen.values() if all(s[2] == 0 for s in v))
    witnesses = sum(1 for kind, _ in listed.values() if kind == "witness")
    print(f"{len(reports)} baselines, {len(seen)} counter names, {zero} "
          f"always 0; {witnesses} witnesses and "
          f"{len(listed) - witnesses} idle listed")
    for message in failures:
        print(message)
    print("zero-counter gate: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
