"""Arithmetic of the repository benchmark, kept apart from the runner so
it can be tested on synthetic inputs (perfbench/test_perfbench.py).

- proc_delta: the cost of one phase from two process samples.
- self_times: per-span-name total and self time from a span set.
- ledger: each layer's share of run_s from its probe and its run count.
"""

# Every proxied request crosses three HTTP codec passes in each direction:
# caller app -> its sidecar, sidecar -> upstream sidecar, upstream sidecar
# -> upstream app, and back. Each pass serializes the message once and
# parses it once.
HTTP_PASSES_PER_REQUEST = 3

LAYERS = ("sim", "net", "transport", "http", "mesh", "obs", "cp")


def proc_delta(before, after):
    """Cost of the phase between two meshbench process samples."""
    user_s = (after["utime_us"] - before["utime_us"]) / 1e6
    sys_s = (after["stime_us"] - before["stime_us"]) / 1e6
    return {
        "wall_s": (after["wall_ns"] - before["wall_ns"]) / 1e9,
        "user_s": user_s,
        "sys_s": sys_s,
        "cpu_s": user_s + sys_s,
        "minor_faults": after["minflt"] - before["minflt"],
        "allocs": after["allocs"] - before["allocs"],
        "peak_rss_mb": after["hwm_kb"] / 1024.0,
    }


def count_delta(before, after):
    return {name: after[name] - before[name] for name in after}


def self_times(spans):
    """{name: {"count", "total_s", "self_s"}} over a span set.

    A span's self time is its duration minus the part of it that its
    direct children cover. Each span is a dict with name, start_ns, end_ns
    and parent (an index into `spans`, or -1).
    """
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(index)
    out = {}
    for index, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        kids = sorted((spans[k]["start_ns"], spans[k]["end_ns"])
                      for k in children.get(index, []))
        for kid_start, kid_end in kids:
            kid_start, kid_end = max(kid_start, cursor), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                cursor = kid_end
        entry = out.setdefault(span["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
    return out


def self_costs(probes):
    """Per-operation self cost in ns of each layer, from the probes.

    Each probe times its layer together with everything below it; the
    lower layers' probe costs, times the lower-layer work one operation
    caused, are subtracted. A negative remainder (the lower probes
    over-explain the upper one) is reported as 0.
    """
    sim = probes["probe.sim"]["ns"]
    net = probes["probe.net"]
    transport = probes["probe.transport"]
    transport_small = probes["probe.transport.small"]
    large = probes["probe.http.parse_large"]
    http_head = HTTP_PASSES_PER_REQUEST * (
        probes["probe.http.parse_small"]["ns"]
        + 2 * probes["probe.http.serialize"]["ns"])
    http_per_byte = large["ns"] / large["bytes"]
    obs = probes["probe.obs"]["ns"]
    net_self = max(0.0, net["ns"] - net["events"] * sim)
    transport_self = max(0.0,
                         transport["ns"] - transport["packets"] * net["ns"])
    # The mesh hop moves small messages, so it is charged the small-message
    # transport cost; the run's segments are charged the largest body's.
    small_self = max(0.0, transport_small["ns"]
                     - transport_small["packets"] * net["ns"])
    hop = probes["probe.mesh"]
    # Likewise its responses are parsed at the typical body's cost.
    typical = (HTTP_PASSES_PER_REQUEST
               * probes["probe.http.parse_typical"]["ns"])
    below = (hop["events"] * sim + hop["packets"] * net_self
             + hop["segments"] * small_self + http_head + typical + obs)
    return {
        "sim": sim,
        "net": net_self,
        "transport": transport_self,
        "http_head": http_head,
        "http_per_byte": http_per_byte,
        "mesh": max(0.0, hop["ns"] - below),
        "obs": obs,
        "cp": probes["probe.cp"]["ns"],
    }


def ledger(counts, probes, run_s):
    """{layer: share of run_s} plus "residual" = 1 - sum of the shares.

    `counts` are the run phase's per-layer counts (meshbench names);
    cp work is every sidecar recompiled for every epoch minted.
    """
    cost = self_costs(probes)
    requests = counts["mesh.requests"]
    work_ns = {
        "sim": counts["sim.events"] * cost["sim"],
        "net": counts["net.packets"] * cost["net"],
        "transport": counts["transport.segments"] * cost["transport"],
        "http": (requests * cost["http_head"]
                 + counts["transport.bytes_received"] * cost["http_per_byte"]),
        "mesh": requests * cost["mesh"],
        "obs": requests * cost["obs"],
        "cp": counts["cp.epochs"] * counts["cp.sidecars"] * cost["cp"],
    }
    run_ns = run_s * 1e9
    shares = {layer: work_ns[layer] / run_ns for layer in LAYERS}
    shares["residual"] = 1.0 - sum(shares.values())
    return shares
