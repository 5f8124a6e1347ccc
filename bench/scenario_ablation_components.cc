// ABL-COMP — ablation of the cross-layer design components (paper §4.2
// lists them; §5 "Maturing cross-layer prioritization" calls for exactly
// this kind of decomposition).
//
// At a fixed load (default 40 RPS per workload), runs the e-library mix
// under different subsets of the machinery:
//   none            baseline (no cross-layer)
//   route-only      (a) priority replica routing, no qdisc, no marks
//   tc-only         (c) 95/5 TC qdiscs matching pod IPs, no routing*
//   route+tc        the paper's prototype configuration
//   route+tc+scav   + (b) scavenger transport for low priority
//   route+strict    strict-priority qdisc instead of 95/5
//   dscp+tc         (d-in-band) qdiscs classify on DSCP marks instead of
//                   pod IPs (works without dedicated replicas)
//
// *tc-only with dst-IP matching needs priority-routed replicas to be able
//  to tell classes apart — which is why the paper combines them; with
//  routing off we match on DSCP instead, isolating the queueing effect.
//
// Each variant is an independent sweep point (--threads fans them out).

#include <cstdio>
#include <string>
#include <vector>

#include "scenario.h"
#include "stats/table.h"
#include "workload/elibrary_experiment.h"

namespace meshnet::bench {
namespace {

struct Variant {
  std::string name;
  std::string id;  ///< stable short id for the JSON report
  bool enabled = true;  ///< false = plain baseline
  bool routing = false;
  bool tc = false;
  core::TcMatch match = core::TcMatch::kDstIp;
  bool strict = false;
  bool scavenger = false;
  bool dscp = true;
  bool sdn = false;  ///< out-of-band coordination (optimization d)
};

}  // namespace

Outcome run_ablation_components(const Args& args,
                                workload::SweepRunner& runner) {
  const double rps = args.real("rps");
  const auto duration = args.duration();
  const auto seed = args.seed();

  std::printf(
      "ABL-COMP: contribution of each cross-layer component at %.0f RPS "
      "per workload.\n\n", rps);

  const std::vector<Variant> variants = {
      {"none (baseline)", "none", false},
      {"route-only", "route_only", true, true, false},
      {"tc-only (dscp match)", "tc_only", true, false, true,
       core::TcMatch::kDscp},
      {"route+tc (paper proto)", "route_tc", true, true, true,
       core::TcMatch::kDstIp},
      {"route+tc+scavenger", "route_tc_scav", true, true, true,
       core::TcMatch::kDstIp, false, true},
      {"route+strict-tc", "route_strict_tc", true, true, true,
       core::TcMatch::kDstIp, true},
      {"dscp+tc (no subsets)", "dscp_tc", true, false, true,
       core::TcMatch::kDscp},
      {"sdn out-of-band", "sdn", true, true, false, core::TcMatch::kDstIp,
       false, false, false, true},
      // DSCP marking stays on: the mark is how the accepting transport
      // knows to answer with the scavenger controller (responses carry
      // the bytes); with tc off, the marks are inert at every queue.
      {"scavenger-only", "scavenger_only", true, false, false,
       core::TcMatch::kDstIp, false, true, true, false},
  };

  for (const Variant& v : variants) {
    runner.add({{"variant", v.id}}, [&v, rps, duration, seed] {
      workload::ElibraryExperimentConfig config;
      config.ls_rps = rps;
      config.li_rps = rps;
      config.duration = duration;
      config.seed = seed;
      config.cross_layer = v.enabled;
      if (v.enabled) {
        auto& cc = config.cross_layer_config;
        cc.priority_routing = v.routing;
        cc.tc_priority = v.tc;
        cc.tc_match = v.match;
        cc.strict_tc = v.strict;
        cc.scavenger_transport = v.scavenger;
        cc.dscp_tagging = v.dscp;
        config.sdn_out_of_band = v.sdn;
      }
      return workload::elibrary_point_metrics(
          workload::run_elibrary_experiment(config));
    });
  }
  const workload::SweepResult sweep = runner.run();

  stats::Table table({"variant", "LS p50 (ms)", "LS p99 (ms)",
                      "LI p50 (ms)", "LI p99 (ms)", "LS errs", "util"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const workload::PointMetrics& m = sweep.points[i].metrics;
    const auto ms = [&m](const char* key) {
      return stats::Table::num(m.scalars.at(key), 1);
    };
    table.add_row(
        {variants[i].name, ms("ls_p50_ms"), ms("ls_p99_ms"), ms("li_p50_ms"),
         ms("li_p99_ms"), std::to_string(m.counters.at("ls_errors")),
         stats::Table::num(m.scalars.at("bottleneck_utilization"), 2)});
  }

  std::printf("%s\n", table.to_string().c_str());
  return {sweep, {}};
}

}  // namespace meshnet::bench
