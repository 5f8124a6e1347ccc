// ABL-COMP — ablation of the cross-layer design components (paper §4.2
// lists them; §5 "Maturing cross-layer prioritization" calls for exactly
// this kind of decomposition).
//
// At a fixed load (default 40 RPS per workload), runs the e-library mix
// under different subsets of the machinery, one arm each:
//   none             baseline (no cross-layer)
//   route_only       (a) priority replica routing, no qdisc, no marks
//   tc_only          (c) 95/5 TC qdiscs matching DSCP marks, no routing*
//   route_tc         the paper's prototype configuration
//   route_tc_scav    + (b) scavenger transport for low priority
//   route_strict_tc  strict-priority qdisc instead of 95/5
//   dscp_tc          (d-in-band) qdiscs classify on DSCP marks instead of
//                    pod IPs (works without dedicated replicas)
//   sdn              (d) out-of-band: the SDN coordinator programs the
//                    bottleneck from the sidecars' flow advertisements
//   scavenger_only   (b) alone
//
// *tc-only with dst-IP matching needs priority-routed replicas to be able
//  to tell classes apart — which is why the paper combines them; with
//  routing off we match on DSCP instead, isolating the queueing effect.

#include <string>
#include <vector>

#include "scenario.h"

namespace meshnet::bench {
namespace {

struct Variant {
  const char* id;
  bool enabled = true;  ///< false = plain baseline
  bool routing = false;
  bool tc = false;
  core::TcMatch match = core::TcMatch::kDstIp;
  bool strict = false;
  bool scavenger = false;
  bool dscp = true;
  bool sdn = false;  ///< out-of-band coordination (optimization d)
};

const Variant kVariants[] = {
    {"none", false},
    {"route_only", true, true, false},
    {"tc_only", true, false, true, core::TcMatch::kDscp},
    {"route_tc", true, true, true, core::TcMatch::kDstIp},
    {"route_tc_scav", true, true, true, core::TcMatch::kDstIp, false, true},
    {"route_strict_tc", true, true, true, core::TcMatch::kDstIp, true},
    {"dscp_tc", true, false, true, core::TcMatch::kDscp},
    {"sdn", true, true, false, core::TcMatch::kDstIp, false, false, false,
     true},
    // DSCP marking stays on: the mark is how the accepting transport
    // knows to answer with the scavenger controller (responses carry the
    // bytes); with tc off, the marks are inert at every queue.
    {"scavenger_only", true, false, false, core::TcMatch::kDstIp, false, true,
     true, false},
};

std::vector<Arm> arms(const Args& args) {
  workload::ElibraryExperimentConfig control;
  control.ls_rps = control.li_rps = args.real("rps");
  control.duration = args.duration();
  control.seed = args.seed();
  std::vector<Arm> arms;
  for (const Variant& v : kVariants) {
    workload::ElibraryExperimentConfig config = control;
    config.cross_layer = v.enabled;
    if (v.enabled) {
      core::CrossLayerConfig& cc = config.cross_layer_config;
      cc.priority_routing = v.routing;
      cc.tc_priority = v.tc;
      cc.tc_match = v.match;
      cc.strict_tc = v.strict;
      cc.scavenger_transport = v.scavenger;
      cc.dscp_tagging = v.dscp;
      config.sdn_out_of_band = v.sdn;
    }
    arms.push_back(elibrary_arm(v.id, {{"variant", v.id}}, std::move(config)));
  }
  return arms;
}

}  // namespace

const Scenario kAblationComponentsScenario = {
    .name = "ablation_components",
    .title = "ABL-COMP: contribution of each cross-layer component at a "
             "fixed RPS per workload.",
    .duration_s = 15,
    .seed = 42,
    .flags = {{"rps", FlagKind::kRealRounded, 1, "40", "rps"}},
    .arms = arms,
    .tables = {{.columns = {{"LS p50 (ms)", "ls_p50_ms"},
                            {"LS p99 (ms)", "ls_p99_ms"},
                            {"LI p50 (ms)", "li_p50_ms"},
                            {"LI p99 (ms)", "li_p99_ms"},
                            {"LS errs", "ls_errors"},
                            {"util", "bottleneck_utilization", 2}},
                .label = "variant"}},
};

}  // namespace meshnet::bench
