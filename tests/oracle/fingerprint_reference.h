// The stage-key text renderers as they were first written: every double
// through format("%016llx") of its bits, every link through one format
// call, and the partition and routing keys as the session once built
// them inline, as the cache key itself. pipeline::topology_fingerprint,
// double_bits and RngState::key now write their hex digits directly, and
// the partition and routing caches key on structs whose text() renders
// the key only for a store; tests require the same bytes, since these
// strings are CAS addresses and a moved byte orphans a store.
#pragma once

#include <string>

#include "sunfloor/core/design_point.h"
#include "sunfloor/noc/topology.h"
#include "sunfloor/pipeline/artifacts.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::oracle {

/// format("%016llx") of the double's bit pattern.
std::string double_bits_reference(double v);

/// snprintf("%016llx" x 4) of the generator state.
std::string rng_key_reference(const RngState& state);

/// Same contract as pipeline::topology_fingerprint.
std::string topology_fingerprint_reference(const Topology& topo);

/// A partition key's text: "pt|<graph>|a=<alpha>;ns=..;rf=..;mb=..;mp=..|
/// k=<k>|r=<rng>" (same contract as pipeline::PartitionKey::text).
std::string partition_key_reference(const pipeline::PartitionGraphId& graph,
                                    double alpha, const PartitionOptions& opts,
                                    int k, const RngState& rng);

/// A routing key's text: "rt|cs=<core_switch>;sl=<switch_layer>|" +
/// `routing_cfg`, which is routing_cfg_key's text (same contract as
/// pipeline::RoutingKey::text).
std::string routing_key_reference(const CoreAssignment& assign,
                                  const std::string& routing_cfg);

}  // namespace sunfloor::oracle
