// Format-based text renderers of a double's bits and of a topology's
// content: every double through format("%016llx") of its bits, every
// link through one format call. double_bits (util/strings.h) must render
// the same digits; the topology text is what output_digest_test hashes
// for every design point, so a topology change shows in its digests.
#pragma once

#include <string>

#include "sunfloor/noc/topology.h"

namespace sunfloor::oracle {

/// format("%016llx") of the double's bit pattern.
std::string double_bits_reference(double v);

/// Every field Topology::same_content compares: "co:" and each core's
/// layer@x,y; "sw:" and each switch's name/layer@x,y; "lk:" and each
/// link's ends, class and bandwidth; "fl:" and each flow's link ids.
std::string topology_fingerprint_reference(const Topology& topo);

}  // namespace sunfloor::oracle
