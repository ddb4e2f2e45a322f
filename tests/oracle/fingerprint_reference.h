// The stage-key text renderers as they were first written: every double
// through format("%016llx") of its bits, every link through one format
// call. pipeline::topology_fingerprint, double_bits and RngState::key now
// write their hex digits directly; tests require the same bytes, since
// these strings are CAS addresses and a moved byte orphans a store.
#pragma once

#include <string>

#include "sunfloor/noc/topology.h"
#include "sunfloor/util/rng.h"

namespace sunfloor::oracle {

/// format("%016llx") of the double's bit pattern.
std::string double_bits_reference(double v);

/// snprintf("%016llx" x 4) of the generator state.
std::string rng_key_reference(const RngState& state);

/// Same contract as pipeline::topology_fingerprint.
std::string topology_fingerprint_reference(const Topology& topo);

}  // namespace sunfloor::oracle
