// Bit-exact binary serialization of pipeline artifacts for the CAS.
//
// Every encode_* renders the artifact's complete content — doubles as
// their raw bit patterns, vectors length-prefixed, all integers
// little-endian — so encode(decode(encode(x))) == encode(x) byte for byte
// on any platform (property-tested in cas_test.cpp). The topology-bearing
// artifacts decode against the owning DesignSpec: a Topology has no
// default constructor and its mutators validate paths against the spec's
// flows, so decoding re-runs the same invariants construction did.
//
// A topology decodes in one pass: each switch and link goes straight
// into the Topology as it is read, and every flow path is read into one
// reused buffer and handed to set_flow_path, so nothing is staged before
// the first mutator runs. An evaluation served from the store names the
// placed topology its stage key already holds (decode_evaluation's
// `placed`): its topology section must then equal that topology's
// encoding byte for byte, and the design shares it instead of decoding a
// copy, as a computed evaluation does. The dist coordinator, which holds
// no placed topology, decodes the section in full.
//
// decode_* returns nullopt on any malformed input (truncation, trailing
// garbage, out-of-range indices, invariant violations, a topology section
// other than `placed`'s) — the session treats that like a store miss: it
// recomputes, replaces the object and counts it in cas.undecodable. The
// routing and placement decoders set the artifact's topo_hash, as the
// stages that create them do.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "sunfloor/pipeline/artifacts.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::cas {

/// The blocks, cut weight, k and RNG state; not the carried assignment,
/// which the session derives again from the blocks.
std::string encode_partition(const pipeline::PartitionArtifact& a);
/// A cut of a `num_vertices`-vertex graph into `k` blocks, or nullopt —
/// also when the blob's k, block count or any block entry (outside
/// [0, k)) disagrees with the call's. Carries no assignment.
std::optional<pipeline::PartitionArtifact> decode_partition(
    std::string_view blob, int k, int num_vertices);

std::string encode_routing(const pipeline::RoutingArtifact& a);
std::optional<pipeline::RoutingArtifact> decode_routing(
    std::string_view blob, const DesignSpec& spec);

std::string encode_placement(const pipeline::PlacementArtifact& a);
std::optional<pipeline::PlacementArtifact> decode_placement(
    std::string_view blob, const DesignSpec& spec);

std::string encode_evaluation(const pipeline::EvaluatedDesign& a);
/// With `placed`, the design shares that topology, and a blob whose
/// topology section is not exactly its encoding is malformed.
std::optional<pipeline::EvaluatedDesign> decode_evaluation(
    std::string_view blob, const DesignSpec& spec,
    const SharedTopology* placed = nullptr);

}  // namespace sunfloor::cas
