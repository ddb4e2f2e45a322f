// Bit-exact binary serialization of the pipeline's inputs and artifacts.
//
// This is the one place that serializes what a stage consumes or makes.
// The shared encoders below write a spec, the evaluation model and a
// topology; the shard wire (dist/protocol.cpp) ships specs and configs
// through them, and every CAS store address is built from their bytes: a
// spec prefix (fnv1a64 of enc_spec's bytes), then the stage key's own
// bytes (pipeline/session.h), which start with the stage's tag below and
// carry the topology as enc_topology writes it.
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

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sunfloor/cas/bincode.h"
#include "sunfloor/noc/evaluation.h"
#include "sunfloor/pipeline/artifacts.h"
#include "sunfloor/spec/parser.h"

namespace sunfloor::cas {

/// Stage tags: the first byte of an artifact's payload, and of its stage
/// key's bytes in a store address, so no blob decodes as another stage's
/// and no two stages' keys share bytes.
inline constexpr std::uint8_t kTagPartition = 'P';
inline constexpr std::uint8_t kTagRouting = 'R';
inline constexpr std::uint8_t kTagPlacement = 'L';
inline constexpr std::uint8_t kTagEvaluation = 'E';

// -------------------------------------------------------- shared encoders

/// The spec's name, every core (name, size, position, layer) and every
/// flow (ends, bandwidth, latency bound, class), doubles as their bits.
void enc_spec(Enc& e, const DesignSpec& s);
/// Appends the decoded cores and flows to `s`; false on a short read or
/// on data add_core/add_flow reject.
bool dec_spec(Dec& d, DesignSpec& s);

/// The evaluation model's two inputs: the frequency, then the flit
/// width. Its calibration values are constants in model/, in no address.
void enc_eval_params(Enc& e, const EvalParams& p);
EvalParams dec_eval_params(Dec& d);

/// Everything Topology::same_content compares: the core snapshots, the
/// switches, the links and the flow paths by flow id. Two topologies
/// have equal bytes exactly when they have the same content.
void enc_topology(Enc& e, const Topology& t);
/// Rebuilds the topology through its mutators; nullopt when the bytes
/// are short or a mutator rejects them.
std::optional<Topology> dec_topology(Dec& d, const DesignSpec& spec);

// -------------------------------------------------------------- artifacts

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
