// Text-format parser for the input files of Section IV.
//
// One file carries both the core specification and the communication
// specification. Grammar (line oriented, '#' starts a comment):
//
//   core <name> <width_mm> <height_mm> <x_mm> <y_mm> <layer>
//   flow <src_core> <dst_core> <bw_mbps> <max_latency_cycles> <req|rsp>
//
// Sizes are positive, x and y (the lower-left corner) non-negative: a
// floorplan lives in the first quadrant.
//
// Example:
//   core arm0 1.2 1.0  0.0 0.0  0
//   core mem0 0.8 0.8  1.3 0.0  1
//   flow arm0 mem0 400 6 req
//   flow mem0 arm0 400 8 rsp
#pragma once

#include <iosfwd>
#include <string>

#include "sunfloor/spec/comm_spec.h"
#include "sunfloor/spec/core_spec.h"

namespace sunfloor {

/// Parsed design input.
struct DesignSpec {
    std::string name = "design";
    CoreSpec cores;
    CommSpec comm;
};

/// Outcome of a parse; on failure `error` names the line and problem
/// (malformed or non-finite numbers, negative core coordinates,
/// undeclared cores, out-of-range layers, duplicate core or flow
/// declarations).
struct ParseResult {
    bool ok = false;
    DesignSpec spec;
    std::string error;
};

/// Parse from a stream.
ParseResult parse_design(std::istream& is, const std::string& name = "design");

/// Parse from a file path.
ParseResult parse_design_file(const std::string& path);

/// Serialize a design back into the same text format (round-trips through
/// parse_design).
void write_design(std::ostream& os, const DesignSpec& spec);

}  // namespace sunfloor
