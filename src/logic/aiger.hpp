// AIGER import/export (ascii `aag` and binary `aig`, format of the AIGER
// utilities / HWMCC).
//
// Export renumbers variables the canonical AIGER way - inputs first
// (vars 1..I in PI order), then AND gates in node-creation (topological)
// order - and writes each AND as lhs > rhs0 >= rhs1, so a file we wrote
// re-imports to an identically numbered AIG and re-exports byte-for-byte.
// That round-trip identity is what lets `matador prove --miter-out` hand a
// miter to external checkers and `matador aig export|import` assert the
// file was not mangled.
//
// Import accepts both formats (sniffed from the magic), tolerates symbol
// tables and comments, and rejects latches (the miter flow is purely
// combinational - the sequential chain is unrolled before export).
// Imported AIGs are built without structural hashing unless asked, so
// duplicated gates in the file stay duplicated; constant folding still
// applies, so a file containing foldable gates (constant or equal fanins)
// imports to the smaller, equivalent AIG.
#pragma once

#include <cstdint>
#include <string>

#include "logic/aig.hpp"

namespace matador::logic {

/// Ascii AIGER document ("aag M I 0 O A" header).
std::string write_aiger_ascii(const Aig& aig);
/// Binary AIGER document ("aig" header, delta-varint AND encoding).
std::string write_aiger_binary(const Aig& aig);
/// Write by extension: ".aag" => ascii, anything else => binary.
void write_aiger_file(const Aig& aig, const std::string& path);

/// Largest header M read_aiger accepts (in the binary format M = I + A,
/// so this caps binary inputs too, which take no bytes in the file).  The
/// whole-design miter of the flow-mnist reference model has M = 28,061;
/// this is about 150 times that, and importing that many inputs peaks
/// at about 115 MB.
inline constexpr std::uint32_t kAigerMaxVariables = 1u << 22;

/// Parse an AIGER document (either format, sniffed from the magic).
/// Throws std::runtime_error with a position on malformed input, future
/// features (latches), undefined literals, or header counts that the
/// document's size cannot hold or that exceed kAigerMaxVariables - all
/// checked before any table is sized from them.  `strash` is the imported
/// AIG's structural-hashing flag: a file written from an AIG built with
/// strash (all inputs created before any AND) reads back with the same
/// node numbers and the same flag, so it behaves as the original did.
Aig read_aiger(const std::string& data, bool strash = false);
Aig read_aiger_file(const std::string& path);

}  // namespace matador::logic
