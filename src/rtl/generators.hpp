// RTL generators: TrainedModel + ArchParams -> complete accelerator design.
//
// Produces the block diagram of Fig. 5 as synthesisable Verilog-2001:
//   * hcb_<k>_comb : pure combinational partial-clause logic, written as
//                    text straight from the HCB's AIG (round-trippable
//                    through the structural parser),
//   * hcb_<k>      : sequential wrapper with the Clause Out register,
//   * class_sum    : per-class polarity-split adder trees, pipelined,
//   * argmax_tree  : binary comparison tree, pipelined, ties to lower index,
//   * matador_ctrl : AXI-stream control FSM (reset / stall / compute / idle),
//   * matador_top  : the full core wiring packet routing to HCBs.
#pragma once

#include <string>
#include <vector>

#include "model/architecture.hpp"
#include "model/trained_model.hpp"
#include "rtl/hcb_builder.hpp"
#include "rtl/verilog_ast.hpp"

namespace matador::rtl {

/// The complete generated design plus the metadata verification needs.
struct RtlDesign {
    model::ArchParams arch;
    ClauseSchedule schedule;
    std::vector<HcbNetlist> hcbs;   ///< the AIGs behind the comb modules

    std::vector<std::string> hcb_comb;  ///< hcb_<k>_comb's Verilog text
    std::vector<Module> hcb_seq;        ///< hcb_<k>
    Module class_sum;
    Module argmax;
    Module controller;
    Module top;
};

/// Generate the full design.  `strash` toggles logic sharing in the HCB
/// AIGs (false emulates the DON'T_TOUCH flow of Fig. 8).
RtlDesign generate_rtl(const model::TrainedModel& m, const model::ArchParams& arch,
                       bool strash = true);

/// Assemble the full design from *prebuilt* HCB netlists (e.g. rehydrated
/// from the artifact store's disk tier), skipping the expensive
/// build_hcbs step.  Module emission is deterministic: given the same
/// netlists and architecture this produces byte-identical RTL to
/// generate_rtl.
RtlDesign assemble_rtl(const model::TrainedModel& m, const model::ArchParams& arch,
                       std::vector<HcbNetlist> hcbs, bool strash = true);

/// The shell of HCB k's combinational module: its name (hcb_<k>_comb),
/// header comments, DONT_TOUCH attribute and ports, with no body.  It is
/// the interface hcb_<k> instantiates (lint scopes it as such).
Module hcb_comb_shell(const HcbNetlist& hcb, std::size_t k, bool dont_touch = false);

/// HCB k's combinational module as Verilog text, written straight from its
/// AIG: the shell's header, then one `wire n<id>;` and one
/// `assign n<id> = <lit> & <lit>;` per PO-reachable AND node in id order,
/// then `assign pc[i] = <lit>;` per output.  A literal is packet[b],
/// chain_in[j], n<id> or 1'b0, with `~` when complemented.
std::string emit_hcb_comb(const HcbNetlist& hcb, std::size_t k, bool dont_touch = false);

/// Write every module of the design into `dir` (one .v file per module).
/// Returns the written file paths.
std::vector<std::string> write_design(const RtlDesign& design, const std::string& dir);

}  // namespace matador::rtl
