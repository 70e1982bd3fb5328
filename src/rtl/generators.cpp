#include "rtl/generators.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "rtl/verilog_writer.hpp"

namespace matador::rtl {

using logic::Aig;
using logic::Lit;

Module hcb_comb_shell(const HcbNetlist& hcb, std::size_t k, bool dont_touch) {
    const std::size_t packet_bits = hcb.spec.hi - hcb.spec.lo;
    const std::size_t n_chain = hcb.aig.num_pis() - packet_bits;
    const std::size_t n_out = hcb.aig.num_pos();

    Module m;
    m.name = "hcb_" + std::to_string(k) + "_comb";
    m.dont_touch = dont_touch;
    m.header_comments = {
        "Hard Coded Clause Block " + std::to_string(hcb.spec.packet) +
            " - combinational partial clauses",
        "input feature range [" + std::to_string(hcb.spec.lo) + ", " +
            std::to_string(hcb.spec.hi) + ")",
        "generated by MATADOR; AND/NOT logic only"};

    m.ports.push_back({"packet", int(packet_bits), PortDir::kInput, false});
    if (n_chain > 0)
        m.ports.push_back({"chain_in", int(n_chain), PortDir::kInput, false});
    // A packet range no clause includes leaves an HCB with no partials at
    // all (pure wire-through stage); such a module has no outputs.
    if (n_out > 0) m.ports.push_back({"pc", int(n_out), PortDir::kOutput, false});
    return m;
}

std::string emit_hcb_comb(const HcbNetlist& hcb, std::size_t k, bool dont_touch) {
    const Aig& aig = hcb.aig;
    const std::size_t packet_bits = hcb.spec.hi - hcb.spec.lo;

    // The PO-reachable AND nodes.  Fanins precede fanouts, so one sweep
    // down the node ids marks every cone.
    std::vector<char> reachable(aig.num_nodes(), 0);
    for (const Lit po : aig.pos()) reachable[logic::lit_node(po)] = 1;
    std::vector<std::uint32_t> ands;
    for (std::uint32_t n = std::uint32_t(aig.num_nodes()); n-- > 1;) {
        if (!reachable[n] || !aig.is_and(n)) continue;
        reachable[logic::lit_node(aig.node_fanin0(n))] = 1;
        reachable[logic::lit_node(aig.node_fanin1(n))] = 1;
        ands.push_back(n);
    }
    std::reverse(ands.begin(), ands.end());

    // Packet-bit PIs are packet[b], chain PIs chain_in[j], AND nodes n<id>.
    std::string text = emit_module_header(hcb_comb_shell(hcb, k, dont_touch));
    const auto lit = [&](Lit l) {
        if (logic::lit_complement(l)) text += '~';
        const std::uint32_t n = logic::lit_node(l);
        if (n == 0) {
            text += "1'b0";
        } else if (aig.is_pi(n)) {
            const std::size_t pi = aig.pi_index(n);
            text += pi < packet_bits ? "packet[" + std::to_string(pi)
                                     : "chain_in[" + std::to_string(pi - packet_bits);
            text += ']';
        } else {
            text += 'n' + std::to_string(n);
        }
    };
    for (const std::uint32_t n : ands) text += "  wire n" + std::to_string(n) + ";\n";
    if (!ands.empty()) text += '\n';
    for (const std::uint32_t n : ands) {
        text += "  assign n" + std::to_string(n) + " = ";
        lit(aig.node_fanin0(n));
        text += " & ";
        lit(aig.node_fanin1(n));
        text += ";\n";
    }
    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
        text += "  assign pc[" + std::to_string(i) + "] = ";
        lit(aig.po(i));
        text += ";\n";
    }
    if (aig.num_pos() > 0) text += '\n';
    text += "endmodule\n";
    return text;
}

namespace {

Module generate_hcb_seq_module(const HcbNetlist& hcb, std::size_t k) {
    const std::size_t packet_bits = hcb.spec.hi - hcb.spec.lo;
    const std::size_t n_chain = hcb.aig.num_pis() - packet_bits;
    const std::size_t n_out = hcb.aig.num_pos();

    Module m;
    m.name = "hcb_" + std::to_string(k);
    m.header_comments = {"HCB " + std::to_string(k) +
                         " - registers the partial clause outputs (Clause Out)"};
    m.ports.push_back({"clk", 1, PortDir::kInput, false});
    m.ports.push_back({"en", 1, PortDir::kInput, false});
    m.ports.push_back({"packet", int(packet_bits), PortDir::kInput, false});
    if (n_chain > 0)
        m.ports.push_back({"chain_in", int(n_chain), PortDir::kInput, false});
    if (n_out > 0) {
        m.ports.push_back({"pc_out", int(n_out), PortDir::kOutput, true});
        m.nets.push_back(
            {"pc_comb", int(n_out), false, false, "combinational partials"});
    }

    Instance inst;
    inst.module_name = m.name + "_comb";
    inst.instance_name = "u_comb";
    inst.connections.emplace_back("packet", ref("packet"));
    if (n_chain > 0) inst.connections.emplace_back("chain_in", ref("chain_in"));
    if (n_out > 0) inst.connections.emplace_back("pc", ref("pc_comb"));
    m.instances.push_back(std::move(inst));

    if (n_out > 0) {
        AlwaysFF ff;
        IfStmt guard;
        guard.cond = ref("en");
        guard.then_body.push_back(nb(ref("pc_out"), ref("pc_comb")));
        ff.body.push_back(Stmt{std::move(guard)});
        m.always_blocks.push_back(std::move(ff));
    }
    return m;
}

/// class_sum: per class, positive- and negative-polarity votes summed in
/// two trees and subtracted.  Pipelined into `stages` register levels.
Module generate_class_sum_module(const model::TrainedModel& tm,
                                 const model::ArchParams& arch,
                                 const ClauseSchedule& sched) {
    const std::size_t classes = arch.num_classes;
    const std::size_t cpc = arch.clauses_per_class;
    const int w = int(arch.sum_width);

    Module m;
    m.name = "class_sum";
    m.header_comments = {
        "Class Sum: polarity-split vote accumulation, " +
        std::to_string(arch.class_sum_stages) + " pipeline stage(s)"};
    m.ports.push_back({"clk", 1, PortDir::kInput, false});
    m.ports.push_back({"en", 1, PortDir::kInput, false});
    m.ports.push_back(
        {"clauses", int(sched.live_clauses.size()), PortDir::kInput, false});
    m.ports.push_back({"sums", int(classes) * w, PortDir::kOutput, true});

    // live-clause index lookup: flat id -> position in the clauses bus.
    std::vector<std::size_t> pos_of(classes * cpc, SIZE_MAX);
    for (std::size_t i = 0; i < sched.live_clauses.size(); ++i)
        pos_of[sched.live_clauses[i]] = i;

    for (std::size_t c = 0; c < classes; ++c) {
        // Combinational vote adders (synthesises to a balanced tree).
        ExprP pos_sum, neg_sum;
        for (std::size_t j = 0; j < cpc; ++j) {
            const std::size_t p = pos_of[c * cpc + j];
            if (p == SIZE_MAX) continue;  // pruned empty clause: votes 0
            ExprP bit = vconcat(
                {bconst(w - 1, 0), idx("clauses", int(p))});  // zero-extend
            auto& acc = (j % 2 == 0) ? pos_sum : neg_sum;
            acc = acc ? vadd(std::move(acc), std::move(bit)) : std::move(bit);
        }
        if (!pos_sum) pos_sum = bconst(w, 0);
        if (!neg_sum) neg_sum = bconst(w, 0);

        const std::string pc = "pos_" + std::to_string(c);
        const std::string nc = "neg_" + std::to_string(c);
        m.nets.push_back({pc, w, false, false, "class " + std::to_string(c) + " +votes"});
        m.nets.push_back({nc, w, false, false, "class " + std::to_string(c) + " -votes"});
        m.assigns.push_back({ref(pc), std::move(pos_sum)});
        m.assigns.push_back({ref(nc), std::move(neg_sum)});
    }

    // Pipeline: stage 1..S-1 register the split sums, the final stage
    // registers the difference into the output slice.
    AlwaysFF ff;
    IfStmt guard;
    guard.cond = ref("en");
    for (std::size_t c = 0; c < classes; ++c) {
        std::string pc = "pos_" + std::to_string(c);
        std::string nc = "neg_" + std::to_string(c);
        for (unsigned s = 1; s < arch.class_sum_stages; ++s) {
            const std::string pr = pc + "_s" + std::to_string(s);
            const std::string nr = nc + "_s" + std::to_string(s);
            m.nets.push_back({pr, w, true, false, ""});
            m.nets.push_back({nr, w, true, false, ""});
            guard.then_body.push_back(nb(ref(pr), ref(pc)));
            guard.then_body.push_back(nb(ref(nr), ref(nc)));
            pc = pr;
            nc = nr;
        }
        guard.then_body.push_back(
            nb(slice("sums", int((c + 1)) * w - 1, int(c) * w),
               vsub(ref(pc), ref(nc))));
    }
    ff.body.push_back(Stmt{std::move(guard)});
    m.always_blocks.push_back(std::move(ff));
    (void)tm;
    return m;
}

/// argmax_tree: binary comparison tree over 2^argmax_levels padded inputs;
/// >= comparisons resolve ties toward the lower class index.
Module generate_argmax_module(const model::ArchParams& arch) {
    const int w = int(arch.sum_width);
    const unsigned levels = arch.argmax_levels;
    const std::size_t padded = std::size_t{1} << levels;
    const int iw = int(levels == 0 ? 1 : levels);

    Module m;
    m.name = "argmax_tree";
    m.header_comments = {"Argmax: " + std::to_string(padded) +
                         "-input comparison tree, " +
                         std::to_string(arch.argmax_stages) + " pipeline stage(s)"};
    m.ports.push_back({"clk", 1, PortDir::kInput, false});
    m.ports.push_back({"en", 1, PortDir::kInput, false});
    m.ports.push_back({"sums", int(arch.num_classes) * w, PortDir::kInput, false});
    m.ports.push_back({"winner", iw, PortDir::kOutput, true});

    // Level 0: class sums, padded with the minimum representable value.
    const std::int64_t min_val = std::int64_t{1} << (w - 1);  // as unsigned pattern
    for (std::size_t i = 0; i < padded; ++i) {
        const std::string v = "l0_v" + std::to_string(i);
        m.nets.push_back({v, w, false, true, ""});
        if (i < arch.num_classes)
            m.assigns.push_back({ref(v), slice("sums", int(i + 1) * w - 1, int(i) * w)});
        else
            m.assigns.push_back({ref(v), bconst(w, std::uint64_t(min_val))});
    }

    AlwaysFF ff;
    IfStmt guard;
    guard.cond = ref("en");

    // Comparison levels; register file at every levels_per_stage boundary.
    std::string prev = "l0";
    bool prev_has_idx = false;
    std::size_t nodes = padded;
    for (unsigned lv = 1; lv <= levels; ++lv) {
        nodes /= 2;
        const std::string cur = "l" + std::to_string(lv);
        const bool reg_here = (lv % arch.options.argmax_levels_per_stage == 0) ||
                              lv == levels;
        // The last level's winner *value* has no reader (only the index
        // reaches the output), so it is not emitted at all.
        const bool value_needed = lv < levels;
        for (std::size_t i = 0; i < nodes; ++i) {
            const std::string va = prev + "_v" + std::to_string(2 * i);
            const std::string vb = prev + "_v" + std::to_string(2 * i + 1);
            const std::string vc = cur + "_v" + std::to_string(i);
            const std::string ic = cur + "_i" + std::to_string(i);
            ExprP ia = prev_has_idx
                           ? ref(prev + "_i" + std::to_string(2 * i))
                           : bconst(iw, std::uint64_t(2 * i));
            ExprP ib = prev_has_idx
                           ? ref(prev + "_i" + std::to_string(2 * i + 1))
                           : bconst(iw, std::uint64_t(2 * i + 1));
            // Winner value/index; signed >= keeps the lower index on ties.
            ExprP cmp = vge(vsigned(ref(va)), vsigned(ref(vb)));
            ExprP val = vternary(cmp, ref(va), ref(vb));
            ExprP index = vternary(std::move(cmp), std::move(ia), std::move(ib));
            if (reg_here) {
                if (value_needed) {
                    m.nets.push_back({vc, w, true, true, ""});
                    guard.then_body.push_back(nb(ref(vc), std::move(val)));
                }
                m.nets.push_back({ic, iw, true, false, ""});
                guard.then_body.push_back(nb(ref(ic), std::move(index)));
            } else {
                if (value_needed) {
                    m.nets.push_back({vc, w, false, true, ""});
                    m.assigns.push_back({ref(vc), std::move(val)});
                }
                m.nets.push_back({ic, iw, false, false, ""});
                m.assigns.push_back({ref(ic), std::move(index)});
            }
        }
        prev = cur;
        prev_has_idx = true;
    }

    guard.then_body.push_back(
        nb(ref("winner"), levels == 0 ? bconst(iw, 0) : ref(prev + "_i0")));
    ff.body.push_back(Stmt{std::move(guard)});
    m.always_blocks.push_back(std::move(ff));
    return m;
}

/// matador_ctrl: AXI-stream packet counter + enable/valid pipeline.
Module generate_controller_module(const model::ArchParams& arch) {
    const std::size_t packets = arch.plan.num_packets();
    const int cw = 32;

    Module m;
    m.name = "matador_ctrl";
    m.header_comments = {
        "Control unit: AXI-stream handshake, packet routing, result valid",
        "states: reset / stall / compute / idle are folded into the counter"};
    m.ports.push_back({"clk", 1, PortDir::kInput, false});
    m.ports.push_back({"rst", 1, PortDir::kInput, false});
    m.ports.push_back({"s_axis_tvalid", 1, PortDir::kInput, false});
    m.ports.push_back({"s_axis_tready", 1, PortDir::kOutput, false});
    m.ports.push_back({"packet_accept", 1, PortDir::kOutput, false});
    m.ports.push_back({"packet_index", cw, PortDir::kOutput, true});
    m.ports.push_back({"sum_en", 1, PortDir::kOutput, true});
    m.ports.push_back({"result_valid", 1, PortDir::kOutput, true});

    // Bandwidth-driven design: the fabric consumes one packet per cycle.
    m.assigns.push_back({ref("s_axis_tready"), vnot(ref("rst"))});
    m.assigns.push_back(
        {ref("packet_accept"), vand(ref("s_axis_tvalid"), ref("s_axis_tready"))});

    const unsigned result_delay = arch.class_sum_stages + arch.argmax_stages;

    m.nets.push_back({"valid_pipe", int(result_delay), true, false,
                      "class-sum + argmax latency tracker"});

    AlwaysFF ff;
    IfStmt top_if;
    top_if.cond = ref("rst");
    top_if.then_body.push_back(nb(ref("packet_index"), bconst(cw, 0)));
    top_if.then_body.push_back(nb(ref("sum_en"), bconst(1, 0)));
    top_if.then_body.push_back(nb(ref("valid_pipe"), bconst(int(result_delay), 0)));
    top_if.then_body.push_back(nb(ref("result_valid"), bconst(1, 0)));

    // Normal operation: advance the packet counter on every accepted beat;
    // the last packet of a datapoint fires the class-sum enable.
    IfStmt accept_if;
    accept_if.cond = ref("packet_accept");
    IfStmt wrap_if;
    wrap_if.cond = veq(ref("packet_index"), bconst(cw, packets - 1));
    wrap_if.then_body.push_back(nb(ref("packet_index"), bconst(cw, 0)));
    wrap_if.else_body.push_back(
        nb(ref("packet_index"), vadd(ref("packet_index"), bconst(cw, 1))));
    accept_if.then_body.push_back(Stmt{std::move(wrap_if)});

    top_if.else_body.push_back(Stmt{std::move(accept_if)});
    top_if.else_body.push_back(
        nb(ref("sum_en"),
           vand(ref("packet_accept"),
                veq(ref("packet_index"), bconst(cw, packets - 1)))));
    // Shift the completion event down the result pipeline.
    if (result_delay > 1)
        top_if.else_body.push_back(
            nb(ref("valid_pipe"),
               vconcat({slice("valid_pipe", int(result_delay) - 2, 0),
                        ref("sum_en")})));
    else
        top_if.else_body.push_back(nb(ref("valid_pipe"), ref("sum_en")));
    top_if.else_body.push_back(
        nb(ref("result_valid"), idx("valid_pipe", int(result_delay) - 1)));

    ff.body.push_back(Stmt{std::move(top_if)});
    m.always_blocks.push_back(std::move(ff));
    return m;
}

/// matador_top: the full core (Fig. 5) - HCB chain, class sum, argmax,
/// controller - behind an AXI-stream slave interface.
Module generate_top_module(const RtlDesign& d) {
    const auto& arch = d.arch;
    const std::size_t packets = arch.plan.num_packets();
    const int w = int(arch.sum_width);
    const int iw = int(arch.argmax_levels == 0 ? 1 : arch.argmax_levels);
    const std::size_t live = d.schedule.live_clauses.size();

    Module m;
    m.name = "matador_top";
    m.header_comments = {
        "MATADOR inference core",
        std::to_string(arch.input_bits) + " input bits, " +
            std::to_string(arch.num_classes) + " classes, " +
            std::to_string(arch.clauses_per_class) + " clauses/class",
        std::to_string(packets) + " packets/datapoint @ " +
            std::to_string(int(arch.options.bus_width)) + "-bit bus"};
    m.ports.push_back({"clk", 1, PortDir::kInput, false});
    m.ports.push_back({"rst", 1, PortDir::kInput, false});
    m.ports.push_back(
        {"s_axis_tdata", int(arch.options.bus_width), PortDir::kInput, false});
    m.ports.push_back({"s_axis_tvalid", 1, PortDir::kInput, false});
    m.ports.push_back({"s_axis_tready", 1, PortDir::kOutput, false});
    m.ports.push_back({"s_axis_tlast", 1, PortDir::kInput, false});
    m.ports.push_back({"result", iw, PortDir::kOutput, false});
    m.ports.push_back({"result_valid", 1, PortDir::kOutput, false});

    m.nets.push_back({"packet_accept", 1, false, false, ""});
    m.nets.push_back({"packet_index", 32, false, false, ""});
    m.nets.push_back({"sum_en", 1, false, false, ""});
    m.nets.push_back({"sums", int(arch.num_classes) * w, false, false, ""});

    // Controller.
    {
        Instance inst;
        inst.module_name = "matador_ctrl";
        inst.instance_name = "u_ctrl";
        inst.connections.emplace_back("clk", ref("clk"));
        inst.connections.emplace_back("rst", ref("rst"));
        inst.connections.emplace_back("s_axis_tvalid", ref("s_axis_tvalid"));
        inst.connections.emplace_back("s_axis_tready", ref("s_axis_tready"));
        inst.connections.emplace_back("packet_accept", ref("packet_accept"));
        inst.connections.emplace_back("packet_index", ref("packet_index"));
        inst.connections.emplace_back("sum_en", ref("sum_en"));
        inst.connections.emplace_back("result_valid", ref("result_valid"));
        m.instances.push_back(std::move(inst));
    }

    // HCB chain.  hcb_k latches when packet k is on the bus.  producer[c]
    // is the register bit that holds clause c's latest partial: the HCB
    // before k that last had it active, while hcb_k is wired.
    struct Tap {
        std::size_t hcb = SIZE_MAX;
        int bit = 0;
    };
    std::vector<Tap> producer(d.schedule.last_active_packet.size());
    const auto tap = [](const Tap& t) {
        return idx("hcb" + std::to_string(t.hcb) + "_out", t.bit);
    };
    for (std::size_t k = 0; k < packets; ++k) {
        const auto& spec = d.hcbs[k].spec;
        const std::size_t packet_bits = spec.hi - spec.lo;
        const std::size_t n_out = spec.active_clauses.size();
        const std::size_t n_chain = d.hcbs[k].aig.num_pis() - packet_bits;

        const std::string outw = "hcb" + std::to_string(k) + "_out";
        if (n_out > 0)
            m.nets.push_back({outw, int(n_out), false, false,
                              "HCB " + std::to_string(k) + " Clause Out"});
        const std::string enw = "hcb" + std::to_string(k) + "_en";
        m.nets.push_back({enw, 1, false, false, ""});
        m.assigns.push_back(
            {ref(enw), vand(ref("packet_accept"),
                            veq(ref("packet_index"), bconst(32, k)))});

        Instance inst;
        inst.module_name = "hcb_" + std::to_string(k);
        inst.instance_name = "u_hcb_" + std::to_string(k);
        inst.connections.emplace_back("clk", ref("clk"));
        inst.connections.emplace_back("en", ref(enw));
        inst.connections.emplace_back(
            "packet", packet_bits == arch.options.bus_width
                          ? ref("s_axis_tdata")
                          : slice("s_axis_tdata", int(packet_bits) - 1, 0));
        if (n_chain > 0) {
            // Gather chain inputs, MSB first: each comes from the producing
            // HCB's registered output for the same clause.
            std::vector<ExprP> parts;
            for (std::size_t i = n_out; i-- > 0;) {
                const Tap& t = producer[spec.active_clauses[i]];
                if (spec.has_chain_input[i] && t.hcb != SIZE_MAX) parts.push_back(tap(t));
            }
            inst.connections.emplace_back(
                "chain_in", parts.size() == 1 ? parts.front()
                                              : vconcat(std::move(parts)));
        }
        if (n_out > 0) inst.connections.emplace_back("pc_out", ref(outw));
        m.instances.push_back(std::move(inst));
        for (std::size_t i = 0; i < n_out; ++i)
            producer[spec.active_clauses[i]] = {k, int(i)};
    }

    // Final clause values: each live clause's last producing HCB register.
    m.nets.push_back({"clause_final", int(live), false, false,
                      "final clause outputs feeding Class Sum"});
    for (std::size_t i = 0; i < live; ++i)
        m.assigns.push_back(
            {idx("clause_final", int(i)), tap(producer[d.schedule.live_clauses[i]])});

    // Class sum.
    {
        Instance inst;
        inst.module_name = "class_sum";
        inst.instance_name = "u_class_sum";
        inst.connections.emplace_back("clk", ref("clk"));
        inst.connections.emplace_back("en", bconst(1, 1));
        inst.connections.emplace_back("clauses", ref("clause_final"));
        inst.connections.emplace_back("sums", ref("sums"));
        m.instances.push_back(std::move(inst));
    }
    // Argmax.
    {
        Instance inst;
        inst.module_name = "argmax_tree";
        inst.instance_name = "u_argmax";
        inst.connections.emplace_back("clk", ref("clk"));
        inst.connections.emplace_back("en", bconst(1, 1));
        inst.connections.emplace_back("sums", ref("sums"));
        inst.connections.emplace_back("winner", ref("result"));
        m.instances.push_back(std::move(inst));
    }
    return m;
}

}  // namespace

RtlDesign generate_rtl(const model::TrainedModel& tm, const model::ArchParams& arch,
                       bool strash) {
    return assemble_rtl(tm, arch, build_hcbs(tm, arch.plan, strash), strash);
}

RtlDesign assemble_rtl(const model::TrainedModel& tm, const model::ArchParams& arch,
                       std::vector<HcbNetlist> hcbs, bool strash) {
    RtlDesign d;
    d.arch = arch;
    d.schedule = schedule_clauses(tm, arch.plan);
    d.hcbs = std::move(hcbs);

    for (std::size_t k = 0; k < d.hcbs.size(); ++k) {
        d.hcb_comb.push_back(emit_hcb_comb(d.hcbs[k], k, !strash));
        d.hcb_seq.push_back(generate_hcb_seq_module(d.hcbs[k], k));
    }
    d.class_sum = generate_class_sum_module(tm, arch, d.schedule);
    d.argmax = generate_argmax_module(arch);
    d.controller = generate_controller_module(arch);
    d.top = generate_top_module(d);
    return d;
}

std::vector<std::string> write_design(const RtlDesign& d, const std::string& dir) {
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    auto write = [&](const std::string& name, const std::string& text) {
        const std::string path = dir + "/" + name + ".v";
        std::ofstream f(path);
        if (!f) throw std::runtime_error("write_design: cannot open " + path);
        f << text;
        paths.push_back(path);
    };
    for (std::size_t k = 0; k < d.hcb_comb.size(); ++k)
        write("hcb_" + std::to_string(k) + "_comb", d.hcb_comb[k]);
    for (const auto& m : d.hcb_seq) write(m.name, emit_module(m));
    for (const Module* m : {&d.class_sum, &d.argmax, &d.controller, &d.top})
        write(m->name, emit_module(*m));
    return paths;
}

}  // namespace matador::rtl
