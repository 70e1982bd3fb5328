#include "sim/accelerator_sim.hpp"

#include <memory>
#include <stdexcept>

#include "model/packetization.hpp"
#include "sim/vcd_writer.hpp"
#include "util/rng.hpp"

namespace matador::sim {

using model::ArchParams;
using model::TrainedModel;

namespace {

/// Bits [lo, lo + width) of `v` as the low bits of one word (width in
/// [1, 64]); a window that straddles two backing words reads both.
std::uint64_t window_bits(const util::BitVector& v, std::size_t lo, std::size_t width) {
    const std::size_t w = lo / 64, shift = lo % 64;
    std::uint64_t bits = v.word(w) >> shift;
    if (shift != 0 && shift + width > 64) bits |= v.word(w + 1) << (64 - shift);
    return width == 64 ? bits : bits & ((std::uint64_t{1} << width) - 1);
}

}  // namespace

AcceleratorSim::AcceleratorSim(const TrainedModel& m, const ArchParams& arch)
    : arch_(arch),
      schedule_(model::schedule_clauses(m, arch.plan)),
      num_classes_(m.num_classes()),
      clauses_per_class_(m.clauses_per_class()) {
    if (m.num_features() != arch.input_bits)
        throw std::invalid_argument("AcceleratorSim: model/arch shape mismatch");

    polarity_.resize(m.total_clauses());
    for (std::size_t c = 0; c < num_classes_; ++c)
        for (std::size_t j = 0; j < clauses_per_class_; ++j)
            polarity_[c * clauses_per_class_ + j] = m.clause(c, j).polarity;

    // Precompute each HCB's include windows as bus-aligned masks, each read
    // from at most two words of the clause's include masks.
    hcb_windows_.resize(arch.plan.num_packets());
    for (std::size_t k = 0; k < arch.plan.num_packets(); ++k) {
        const std::size_t lo = arch.plan.packet_lo(k);
        const std::size_t hi = arch.plan.packet_hi(k);
        for (auto flat : schedule_.live_clauses) {
            const auto& cl = m.clause(flat / clauses_per_class_,
                                      flat % clauses_per_class_);
            const std::uint64_t pos = window_bits(cl.include_pos, lo, hi - lo);
            const std::uint64_t neg = window_bits(cl.include_neg, lo, hi - lo);
            if (pos || neg) hcb_windows_[k].push_back({flat, pos, neg});
        }
    }
}

SimResult AcceleratorSim::run(const std::vector<util::BitVector>& inputs,
                              const SimConfig& config) const {
    const std::size_t packets = arch_.plan.num_packets();
    const unsigned result_delay = arch_.class_sum_stages + arch_.argmax_stages;

    model::Packetizer packetizer(arch_.plan);
    StreamDriver driver;
    AxiStreamChannel channel;
    for (const auto& x : inputs) driver.enqueue_datapoint(packetizer.packetize(x));

    util::Xoshiro256ss stall_rng(config.stall_seed);

    SimResult res;
    std::vector<std::uint8_t> chain(polarity_.size(), 1);  // HCB registers
    std::vector<int> sums(num_classes_, 0);

    // In-flight completion events: (result cycle, predicted class).
    std::vector<std::pair<std::size_t, std::uint32_t>> pending;

    std::size_t packet_index = 0;      // controller counter
    std::size_t first_beat_cycle = SIZE_MAX;
    std::size_t next_pending = 0;

    auto trace = [&](std::size_t cycle, std::string what) {
        if (config.record_trace) res.trace.push_back({cycle, std::move(what)});
    };

    // Optional VCD dump: the same probe set the generated ILA stub taps.
    std::unique_ptr<VcdWriter> vcd;
    std::size_t v_accept = 0, v_tdata = 0, v_index = 0, v_result = 0, v_valid = 0;
    if (!config.vcd_path.empty()) {
        vcd = std::make_unique<VcdWriter>(config.vcd_path, "matador_top");
        v_accept = vcd->add_signal("packet_accept", 1);
        v_tdata = vcd->add_signal("s_axis_tdata",
                                  unsigned(arch_.options.bus_width));
        v_index = vcd->add_signal("packet_index", 16);
        v_result = vcd->add_signal("result", std::max(1u, arch_.argmax_levels));
        v_valid = vcd->add_signal("result_valid", 1);
    }

    std::size_t cycle = 0;
    for (; cycle < config.max_cycles; ++cycle) {
        // Producer side (PS + DMA): offer one beat unless stalled.
        const bool stalled =
            config.stall_probability > 0.0 && stall_rng.bernoulli(config.stall_probability);
        if (!stalled) driver.step(channel);

        if (vcd) {
            vcd->set(v_accept, channel.valid() ? 1 : 0);
            if (channel.valid()) vcd->set(v_tdata, channel.beat().tdata);
            vcd->set(v_index, packet_index);
            vcd->set(v_valid, 0);
        }

        // Fabric side: consume the beat presented this cycle.
        if (channel.valid()) {
            const StreamBeat beat = channel.beat();
            channel.consume();
            if (first_beat_cycle == SIZE_MAX) first_beat_cycle = cycle;

            // Route to HCB `packet_index`: compute partials and register.
            const auto& windows = hcb_windows_[packet_index];
            for (const auto& w : windows) {
                const bool partial = ((beat.tdata & w.pos_mask) == w.pos_mask) &&
                                     ((beat.tdata & w.neg_mask) == 0);
                // chain register: HCB k ANDs its partial with HCB k-1's value
                // (first active packet seeds from constant 1).
                const bool fresh =
                    schedule_.first_active_packet[w.flat] == packet_index;
                chain[w.flat] =
                    std::uint8_t(partial && (fresh || chain[w.flat] != 0));
            }
            trace(cycle, "packet " + std::to_string(packet_index) + " -> HCB " +
                             std::to_string(packet_index));

            if (packet_index + 1 == packets) {
                // Last packet: clause finals are complete; class-sum pipeline
                // starts next cycle, argmax after it.
                std::fill(sums.begin(), sums.end(), 0);
                for (auto flat : schedule_.live_clauses)
                    if (chain[flat])
                        sums[flat / clauses_per_class_] += polarity_[flat];
                std::uint32_t best = 0;
                for (std::size_t c = 1; c < num_classes_; ++c)
                    if (sums[c] > sums[best]) best = std::uint32_t(c);

                pending.emplace_back(cycle + result_delay, best);
                trace(cycle, "class sums sampled (datapoint " +
                                 std::to_string(pending.size() - 1) + ")");
                trace(cycle + arch_.class_sum_stages, "class-sum pipeline done");
                packet_index = 0;
            } else {
                ++packet_index;
            }
        }

        // Result interface.
        while (next_pending < pending.size() &&
               pending[next_pending].first == cycle) {
            res.predictions.push_back(pending[next_pending].second);
            res.result_cycles.push_back(cycle);
            trace(cycle, "result_valid (class " +
                             std::to_string(pending[next_pending].second) + ")");
            if (vcd) {
                vcd->set(v_result, pending[next_pending].second);
                vcd->set(v_valid, 1);
            }
            ++next_pending;
        }
        if (vcd) vcd->tick();

        if (driver.exhausted() && next_pending == pending.size() &&
            res.predictions.size() == inputs.size())
            break;
    }

    res.cycles_run = cycle;
    res.beats_transferred = channel.beats_transferred();
    if (!res.result_cycles.empty() && first_beat_cycle != SIZE_MAX)
        res.first_latency_cycles = res.result_cycles.front() - first_beat_cycle + 1;
    if (res.result_cycles.size() >= 2) {
        double total = 0.0;
        for (std::size_t i = 1; i < res.result_cycles.size(); ++i)
            total += double(res.result_cycles[i] - res.result_cycles[i - 1]);
        res.mean_initiation_interval = total / double(res.result_cycles.size() - 1);
    }
    return res;
}

}  // namespace matador::sim
