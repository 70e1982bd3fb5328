#include "baseline/finn_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace matador::baseline {

namespace {

std::vector<std::size_t> divisors(std::size_t n) {
    std::vector<std::size_t> d;
    for (std::size_t i = 1; i <= n; ++i)
        if (n % i == 0) d.push_back(i);
    return d;
}

/// Least-parallelism folding achieving fold <= target (FINN-R balancing).
FinnFolding choose_folding(const FinnLayer& layer, std::size_t target) {
    FinnFolding best;
    best.pe = layer.out;
    best.simd = layer.in;
    best.fold = 1;
    std::size_t best_cost = layer.out * layer.in;

    for (auto pe : divisors(layer.out)) {
        for (auto simd : divisors(layer.in)) {
            const std::size_t fold = (layer.in / simd) * (layer.out / pe);
            if (fold > target) continue;
            const std::size_t cost = pe * simd;
            if (cost < best_cost || (cost == best_cost && fold < best.fold)) {
                best = {pe, simd, fold, 0, 0};
                best_cost = cost;
            }
        }
    }
    best.in = layer.in;
    best.out = layer.out;
    return best;
}

// Resource constants, calibrated against the XC7Z020 FINN rows of the
// paper's Table I (bench/table1_comparison.cpp prints them beside this
// model's estimates).  All are per-unit LUT/BRAM figures.
constexpr double kLutPerMac1b = 2.5;    ///< XNOR+popcount slice cost per 1b x 1b PE*SIMD lane
constexpr double kLutPerPeCtl = 60.0;   ///< threshold + accumulator per PE
constexpr double kLutPerLayer = 300.0;  ///< MVTU control FSM
constexpr double kLutInfra = 3500.0;    ///< DMA / AXI / width converters
constexpr double kRegPerLut = 1.5;      ///< pipeline-heavy dataflow
constexpr std::size_t kBram18Bits = 18432;
constexpr std::size_t kLutRamThresholdBits = 4096;  ///< below this: LUTRAM
constexpr std::size_t kFifoDepth = 512;
constexpr double kDmaBram36 = 3.0;  ///< same stream-DMA buffers MATADOR uses

}  // namespace

FinnEstimate estimate_finn(const std::vector<FinnLayer>& layers,
                           const FinnOptions& options) {
    if (layers.empty()) throw std::invalid_argument("estimate_finn: no layers");

    FinnEstimate e;
    e.clock_mhz = options.clock_mhz;

    double lut_logic = kLutInfra;
    double lut_mem = 0.0;
    double bram36 = kDmaBram36;
    std::size_t max_fold = 0, sum_fold = 0;

    // Input stream FIFO (booleanized image buffered at the accelerator edge).
    {
        const std::size_t in_bits = layers.front().in * layers.front().activation_bits;
        bram36 += 0.5 * std::ceil(double(in_bits) * kFifoDepth / kBram18Bits);
    }

    for (std::size_t l = 0; l < layers.size(); ++l) {
        const FinnLayer& layer = layers[l];
        const FinnFolding fold = choose_folding(layer, options.target_fold);
        e.folding.push_back(fold);
        max_fold = std::max(max_fold, fold.fold);
        sum_fold += fold.fold;

        // Compute fabric: PE*SIMD parallel 1-2 bit MACs; cost scales with
        // the partial-product width (weight bits x activation bits).
        const double mac_scale =
            kLutPerMac1b * double(layer.weight_bits * layer.activation_bits);
        lut_logic += mac_scale * double(fold.pe * fold.simd);
        lut_logic += kLutPerPeCtl * double(fold.pe);
        lut_logic += kLutPerLayer;

        // Weight storage: one partition per PE; small partitions go to
        // LUTRAM (64 bits/LUT), large ones to BRAM18.
        const std::size_t weight_bits = layer.in * layer.out * layer.weight_bits;
        const std::size_t partition_bits = weight_bits / fold.pe;
        if (partition_bits < kLutRamThresholdBits) {
            lut_mem += double(fold.pe) * std::ceil(double(partition_bits) / 64.0);
        } else {
            bram36 += 0.5 * double(fold.pe) *
                      std::ceil(double(partition_bits) / double(kBram18Bits));
        }

        // Inter-layer FIFO (except after the last layer).
        if (l + 1 < layers.size()) {
            const std::size_t act_bits = layer.out * layers[l + 1].activation_bits;
            const double fifo_bits = double(act_bits) * double(kFifoDepth);
            if (fifo_bits < double(kLutRamThresholdBits) * 8.0)
                lut_mem += std::ceil(fifo_bits / 64.0);
            else
                bram36 += 0.5 * std::ceil(fifo_bits / double(kBram18Bits));
        }
    }

    e.initiation_interval = std::max<std::size_t>(1, max_fold);
    // The MVTUs stream: the pipeline fills within roughly one initiation
    // interval plus a few cycles of per-layer latency (this matches the
    // measured FINN latencies the paper reports, e.g. 1.047us at II~105).
    e.latency_cycles = e.initiation_interval + 4 * layers.size();
    e.lut_logic = std::size_t(lut_logic);
    e.lut_mem = std::size_t(lut_mem);
    e.luts = e.lut_logic + e.lut_mem;
    e.registers = std::size_t(kRegPerLut * double(e.luts));
    e.bram36 = bram36;
    // Wide multiplexing inside the MVTUs exercises the F7/F8 slice muxes.
    e.f7_mux = std::size_t(0.015 * double(e.luts));
    e.f8_mux = std::size_t(0.001 * double(e.luts));
    e.slices = std::size_t(double(e.luts) / 1.85);  // typical packing density
    return e;
}

std::vector<FinnLayer> table2_finn_topology(const std::string& dataset) {
    // Table II: FINN model configurations (weights/activations per paper).
    if (dataset == "mnist")
        return {{784, 64, 1, 1}, {64, 64, 1, 1}, {64, 64, 1, 1}, {64, 10, 1, 1}};
    if (dataset == "kws6")
        return {{377, 512, 2, 1}, {512, 256, 2, 2}, {256, 6, 2, 2}};
    if (dataset == "cifar2")
        return {{1024, 256, 1, 1}, {256, 128, 1, 2}, {128, 2, 1, 2}};
    if (dataset == "fmnist" || dataset == "kmnist")
        return {{784, 256, 2, 1}, {256, 256, 2, 2}, {256, 10, 2, 2}};
    throw std::invalid_argument("table2_finn_topology: unknown dataset " + dataset);
}

}  // namespace matador::baseline
