// The flow's user-facing knobs (FlowConfig) and its one-shot result
// (FlowResult) for the end-to-end automation pipeline (Fig. 6).
//
// The GUI of the paper drives exactly these stages; here they are a library
// API (the examples and benches are the "GUI"):
//   1. train        - Tsetlin Machine training on a booleanized dataset
//                     (or import of an externally trained model - the
//                     yellow flow),
//   2. analyze      - sparsity + expression-sharing statistics,
//   3. architect    - packet plan, pipeline stages, timing-driven clock
//                     selection (50-65 MHz band),
//   4. generate     - HCB AIGs, LUT mapping, full Verilog design,
//   5. verify       - expression / netlist / RTL-text equivalence ladder
//                     plus system-level cycle-accurate streaming check
//                     (the auto-debug flow),
//   6. report       - Table-I-style resource/power/latency/throughput row.
//
// core::Pipeline (pipeline.hpp) runs them: each stage is a named pass with
// status, diagnostics, per-stage timing, run-from/stop-after selection,
// artifact caching, and a multi-threaded sweep driver (sweep.hpp).
// `Pipeline(cfg).run(train, test).to_flow_result()` is the one-shot form.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cost/device.hpp"
#include "cost/power_model.hpp"
#include "cost/resource_model.hpp"
#include "cost/timing_model.hpp"
#include "model/architecture.hpp"
#include "model/sharing_analysis.hpp"
#include "model/trained_model.hpp"
#include "rtl/verification.hpp"
#include "tm/tsetlin_machine.hpp"
#include "train/fit.hpp"

namespace matador::core {

/// All user-facing knobs of the flow (the GUI form of Fig. 6(a)).
struct FlowConfig {
    tm::TmConfig tm;                 ///< training hyperparameters
    std::size_t epochs = 10;
    /// Trainer worker threads (train::ParallelTrainer); 0 = all hardware
    /// threads.  Never affects the trained model - training is
    /// bit-reproducible at any thread count - so, like cache_dir, it stays
    /// out of every config hash.
    std::size_t train_threads = 0;
    /// Evaluate accuracy every this many epochs (0 = final epoch only).
    std::size_t eval_every = 0;
    /// Early stopping patience in evaluations (0 = off).  See train/fit.hpp.
    std::size_t patience = 0;
    model::ArchOptions arch;         ///< bus width, clock, pipelining
    bool auto_frequency = true;      ///< pick clock from the timing model
    std::string device = "z7020";
    bool strash = true;              ///< logic sharing (false = DON'T_TOUCH)
    std::size_t verify_vectors = 24; ///< random vectors per verification level
    std::size_t sim_datapoints = 32; ///< streaming datapoints for system check
    std::string rtl_output_dir;      ///< empty = keep the design in memory
    bool skip_rtl_verification = false;  ///< fast mode for large sweeps
    /// Run the SAT equivalence tier (verify level 3): per-output
    /// scalar-vs-netlist miter proofs plus k-induction over the chain.
    bool verify_sat = false;
    /// Induction depth of the SAT tier's sequential proof (>= 1).
    std::size_t induction_k = 1;
    /// Root of the persistent artifact store's disk tier; empty = the
    /// memory tier only.  Never enters any config hash - it decides where
    /// artifacts live, not what they are.
    std::string cache_dir;
};

/// Everything the flow produces.
struct FlowResult {
    model::TrainedModel trained_model;
    double train_accuracy = 0.0;
    double test_accuracy = 0.0;
    /// How training ended (train::ParallelTrainer; empty/default when the
    /// model was imported instead of trained).
    std::size_t train_epochs_run = 0;
    std::string train_stop_reason;  ///< "max-epochs" | "early-stop" | ""
    std::size_t train_best_epoch = 0;
    std::vector<train::EpochMetrics> accuracy_history;

    model::ArchParams arch;
    model::SparsityStats sparsity;
    model::SharingStats sharing;

    std::size_t hcb_mapped_luts = 0;   ///< sum over HCBs (6-LUT mapping)
    unsigned hcb_max_depth = 0;        ///< deepest HCB in LUT levels
    std::size_t max_feature_fanout = 0;

    cost::TimingReport timing;
    cost::ResourceReport resources;
    cost::PowerReport power;

    rtl::VerificationReport verification;
    bool system_verified = false;      ///< cycle sim matches golden + equations
    std::size_t measured_latency_cycles = 0;
    double measured_ii = 0.0;

    double latency_us = 0.0;
    double throughput_inf_per_s = 0.0;

    std::vector<std::string> rtl_files;  ///< when rtl_output_dir was set
};

}  // namespace matador::core
