// Shared workload definitions for the Table I / Fig. 3 / Fig. 8 benches:
// the five evaluation datasets of the paper with their Table II model
// configurations, mapped onto this repository's synthetic surrogates.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "baseline/quantized_mlp.hpp"
#include "data/synthetic.hpp"

namespace matador::bench {

/// One evaluation workload (a row group of Table I).
struct Workload {
    std::string display_name;   ///< Table I heading
    std::string finn_key;       ///< table2_finn_topology key
    std::function<data::Dataset()> make;
    std::size_t clauses_per_class;  ///< Table II MATADOR configuration
    int tm_threshold;
    double tm_specificity;
    std::size_t tm_epochs;
    // FINN-side training configuration (Table II FINN topology).
    std::vector<std::size_t> mlp_layers;
    unsigned mlp_weight_bits;
    unsigned mlp_activation_bits;
    std::size_t mlp_epochs;
    /// Cycles-per-image target for the FINN folding (derived from the
    /// initiation intervals behind Table I's FINN throughput column).
    std::size_t finn_target_fold;
};

inline std::vector<Workload> paper_workloads(std::size_t scale = 1) {
    // `scale` divides the examples-per-class for quick runs (scale=1 is the
    // full bench size).
    auto n = [scale](std::size_t full) { return std::max<std::size_t>(40, full / scale); };
    return {
        {"MNIST", "mnist", [n] { return data::make_mnist_like(n(250), 11); },
         200, 25, 2.5, 6,
         {784, 64, 64, 64, 10}, 1, 1, 8, 105},
        {"KWS-6", "kws6", [n] { return data::make_kws6_like(n(300), 15); },
         300, 20, 2.8, 6,
         {377, 512, 256, 6}, 2, 2, 8, 133},
        {"CIFAR-2", "cifar2", [n] { return data::make_cifar2_like(n(600), 14); },
         1000, 30, 2.8, 6,
         {1024, 256, 128, 2}, 1, 2, 8, 73},
        {"FMNIST", "fmnist", [n] { return data::make_fmnist_like(n(250), 13); },
         500, 25, 2.8, 6,
         {784, 256, 256, 10}, 2, 2, 8, 431},
        {"KMNIST", "kmnist", [n] { return data::make_kmnist_like(n(250), 12); },
         500, 25, 2.8, 6,
         {784, 256, 256, 10}, 2, 2, 8, 392},
    };
}

}  // namespace matador::bench
