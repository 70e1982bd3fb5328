// Power model for Zynq SoC accelerator designs.
//
// Decomposition used by Vivado's report_power and reproduced here:
//   total = device static + PS dynamic (ARM core, fixed while streaming)
//         + fabric dynamic (toggling LUTs/FFs/BRAM, linear in f_clk).
// Coefficients are calibrated against the XC7Z020 implementation reports
// behind Table I; bench/table1_comparison.cpp prints the paper's power
// figures beside this model's.
#pragma once

#include "cost/device.hpp"
#include "cost/resource_model.hpp"

namespace matador::cost {

/// Power estimate breakdown (Watts).
struct PowerReport {
    double total_w = 0.0;
    double dynamic_w = 0.0;  ///< PS + fabric dynamic (Table I "Dyn Pwr")
    double static_w = 0.0;
    double fabric_dynamic_w = 0.0;
    double ps_dynamic_w = 0.0;
};

/// Per-resource dynamic power coefficients (W per unit per MHz).
struct PowerCoefficients {
    double lut = 3.6e-8;
    double ff = 1.8e-8;
    double bram36 = 7.2e-5;
};

/// Estimate power for a design occupying `res` on `device` at `clock_mhz`,
/// with `toggle` as the average switching activity (0.5 = every other
/// cycle; streaming inference keeps the fabric busy, default 1.0 relative
/// to the calibrated coefficients).
PowerReport estimate_power(const ResourceReport& res, const DeviceSpec& device,
                           double clock_mhz, double toggle = 1.0,
                           const PowerCoefficients& k = {});

}  // namespace matador::cost
