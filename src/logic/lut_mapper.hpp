// 6-LUT technology mapping over the AIG (priority cuts, depth-oriented
// with area-flow tie-breaking, exact cover extraction).
//
// This reproduces, in miniature, what Vivado's synthesis does to the HCB
// combinational logic: cover the AND/NOT network with 6-input LUTs.  The
// LUT counts it reports are the "LUT-opt" series of Fig. 8; mapping an AIG
// built with strash disabled gives the "LUT-dt" (DON'T_TOUCH) series.
#pragma once

#include "logic/aig.hpp"
#include "logic/cuts.hpp"
#include "logic/lut_network.hpp"

namespace matador::logic {

struct MapResult {
    LutNetwork network;      ///< the mapped netlist
    std::size_t lut_count;   ///< LUTs instantiated
    std::uint32_t depth;     ///< LUT levels on the critical path
};

/// Map `aig` to a 6-LUT network (the 7-series LUT) over the default
/// priority cuts (CutParams: 8 per node).  The result is functionally
/// equivalent to the AIG (verifiable via LutNetwork::evaluate vs
/// logic::simulate).
MapResult map_to_luts(const Aig& aig);

}  // namespace matador::logic
