#include "logic/lut_mapper.hpp"

#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace matador::logic {

namespace {

/// Canonical truth-table input patterns for up to 6 cut leaves.
constexpr std::uint64_t kCanon[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};

/// Truth table of `root`'s cone with respect to `leaves` (local simulation).
std::uint64_t cone_truth(const Aig& aig, std::uint32_t root,
                         const std::vector<std::uint32_t>& leaves) {
    std::unordered_map<std::uint32_t, std::uint64_t> value;
    value[0] = 0;  // constant false
    for (std::size_t i = 0; i < leaves.size(); ++i) value[leaves[i]] = kCanon[i];

    // Iterative post-order evaluation of the cone.
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        if (value.count(n)) {
            stack.pop_back();
            continue;
        }
        if (!aig.is_and(n))
            throw std::logic_error("cone_truth: cone escapes its cut");
        const std::uint32_t a = lit_node(aig.node_fanin0(n));
        const std::uint32_t b = lit_node(aig.node_fanin1(n));
        const bool have_a = value.count(a), have_b = value.count(b);
        if (have_a && have_b) {
            const std::uint64_t va =
                lit_complement(aig.node_fanin0(n)) ? ~value[a] : value[a];
            const std::uint64_t vb =
                lit_complement(aig.node_fanin1(n)) ? ~value[b] : value[b];
            value[n] = va & vb;
            stack.pop_back();
        } else {
            if (!have_a) stack.push_back(a);
            if (!have_b) stack.push_back(b);
        }
    }

    // Mask to the meaningful bits (2^leaves combinations).
    std::uint64_t t = value[root];
    if (leaves.size() < 6) t &= (std::uint64_t{1} << (1u << leaves.size())) - 1;
    // Replicate so any truth-bit index computed with fewer inputs still works.
    return t;
}

}  // namespace

MapResult map_to_luts(const Aig& aig) {
    const CutEnumeration cuts = enumerate_cuts(aig, CutParams{});

    LutNetwork net(aig.num_pis());
    constexpr std::uint32_t kUnmapped = 0xffffffffu;
    std::vector<std::uint32_t> net_id(aig.num_nodes(), kUnmapped);
    net_id[0] = 0;
    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        net_id[lit_node(aig.pi(i))] = net.pi_id(i);

    // Iteratively implement required AND nodes (post-order over best cuts).
    auto implement = [&](std::uint32_t root) {
        std::vector<std::uint32_t> stack{root};
        while (!stack.empty()) {
            const std::uint32_t n = stack.back();
            if (net_id[n] != kUnmapped) {
                stack.pop_back();
                continue;
            }
            const Cut& best = cuts.cuts[n].front();
            bool ready = true;
            for (auto leaf : best.leaves)
                if (net_id[leaf] == kUnmapped) {
                    stack.push_back(leaf);
                    ready = false;
                }
            if (!ready) continue;

            MappedLut lut;
            lut.inputs.reserve(best.leaves.size());
            for (auto leaf : best.leaves) lut.inputs.push_back(net_id[leaf]);
            lut.truth = cone_truth(aig, n, best.leaves);
            net_id[n] = net.add_lut(std::move(lut));
            stack.pop_back();
        }
    };

    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
        const Lit po = aig.po(i);
        const std::uint32_t n = lit_node(po);
        if (aig.is_and(n) && net_id[n] == kUnmapped) implement(n);
    }
    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
        const Lit po = aig.po(i);
        const std::uint32_t n = lit_node(po);
        net.add_output((net_id[n] << 1) | std::uint32_t(lit_complement(po)));
    }

    MapResult r{std::move(net), 0, 0};
    r.lut_count = r.network.num_luts();
    r.depth = r.network.depth();
    return r;
}

}  // namespace matador::logic
