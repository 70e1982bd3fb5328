#include "lint/ternary.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace matador::lint {

namespace {

TernaryWord lit_value(const std::vector<TernaryWord>& nodes, logic::Lit l) {
    const TernaryWord v = nodes[logic::lit_node(l)];
    return logic::lit_complement(l) ? ternary_not(v) : v;
}

}  // namespace

std::vector<TernaryWord> ternary_simulate(
    const logic::Aig& aig, const std::vector<TernaryWord>& pi_values) {
    if (pi_values.size() != aig.num_pis())
        throw std::invalid_argument("ternary_simulate: PI count mismatch");
    std::vector<TernaryWord> nodes(aig.num_nodes());
    nodes[0] = ternary_const(0);
    for (std::size_t i = 0; i < aig.num_pis(); ++i)
        nodes[logic::lit_node(aig.pi(i))] = pi_values[i];
    for (std::uint32_t n = 1; n < aig.num_nodes(); ++n) {
        if (!aig.is_and(n)) continue;
        nodes[n] = ternary_and(lit_value(nodes, aig.node_fanin0(n)),
                               lit_value(nodes, aig.node_fanin1(n)));
    }
    std::vector<TernaryWord> pos;
    pos.reserve(aig.num_pos());
    for (std::size_t i = 0; i < aig.num_pos(); ++i)
        pos.push_back(lit_value(nodes, aig.po(i)));
    return pos;
}

std::vector<TernaryWord> ternary_evaluate(
    const logic::LutNetwork& net, const std::vector<TernaryWord>& pi_values) {
    if (pi_values.size() != net.num_pis())
        throw std::invalid_argument("ternary_evaluate: PI count mismatch");
    // Node id space: 0 = const0, 1..num_pis = PIs, then LUTs.
    std::vector<TernaryWord> nodes(1 + net.num_pis() + net.num_luts());
    nodes[0] = ternary_const(0);
    for (std::size_t i = 0; i < net.num_pis(); ++i)
        nodes[net.pi_id(i)] = pi_values[i];
    for (std::size_t i = 0; i < net.num_luts(); ++i) {
        const auto& lut = net.lut(i);
        // A lane's output can be 0 (1) when some completion of its X inputs
        // selects a 0 (1) truth bit; definite iff only one side is
        // reachable.  2^k completions, k <= 6.
        std::uint64_t can0 = 0, can1 = 0;
        const std::size_t k = lut.inputs.size();
        for (std::uint64_t c = 0; c < (std::uint64_t(1) << k); ++c) {
            std::uint64_t match = ~std::uint64_t(0);
            for (std::size_t j = 0; j < k; ++j) {
                const TernaryWord in = nodes[lut.inputs[j]];
                const std::uint64_t want_one = (c >> j) & 1
                                                   ? in.value
                                                   : ~in.value & ~in.unknown;
                match &= in.unknown | want_one;
            }
            if ((lut.truth >> c) & 1)
                can1 |= match;
            else
                can0 |= match;
        }
        nodes[net.lut_id(i)] = {can1 & ~can0, can0 & can1};
    }
    std::vector<TernaryWord> out;
    out.reserve(net.num_outputs());
    for (std::size_t i = 0; i < net.num_outputs(); ++i) {
        const std::uint32_t lit = net.output(i);
        const TernaryWord v = nodes[lit >> 1];
        out.push_back(lit & 1 ? ternary_not(v) : v);
    }
    return out;
}

std::vector<bool> po_support(const logic::Aig& aig, std::size_t po) {
    std::vector<bool> support(aig.num_pis(), false);
    for (const std::uint32_t n : aig.cone(aig.po(po)))
        if (aig.is_pi(n)) support[aig.pi_index(n)] = true;
    return support;
}

XCheckResult check_x_insensitive(const logic::Aig& aig, std::size_t po,
                                 const std::vector<bool>& care,
                                 std::size_t random_rounds, std::uint64_t seed) {
    if (care.size() != aig.num_pis())
        throw std::invalid_argument("check_x_insensitive: care mask size");
    XCheckResult r;

    // Exhaustive when the cared cube is small (<= 4096 assignments = 64
    // sweeps); random 64-lane sweeps otherwise.
    std::size_t small_cube = 0;  // cared PIs, counted up to 13
    for (std::size_t i = 0; i < care.size() && small_cube <= 12; ++i) small_cube += care[i];
    const bool exhaustive = small_cube <= 12;
    const std::size_t sweeps =
        exhaustive ? ((std::size_t(1) << small_cube) + 63) / 64 : random_rounds;

    // Only the PO's cone can reach it, so each sweep simulates just that,
    // in cone-local slots: slot 0 holds constant 0 and cone[k] slot k + 1.
    // The lanes are the ones ternary_simulate would give this PO, and the
    // only per-call array sized by the whole AIG is the walk's one bit per
    // node.  A slot literal is slot << 1 | complement.
    const auto cone = aig.cone(aig.po(po));
    r.proved_structural = std::none_of(cone.begin(), cone.end(), [&](std::uint32_t n) {
        return aig.is_pi(n) && !care[aig.pi_index(n)];
    });
    if (sweeps == 0) return r;  // nothing to simulate: the walk is the verdict
    if (r.proved_structural) {
        // Every PI of the cone is cared, so every lane of every sweep is
        // definite: report the lanes the sweeps would run, none of them X.
        r.lanes_checked = exhaustive ? std::size_t(1) << small_cube : 64 * random_rounds;
        r.proved_exhaustive = exhaustive;
        return r;
    }
    const auto slot_lit = [&](logic::Lit l) {
        const std::uint32_t n = logic::lit_node(l);
        const std::uint32_t slot =
            n == 0 ? 0
                   : 1 + std::uint32_t(std::lower_bound(cone.begin(), cone.end(), n) -
                                       cone.begin());
        return slot << 1 | std::uint32_t(logic::lit_complement(l));
    };
    struct Gate {
        std::uint32_t out, in0, in1;  ///< slot, slot literal, slot literal
    };
    std::vector<Gate> gates;
    std::vector<std::pair<std::size_t, std::uint32_t>> cone_pis;  ///< (PI index, slot)
    for (std::uint32_t k = 0; k < cone.size(); ++k) {
        const std::uint32_t n = cone[k];
        if (aig.is_pi(n)) {
            cone_pis.emplace_back(aig.pi_index(n), k + 1);
        } else {
            gates.push_back({k + 1, slot_lit(aig.node_fanin0(n)), slot_lit(aig.node_fanin1(n))});
        }
    }
    std::sort(cone_pis.begin(), cone_pis.end());

    // Slot of each cared PI, in PI order; 0 for one outside the cone.  The
    // sweeps still draw its pattern, so the random stream does not depend
    // on the cone.
    std::vector<std::uint32_t> cared_slot;
    auto next_pi = cone_pis.begin();
    for (std::size_t i = 0; i < care.size(); ++i) {
        if (!care[i]) continue;
        while (next_pi != cone_pis.end() && next_pi->first < i) ++next_pi;
        cared_slot.push_back(next_pi != cone_pis.end() && next_pi->first == i ? next_pi->second
                                                                              : 0);
    }

    const std::size_t cared = cared_slot.size();
    util::Xoshiro256ss rng(seed);
    // Don't-care cone PIs stay X in every sweep.
    std::vector<TernaryWord> vals(cone.size() + 1, ternary_x());
    vals[0] = ternary_const(0);
    const auto value = [&](std::uint32_t sl) {
        const TernaryWord v = vals[sl >> 1];
        return sl & 1 ? ternary_not(v) : v;
    };
    const std::uint32_t po_slot = slot_lit(aig.po(po));
    bool x_seen = false;
    for (std::size_t s = 0; s < sweeps; ++s) {
        std::uint64_t valid = ~std::uint64_t(0);
        for (std::size_t j = 0; j < cared; ++j) {
            std::uint64_t pattern;
            if (exhaustive) {
                if (j < 6) {
                    // Lanes enumerate the low 6 cared bits.
                    static constexpr std::uint64_t kLanePatterns[6] = {
                        0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
                        0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
                        0xffff0000ffff0000ull, 0xffffffff00000000ull};
                    pattern = kLanePatterns[j];
                } else {
                    // Sweeps enumerate the rest.
                    pattern = (s >> (j - 6)) & 1 ? ~std::uint64_t(0) : 0;
                }
            } else {
                pattern = rng();
            }
            if (cared_slot[j] != 0) vals[cared_slot[j]] = ternary_const(pattern);
        }
        if (exhaustive && cared < 6)
            valid = (std::uint64_t(1) << (std::uint64_t(1) << cared)) - 1;
        for (const Gate& g : gates) vals[g.out] = ternary_and(value(g.in0), value(g.in1));
        const std::uint64_t x = value(po_slot).unknown & valid;
        r.lanes_checked += std::popcount(valid);
        r.x_lanes += std::popcount(x);
        x_seen = x_seen || x != 0;
    }
    r.proved_exhaustive = exhaustive && !x_seen;
    return r;
}

}  // namespace matador::lint
