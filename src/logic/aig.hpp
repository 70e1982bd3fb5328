// And-Inverter Graph with structural hashing.
//
// The AIG is MATADOR's stand-in for the synthesis tool's internal netlist.
// Structural hashing (strash) is the canonical mechanism behind the "logic
// absorption" the paper credits Vivado with: identical AND cones collapse
// to a single node, so the intra-/inter-class expression sharing of a TM
// model becomes shared hardware for free.  Building with `strash = false`
// emulates the DON'T_TOUCH flow of Fig. 8: every requested AND allocates a
// fresh node and nothing is shared.
//
// Literal encoding: lit = 2*node + complement.  Node 0 is constant false,
// so lit 0 = const0 and lit 1 = const1.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace matador::logic {

using Lit = std::uint32_t;

/// Constant literals.
inline constexpr Lit kConst0 = 0;
inline constexpr Lit kConst1 = 1;

/// Literal helpers.
constexpr Lit make_lit(std::uint32_t node, bool complement = false) {
    return (node << 1) | Lit(complement);
}
constexpr std::uint32_t lit_node(Lit l) { return l >> 1; }
constexpr bool lit_complement(Lit l) { return l & 1u; }
constexpr Lit lit_not(Lit l) { return l ^ 1u; }

/// And-Inverter Graph.
class Aig {
public:
    /// `strash` enables structural hashing (logic sharing).
    explicit Aig(bool strash = true) : strash_(strash) {
        nodes_.push_back({0, 0});  // node 0: constant false
    }

    bool strash_enabled() const { return strash_; }

    /// Allocate a primary input; returns its (positive) literal.
    Lit create_pi();
    /// AND of two literals with constant folding and, if enabled, strash.
    Lit create_and(Lit a, Lit b);
    /// OR via De Morgan.
    Lit create_or(Lit a, Lit b) { return lit_not(create_and(lit_not(a), lit_not(b))); }
    /// XOR (two ANDs + OR).
    Lit create_xor(Lit a, Lit b);
    /// Balanced AND over a list (empty list => const1).
    Lit create_and_tree(std::vector<Lit> lits);

    /// Register a primary output; returns its index.
    std::size_t add_po(Lit l);
    /// Rewire primary output `i` to a different literal (fault injection,
    /// post-build patching).
    void set_po(std::size_t i, Lit l) { pos_[i] = l; }

    // -- structure queries --------------------------------------------------
    std::size_t num_pis() const { return pis_.size(); }
    std::size_t num_pos() const { return pos_.size(); }
    /// Number of AND nodes (excludes constant and PIs).
    std::size_t num_ands() const { return nodes_.size() - 1 - pis_.size(); }
    std::size_t num_nodes() const { return nodes_.size(); }

    Lit pi(std::size_t i) const { return make_lit(pis_[i]); }
    Lit po(std::size_t i) const { return pos_[i]; }
    const std::vector<Lit>& pos() const { return pos_; }

    bool is_pi(std::uint32_t node) const {
        return node != 0 && node_fanin0(node) == kInvalidLit;
    }
    bool is_and(std::uint32_t node) const {
        return node != 0 && node_fanin0(node) != kInvalidLit;
    }
    /// PI ordinal of a PI node (`node` must be a PI).
    std::size_t pi_index(std::uint32_t node) const { return nodes_[node].fanin1; }

    Lit node_fanin0(std::uint32_t node) const { return nodes_[node].fanin0; }
    Lit node_fanin1(std::uint32_t node) const { return nodes_[node].fanin1; }

    /// Logic level of every node (PIs/const = 0, AND = 1 + max(fanins)).
    std::vector<std::uint32_t> levels() const;
    /// Maximum level over the POs.
    std::uint32_t depth() const;

    /// The fan-in cone of `root`: every PI and AND node it reads, not the
    /// constant, in index (= topological) order.
    std::vector<std::uint32_t> cone(Lit root) const;

    /// Number of AND nodes reachable from the POs (dead nodes excluded).
    std::size_t count_reachable_ands() const;

    /// Fanout count per node, counting only PO-reachable structure.
    std::vector<std::uint32_t> fanout_counts() const;

private:
    static constexpr Lit kInvalidLit = 0xffffffffu;

    struct Node {
        Lit fanin0 = kInvalidLit;  // kInvalidLit marks PI
        Lit fanin1 = kInvalidLit;  // a PI's ordinal
    };

    struct Key {
        Lit a, b;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            std::uint64_t h = (std::uint64_t(k.a) << 32) | k.b;
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdull;
            h ^= h >> 33;
            return std::size_t(h);
        }
    };

    bool strash_;
    std::vector<Node> nodes_;
    std::vector<std::uint32_t> pis_;
    std::vector<Lit> pos_;
    std::unordered_map<Key, std::uint32_t, KeyHash> strash_table_;
};

}  // namespace matador::logic
