#include "logic/aig.hpp"

#include <algorithm>
#include <deque>

namespace matador::logic {

Lit Aig::create_pi() {
    const auto node = std::uint32_t(nodes_.size());
    nodes_.push_back({kInvalidLit, Lit(pis_.size())});
    pis_.push_back(node);
    return make_lit(node);
}

Lit Aig::create_and(Lit a, Lit b) {
    // Constant folding and trivial cases.
    if (a > b) std::swap(a, b);  // canonical order
    if (a == kConst0) return kConst0;
    if (a == kConst1) return b;
    if (a == b) return a;
    if (a == lit_not(b)) return kConst0;

    if (strash_) {
        const auto it = strash_table_.find(Key{a, b});
        if (it != strash_table_.end()) return make_lit(it->second);
    }
    const auto node = std::uint32_t(nodes_.size());
    nodes_.push_back({a, b});
    if (strash_) strash_table_.emplace(Key{a, b}, node);
    return make_lit(node);
}

Lit Aig::create_xor(Lit a, Lit b) {
    return create_or(create_and(a, lit_not(b)), create_and(lit_not(a), b));
}

Lit Aig::create_and_tree(std::vector<Lit> lits) {
    if (lits.empty()) return kConst1;
    // Balanced reduction: pairwise combine until one literal remains.
    while (lits.size() > 1) {
        std::vector<Lit> next;
        next.reserve((lits.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < lits.size(); i += 2)
            next.push_back(create_and(lits[i], lits[i + 1]));
        if (lits.size() % 2 != 0) next.push_back(lits.back());
        lits = std::move(next);
    }
    return lits.front();
}

std::size_t Aig::add_po(Lit l) {
    pos_.push_back(l);
    return pos_.size() - 1;
}

std::vector<std::uint32_t> Aig::levels() const {
    std::vector<std::uint32_t> lv(nodes_.size(), 0);
    // Nodes are created in topological order (fanins precede fanouts).
    for (std::uint32_t n = 1; n < nodes_.size(); ++n)
        if (is_and(n))
            lv[n] = 1 + std::max(lv[lit_node(nodes_[n].fanin0)],
                                 lv[lit_node(nodes_[n].fanin1)]);
    return lv;
}

std::uint32_t Aig::depth() const {
    const auto lv = levels();
    std::uint32_t d = 0;
    for (auto po : pos_) d = std::max(d, lv[lit_node(po)]);
    return d;
}

std::vector<std::uint32_t> Aig::cone(Lit root) const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<std::uint32_t> nodes;
    std::vector<std::uint32_t> stack{lit_node(root)};
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        if (n == 0 || seen[n]) continue;
        seen[n] = true;
        nodes.push_back(n);
        if (is_and(n)) {
            stack.push_back(lit_node(nodes_[n].fanin0));
            stack.push_back(lit_node(nodes_[n].fanin1));
        }
    }
    std::sort(nodes.begin(), nodes.end());
    return nodes;
}

std::size_t Aig::count_reachable_ands() const {
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<std::uint32_t> work;
    for (auto po : pos_) {
        const auto n = lit_node(po);
        if (!seen[n]) {
            seen[n] = true;
            work.push_back(n);
        }
    }
    std::size_t count = 0;
    while (!work.empty()) {
        const auto n = work.front();
        work.pop_front();
        if (!is_and(n)) continue;
        ++count;
        for (Lit f : {nodes_[n].fanin0, nodes_[n].fanin1}) {
            const auto m = lit_node(f);
            if (!seen[m]) {
                seen[m] = true;
                work.push_back(m);
            }
        }
    }
    return count;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
    std::vector<std::uint32_t> fo(nodes_.size(), 0);
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<std::uint32_t> work;
    for (auto po : pos_) {
        fo[lit_node(po)]++;
        const auto n = lit_node(po);
        if (!seen[n]) {
            seen[n] = true;
            work.push_back(n);
        }
    }
    while (!work.empty()) {
        const auto n = work.front();
        work.pop_front();
        if (!is_and(n)) continue;
        for (Lit f : {nodes_[n].fanin0, nodes_[n].fanin1}) {
            const auto m = lit_node(f);
            fo[m]++;
            if (!seen[m]) {
                seen[m] = true;
                work.push_back(m);
            }
        }
    }
    return fo;
}

}  // namespace matador::logic
