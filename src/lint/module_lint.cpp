#include "lint/module_lint.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>

namespace matador::lint {

namespace {

using rtl::Expr;
using rtl::ExprP;
using rtl::Module;
using rtl::Stmt;

/// Everything the checks need to know about one declared signal.
struct NetInfo {
    int width = 1;
    bool is_reg = false;
    bool is_input = false;
    bool is_output = false;
    /// Continuous drivers per bit (assign lhs + instance output pins).
    std::vector<std::uint8_t> cont_drivers;
    bool always_driven = false;  ///< assigned inside an always block
    /// Connected to an instance of a module outside the lint scope; its
    /// drive direction is unknowable, so undriven/unused stay quiet.
    bool ext_connected = false;
    bool read = false;       ///< referenced by any rhs / condition / pin
    bool live_seed = false;  ///< read by an output, register, or instance
};

/// Declared nets referenced by one continuous assign, as net ids: sorted,
/// each id once, undeclared names left out.
struct AssignNets {
    std::vector<int> lhs, rhs;
    bool rhs_has_ternary = false;  ///< a ternary folds with one branch unknown
};

/// Every declared net is numbered once per module, in name order, so a walk
/// over ids visits nets in the order a name-keyed map would.  Each net
/// reference is resolved once, in the collection walk; the checks then
/// work on vectors indexed by id.
class ModuleAnalyzer {
public:
    ModuleAnalyzer(const Module& mod, const std::vector<const Module*>& scope,
                   std::vector<Finding>& findings)
        : mod_(mod), scope_(scope), findings_(findings),
          where_("module " + mod.name) {}

    void run(ModuleLintStats* stats) {
        declare_signals();
        collect_assigns();
        collect_always_blocks();
        collect_instances();
        check_drivers();
        check_cycles();
        check_liveness();
        check_constants();
        if (stats) {
            stats->modules += 1;
            stats->ports += mod_.ports.size();
            stats->nets += mod_.nets.size();
            stats->assigns += mod_.assigns.size();
            stats->always_blocks += mod_.always_blocks.size();
            stats->instances += mod_.instances.size();
        }
    }

private:
    void add(const char* chk, Severity sev, std::string_view object,
             std::string message) {
        findings_.push_back(
            {chk, sev, where_, std::string(object), std::move(message)});
    }

    // -- symbol table -------------------------------------------------------

    void declare_signals() {
        // The first declaration of a name wins; ports come first.
        std::vector<std::pair<std::string_view, NetInfo>> decls;
        const auto declare = [&](const std::string& name, int width, bool is_reg,
                                 rtl::PortDir dir, bool is_port) {
            if (!ids_.emplace(name, int(decls.size())).second) return;
            NetInfo info;
            info.width = width;
            info.is_reg = is_reg;
            info.is_input = is_port && dir == rtl::PortDir::kInput;
            info.is_output = is_port && dir == rtl::PortDir::kOutput;
            info.cont_drivers.assign(std::size_t(std::max(width, 1)), 0);
            decls.emplace_back(name, std::move(info));
        };
        for (const auto& p : mod_.ports) declare(p.name, p.width, p.is_reg, p.dir, true);
        for (const auto& n : mod_.nets)
            declare(n.name, n.width, n.is_reg, rtl::PortDir::kInput, false);
        std::sort(decls.begin(), decls.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        names_.reserve(decls.size());
        nets_.reserve(decls.size());
        for (auto& [name, info] : decls) {
            ids_[name] = int(names_.size());
            names_.push_back(name);
            nets_.push_back(std::move(info));
        }
    }

    /// Id of a declared net, or -1.
    int find(const std::string& name) const {
        const auto it = ids_.find(name);
        return it == ids_.end() ? -1 : it->second;
    }

    /// find(), reporting an undeclared name the first time it is met.
    int lookup(const std::string& name) {
        const int id = find(name);
        if (id < 0 && unknown_reported_.insert(name).second)
            add(check::kUnknownNet, Severity::kError, name,
                "referenced but never declared");
        return id;
    }

    // -- expression walks ---------------------------------------------------

    /// Check an Index/Slice select of net `id` against its declared width.
    void check_bounds(const std::string& name, int id, int msb, int lsb) {
        if (id < 0) return;
        const int width = nets_[std::size_t(id)].width;
        if (lsb < 0 || msb < lsb || msb >= width)
            add(check::kBitRange, Severity::kError, name,
                "select [" + std::to_string(msb) +
                    (msb == lsb ? "" : ":" + std::to_string(lsb)) +
                    "] outside [" + std::to_string(width - 1) + ":0]");
    }

    /// Mark every net referenced by `e` as read (and optionally as a
    /// liveness seed), with bit-select bounds checking.  When `refs` is
    /// given, the resolved ids are appended to it.
    void mark_read(const ExprP& e, bool live_seed = false, AssignNets* refs = nullptr) {
        if (!e) return;
        std::visit(
            [&](const auto& node) {
                using T = std::decay_t<decltype(node)>;
                if constexpr (std::is_same_v<T, Expr::Ref>) {
                    touch_read(node.name, live_seed, refs);
                } else if constexpr (std::is_same_v<T, Expr::Index>) {
                    check_bounds(node.name, touch_read(node.name, live_seed, refs),
                                 node.index, node.index);
                } else if constexpr (std::is_same_v<T, Expr::Slice>) {
                    check_bounds(node.name, touch_read(node.name, live_seed, refs),
                                 node.msb, node.lsb);
                } else if constexpr (std::is_same_v<T, Expr::Const>) {
                    // nothing to do
                } else if constexpr (std::is_same_v<T, Expr::Unary>) {
                    mark_read(node.a, live_seed, refs);
                } else if constexpr (std::is_same_v<T, Expr::Binary>) {
                    mark_read(node.a, live_seed, refs);
                    mark_read(node.b, live_seed, refs);
                } else if constexpr (std::is_same_v<T, Expr::Ternary>) {
                    if (refs) refs->rhs_has_ternary = true;
                    mark_read(node.cond, live_seed, refs);
                    mark_read(node.then_e, live_seed, refs);
                    mark_read(node.else_e, live_seed, refs);
                } else if constexpr (std::is_same_v<T, Expr::Concat>) {
                    for (const auto& part : node.parts)
                        mark_read(part, live_seed, refs);
                } else if constexpr (std::is_same_v<T, Expr::Signed>) {
                    mark_read(node.a, live_seed, refs);
                }
            },
            e->node);
    }

    int touch_read(const std::string& name, bool live_seed, AssignNets* refs = nullptr) {
        const int id = lookup(name);
        if (id >= 0) {
            NetInfo& info = nets_[std::size_t(id)];
            info.read = true;
            if (live_seed) info.live_seed = true;
            if (refs) refs->rhs.push_back(id);
        }
        return id;
    }

    /// Decompose an assignment target into (net id, msb, lsb) bit ranges.
    /// Anything that is not a legal lvalue shape is ignored (the writer
    /// never emits one).
    template <class Fn>
    void for_each_lvalue(const ExprP& e, Fn&& fn) {
        if (!e) return;
        if (const auto* r = std::get_if<Expr::Ref>(&e->node)) {
            const int id = lookup(r->name);
            if (id >= 0) fn(id, nets_[std::size_t(id)].width - 1, 0);
        } else if (const auto* i = std::get_if<Expr::Index>(&e->node)) {
            const int id = lookup(i->name);
            check_bounds(i->name, id, i->index, i->index);
            if (id >= 0) fn(id, i->index, i->index);
        } else if (const auto* s = std::get_if<Expr::Slice>(&e->node)) {
            const int id = lookup(s->name);
            check_bounds(s->name, id, s->msb, s->lsb);
            if (id >= 0) fn(id, s->msb, s->lsb);
        } else if (const auto* c = std::get_if<Expr::Concat>(&e->node)) {
            for (const auto& part : c->parts) for_each_lvalue(part, fn);
        }
    }

    /// Add one continuous driver to every bit of an lvalue (clamped to the
    /// declared range; out-of-range bits were already reported).
    void drive_lvalue(const ExprP& e) {
        for_each_lvalue(e, [&](int id, int msb, int lsb) {
            NetInfo& info = nets_[std::size_t(id)];
            const int hi = std::min(msb, info.width - 1);
            for (int b = std::max(lsb, 0); b <= hi; ++b)
                if (info.cont_drivers[std::size_t(b)] < 0xff)
                    info.cont_drivers[std::size_t(b)]++;
        });
    }

    /// Width of an lvalue in bits (known shapes only).
    std::optional<int> lvalue_width(const ExprP& e) {
        int total = 0;
        bool known = true;
        for_each_lvalue(e, [&](int, int msb, int lsb) {
            if (msb < lsb) known = false;
            total += msb - lsb + 1;
        });
        if (!known || total == 0) return std::nullopt;
        return total;
    }

    /// Ids of every declared net `e` mentions, in any position: sorted,
    /// each once.  Reports nothing.
    std::vector<int> net_ids(const ExprP& e) const {
        std::vector<int> ids;
        collect_ids(e, ids);
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        return ids;
    }

    void collect_ids(const ExprP& e, std::vector<int>& out) const {
        if (!e) return;
        std::visit(
            [&](const auto& node) {
                using T = std::decay_t<decltype(node)>;
                if constexpr (std::is_same_v<T, Expr::Ref> || std::is_same_v<T, Expr::Index> ||
                              std::is_same_v<T, Expr::Slice>) {
                    if (const int id = find(node.name); id >= 0) out.push_back(id);
                } else if constexpr (std::is_same_v<T, Expr::Unary> ||
                                     std::is_same_v<T, Expr::Signed>) {
                    collect_ids(node.a, out);
                } else if constexpr (std::is_same_v<T, Expr::Binary>) {
                    collect_ids(node.a, out);
                    collect_ids(node.b, out);
                } else if constexpr (std::is_same_v<T, Expr::Ternary>) {
                    collect_ids(node.cond, out);
                    collect_ids(node.then_e, out);
                    collect_ids(node.else_e, out);
                } else if constexpr (std::is_same_v<T, Expr::Concat>) {
                    for (const auto& part : node.parts) collect_ids(part, out);
                }
            },
            e->node);
    }

    /// Natural width of an expression, flagging definite operand-width
    /// conflicts on the way.  nullopt = context-determined / unknown
    /// (unsized constants, arithmetic), which never flags.
    std::optional<int> infer_width(const ExprP& e) {
        if (!e) return std::nullopt;
        using rtl::BinaryOp;
        using rtl::UnaryOp;
        if (const auto* r = std::get_if<Expr::Ref>(&e->node)) {
            const int id = find(r->name);
            return id < 0 ? std::nullopt : std::optional<int>(nets_[std::size_t(id)].width);
        }
        if (std::get_if<Expr::Index>(&e->node)) return 1;
        if (const auto* s = std::get_if<Expr::Slice>(&e->node))
            return s->msb >= s->lsb ? std::optional<int>(s->msb - s->lsb + 1)
                                    : std::nullopt;
        if (const auto* c = std::get_if<Expr::Const>(&e->node))
            return c->width > 0 ? std::optional<int>(c->width) : std::nullopt;
        if (const auto* u = std::get_if<Expr::Unary>(&e->node)) {
            const auto w = infer_width(u->a);
            if (u->op == UnaryOp::kReduceAnd || u->op == UnaryOp::kReduceOr)
                return 1;
            return w;  // kNot / kMinus preserve operand width
        }
        if (const auto* b = std::get_if<Expr::Binary>(&e->node)) {
            const auto wa = infer_width(b->a);
            const auto wb = infer_width(b->b);
            switch (b->op) {
                case BinaryOp::kAnd:
                case BinaryOp::kOr:
                case BinaryOp::kXor:
                    if (wa && wb && *wa != *wb)
                        add(check::kWidthMismatch, Severity::kWarning, "",
                            "bitwise operands differ in width: " +
                                std::to_string(*wa) + " vs " +
                                std::to_string(*wb));
                    if (wa && wb) return std::max(*wa, *wb);
                    return std::nullopt;
                case BinaryOp::kEq:
                case BinaryOp::kNe:
                case BinaryOp::kLt:
                case BinaryOp::kLe:
                case BinaryOp::kGt:
                case BinaryOp::kGe:
                    return 1;
                case BinaryOp::kShl:
                case BinaryOp::kShr:
                    return wa;
                case BinaryOp::kAdd:
                case BinaryOp::kSub:
                    // Context-determined (carry / borrow); never flag.
                    return std::nullopt;
            }
            return std::nullopt;
        }
        if (const auto* t = std::get_if<Expr::Ternary>(&e->node)) {
            const auto wt = infer_width(t->then_e);
            const auto we = infer_width(t->else_e);
            infer_width(t->cond);
            if (wt && we && *wt != *we)
                add(check::kWidthMismatch, Severity::kWarning, "",
                    "ternary branches differ in width: " + std::to_string(*wt) +
                        " vs " + std::to_string(*we));
            if (wt && we) return std::max(*wt, *we);
            return std::nullopt;
        }
        if (const auto* c = std::get_if<Expr::Concat>(&e->node)) {
            int total = 0;
            for (const auto& part : c->parts) {
                const auto w = infer_width(part);
                if (!w) return std::nullopt;
                total += *w;
            }
            return total;
        }
        if (const auto* s = std::get_if<Expr::Signed>(&e->node))
            return infer_width(s->a);
        return std::nullopt;
    }

    // -- collection passes --------------------------------------------------

    void collect_assigns() {
        assign_nets_.reserve(mod_.assigns.size());
        for (const auto& a : mod_.assigns) {
            drive_lvalue(a.lhs);
            AssignNets refs;
            mark_read(a.rhs, false, &refs);
            std::sort(refs.rhs.begin(), refs.rhs.end());
            refs.rhs.erase(std::unique(refs.rhs.begin(), refs.rhs.end()), refs.rhs.end());
            refs.lhs = net_ids(a.lhs);
            assign_nets_.push_back(std::move(refs));
            const auto lw = lvalue_width(a.lhs);
            const auto rw = infer_width(a.rhs);
            if (lw && rw && *lw != *rw)
                add(check::kWidthMismatch, Severity::kWarning,
                    lvalue_name(a.lhs),
                    "assign width mismatch: lhs " + std::to_string(*lw) +
                        " bits, rhs " + std::to_string(*rw) + " bits");
        }
    }

    void collect_always_blocks() {
        for (const auto& ab : mod_.always_blocks) {
            touch_read(ab.clock, true);
            for (const auto& s : ab.body) walk_stmt(s);
        }
    }

    void walk_stmt(const Stmt& s) {
        std::visit(
            [&](const auto& node) {
                using T = std::decay_t<decltype(node)>;
                if constexpr (std::is_same_v<T, rtl::NonBlocking> ||
                              std::is_same_v<T, rtl::Blocking>) {
                    for_each_lvalue(node.lhs, [&](int id, int, int) {
                        nets_[std::size_t(id)].always_driven = true;
                    });
                    // Everything a register consumes is live state.
                    mark_read(node.rhs, true);
                } else if constexpr (std::is_same_v<T, rtl::IfStmt>) {
                    mark_read(node.cond, true);
                    for (const auto& b : node.then_body) walk_stmt(b);
                    for (const auto& b : node.else_body) walk_stmt(b);
                } else if constexpr (std::is_same_v<T, rtl::CaseStmt>) {
                    mark_read(node.subject, true);
                    for (const auto& item : node.items) {
                        if (item.label) mark_read(item.label, true);
                        for (const auto& b : item.body) walk_stmt(b);
                    }
                }
            },
            s.node);
    }

    const Module* find_module(const std::string& name) const {
        for (const Module* m : scope_)
            if (m && m->name == name) return m;
        return nullptr;
    }

    void collect_instances() {
        for (const auto& inst : mod_.instances) {
            const Module* target = find_module(inst.module_name);
            if (!target) {
                add(check::kUnknownModule, Severity::kInfo, inst.instance_name,
                    "instance of '" + inst.module_name +
                        "' outside the lint scope; connections unchecked");
                for (const auto& [port, conn] : inst.connections) {
                    (void)port;
                    mark_read(conn, true);
                    for_each_lvalue(conn, [&](int id, int, int) {
                        nets_[std::size_t(id)].ext_connected = true;
                    });
                }
                continue;
            }
            for (const auto& [port_name, conn] : inst.connections) {
                const auto port = std::find_if(
                    target->ports.begin(), target->ports.end(),
                    [&](const rtl::Port& p) { return p.name == port_name; });
                if (port == target->ports.end()) {
                    add(check::kUnknownModule, Severity::kError,
                        inst.instance_name,
                        "connection to nonexistent port '" + port_name +
                            "' of module '" + target->name + "'");
                    mark_read(conn, true);
                    continue;
                }
                if (port->dir == rtl::PortDir::kInput) {
                    mark_read(conn, true);
                } else {
                    // The instance drives this net; reading it elsewhere is
                    // what makes it live.
                    drive_lvalue(conn);
                    for_each_lvalue(conn, [&](int id, int, int) {
                        nets_[std::size_t(id)].ext_connected = true;
                    });
                }
                const auto cw = port->dir == rtl::PortDir::kInput
                                    ? infer_width(conn)
                                    : lvalue_width(conn);
                if (cw && *cw != port->width)
                    add(check::kWidthMismatch, Severity::kWarning,
                        inst.instance_name + "." + port_name,
                        "port is " + std::to_string(port->width) +
                            " bits, connection is " + std::to_string(*cw));
            }
        }
    }

    // -- checks -------------------------------------------------------------

    void check_drivers() {
        for (std::size_t id = 0; id < nets_.size(); ++id) {
            const NetInfo& info = nets_[id];
            const std::string_view name = names_[id];
            const bool cont = std::any_of(info.cont_drivers.begin(),
                                          info.cont_drivers.end(),
                                          [](std::uint8_t c) { return c > 0; });
            const int multi_bit = [&] {
                for (std::size_t b = 0; b < info.cont_drivers.size(); ++b)
                    if (info.cont_drivers[b] > 1) return int(b);
                return -1;
            }();
            if (multi_bit >= 0)
                add(check::kMultiDriven, Severity::kError, name,
                    "bit " + std::to_string(multi_bit) +
                        " has multiple continuous drivers");
            else if (cont && info.always_driven)
                add(check::kMultiDriven, Severity::kError, name,
                    "driven by both a continuous assign and an always block");
            if (info.read && !info.is_input && !cont && !info.always_driven &&
                !info.ext_connected)
                add(check::kUndriven, Severity::kError, name,
                    "read but never driven");
            if (!info.read && !info.is_output && !info.ext_connected) {
                if (info.is_input)
                    add(check::kUnused, Severity::kInfo, name,
                        "input port never read");
                else if (cont || info.always_driven)
                    add(check::kUnused, Severity::kWarning, name,
                        "driven but never read");
                else
                    add(check::kUnused, Severity::kInfo, name,
                        "declared but never used");
            }
        }
    }

    /// Tarjan SCC over the net-level combinational signal graph.
    void check_cycles() {
        const std::size_t n_nets = nets_.size();
        std::vector<std::vector<int>> edges(n_nets);
        std::vector<bool> self_loop(n_nets, false);
        const auto connect = [&](const std::vector<int>& from, const std::vector<int>& to) {
            for (const int f : from)
                for (const int t : to) {
                    edges[std::size_t(f)].push_back(t);
                    if (f == t) self_loop[std::size_t(f)] = true;
                }
        };
        for (const auto& a : assign_nets_) connect(a.rhs, a.lhs);
        for (const auto& inst : mod_.instances) {
            const Module* target = find_module(inst.module_name);
            // Only purely combinational instances propagate same-cycle.
            if (!target || !target->always_blocks.empty()) continue;
            std::vector<int> ins, outs;
            for (const auto& [port_name, conn] : inst.connections) {
                const auto port = std::find_if(
                    target->ports.begin(), target->ports.end(),
                    [&](const rtl::Port& p) { return p.name == port_name; });
                if (port == target->ports.end()) continue;
                collect_ids(conn, port->dir == rtl::PortDir::kInput ? ins : outs);
            }
            for (auto* side : {&ins, &outs}) {
                std::sort(side->begin(), side->end());
                side->erase(std::unique(side->begin(), side->end()), side->end());
            }
            connect(ins, outs);
        }

        // Iterative Tarjan.
        const int n = int(n_nets);
        std::vector<int> index(std::size_t(n), -1), low(std::size_t(n), 0);
        std::vector<bool> on_stack(std::size_t(n), false);
        std::vector<int> stack;
        int next_index = 0;
        struct Frame {
            int v;
            std::size_t edge;
        };
        for (int root = 0; root < n; ++root) {
            if (index[std::size_t(root)] != -1) continue;
            std::vector<Frame> call{{root, 0}};
            index[std::size_t(root)] = low[std::size_t(root)] = next_index++;
            stack.push_back(root);
            on_stack[std::size_t(root)] = true;
            while (!call.empty()) {
                Frame& f = call.back();
                const auto& vs = edges[std::size_t(f.v)];
                if (f.edge < vs.size()) {
                    const int w = vs[f.edge++];
                    if (index[std::size_t(w)] == -1) {
                        index[std::size_t(w)] = low[std::size_t(w)] =
                            next_index++;
                        stack.push_back(w);
                        on_stack[std::size_t(w)] = true;
                        call.push_back({w, 0});
                    } else if (on_stack[std::size_t(w)]) {
                        low[std::size_t(f.v)] =
                            std::min(low[std::size_t(f.v)], index[std::size_t(w)]);
                    }
                    continue;
                }
                // All edges done: pop an SCC if v is a root.
                if (low[std::size_t(f.v)] == index[std::size_t(f.v)]) {
                    std::vector<int> scc;
                    int w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        on_stack[std::size_t(w)] = false;
                        scc.push_back(w);
                    } while (w != f.v);
                    if (scc.size() > 1 ||
                        (scc.size() == 1 && self_loop[std::size_t(scc[0])]))
                        report_cycle(std::move(scc));
                }
                const int v = f.v;
                call.pop_back();
                if (!call.empty())
                    low[std::size_t(call.back().v)] = std::min(
                        low[std::size_t(call.back().v)], low[std::size_t(v)]);
            }
        }
    }

    void report_cycle(std::vector<int> scc) {
        std::sort(scc.begin(), scc.end());  // ids are in name order
        std::string list;
        const std::size_t shown = std::min<std::size_t>(scc.size(), 8);
        for (std::size_t i = 0; i < shown; ++i)
            list += std::string(i ? " -> " : "") + std::string(names_[std::size_t(scc[i])]);
        if (scc.size() > shown)
            list += " -> ... (" + std::to_string(scc.size()) + " nets)";
        add(check::kCombCycle, Severity::kError, names_[std::size_t(scc.front())],
            "combinational cycle through " + list);
    }

    /// Dead logic: back-propagate liveness from outputs / registers /
    /// instances through the continuous assigns (a least fixpoint, so the
    /// visiting order does not matter).
    void check_liveness() {
        std::vector<bool> live(nets_.size());
        for (std::size_t id = 0; id < nets_.size(); ++id) {
            const NetInfo& info = nets_[id];
            live[id] = info.live_seed || info.is_output || info.ext_connected;
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto& a : assign_nets_) {
                if (std::none_of(a.lhs.begin(), a.lhs.end(),
                                 [&](int t) { return live[std::size_t(t)]; }))
                    continue;
                for (const int r : a.rhs)
                    if (!live[std::size_t(r)]) {
                        live[std::size_t(r)] = true;
                        changed = true;
                    }
            }
        }
        for (std::size_t id = 0; id < nets_.size(); ++id) {
            const NetInfo& info = nets_[id];
            const bool cont = std::any_of(info.cont_drivers.begin(),
                                          info.cont_drivers.end(),
                                          [](std::uint8_t c) { return c > 0; });
            // "Driven but never read" is already kUnused; dead-logic is the
            // transitive form - read, but only by other dead logic.
            if (cont && !info.always_driven && info.read && !live[id])
                add(check::kDeadLogic, Severity::kWarning, names_[id],
                    "never reaches an output, register, or instance");
        }
    }

    /// Known bit values of every net (LSB first), by net id.
    using KnownBits = std::vector<std::vector<std::optional<bool>>>;

    /// Constant propagation over the continuous assigns; flags nets that
    /// fold to a constant without being written as one.  Assigns fold
    /// round-robin in declaration order: on a multi-driven net the first
    /// fold wins.
    void check_constants() {
        KnownBits known(nets_.size());
        known_count_.assign(nets_.size(), 0);
        for (std::size_t id = 0; id < nets_.size(); ++id)
            known[id].resize(std::size_t(std::max(nets_[id].width, 1)));
        bool changed = true;
        std::size_t rounds = 0;
        while (changed && rounds++ < mod_.assigns.size() + 2) {
            changed = false;
            for (std::size_t i = 0; i < mod_.assigns.size(); ++i) {
                if (!may_fold(assign_nets_[i])) continue;
                const auto& a = mod_.assigns[i];
                const auto bits = eval_const(a.rhs, known);
                if (!bits) continue;
                changed = assign_known(a.lhs, *bits, known) || changed;
            }
        }
        for (std::size_t i = 0; i < mod_.assigns.size(); ++i) {
            const auto& a = mod_.assigns[i];
            if (std::get_if<Expr::Const>(&a.rhs->node))
                continue;  // written as a constant on purpose
            if (!may_fold(assign_nets_[i])) continue;
            const auto bits = eval_const(a.rhs, known);
            if (!bits) continue;
            std::string value;
            for (auto it = bits->rbegin(); it != bits->rend(); ++it)
                value += *it ? '1' : '0';
            add(check::kConstLogic, Severity::kWarning, lvalue_name(a.lhs),
                "always evaluates to " + std::to_string(bits->size()) + "'b" +
                    value);
        }
    }

    /// Registers, inputs and externally connected nets never fold.
    bool never_folds(int id) const {
        const NetInfo& info = nets_[std::size_t(id)];
        return info.always_driven || info.is_input || info.ext_connected;
    }

    /// False when eval_const must fail on this rhs: without a ternary every
    /// leaf is evaluated, so one net that never folds or has no known bit
    /// yet fails the whole expression.
    bool may_fold(const AssignNets& a) const {
        if (a.rhs_has_ternary) return true;
        return std::none_of(a.rhs.begin(), a.rhs.end(), [&](int id) {
            return never_folds(id) || known_count_[std::size_t(id)] == 0;
        });
    }

    /// Record folded bits into the lvalue's known-bit table.  Returns true
    /// when any bit became newly known.
    bool assign_known(const ExprP& lhs, const std::vector<bool>& bits, KnownBits& known) {
        // Only single-target lvalues participate (concat targets are rare
        // and not worth the bookkeeping).
        int id = -1;
        int lo = 0, hi = -1;
        if (const auto* r = std::get_if<Expr::Ref>(&lhs->node)) {
            id = find(r->name);
            if (id < 0) return false;
            hi = nets_[std::size_t(id)].width - 1;
        } else if (const auto* i = std::get_if<Expr::Index>(&lhs->node)) {
            id = find(i->name);
            lo = hi = i->index;
        } else if (const auto* s = std::get_if<Expr::Slice>(&lhs->node)) {
            id = find(s->name);
            lo = s->lsb;
            hi = s->msb;
        } else {
            return false;
        }
        if (id < 0) return false;
        auto& slots = known[std::size_t(id)];
        bool changed = false;
        for (int b = lo; b <= hi && b - lo < int(bits.size()); ++b) {
            if (b < 0 || b >= int(slots.size())) continue;
            auto& slot = slots[std::size_t(b)];
            const bool v = bits[std::size_t(b - lo)];
            if (!slot || *slot != v) {
                // Conflicting folds (multi-driver nets) stay unknown.
                if (slot && *slot != v) return false;
                slot = v;
                ++known_count_[std::size_t(id)];
                changed = true;
            }
        }
        return changed;
    }

    /// Fold an expression to definite bits (LSB first); nullopt when any
    /// leaf is unknown or the operator is outside the supported set.
    std::optional<std::vector<bool>> eval_const(const ExprP& e, const KnownBits& known) const {
        if (!e) return std::nullopt;
        using rtl::BinaryOp;
        using rtl::UnaryOp;
        using Bits = std::vector<bool>;
        if (const auto* c = std::get_if<Expr::Const>(&e->node)) {
            if (c->width <= 0 || c->width > 64) return std::nullopt;
            Bits bits(std::size_t(c->width));
            for (int b = 0; b < c->width; ++b)
                bits[std::size_t(b)] = (c->value >> b) & 1;
            return bits;
        }
        const auto net_bits = [&](const std::string& name, bool whole, int lo,
                                  int hi) -> std::optional<Bits> {
            const int id = find(name);
            if (id < 0 || never_folds(id)) return std::nullopt;
            const auto& slots = known[std::size_t(id)];
            if (whole) {
                lo = 0;
                hi = nets_[std::size_t(id)].width - 1;
            }
            if (lo < 0 || hi >= int(slots.size()) || hi < lo) return std::nullopt;
            Bits bits;
            for (int b = lo; b <= hi; ++b) {
                const auto& slot = slots[std::size_t(b)];
                if (!slot) return std::nullopt;
                bits.push_back(*slot);
            }
            return bits;
        };
        if (const auto* r = std::get_if<Expr::Ref>(&e->node))
            return net_bits(r->name, true, 0, 0);
        if (const auto* i = std::get_if<Expr::Index>(&e->node))
            return net_bits(i->name, false, i->index, i->index);
        if (const auto* s = std::get_if<Expr::Slice>(&e->node))
            return net_bits(s->name, false, s->lsb, s->msb);
        if (const auto* u = std::get_if<Expr::Unary>(&e->node)) {
            auto a = eval_const(u->a, known);
            if (!a) return std::nullopt;
            switch (u->op) {
                case UnaryOp::kNot:
                    for (std::size_t b = 0; b < a->size(); ++b)
                        (*a)[b] = !(*a)[b];
                    return a;
                case UnaryOp::kReduceAnd:
                    return Bits{std::all_of(a->begin(), a->end(),
                                            [](bool v) { return v; })};
                case UnaryOp::kReduceOr:
                    return Bits{std::any_of(a->begin(), a->end(),
                                            [](bool v) { return v; })};
                case UnaryOp::kMinus:
                    return std::nullopt;
            }
            return std::nullopt;
        }
        if (const auto* b = std::get_if<Expr::Binary>(&e->node)) {
            const auto a = eval_const(b->a, known);
            const auto c = eval_const(b->b, known);
            if (!a || !c || a->size() != c->size()) return std::nullopt;
            Bits bits(a->size());
            switch (b->op) {
                case BinaryOp::kAnd:
                    for (std::size_t i = 0; i < bits.size(); ++i)
                        bits[i] = (*a)[i] && (*c)[i];
                    return bits;
                case BinaryOp::kOr:
                    for (std::size_t i = 0; i < bits.size(); ++i)
                        bits[i] = (*a)[i] || (*c)[i];
                    return bits;
                case BinaryOp::kXor:
                    for (std::size_t i = 0; i < bits.size(); ++i)
                        bits[i] = (*a)[i] != (*c)[i];
                    return bits;
                case BinaryOp::kEq:
                    return Bits{*a == *c};
                case BinaryOp::kNe:
                    return Bits{*a != *c};
                default:
                    return std::nullopt;
            }
        }
        if (const auto* t = std::get_if<Expr::Ternary>(&e->node)) {
            const auto cond = eval_const(t->cond, known);
            if (!cond) return std::nullopt;
            const bool taken = std::any_of(cond->begin(), cond->end(),
                                           [](bool v) { return v; });
            return eval_const(taken ? t->then_e : t->else_e, known);
        }
        if (const auto* c = std::get_if<Expr::Concat>(&e->node)) {
            // Verilog concat: parts[0] is the MSB group.
            Bits bits;
            for (auto it = c->parts.rbegin(); it != c->parts.rend(); ++it) {
                const auto part = eval_const(*it, known);
                if (!part) return std::nullopt;
                bits.insert(bits.end(), part->begin(), part->end());
            }
            return bits;
        }
        return std::nullopt;  // Signed / arithmetic: out of scope
    }

    /// Display name of an assignment target.
    std::string lvalue_name(const ExprP& e) const {
        if (!e) return "?";
        if (const auto* r = std::get_if<Expr::Ref>(&e->node)) return r->name;
        if (const auto* i = std::get_if<Expr::Index>(&e->node))
            return i->name + "[" + std::to_string(i->index) + "]";
        if (const auto* s = std::get_if<Expr::Slice>(&e->node))
            return s->name + "[" + std::to_string(s->msb) + ":" +
                   std::to_string(s->lsb) + "]";
        if (std::get_if<Expr::Concat>(&e->node)) return "{...}";
        return "?";
    }

    const Module& mod_;
    const std::vector<const Module*>& scope_;
    std::vector<Finding>& findings_;
    std::string where_;
    std::unordered_map<std::string_view, int> ids_;  ///< name -> net id
    std::vector<std::string_view> names_;            ///< by id (= name order)
    std::vector<NetInfo> nets_;                      ///< by id
    std::vector<AssignNets> assign_nets_;            ///< per assign, in order
    std::vector<std::size_t> known_count_;           ///< known constant bits, by id
    std::set<std::string> unknown_reported_;
};

}  // namespace

void lint_module(const Module& mod, const std::vector<const Module*>& scope,
                 std::vector<Finding>& findings, ModuleLintStats* stats) {
    ModuleAnalyzer(mod, scope, findings).run(stats);
}

}  // namespace matador::lint
