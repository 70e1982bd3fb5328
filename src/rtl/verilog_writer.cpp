#include "rtl/verilog_writer.hpp"

#include <sstream>

namespace matador::rtl {

namespace {

int precedence(const Expr& e) {
    // Higher binds tighter.  Mirrors Verilog operator precedence closely
    // enough that we can parenthesize only when needed.
    if (std::holds_alternative<Expr::Unary>(e.node)) return 9;
    if (const auto* b = std::get_if<Expr::Binary>(&e.node)) {
        switch (b->op) {
            case BinaryOp::kAdd:
            case BinaryOp::kSub: return 7;
            case BinaryOp::kShl:
            case BinaryOp::kShr: return 6;
            case BinaryOp::kLt:
            case BinaryOp::kLe:
            case BinaryOp::kGt:
            case BinaryOp::kGe: return 5;
            case BinaryOp::kEq:
            case BinaryOp::kNe: return 4;
            case BinaryOp::kAnd: return 3;
            case BinaryOp::kXor: return 2;
            case BinaryOp::kOr: return 1;
        }
    }
    if (std::holds_alternative<Expr::Ternary>(e.node)) return 0;
    return 10;  // atoms
}

const char* binary_token(BinaryOp op) {
    switch (op) {
        case BinaryOp::kAnd: return "&";
        case BinaryOp::kOr: return "|";
        case BinaryOp::kXor: return "^";
        case BinaryOp::kAdd: return "+";
        case BinaryOp::kSub: return "-";
        case BinaryOp::kEq: return "==";
        case BinaryOp::kNe: return "!=";
        case BinaryOp::kLt: return "<";
        case BinaryOp::kLe: return "<=";
        case BinaryOp::kGt: return ">";
        case BinaryOp::kGe: return ">=";
        case BinaryOp::kShl: return "<<";
        case BinaryOp::kShr: return ">>";
    }
    return "?";
}

void emit(const Expr& e, std::ostream& os, int parent_prec);

void emit_child(const ExprP& c, std::ostream& os, int prec) {
    const bool paren = precedence(*c) < prec;
    if (paren) os << "(";
    emit(*c, os, paren ? 0 : prec);
    if (paren) os << ")";
}

void emit(const Expr& e, std::ostream& os, int parent_prec) {
    if (const auto* r = std::get_if<Expr::Ref>(&e.node)) {
        os << r->name;
    } else if (const auto* i = std::get_if<Expr::Index>(&e.node)) {
        os << i->name << "[" << i->index << "]";
    } else if (const auto* s = std::get_if<Expr::Slice>(&e.node)) {
        os << s->name << "[" << s->msb << ":" << s->lsb << "]";
    } else if (const auto* c = std::get_if<Expr::Const>(&e.node)) {
        if (c->width == 0)
            os << c->value;
        else if (c->width == 1)
            os << "1'b" << (c->value & 1u);
        else
            os << c->width << "'d" << c->value;
    } else if (const auto* u = std::get_if<Expr::Unary>(&e.node)) {
        switch (u->op) {
            case UnaryOp::kNot: os << "~"; break;
            case UnaryOp::kReduceAnd: os << "&"; break;
            case UnaryOp::kReduceOr: os << "|"; break;
            case UnaryOp::kMinus: os << "-"; break;
        }
        emit_child(u->a, os, 9);
    } else if (const auto* b = std::get_if<Expr::Binary>(&e.node)) {
        const int p = precedence(e);
        emit_child(b->a, os, p);
        os << " " << binary_token(b->op) << " ";
        // Right operand gets p+1 so same-precedence chains parenthesize on
        // the right (keeps subtraction and comparisons unambiguous).
        emit_child(b->b, os, p + 1);
    } else if (const auto* t = std::get_if<Expr::Ternary>(&e.node)) {
        if (parent_prec > 0) os << "(";
        emit_child(t->cond, os, 1);
        os << " ? ";
        emit_child(t->then_e, os, 1);
        os << " : ";
        emit_child(t->else_e, os, 0);
        if (parent_prec > 0) os << ")";
    } else if (const auto* cc = std::get_if<Expr::Concat>(&e.node)) {
        os << "{";
        for (std::size_t i = 0; i < cc->parts.size(); ++i) {
            if (i) os << ", ";
            emit(*cc->parts[i], os, 0);
        }
        os << "}";
    } else if (const auto* sg = std::get_if<Expr::Signed>(&e.node)) {
        os << "$signed(";
        emit(*sg->a, os, 0);
        os << ")";
    }
}

void emit_stmt(const Stmt& s, std::ostream& os, int indent);

void emit_body(const std::vector<Stmt>& body, std::ostream& os, int indent) {
    const std::string pad(std::size_t(indent) * 2, ' ');
    if (body.size() == 1) {
        emit_stmt(body.front(), os, indent);
    } else {
        os << pad << "begin\n";
        for (const auto& st : body) emit_stmt(st, os, indent + 1);
        os << pad << "end\n";
    }
}

void emit_stmt(const Stmt& s, std::ostream& os, int indent) {
    const std::string pad(std::size_t(indent) * 2, ' ');
    if (const auto* a = std::get_if<NonBlocking>(&s.node)) {
        os << pad;
        emit(*a->lhs, os, 0);
        os << " <= ";
        emit(*a->rhs, os, 0);
        os << ";\n";
    } else if (const auto* b = std::get_if<Blocking>(&s.node)) {
        os << pad;
        emit(*b->lhs, os, 0);
        os << " = ";
        emit(*b->rhs, os, 0);
        os << ";\n";
    } else if (const auto* f = std::get_if<IfStmt>(&s.node)) {
        os << pad << "if (";
        emit(*f->cond, os, 0);
        os << ")\n";
        emit_body(f->then_body, os, indent + 1);
        if (!f->else_body.empty()) {
            os << pad << "else\n";
            emit_body(f->else_body, os, indent + 1);
        }
    } else if (const auto* c = std::get_if<CaseStmt>(&s.node)) {
        os << pad << "case (";
        emit(*c->subject, os, 0);
        os << ")\n";
        for (const auto& item : c->items) {
            os << pad << "  ";
            if (item.label)
                emit(*item.label, os, 0);
            else
                os << "default";
            os << ":\n";
            emit_body(item.body, os, indent + 2);
        }
        os << pad << "endcase\n";
    }
}

std::string range_decl(int width) {
    return width <= 1 ? "" : "[" + std::to_string(width - 1) + ":0] ";
}

}  // namespace

std::string emit_expr(const Expr& e) {
    std::ostringstream os;
    emit(e, os, 0);
    return os.str();
}

std::string emit_module_header(const Module& m) {
    std::ostringstream os;
    for (const auto& c : m.header_comments) os << "// " << c << "\n";
    if (m.dont_touch) os << "(* DONT_TOUCH = \"yes\" *)\n";
    os << "module " << m.name << " (\n";
    for (std::size_t i = 0; i < m.ports.size(); ++i) {
        const auto& p = m.ports[i];
        os << "  " << (p.dir == PortDir::kInput ? "input " : "output ")
           << (p.is_reg ? "reg " : "wire ") << range_decl(p.width) << p.name
           << (i + 1 < m.ports.size() ? "," : "") << "\n";
    }
    os << ");\n\n";
    return os.str();
}

std::string emit_module(const Module& m) {
    std::ostringstream os;
    os << emit_module_header(m);

    for (const auto& n : m.nets) {
        os << "  " << (n.is_reg ? "reg " : "wire ") << (n.is_signed ? "signed " : "")
           << range_decl(n.width) << n.name << ";";
        if (!n.comment.empty()) os << "  // " << n.comment;
        os << "\n";
    }
    if (!m.nets.empty()) os << "\n";

    for (const auto& a : m.assigns) {
        os << "  assign ";
        emit(*a.lhs, os, 0);
        os << " = ";
        emit(*a.rhs, os, 0);
        os << ";\n";
    }
    if (!m.assigns.empty()) os << "\n";

    for (const auto& blk : m.always_blocks) {
        os << "  always @(posedge " << blk.clock << ") begin\n";
        for (const auto& st : blk.body) emit_stmt(st, os, 2);
        os << "  end\n\n";
    }

    for (const auto& inst : m.instances) {
        os << "  " << inst.module_name << " " << inst.instance_name << " (\n";
        for (std::size_t i = 0; i < inst.connections.size(); ++i) {
            os << "    ." << inst.connections[i].first << "(";
            emit(*inst.connections[i].second, os, 0);
            os << ")" << (i + 1 < inst.connections.size() ? "," : "") << "\n";
        }
        os << "  );\n\n";
    }

    os << "endmodule\n";
    return os.str();
}

}  // namespace matador::rtl
