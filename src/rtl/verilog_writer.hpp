// Verilog text emission from the AST of verilog_ast.hpp.
#pragma once

#include <string>

#include "rtl/verilog_ast.hpp"

namespace matador::rtl {

/// Serialize one expression (used by tests and the testbench generator).
std::string emit_expr(const Expr& e);

/// The text a module starts with: its header comments, the DONT_TOUCH
/// attribute and the port list, up to and including the blank line after
/// `);`.  emit_module writes the body after it.
std::string emit_module_header(const Module& m);

/// Serialize a whole module to Verilog-2001 text.
std::string emit_module(const Module& m);

}  // namespace matador::rtl
