#include "search/ast.h"

#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace mlake::search {

namespace {

std::string LiteralToString(const Literal& lit) {
  if (lit.kind == Literal::Kind::kNumber) {
    // Shortest text that reads back to the same bits, so the canonical
    // rendering never merges two queries. The lexer reads an infinity
    // (from an out-of-range literal) back from 1e999.
    const double d = lit.number_value;
    if (std::isinf(d)) return d > 0 ? "1e999" : "-1e999";
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof(buf), d,
                           std::chars_format::general);
    return std::string(buf, r.ptr);
  }
  std::string out = "'";
  for (char c : lit.string_value) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

std::string OpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kContains:
      return "CONTAINS";
  }
  return "?";
}

std::string ArgsToString(const std::vector<Literal>& args) {
  std::string out = "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += LiteralToString(args[i]);
  }
  out += ")";
  return out;
}

}  // namespace

std::string ToString(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return "(" + ToString(*expr.children[0]) + " AND " +
             ToString(*expr.children[1]) + ")";
    case Expr::Kind::kOr:
      return "(" + ToString(*expr.children[0]) + " OR " +
             ToString(*expr.children[1]) + ")";
    case Expr::Kind::kNot:
      return "NOT " + ToString(*expr.children[0]);
    case Expr::Kind::kCompare:
      return expr.field + " " + OpToString(expr.op) + " " +
             LiteralToString(expr.value);
    case Expr::Kind::kCall:
      return expr.function + ArgsToString(expr.args);
  }
  return "?";
}

std::string ToString(const Query& query) {
  std::string out = "FIND MODELS";
  if (query.where != nullptr) {
    out += " WHERE " + ToString(*query.where);
  }
  if (query.has_rank) {
    out += " RANK BY " + query.rank.function + ArgsToString(query.rank.args);
  }
  out += StrFormat(" LIMIT %zu", query.limit);
  return out;
}

}  // namespace mlake::search
