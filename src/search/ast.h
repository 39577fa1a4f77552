#ifndef MLAKE_SEARCH_AST_H_
#define MLAKE_SEARCH_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace mlake::search {

/// MLQL — the declarative model-query language of the paper's §6
/// ("we aim for users to be able to write declarative queries and
/// retrieve a set of models ranked by their suitability"). Example:
///
///   FIND MODELS
///   WHERE task = 'summarization' AND trained_on('legal-sum/us-courts')
///   RANK BY behavior_sim('user/query-model')
///   LIMIT 10
///
/// Grammar (keywords case-insensitive):
///   query      := FIND MODELS [WHERE or_expr] [RANK BY call] [LIMIT int]
///   or_expr    := and_expr (OR and_expr)*
///   and_expr   := unary (AND unary)*
///   unary      := NOT unary | primary
///   primary    := '(' or_expr ')' | comparison | call
///   comparison := IDENT op literal
///   op         := = | != | < | <= | > | >= | CONTAINS
///   call       := IDENT '(' [literal (',' literal)*] ')'
///   literal    := 'string' ('' escapes a quote) | number
///   number     := ['-'] digit [digit | '.' | e | E]*, where a '+' or
///                 '-' may follow the e/E of an exponent (1e-07)

/// A literal value in a query.
struct Literal {
  enum class Kind { kString, kNumber };
  Kind kind = Kind::kString;
  std::string string_value;
  double number_value = 0.0;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kContains };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Predicate / expression node.
struct Expr {
  enum class Kind { kAnd, kOr, kNot, kCompare, kCall };
  Kind kind;

  // kAnd / kOr: children; kNot: children[0].
  std::vector<ExprPtr> children;

  // kCompare.
  std::string field;
  CompareOp op = CompareOp::kEq;
  Literal value;

  // kCall.
  std::string function;
  std::vector<Literal> args;
};

/// A ranking directive: function name + literal args.
struct RankBy {
  std::string function;  // e.g. "behavior_sim"
  std::vector<Literal> args;
};

/// A parsed MLQL query.
struct Query {
  ExprPtr where;            // may be null (match all)
  bool has_rank = false;
  RankBy rank;
  size_t limit = 10;        // default LIMIT 10
};

/// Renders the query back to canonical MLQL text (debugging / EXPLAIN).
std::string ToString(const Query& query);
std::string ToString(const Expr& expr);

}  // namespace mlake::search

#endif  // MLAKE_SEARCH_AST_H_
