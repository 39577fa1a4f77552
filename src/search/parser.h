#ifndef MLAKE_SEARCH_PARSER_H_
#define MLAKE_SEARCH_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "search/ast.h"

namespace mlake::search {

/// Lexical token.
struct Token {
  enum class Kind {
    kIdent,    // bare word (keywords resolved by the parser)
    kString,   // 'quoted'
    kNumber,
    kOperator,  // = != < <= > >= ( ) ,
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string text;
  double number = 0.0;
  size_t offset = 0;  // for error messages
};

/// Tokenizes MLQL text. Returns InvalidArgument with offset context on
/// malformed input (unterminated string, stray character).
Result<std::vector<Token>> Lex(std::string_view text);

/// Parses an MLQL query.
Result<Query> ParseQuery(std::string_view text);

/// Parses just a predicate expression (used by tests).
Result<ExprPtr> ParsePredicate(std::string_view text);

/// The MLQL a hybrid search lowers to: "FIND MODELS RANK BY
/// hybrid('<text>', '<id>') LIMIT <k>", single quotes doubled. One
/// lowering shared by the lake and the router, so a routed hybrid's
/// shard-side parts carry byte-identical rank arguments.
std::string HybridSearchMlql(std::string_view text,
                             std::string_view query_model_id, size_t k);

}  // namespace mlake::search

#endif  // MLAKE_SEARCH_PARSER_H_
