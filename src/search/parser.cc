#include "search/parser.h"

#include <cctype>
#include <cstdlib>

#include "common/string_util.h"

namespace mlake::search {

Result<std::vector<Token>> Lex(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[i])) ||
              text[i] == '_' || text[i] == '.' || text[i] == '/' ||
              text[i] == '-')) {
        ++i;
      }
      token.kind = Token::Kind::kIdent;
      token.text = std::string(text.substr(start, i - start));
    } else if (c == '\'') {
      ++i;
      std::string value;
      bool closed = false;
      while (i < text.size()) {
        if (text[i] == '\'') {
          if (i + 1 < text.size() && text[i + 1] == '\'') {
            value.push_back('\'');  // escaped quote ''
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        value.push_back(text[i]);
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(StrFormat(
            "MLQL: unterminated string at offset %zu", token.offset));
      }
      token.kind = Token::Kind::kString;
      token.text = std::move(value);
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < text.size() &&
                std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[i])) ||
              text[i] == '.' || text[i] == 'e' || text[i] == 'E' ||
              // An exponent sign, as in the canonical rendering's 1e-07.
              ((text[i] == '+' || text[i] == '-') &&
               (text[i - 1] == 'e' || text[i - 1] == 'E')))) {
        ++i;
      }
      std::string num(text.substr(start, i - start));
      char* end = nullptr;
      token.number = std::strtod(num.c_str(), &end);
      if (end != num.c_str() + num.size()) {
        return Status::InvalidArgument(
            StrFormat("MLQL: bad number at offset %zu", token.offset));
      }
      token.kind = Token::Kind::kNumber;
      token.text = std::move(num);
    } else if (c == '=' || c == '(' || c == ')' || c == ',') {
      token.kind = Token::Kind::kOperator;
      token.text = std::string(1, c);
      ++i;
    } else if (c == '!' || c == '<' || c == '>') {
      token.kind = Token::Kind::kOperator;
      if (i + 1 < text.size() && text[i + 1] == '=') {
        token.text = std::string(text.substr(i, 2));
        i += 2;
      } else if (c == '!') {
        return Status::InvalidArgument(
            StrFormat("MLQL: stray '!' at offset %zu", token.offset));
      } else {
        token.text = std::string(1, c);
        ++i;
      }
    } else {
      return Status::InvalidArgument(StrFormat(
          "MLQL: unexpected character '%c' at offset %zu", c, token.offset));
    }
    tokens.push_back(std::move(token));
  }
  Token end;
  end.kind = Token::Kind::kEnd;
  end.offset = text.size();
  tokens.push_back(std::move(end));
  return tokens;
}

namespace {

/// Recursive-descent parser over the token stream.
class QueryParser {
 public:
  explicit QueryParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Query> ParseFullQuery() {
    MLAKE_RETURN_NOT_OK(ExpectKeyword("FIND"));
    MLAKE_RETURN_NOT_OK(ExpectKeyword("MODELS"));
    Query query;
    if (AtKeyword("WHERE")) {
      Advance();
      MLAKE_ASSIGN_OR_RETURN(query.where, ParseOr());
    }
    if (AtKeyword("RANK")) {
      Advance();
      MLAKE_RETURN_NOT_OK(ExpectKeyword("BY"));
      MLAKE_ASSIGN_OR_RETURN(query.rank, ParseRank());
      query.has_rank = true;
    }
    if (AtKeyword("LIMIT")) {
      Advance();
      if (Current().kind != Token::Kind::kNumber || Current().number < 1) {
        return Error("LIMIT expects a positive number");
      }
      query.limit = static_cast<size_t>(Current().number);
      Advance();
    }
    if (Current().kind != Token::Kind::kEnd) {
      return Error("unexpected trailing input");
    }
    return query;
  }

  Result<ExprPtr> ParsePredicateOnly() {
    MLAKE_ASSIGN_OR_RETURN(ExprPtr expr, ParseOr());
    if (Current().kind != Token::Kind::kEnd) {
      return Error("unexpected trailing input");
    }
    return expr;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool AtKeyword(std::string_view kw) const {
    return Current().kind == Token::Kind::kIdent &&
           EqualsIgnoreCase(Current().text, kw);
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) {
      return Error("expected keyword " + std::string(kw));
    }
    Advance();
    return Status::OK();
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("MLQL: %s at offset %zu", what.c_str(), Current().offset));
  }

  bool AtOperator(std::string_view op) const {
    return Current().kind == Token::Kind::kOperator && Current().text == op;
  }

  Result<ExprPtr> ParseOr() {
    MLAKE_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AtKeyword("OR")) {
      Advance();
      MLAKE_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kOr;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    MLAKE_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (AtKeyword("AND")) {
      Advance();
      MLAKE_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAnd;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (AtKeyword("NOT")) {
      Advance();
      MLAKE_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->children.push_back(std::move(inner));
      return node;
    }
    return ParsePrimary();
  }

  Result<Literal> ParseLiteral() {
    Literal lit;
    if (Current().kind == Token::Kind::kString) {
      lit.kind = Literal::Kind::kString;
      lit.string_value = Current().text;
      Advance();
      return lit;
    }
    if (Current().kind == Token::Kind::kNumber) {
      lit.kind = Literal::Kind::kNumber;
      lit.number_value = Current().number;
      Advance();
      return lit;
    }
    return Error("expected literal");
  }

  Result<std::vector<Literal>> ParseArgs() {
    std::vector<Literal> args;
    if (!AtOperator("(")) {
      return Error("expected '('");
    }
    Advance();
    if (AtOperator(")")) {
      Advance();
      return args;
    }
    while (true) {
      MLAKE_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      args.push_back(std::move(lit));
      if (AtOperator(")")) {
        Advance();
        return args;
      }
      if (!AtOperator(",")) {
        return Error("expected ',' or ')'");
      }
      Advance();
    }
  }

  Result<ExprPtr> ParsePrimary() {
    if (AtOperator("(")) {
      Advance();
      MLAKE_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      if (!AtOperator(")")) return Error("expected ')'");
      Advance();
      return inner;
    }
    if (Current().kind != Token::Kind::kIdent) {
      return Error("expected field or function");
    }
    std::string name = Current().text;
    Advance();
    if (AtOperator("(")) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kCall;
      node->function = ToLower(name);
      MLAKE_ASSIGN_OR_RETURN(node->args, ParseArgs());
      return node;
    }
    // Comparison.
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    node->field = ToLower(name);
    if (AtKeyword("CONTAINS")) {
      node->op = CompareOp::kContains;
      Advance();
    } else if (Current().kind == Token::Kind::kOperator) {
      const std::string& op = Current().text;
      if (op == "=") {
        node->op = CompareOp::kEq;
      } else if (op == "!=") {
        node->op = CompareOp::kNe;
      } else if (op == "<") {
        node->op = CompareOp::kLt;
      } else if (op == "<=") {
        node->op = CompareOp::kLe;
      } else if (op == ">") {
        node->op = CompareOp::kGt;
      } else if (op == ">=") {
        node->op = CompareOp::kGe;
      } else {
        return Error("expected comparison operator");
      }
      Advance();
    } else {
      return Error("expected comparison operator");
    }
    MLAKE_ASSIGN_OR_RETURN(node->value, ParseLiteral());
    return node;
  }

  Result<RankBy> ParseRank() {
    if (Current().kind != Token::Kind::kIdent) {
      return Error("expected ranking function");
    }
    RankBy rank;
    rank.function = ToLower(Current().text);
    Advance();
    MLAKE_ASSIGN_OR_RETURN(rank.args, ParseArgs());
    return rank;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  QueryParser parser(std::move(tokens));
  return parser.ParseFullQuery();
}

Result<ExprPtr> ParsePredicate(std::string_view text) {
  MLAKE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  QueryParser parser(std::move(tokens));
  return parser.ParsePredicateOnly();
}

std::string HybridSearchMlql(std::string_view text,
                             std::string_view query_model_id, size_t k) {
  auto escape = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      out.push_back(c);
      if (c == '\'') out.push_back('\'');
    }
    return out;
  };
  return StrFormat("FIND MODELS RANK BY hybrid('%s', '%s') LIMIT %zu",
                   escape(text).c_str(), escape(query_model_id).c_str(), k);
}

}  // namespace mlake::search
