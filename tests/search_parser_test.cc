#include "search/parser.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"

namespace mlake::search {
namespace {

TEST(LexTest, TokenKinds) {
  auto tokens = Lex("FIND task = 'legal sum' 3.5 <= ( )").ValueOrDie();
  ASSERT_EQ(tokens.size(), 9u);  // incl. end token
  EXPECT_EQ(tokens[0].kind, Token::Kind::kIdent);
  EXPECT_EQ(tokens[0].text, "FIND");
  EXPECT_EQ(tokens[2].kind, Token::Kind::kOperator);
  EXPECT_EQ(tokens[3].kind, Token::Kind::kString);
  EXPECT_EQ(tokens[3].text, "legal sum");
  EXPECT_EQ(tokens[4].kind, Token::Kind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[4].number, 3.5);
  EXPECT_EQ(tokens[5].text, "<=");
  EXPECT_EQ(tokens[8].kind, Token::Kind::kEnd);
}

TEST(LexTest, IdentifiersAllowPathsAndDashes) {
  auto tokens = Lex("legal-sum/us-courts model_id v2.1").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "legal-sum/us-courts");
  EXPECT_EQ(tokens[1].text, "model_id");
  EXPECT_EQ(tokens[2].text, "v2.1");
}

TEST(LexTest, EscapedQuoteInString) {
  auto tokens = Lex("'it''s legal'").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "it's legal");
}

TEST(LexTest, NegativeNumbers) {
  auto tokens = Lex("-3.5e2").ValueOrDie();
  EXPECT_EQ(tokens[0].kind, Token::Kind::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, -350.0);
}

TEST(LexTest, SignedExponents) {
  auto tokens = Lex("1e+06 -2.5E-3").ValueOrDie();
  EXPECT_EQ(tokens[0].number, 1e6);
  EXPECT_EQ(tokens[1].number, -2.5e-3);
  // A sign only belongs to an exponent that has digits after it.
  EXPECT_TRUE(Lex("1e- 2").status().IsInvalidArgument());
  EXPECT_TRUE(Lex("1+2").status().IsInvalidArgument());
}

TEST(LexTest, Errors) {
  EXPECT_TRUE(Lex("'unterminated").status().IsInvalidArgument());
  EXPECT_TRUE(Lex("a ! b").status().IsInvalidArgument());
  EXPECT_TRUE(Lex("a @ b").status().IsInvalidArgument());
}

TEST(ParseQueryTest, MinimalQuery) {
  auto query = ParseQuery("FIND MODELS").MoveValueUnsafe();
  EXPECT_EQ(query.where, nullptr);
  EXPECT_FALSE(query.has_rank);
  EXPECT_EQ(query.limit, 10u);  // default
}

TEST(ParseQueryTest, FullQuery) {
  auto query = ParseQuery(
                   "FIND MODELS WHERE task = 'summarization' AND "
                   "trained_on('legal-sum/us-courts') "
                   "RANK BY behavior_sim('query-model') LIMIT 5").MoveValueUnsafe();
  ASSERT_NE(query.where, nullptr);
  EXPECT_EQ(query.where->kind, Expr::Kind::kAnd);
  EXPECT_TRUE(query.has_rank);
  EXPECT_EQ(query.rank.function, "behavior_sim");
  ASSERT_EQ(query.rank.args.size(), 1u);
  EXPECT_EQ(query.rank.args[0].string_value, "query-model");
  EXPECT_EQ(query.limit, 5u);
}

TEST(ParseQueryTest, KeywordsAreCaseInsensitive) {
  auto query =
      ParseQuery("find models where task = 'x' rank by completeness() limit 3");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.ValueUnsafe().limit, 3u);
}

TEST(ParseQueryTest, OperatorPrecedenceAndOverOr) {
  // a OR b AND c == a OR (b AND c)
  auto expr = ParsePredicate(
                  "task = 'a' OR task = 'b' AND creator = 'c'").MoveValueUnsafe();
  EXPECT_EQ(expr->kind, Expr::Kind::kOr);
  EXPECT_EQ(expr->children[1]->kind, Expr::Kind::kAnd);
}

TEST(ParseQueryTest, ParenthesesOverridePrecedence) {
  auto expr = ParsePredicate(
                  "(task = 'a' OR task = 'b') AND creator = 'c'").MoveValueUnsafe();
  EXPECT_EQ(expr->kind, Expr::Kind::kAnd);
  EXPECT_EQ(expr->children[0]->kind, Expr::Kind::kOr);
}

TEST(ParseQueryTest, NotBindsTighterThanAnd) {
  auto expr = ParsePredicate("NOT tag('legal') AND task = 'x'").MoveValueUnsafe();
  EXPECT_EQ(expr->kind, Expr::Kind::kAnd);
  EXPECT_EQ(expr->children[0]->kind, Expr::Kind::kNot);
}

TEST(ParseQueryTest, AllComparisonOperators) {
  for (const char* op : {"=", "!=", "<", "<=", ">", ">=", "CONTAINS"}) {
    std::string text = std::string("num_params ") + op + " 100";
    if (std::string(op) == "CONTAINS") text = "name CONTAINS 'legal'";
    auto expr = ParsePredicate(text);
    ASSERT_TRUE(expr.ok()) << op << ": " << expr.status().ToString();
    EXPECT_EQ(expr.ValueUnsafe()->kind, Expr::Kind::kCompare);
  }
}

TEST(ParseQueryTest, FunctionWithMultipleArgs) {
  auto expr = ParsePredicate("trained_on('corpus', 0.4)").MoveValueUnsafe();
  EXPECT_EQ(expr->kind, Expr::Kind::kCall);
  EXPECT_EQ(expr->function, "trained_on");
  ASSERT_EQ(expr->args.size(), 2u);
  EXPECT_EQ(expr->args[0].string_value, "corpus");
  EXPECT_DOUBLE_EQ(expr->args[1].number_value, 0.4);
}

TEST(ParseQueryTest, EmptyArgList) {
  auto query = ParseQuery("FIND MODELS RANK BY completeness()").MoveValueUnsafe();
  EXPECT_TRUE(query.has_rank);
  EXPECT_TRUE(query.rank.args.empty());
}

struct BadQuery {
  const char* name;
  const char* text;
};

class ParseErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParseErrorTest, Rejected) {
  auto query = ParseQuery(GetParam().text);
  EXPECT_TRUE(query.status().IsInvalidArgument()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParseErrorTest,
    ::testing::Values(
        BadQuery{"empty", ""},
        BadQuery{"wrong_start", "SELECT MODELS"},
        BadQuery{"missing_models", "FIND WHERE task = 'x'"},
        BadQuery{"dangling_where", "FIND MODELS WHERE"},
        BadQuery{"dangling_and", "FIND MODELS WHERE task = 'x' AND"},
        BadQuery{"missing_value", "FIND MODELS WHERE task ="},
        BadQuery{"missing_op", "FIND MODELS WHERE task 'x'"},
        BadQuery{"unclosed_paren", "FIND MODELS WHERE (task = 'x'"},
        BadQuery{"unclosed_args", "FIND MODELS WHERE tag('legal'"},
        BadQuery{"rank_without_by", "FIND MODELS RANK completeness()"},
        BadQuery{"rank_not_a_call", "FIND MODELS RANK BY completeness"},
        BadQuery{"bad_limit", "FIND MODELS LIMIT 0"},
        BadQuery{"negative_limit", "FIND MODELS LIMIT -3"},
        BadQuery{"trailing_garbage", "FIND MODELS LIMIT 5 garbage"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.name;
    });

TEST(ToStringTest, CanonicalRendering) {
  auto query = ParseQuery(
                   "find models where (task = 'a' or tag('b')) and "
                   "num_params >= 100 rank by metric('bench', 'accuracy') "
                   "limit 7").MoveValueUnsafe();
  std::string rendered = ToString(query);
  EXPECT_EQ(rendered,
            "FIND MODELS WHERE ((task = 'a' OR tag('b')) AND num_params >= "
            "100) RANK BY metric('bench', 'accuracy') LIMIT 7");
  // Re-parsing the canonical form succeeds and re-renders identically.
  auto reparsed = ParseQuery(rendered);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(ToString(reparsed.ValueUnsafe()), rendered);
}

TEST(ToStringTest, EscapesQuotes) {
  auto query = ParseQuery("FIND MODELS WHERE name = 'it''s'").MoveValueUnsafe();
  EXPECT_NE(ToString(query).find("'it''s'"), std::string::npos);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The canonical rendering is the plan cache's alias key, so it must not
// merge distinct literals: ParseQuery(ToString(q)) gives back the same
// bits, in comparisons and in call arguments.
TEST(ToStringTest, NumberLiteralsRoundTripBitExact) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, 123456.0, 123456.4, 1e6, 1e-7, -2.5e-300, 0.1,
      1.0 / 3, DBL_MAX, -DBL_MIN, std::numeric_limits<double>::denorm_min(),
      9007199254740993.0, 1e21, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng.NextU64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isnan(d)) values.push_back(d);
    values.push_back(rng.Uniform(-1e6, 1e6));
  }
  for (double d : values) {
    Query query;
    query.where = std::make_unique<Expr>();
    query.where->kind = Expr::Kind::kCompare;
    query.where->field = "num_params";
    query.where->op = CompareOp::kGe;
    query.where->value.kind = Literal::Kind::kNumber;
    query.where->value.number_value = d;
    query.has_rank = true;
    query.rank.function = "metric";
    query.rank.args.resize(2);
    query.rank.args[0].string_value = "bench";
    query.rank.args[1].kind = Literal::Kind::kNumber;
    query.rank.args[1].number_value = d;
    std::string text = ToString(query);
    auto back = ParseQuery(text);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status().ToString();
    const Query& parsed = back.ValueUnsafe();
    ASSERT_TRUE(SameBits(parsed.where->value.number_value, d)) << text;
    ASSERT_TRUE(SameBits(parsed.rank.args[1].number_value, d)) << text;
    EXPECT_EQ(ToString(parsed), text);
  }
}

}  // namespace
}  // namespace mlake::search
