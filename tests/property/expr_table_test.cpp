// Table-driven sweep over the guard expression language: one case per
// grammar rule / precedence interaction, evaluated against a fixed
// environment. Complements the unit tests with broad, cheap coverage.
#include <gtest/gtest.h>

#include "ta/expr.hpp"

namespace decos::ta {
namespace {

class FixedEnv final : public Environment {
 public:
  Value get(const std::string& name) const override {
    if (name == "a") return Value{2};
    if (name == "b") return Value{3};
    if (name == "c") return Value{10};
    if (name == "x") return Value{Duration::milliseconds(7)};
    if (name == "f") return Value{2.5};
    if (name == "s") return Value{std::string{"hello"}};
    if (name == "flag") return Value{true};
    throw SpecError("unknown: " + name);
  }
  void set(const std::string&, const Value&) override {}
  Value call(const std::string& name, const std::vector<Value>& args) override {
    if (name == "min") return args[0].as_real() <= args[1].as_real() ? args[0] : args[1];
    if (name == "max") return args[0].as_real() >= args[1].as_real() ? args[0] : args[1];
    if (name == "abs")
      return args[0].is_real() ? Value{std::abs(args[0].as_real())}
                               : Value{std::abs(args[0].as_int())};
    throw SpecError("unknown fn: " + name);
  }
};

struct ExprCase {
  const char* name;
  const char* text;
  double expected;  // numeric result (bools as 0/1)
};

// gtest_discover_tests names each case after its printed parameter. The
// default printer dumps the struct's bytes, `text`'s address among them,
// so the test names would change from run to run; print the case name.
void PrintTo(const ExprCase& c, std::ostream* os) { *os << c.name; }

class ExprTable : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ExprTable, EvaluatesTo) {
  const char* text = GetParam().text;
  const double expected = GetParam().expected;
  auto e = parse_expression(text);
  ASSERT_TRUE(e.ok()) << text << ": " << e.error().to_string();
  FixedEnv env;
  const Value v = e.value()->evaluate(env);
  const double actual = v.is_bool() ? (v.as_bool() ? 1.0 : 0.0) : v.as_real();
  EXPECT_DOUBLE_EQ(actual, expected) << text;

  // Round-trip through to_string: same value.
  auto e2 = parse_expression(e.value()->to_string());
  ASSERT_TRUE(e2.ok()) << e.value()->to_string();
  const Value v2 = e2.value()->evaluate(env);
  const double actual2 = v2.is_bool() ? (v2.as_bool() ? 1.0 : 0.0) : v2.as_real();
  EXPECT_DOUBLE_EQ(actual2, expected) << "round-trip of " << text;
}

INSTANTIATE_TEST_SUITE_P(
    Precedence, ExprTable,
    ::testing::Values(
        ExprCase{"MulOverAdd", "a + b * c", 32.0},                // * over +
        ExprCase{"ParensOverride", "(a + b) * c", 50.0},
        ExprCase{"SubLeftAssoc", "c - b - a", 5.0},               // left assoc
        ExprCase{"IntDivLeftAssoc", "c / b / a", 1.0},            // integer division, left assoc
        ExprCase{"ModLeftAssoc", "c % b % a", 1.0},
        ExprCase{"UnaryMinusThenAdd", "-a + b", 1.0},             // unary minus binds tight
        ExprCase{"UnaryMinusThenMul", "-a * b", -6.0},
        ExprCase{"AddOverLess", "a + b < c", 1.0},                // + over <
        ExprCase{"CompareOverAnd", "a < b && b < c", 1.0},        // cmp over &&
        ExprCase{"AndOverOr", "flag || a > c && a > c", 1.0},     // && over ||
        ExprCase{"NotOverOr", "!flag || flag", 1.0},
        ExprCase{"NotOfParenthesised", "!(a < b)", 0.0},
        ExprCase{"CommaConjunctionTrue", "a < b, c > b", 1.0},    // ',' conjunction
        ExprCase{"CommaConjunctionFalse", "a < b, c < b", 0.0},
        ExprCase{"MinPlusMax", "min(a, b) + max(a, b)", 5.0},
        ExprCase{"AbsOfDifference", "abs(a - c)", 8.0},
        ExprCase{"CallArgsAreExpressions", "min(a + b, c - b) * a", 10.0},
        ExprCase{"RealPromotion", "f * a", 5.0},                  // real promotion
        ExprCase{"RealDivision", "c / 4.0", 2.5},
        ExprCase{"DurationGreater", "x > 5ms", 1.0},              // duration literal vs clock
        ExprCase{"DurationLessEqual", "x <= 7ms", 1.0},
        ExprCase{"DurationSum", "x + 3ms == 10ms", 1.0},
        ExprCase{"DurationScaling", "2us * 1000 == 2ms", 1.0},
        ExprCase{"StringEqual", "s == \"hello\"", 1.0},
        ExprCase{"StringNotEqual", "s != \"world\"", 1.0},
        ExprCase{"PaperStyleEquality", "a = 2", 1.0},             // paper-style '=' equality
        ExprCase{"BoolAndOverOr", "true && false || true", 1.0},
        ExprCase{"MulChain", "a * a * a", 8.0},
        ExprCase{"NestedParens", "((a))", 2.0}));

}  // namespace
}  // namespace decos::ta
