#include "ta/expr.hpp"

#include <gtest/gtest.h>

#include <map>

namespace decos::ta {
namespace {

/// Test environment over a plain map; calls support a fixed "twice" fn.
class MapEnv final : public Environment {
 public:
  Value get(const std::string& name) const override {
    const auto it = vars_.find(name);
    if (it == vars_.end()) throw SpecError("unknown: " + name);
    return it->second;
  }
  void set(const std::string& name, const Value& value) override { vars_[name] = value; }
  Value call(const std::string& name, const std::vector<Value>& args) override {
    if (name == "twice" && args.size() == 1) return Value{args[0].as_int() * 2};
    if (name == "min" && args.size() == 2)
      return args[0].as_real() <= args[1].as_real() ? args[0] : args[1];
    throw SpecError("unknown fn: " + name);
  }
  std::map<std::string, Value> vars_;
};

Value eval(const std::string& text, MapEnv& env) {
  auto e = parse_expression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << (e.ok() ? "" : e.error().to_string());
  return e.value()->evaluate(env);
}

Value eval(const std::string& text) {
  MapEnv env;
  return eval(text, env);
}

TEST(ExprTest, IntegerArithmetic) {
  EXPECT_EQ(eval("1+2*3").as_int(), 7);
  EXPECT_EQ(eval("(1+2)*3").as_int(), 9);
  EXPECT_EQ(eval("10/3").as_int(), 3);
  EXPECT_EQ(eval("10%3").as_int(), 1);
  EXPECT_EQ(eval("-5+2").as_int(), -3);
}

TEST(ExprTest, RealArithmeticAndPromotion) {
  EXPECT_DOUBLE_EQ(eval("1.5*2").as_real(), 3.0);
  EXPECT_DOUBLE_EQ(eval("7/2.0").as_real(), 3.5);
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(eval("3<4").as_bool());
  EXPECT_TRUE(eval("4<=4").as_bool());
  EXPECT_TRUE(eval("5>4").as_bool());
  EXPECT_TRUE(eval("5>=5").as_bool());
  EXPECT_TRUE(eval("5==5").as_bool());
  EXPECT_TRUE(eval("5!=6").as_bool());
  EXPECT_FALSE(eval("5<5").as_bool());
}

TEST(ExprTest, SingleEqualsIsEquality) {
  // The paper writes `brequested = true` as a guard (Fig. 6).
  EXPECT_TRUE(eval("5 = 5").as_bool());
  EXPECT_FALSE(eval("5 = 6").as_bool());
}

TEST(ExprTest, Logicals) {
  EXPECT_TRUE(eval("true && true").as_bool());
  EXPECT_FALSE(eval("true && false").as_bool());
  EXPECT_TRUE(eval("false || true").as_bool());
  EXPECT_FALSE(eval("!true").as_bool());
  EXPECT_TRUE(eval("1<2 && 3<4 || false").as_bool());
}

TEST(ExprTest, CommaIsConjunctionAtTopLevel) {
  // Fig. 6 guard style: "x<tmax, y>=tmin".
  MapEnv env;
  env.vars_["x"] = Value{3};
  env.vars_["y"] = Value{9};
  EXPECT_TRUE(eval("x<5, y>=9", env).as_bool());
  EXPECT_FALSE(eval("x<5, y>=10", env).as_bool());
}

TEST(ExprTest, CommaInsideCallIsArgumentSeparator) {
  MapEnv env;
  EXPECT_EQ(eval("min(4, 9)", env).as_int(), 4);
  EXPECT_EQ(eval("min(1+1, 5) + twice(3)", env).as_int(), 8);
}

TEST(ExprTest, DurationSuffixes) {
  EXPECT_EQ(eval("5ms").as_int(), 5'000'000);
  EXPECT_EQ(eval("2us").as_int(), 2'000);
  EXPECT_EQ(eval("1s").as_int(), 1'000'000'000);
  EXPECT_EQ(eval("10ns").as_int(), 10);
  EXPECT_EQ(eval("1.5ms").as_int(), 1'500'000);
  EXPECT_TRUE(eval("5ms < 1s").as_bool());
}

TEST(ExprTest, OverflowingDurationLiteralIsAParseError) {
  // std::stod on a long digit run succeeds, so the int64 conversion of
  // the scaled value must be range-checked (the unchecked cast was UB).
  EXPECT_FALSE(parse_expression("123456789123456789123456789ms").ok());
  EXPECT_FALSE(parse_expression("99999999999999999999s").ok());
  EXPECT_TRUE(parse_expression("9000000s").ok());  // large but representable
}

TEST(ExprTest, StringLiteralsAndEquality) {
  EXPECT_TRUE(eval("\"abc\" == \"abc\"").as_bool());
  EXPECT_FALSE(eval("\"abc\" == \"xyz\"").as_bool());
}

TEST(ExprTest, IdentifiersResolveThroughEnvironment) {
  MapEnv env;
  env.vars_["tmin"] = Value{Duration::milliseconds(4)};
  env.vars_["x"] = Value{Duration::milliseconds(6)};
  EXPECT_TRUE(eval("x>=tmin", env).as_bool());
}

TEST(ExprTest, UnknownIdentifierThrows) {
  MapEnv env;
  auto e = parse_expression("nope + 1");
  ASSERT_TRUE(e.ok());
  EXPECT_THROW(e.value()->evaluate(env), SpecError);
}

TEST(ExprTest, DivisionByZeroThrows) {
  EXPECT_THROW(eval("1/0"), SpecError);
  EXPECT_THROW(eval("1%0"), SpecError);
}

TEST(ExprTest, ParseErrors) {
  EXPECT_FALSE(parse_expression("").ok());
  EXPECT_FALSE(parse_expression("1 +").ok());
  EXPECT_FALSE(parse_expression("(1+2").ok());
  EXPECT_FALSE(parse_expression("1 2").ok());
  EXPECT_FALSE(parse_expression("min(1,").ok());
  EXPECT_FALSE(parse_expression("4 @ 5").ok());
  EXPECT_FALSE(parse_expression("3kg").ok());
}

TEST(ExprTest, CollectIdentifiers) {
  auto e = parse_expression("x >= tmin && twice(n) < 9");
  ASSERT_TRUE(e.ok());
  std::vector<std::string> ids;
  e.value()->collect_identifiers(ids);
  EXPECT_EQ(ids, (std::vector<std::string>{"x", "tmin", "n"}));
}

TEST(ExprTest, ToStringIsReparsable) {
  auto e = parse_expression("x >= tmin, n == 0 || y < 5ms");
  ASSERT_TRUE(e.ok());
  auto e2 = parse_expression(e.value()->to_string());
  ASSERT_TRUE(e2.ok());
  MapEnv env;
  env.vars_["x"] = Value{10};
  env.vars_["tmin"] = Value{4};
  env.vars_["n"] = Value{0};
  env.vars_["y"] = Value{1};
  EXPECT_EQ(e.value()->evaluate(env).as_bool(), e2.value()->evaluate(env).as_bool());
}

TEST(AssignmentTest, ParseAndApplySingle) {
  auto a = parse_assignments("x := 0");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.value().size(), 1u);
  MapEnv env;
  a.value()[0].apply(env);
  EXPECT_EQ(env.vars_["x"].as_int(), 0);
}

TEST(AssignmentTest, ListWithSemicolonsAndPlainEquals) {
  auto a = parse_assignments("x := 5; n = n + 1");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.value().size(), 2u);
  MapEnv env;
  env.vars_["n"] = Value{10};
  for (const auto& asg : a.value()) asg.apply(env);
  EXPECT_EQ(env.vars_["x"].as_int(), 5);
  EXPECT_EQ(env.vars_["n"].as_int(), 11);
}

TEST(AssignmentTest, PaperStyleAccumulation) {
  // Fig. 6: StateValue=StateValue+ValueChange
  auto a = parse_assignments("StateValue=StateValue+ValueChange");
  ASSERT_TRUE(a.ok());
  MapEnv env;
  env.vars_["StateValue"] = Value{40};
  env.vars_["ValueChange"] = Value{2};
  a.value()[0].apply(env);
  EXPECT_EQ(env.vars_["StateValue"].as_int(), 42);
}

TEST(AssignmentTest, EmptyListIsOk) {
  auto a = parse_assignments("");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().empty());
}

TEST(AssignmentTest, MissingOperatorIsError) {
  EXPECT_FALSE(parse_assignments("x 5").ok());
  EXPECT_FALSE(parse_assignments("5 := x").ok());
}

TEST(ValueTest, Coercions) {
  EXPECT_EQ(Value{3.9}.as_int(), 3);
  EXPECT_DOUBLE_EQ(Value{3}.as_real(), 3.0);
  EXPECT_TRUE(Value{1}.as_bool());
  EXPECT_FALSE(Value{0}.as_bool());
  EXPECT_THROW(Value{std::string{"x"}}.as_int(), SpecError);
  EXPECT_THROW(Value{3}.as_string(), SpecError);
}

TEST(ValueTest, TimeInterop) {
  const Value v{Duration::milliseconds(5)};
  EXPECT_EQ(v.as_duration(), Duration::milliseconds(5));
  const Value t{Instant::origin() + Duration::seconds(1)};
  EXPECT_EQ(t.as_instant().ns(), 1'000'000'000);
}

/// `1` wrapped in enough parentheses to reach nesting depth `depth`.
std::string parenthesised(int depth) {
  return std::string(static_cast<std::size_t>(depth - 1), '(') + "1" +
         std::string(static_cast<std::size_t>(depth - 1), ')');
}

TEST(ExprTest, AcceptsNestingAtTheDepthLimit) {
  EXPECT_EQ(eval(parenthesised(kMaxExprDepth)).as_int(), 1);
  EXPECT_EQ(eval(std::string(kMaxExprDepth - 1, '-') + "1").as_int(),
            kMaxExprDepth % 2 == 0 ? -1 : 1);
}

TEST(ExprTest, RejectsNestingOneBeyondTheDepthLimit) {
  for (const std::string& text :
       {parenthesised(kMaxExprDepth + 1), std::string(kMaxExprDepth, '!') + "true",
        parenthesised(200'000)}) {
    auto e = parse_expression(text);
    ASSERT_FALSE(e.ok()) << text.size();
    EXPECT_NE(e.error().message.find("nested deeper than"), std::string::npos)
        << e.error().message;
  }
}

/// `1+1+...+1` with `operators` additions.
std::string sum_chain(int operators) {
  std::string text = "1";
  for (int i = 0; i < operators; ++i) text += "+1";
  return text;
}

TEST(ExprTest, AcceptsOperatorChainAtTheLimit) {
  EXPECT_EQ(eval(sum_chain(kMaxExprOperators)).as_int(), kMaxExprOperators + 1);
}

TEST(ExprTest, RejectsOperatorChainOneBeyondTheLimit) {
  for (const int operators : {kMaxExprOperators + 1, 1'000'000}) {
    auto e = parse_expression(sum_chain(operators));
    ASSERT_FALSE(e.ok()) << operators;
    EXPECT_NE(e.error().message.find("binary operators"), std::string::npos)
        << e.error().message;
  }
}

}  // namespace
}  // namespace decos::ta
