#include "ta/expr.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace decos::ta {
namespace {

// ---------------------------------------------------------------------------
// AST nodes
// ---------------------------------------------------------------------------

class Literal final : public Expr {
 public:
  explicit Literal(Value v) : value_{std::move(v)} {}
  Kind kind() const override { return Kind::kLiteral; }
  Value evaluate(Environment&) const override { return value_; }
  std::string to_string() const override { return value_.to_string(); }
  Result<StaticType> infer_type(const TypeEnv&) const override { return static_type_of(value_); }
  void collect_identifiers(std::vector<std::string>&) const override {}
  Interval evaluate_interval(const IntervalEnv&) const override {
    if (value_.is_int()) return Interval::constant(static_cast<double>(value_.as_int()));
    if (value_.is_real()) return Interval::constant(value_.as_real());
    if (value_.is_bool()) return Interval::of_bool(value_.as_bool());
    return Interval::top();  // strings have no numeric abstraction
  }

 private:
  Value value_;
};

class Identifier final : public Expr {
 public:
  explicit Identifier(std::string name) : name_{std::move(name)}, sym_{intern_symbol(name_)} {}
  Kind kind() const override { return Kind::kIdentifier; }
  Value evaluate(Environment& env) const override { return env.get(sym_, name_); }
  std::string to_string() const override { return name_; }
  Result<StaticType> infer_type(const TypeEnv& env) const override { return env.type_of(name_); }
  void collect_identifiers(std::vector<std::string>& out) const override { out.push_back(name_); }
  Interval evaluate_interval(const IntervalEnv& env) const override { return env.get(name_); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  Symbol sym_;  // interned once at parse time: evaluation is id-keyed
};

class Unary final : public Expr {
 public:
  Unary(char op, ExprPtr operand) : op_{op}, operand_{std::move(operand)} {}
  Kind kind() const override { return Kind::kUnary; }
  Value evaluate(Environment& env) const override {
    const Value v = operand_->evaluate(env);
    if (op_ == '!') return Value{!v.as_bool()};
    if (v.is_real()) return Value{-v.as_real()};
    return Value{-v.as_int()};
  }
  std::string to_string() const override { return std::string(1, op_) + operand_->to_string(); }
  Result<StaticType> infer_type(const TypeEnv& env) const override {
    auto t = operand_->infer_type(env);
    if (!t.ok()) return t;
    if (t.value() == StaticType::kString)
      return Result<StaticType>::failure(std::string{"operator '"} + op_ +
                                         "' applied to string operand " + operand_->to_string());
    if (op_ == '!') return StaticType::kBool;
    // Numeric negation; booleans coerce to int (as_int), kAny stays kAny.
    if (t.value() == StaticType::kReal || t.value() == StaticType::kAny) return t.value();
    return StaticType::kInt;
  }
  void collect_identifiers(std::vector<std::string>& out) const override {
    operand_->collect_identifiers(out);
  }
  Interval evaluate_interval(const IntervalEnv& env) const override {
    const Interval v = operand_->evaluate_interval(env);
    return op_ == '!' ? logic_not(v) : negate(v);
  }

 private:
  char op_;
  ExprPtr operand_;
};

enum class BinOp { kAdd, kSub, kMul, kDiv, kMod, kLt, kLe, kGt, kGe, kEq, kNe, kAnd, kOr };

const char* bin_op_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

class Binary final : public Expr {
 public:
  Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) : op_{op}, lhs_{std::move(lhs)}, rhs_{std::move(rhs)} {}
  Kind kind() const override { return Kind::kBinary; }

  Value evaluate(Environment& env) const override {
    // Short-circuit logicals first.
    if (op_ == BinOp::kAnd) return Value{lhs_->evaluate(env).as_bool() && rhs_->evaluate(env).as_bool()};
    if (op_ == BinOp::kOr) return Value{lhs_->evaluate(env).as_bool() || rhs_->evaluate(env).as_bool()};

    const Value a = lhs_->evaluate(env);
    const Value b = rhs_->evaluate(env);
    switch (op_) {
      case BinOp::kEq: return Value{a == b};
      case BinOp::kNe: return Value{!(a == b)};
      default: break;
    }
    if (a.is_real() || b.is_real()) {
      const double x = a.as_real();
      const double y = b.as_real();
      switch (op_) {
        case BinOp::kAdd: return Value{x + y};
        case BinOp::kSub: return Value{x - y};
        case BinOp::kMul: return Value{x * y};
        case BinOp::kDiv: return Value{x / y};
        case BinOp::kMod: return Value{std::fmod(x, y)};
        case BinOp::kLt: return Value{x < y};
        case BinOp::kLe: return Value{x <= y};
        case BinOp::kGt: return Value{x > y};
        case BinOp::kGe: return Value{x >= y};
        default: break;
      }
    } else {
      const std::int64_t x = a.as_int();
      const std::int64_t y = b.as_int();
      switch (op_) {
        case BinOp::kAdd: return Value{x + y};
        case BinOp::kSub: return Value{x - y};
        case BinOp::kMul: return Value{x * y};
        case BinOp::kDiv:
          if (y == 0) throw SpecError("division by zero in expression");
          return Value{x / y};
        case BinOp::kMod:
          if (y == 0) throw SpecError("modulo by zero in expression");
          return Value{x % y};
        case BinOp::kLt: return Value{x < y};
        case BinOp::kLe: return Value{x <= y};
        case BinOp::kGt: return Value{x > y};
        case BinOp::kGe: return Value{x >= y};
        default: break;
      }
    }
    throw SpecError("unsupported binary operation");
  }

  std::string to_string() const override {
    return "(" + lhs_->to_string() + " " + bin_op_name(op_) + " " + rhs_->to_string() + ")";
  }
  Result<StaticType> infer_type(const TypeEnv& env) const override {
    auto lt = lhs_->infer_type(env);
    if (!lt.ok()) return lt;
    auto rt = rhs_->infer_type(env);
    if (!rt.ok()) return rt;
    const StaticType a = lt.value();
    const StaticType b = rt.value();
    const auto is_string = [](StaticType t) { return t == StaticType::kString; };
    const auto mismatch = [&](const char* what) {
      return Result<StaticType>::failure(std::string{what} + " in " + to_string() + " (" +
                                         static_type_name(a) + " " + bin_op_name(op_) + " " +
                                         static_type_name(b) + ")");
    };
    switch (op_) {
      case BinOp::kAnd:
      case BinOp::kOr:
        // as_bool() throws on strings at runtime.
        if (is_string(a) || is_string(b)) return mismatch("logical operator on string operand");
        return StaticType::kBool;
      case BinOp::kEq:
      case BinOp::kNe:
        // Value::operator== silently yields false for string/non-string
        // pairs -- statically that is always a specification mistake.
        if (is_string(a) != is_string(b) && a != StaticType::kAny && b != StaticType::kAny)
          return mismatch("comparison between string and non-string");
        return StaticType::kBool;
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        // Ordered comparison goes through as_real(), which rejects strings.
        if (is_string(a) || is_string(b)) return mismatch("ordered comparison on string operand");
        return StaticType::kBool;
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod:
        if (is_string(a) || is_string(b)) return mismatch("arithmetic on string operand");
        if (a == StaticType::kReal || b == StaticType::kReal) return StaticType::kReal;
        if (a == StaticType::kAny || b == StaticType::kAny) return StaticType::kAny;
        return StaticType::kInt;
    }
    return StaticType::kAny;
  }
  void collect_identifiers(std::vector<std::string>& out) const override {
    lhs_->collect_identifiers(out);
    rhs_->collect_identifiers(out);
  }

  Interval evaluate_interval(const IntervalEnv& env) const override {
    const Interval a = lhs_->evaluate_interval(env);
    const Interval b = rhs_->evaluate_interval(env);
    switch (op_) {
      case BinOp::kAdd: return add(a, b);
      case BinOp::kSub: return sub(a, b);
      case BinOp::kMul: return mul(a, b);
      case BinOp::kDiv: return div(a, b);
      case BinOp::kMod: return mod(a, b);
      case BinOp::kLt: return cmp_lt(a, b);
      case BinOp::kLe: return cmp_le(a, b);
      case BinOp::kGt: return cmp_lt(b, a);
      case BinOp::kGe: return cmp_le(b, a);
      case BinOp::kEq: return cmp_eq(a, b);
      case BinOp::kNe: return logic_not(cmp_eq(a, b));
      case BinOp::kAnd: return logic_and(a, b);
      case BinOp::kOr: return logic_or(a, b);
    }
    return Interval::top();
  }

  BinOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  BinOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class Call final : public Expr {
 public:
  Call(std::string fn, std::vector<ExprPtr> args) : fn_{std::move(fn)}, args_{std::move(args)} {}
  Kind kind() const override { return Kind::kCall; }
  Value evaluate(Environment& env) const override {
    std::vector<Value> values;
    values.reserve(args_.size());
    for (const auto& a : args_) values.push_back(a->evaluate(env));
    return env.call(fn_, values);
  }
  std::string to_string() const override {
    std::string s = fn_ + "(";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (i) s += ", ";
      s += args_[i]->to_string();
    }
    return s + ")";
  }
  Result<StaticType> infer_type(const TypeEnv& env) const override {
    std::vector<StaticType> types;
    types.reserve(args_.size());
    for (const auto& a : args_) {
      auto t = a->infer_type(env);
      if (!t.ok()) return t;
      types.push_back(t.value());
    }
    return env.type_of_call(fn_, types);
  }
  void collect_identifiers(std::vector<std::string>& out) const override {
    for (const auto& a : args_) a->collect_identifiers(out);
  }
  Interval evaluate_interval(const IntervalEnv& env) const override {
    std::vector<Interval> values;
    values.reserve(args_.size());
    for (const auto& a : args_) values.push_back(a->evaluate_interval(env));
    return env.call(fn_, values);
  }

 private:
  std::string fn_;
  std::vector<ExprPtr> args_;
};

// ---------------------------------------------------------------------------
// Lexer + parser (precedence climbing)
// ---------------------------------------------------------------------------

struct Token {
  enum class Type { kNumber, kString, kIdent, kOp, kEnd };
  Type type = Type::kEnd;
  std::string text;
  Value number;  // for kNumber
  int column = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view in) : in_{in} {}

  Result<Token> next() {
    skip_ws();
    Token t;
    t.column = static_cast<int>(pos_) + 1;
    if (pos_ >= in_.size()) return t;  // kEnd
    const char c = in_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < in_.size() && std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
      return lex_number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.type = Token::Type::kIdent;
      while (pos_ < in_.size() &&
             (std::isalnum(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '_')) {
        t.text.push_back(in_[pos_++]);
      }
      return t;
    }
    if (c == '"' || c == '\'') {
      ++pos_;
      t.type = Token::Type::kString;
      while (pos_ < in_.size() && in_[pos_] != c) t.text.push_back(in_[pos_++]);
      if (pos_ >= in_.size()) return Error{"unterminated string literal", 0, t.column};
      ++pos_;
      return t;
    }
    // Operators (longest match first).
    static constexpr std::string_view kTwoChar[] = {"<=", ">=", "==", "!=", "&&", "||", ":="};
    for (auto op : kTwoChar) {
      if (in_.substr(pos_, 2) == op) {
        t.type = Token::Type::kOp;
        t.text = std::string{op};
        pos_ += 2;
        return t;
      }
    }
    if (std::string_view{"+-*/%<>!(),=;"}.find(c) != std::string_view::npos) {
      t.type = Token::Type::kOp;
      t.text = std::string(1, c);
      ++pos_;
      return t;
    }
    return Error{std::string{"unexpected character '"} + c + "' in expression", 0, t.column};
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) ++pos_;
  }

  Result<Token> lex_number() {
    Token t;
    t.type = Token::Type::kNumber;
    t.column = static_cast<int>(pos_) + 1;
    std::string digits;
    bool real = false;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '.')) {
      if (in_[pos_] == '.') real = true;
      digits.push_back(in_[pos_++]);
    }
    // Optional time-unit suffix.
    std::string suffix;
    while (pos_ < in_.size() && std::isalpha(static_cast<unsigned char>(in_[pos_])) &&
           suffix.size() < 2) {
      suffix.push_back(in_[pos_]);
      ++pos_;
    }
    std::int64_t scale = 0;
    if (suffix == "ns") scale = 1;
    else if (suffix == "us") scale = 1'000;
    else if (suffix == "ms") scale = 1'000'000;
    else if (suffix == "s") scale = 1'000'000'000;
    else if (!suffix.empty()) {
      return Error{"unknown numeric suffix '" + suffix + "'", 0, t.column};
    }
    // std::stod/stoll throw on overflow-length digit runs; numeric junk
    // in a specification must surface as a parse error instead.
    try {
      if (scale != 0) {
        // The scaled double must be range-checked before the integer
        // cast: casting an out-of-range double to int64 is UB, and
        // std::stod("1e300") does not throw.
        const double scaled = std::stod(digits) * static_cast<double>(scale);
        if (!(scaled >= static_cast<double>(std::numeric_limits<std::int64_t>::min()) &&
              scaled < static_cast<double>(std::numeric_limits<std::int64_t>::max())))
          return Error{"duration literal out of range: '" + digits + suffix + "'", 0, t.column};
        t.number = Value{static_cast<std::int64_t>(scaled)};
      } else if (real) {
        t.number = Value{std::stod(digits)};
      } else {
        t.number = Value{static_cast<std::int64_t>(std::stoll(digits))};
      }
    } catch (const std::exception&) {
      return Error{"numeric literal out of range: '" + digits + "'", 0, t.column};
    }
    return t;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

class ExprParser {
 public:
  explicit ExprParser(std::string_view in) : lexer_{in} {}

  Result<ExprPtr> parse_full() {
    if (auto st = advance(); !st.ok()) return st.error();
    auto e = parse_or();
    if (!e.ok()) return e;
    if (cur_.type != Token::Type::kEnd)
      return fail("trailing input after expression: '" + cur_.text + "'");
    return e;
  }

  Result<std::vector<Assignment>> parse_assignment_list() {
    std::vector<Assignment> out;
    comma_as_and_ = false;  // ',' separates assignments here, not conjuncts
    if (auto st = advance(); !st.ok()) return st.error();
    while (cur_.type != Token::Type::kEnd) {
      if (cur_.type != Token::Type::kIdent) return fail("expected assignment target");
      Assignment a;
      a.target = cur_.text;
      a.target_sym = intern_symbol(a.target);
      if (auto st = advance(); !st.ok()) return st.error();
      if (!is_op(":=") && !is_op("=")) return fail("expected ':=' in assignment");
      if (auto st = advance(); !st.ok()) return st.error();
      auto e = parse_or();
      if (!e.ok()) return e.error();
      a.value = e.value();
      out.push_back(std::move(a));
      if (is_op(";") || is_op(",")) {
        if (auto st = advance(); !st.ok()) return st.error();
      } else if (cur_.type != Token::Type::kEnd) {
        return fail("expected ';' between assignments");
      }
    }
    return out;
  }

 private:
  Error fail(std::string msg) const { return Error{std::move(msg), 0, cur_.column}; }
  bool is_op(std::string_view op) const {
    return cur_.type == Token::Type::kOp && cur_.text == op;
  }

  Status advance() {
    auto t = lexer_.next();
    if (!t.ok()) return t.error();
    cur_ = t.value();
    return Status::success();
  }

  /// Consume a binary operator. An operator chain builds a left-leaning
  /// tree whose evaluation and destruction recurse once per operator, so
  /// the count is capped like the nesting depth.
  Status advance_operator() {
    if (++operators_ > kMaxExprOperators)
      return fail("expression has more than " + std::to_string(kMaxExprOperators) +
                  " binary operators");
    return advance();
  }

  Result<ExprPtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs;
    ExprPtr node = lhs.value();
    while (is_op("||")) {
      if (auto st = advance_operator(); !st.ok()) return st.error();
      auto rhs = parse_and();
      if (!rhs.ok()) return rhs;
      node = std::make_shared<Binary>(BinOp::kOr, node, rhs.value());
    }
    return node;
  }

  Result<ExprPtr> parse_and() {
    auto lhs = parse_cmp();
    if (!lhs.ok()) return lhs;
    ExprPtr node = lhs.value();
    // ',' is conjunction in the paper's guard notation (Fig. 6) -- but only
    // at guard top level, never inside parentheses or call arguments.
    while (is_op("&&") || (comma_as_and_ && paren_depth_ == 0 && is_op(","))) {
      if (auto st = advance_operator(); !st.ok()) return st.error();
      auto rhs = parse_cmp();
      if (!rhs.ok()) return rhs;
      node = std::make_shared<Binary>(BinOp::kAnd, node, rhs.value());
    }
    return node;
  }

  Result<ExprPtr> parse_cmp() {
    auto lhs = parse_add();
    if (!lhs.ok()) return lhs;
    ExprPtr node = lhs.value();
    static const std::pair<std::string_view, BinOp> kOps[] = {
        {"<=", BinOp::kLe}, {">=", BinOp::kGe}, {"==", BinOp::kEq},
        {"!=", BinOp::kNe}, {"<", BinOp::kLt},  {">", BinOp::kGt},
        {"=", BinOp::kEq},  // single '=' as equality, per the paper's notation
    };
    for (const auto& [text, op] : kOps) {
      if (is_op(text)) {
        if (auto st = advance_operator(); !st.ok()) return st.error();
        auto rhs = parse_add();
        if (!rhs.ok()) return rhs;
        return ExprPtr{std::make_shared<Binary>(op, node, rhs.value())};
      }
    }
    return node;
  }

  Result<ExprPtr> parse_add() {
    auto lhs = parse_mul();
    if (!lhs.ok()) return lhs;
    ExprPtr node = lhs.value();
    while (is_op("+") || is_op("-")) {
      const BinOp op = cur_.text == "+" ? BinOp::kAdd : BinOp::kSub;
      if (auto st = advance_operator(); !st.ok()) return st.error();
      auto rhs = parse_mul();
      if (!rhs.ok()) return rhs;
      node = std::make_shared<Binary>(op, node, rhs.value());
    }
    return node;
  }

  Result<ExprPtr> parse_mul() {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    ExprPtr node = lhs.value();
    while (is_op("*") || is_op("/") || is_op("%")) {
      const BinOp op = cur_.text == "*" ? BinOp::kMul : (cur_.text == "/" ? BinOp::kDiv : BinOp::kMod);
      if (auto st = advance_operator(); !st.ok()) return st.error();
      auto rhs = parse_unary();
      if (!rhs.ok()) return rhs;
      node = std::make_shared<Binary>(op, node, rhs.value());
    }
    return node;
  }

  Result<ExprPtr> parse_unary() {
    // Every nesting level (parenthesis, call argument, prefix operator)
    // recurses through here, so this one check bounds the stack.
    if (depth_ == kMaxExprDepth)
      return fail("expression nested deeper than " + std::to_string(kMaxExprDepth) + " levels");
    ++depth_;
    auto operand = parse_unary_operand();
    --depth_;
    return operand;
  }

  Result<ExprPtr> parse_unary_operand() {
    if (is_op("!") || is_op("-")) {
      const char op = cur_.text[0];
      if (auto st = advance(); !st.ok()) return st.error();
      auto operand = parse_unary();
      if (!operand.ok()) return operand;
      return ExprPtr{std::make_shared<Unary>(op, operand.value())};
    }
    return parse_primary();
  }

  Result<ExprPtr> parse_primary() {
    if (cur_.type == Token::Type::kNumber) {
      auto node = std::make_shared<Literal>(cur_.number);
      if (auto st = advance(); !st.ok()) return st.error();
      return ExprPtr{node};
    }
    if (cur_.type == Token::Type::kString) {
      auto node = std::make_shared<Literal>(Value{cur_.text});
      if (auto st = advance(); !st.ok()) return st.error();
      return ExprPtr{node};
    }
    if (cur_.type == Token::Type::kIdent) {
      const std::string name = cur_.text;
      if (auto st = advance(); !st.ok()) return st.error();
      if (name == "true") return ExprPtr{std::make_shared<Literal>(Value{true})};
      if (name == "false") return ExprPtr{std::make_shared<Literal>(Value{false})};
      if (is_op("(")) {
        if (auto st = advance(); !st.ok()) return st.error();
        ++paren_depth_;
        std::vector<ExprPtr> args;
        if (!is_op(")")) {
          for (;;) {
            auto arg = parse_or();
            if (!arg.ok()) return arg;
            args.push_back(arg.value());
            if (is_op(",")) {
              if (auto st = advance(); !st.ok()) return st.error();
              continue;
            }
            break;
          }
        }
        if (!is_op(")")) return fail("expected ')' after call arguments");
        --paren_depth_;
        if (auto st = advance(); !st.ok()) return st.error();
        return ExprPtr{std::make_shared<Call>(name, std::move(args))};
      }
      return ExprPtr{std::make_shared<Identifier>(name)};
    }
    if (is_op("(")) {
      if (auto st = advance(); !st.ok()) return st.error();
      ++paren_depth_;
      auto inner = parse_or();
      if (!inner.ok()) return inner;
      if (!is_op(")")) return fail("expected ')'");
      --paren_depth_;
      if (auto st = advance(); !st.ok()) return st.error();
      return inner;
    }
    return fail("expected expression");
  }

  Lexer lexer_;
  Token cur_;
  int paren_depth_ = 0;
  int depth_ = 0;
  int operators_ = 0;
  bool comma_as_and_ = true;
};

// ---------------------------------------------------------------------------
// Comparison narrowing (refine_by_predicate)
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

void narrow(MapIntervalEnv& env, const std::string& name, const Interval& by) {
  env.bind(name, meet(env.get(name), by));
}

/// Narrow `ident op bound` assuming it holds. Strict bounds narrow like
/// their non-strict counterparts (sound: only the endpoint stays).
void refine_cmp(MapIntervalEnv& env, const std::string& name, BinOp op, const Interval& bound) {
  if (bound.is_bottom()) return;
  switch (op) {
    case BinOp::kLt:
    case BinOp::kLe: narrow(env, name, Interval{-kInf, bound.hi}); break;
    case BinOp::kGt:
    case BinOp::kGe: narrow(env, name, Interval{bound.lo, kInf}); break;
    case BinOp::kEq: narrow(env, name, bound); break;
    default: break;
  }
}

BinOp mirror_cmp(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

void refine_true(const Expr& e, MapIntervalEnv& env) {
  const auto* bin = dynamic_cast<const Binary*>(&e);
  if (bin == nullptr) return;
  if (bin->op() == BinOp::kAnd) {
    refine_true(*bin->lhs(), env);
    refine_true(*bin->rhs(), env);
    return;
  }
  // `x op rhs` / `lhs op x`: evaluate the non-identifier side under the
  // current bindings and narrow the identifier.
  const auto* lid = dynamic_cast<const Identifier*>(bin->lhs().get());
  const auto* rid = dynamic_cast<const Identifier*>(bin->rhs().get());
  if (lid != nullptr)
    refine_cmp(env, lid->name(), bin->op(), bin->rhs()->evaluate_interval(env));
  if (rid != nullptr)
    refine_cmp(env, rid->name(), mirror_cmp(bin->op()), bin->lhs()->evaluate_interval(env));
}

}  // namespace

Interval Expr::evaluate_interval(const IntervalEnv&) const { return Interval::top(); }

void refine_by_predicate(const Expr& predicate, MapIntervalEnv& env) {
  refine_true(predicate, env);
}

std::string Value::to_string() const {
  if (is_int()) return std::to_string(std::get<std::int64_t>(v_));
  if (is_real()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%g", std::get<double>(v_));
    // Keep realness through a print/parse round trip: "4" would reparse
    // as an integer and change division semantics.
    std::string s{buf};
    if (s.find_first_of(".eE") == std::string::npos) s += ".0";
    return s;
  }
  if (is_bool()) return std::get<bool>(v_) ? "true" : "false";
  return "\"" + std::get<std::string>(v_) + "\"";
}

std::string Assignment::to_string() const { return target + " := " + value->to_string(); }

std::string static_type_name(StaticType type) {
  switch (type) {
    case StaticType::kInt: return "int";
    case StaticType::kReal: return "real";
    case StaticType::kBool: return "bool";
    case StaticType::kString: return "string";
    case StaticType::kAny: return "any";
  }
  return "?";
}

StaticType static_type_of(const Value& value) {
  if (value.is_real()) return StaticType::kReal;
  if (value.is_bool()) return StaticType::kBool;
  if (value.is_string()) return StaticType::kString;
  return StaticType::kInt;
}

Result<ExprPtr> parse_expression(std::string_view text) {
  return ExprParser{text}.parse_full();
}

Result<std::vector<Assignment>> parse_assignments(std::string_view text) {
  return ExprParser{text}.parse_assignment_list();
}

}  // namespace decos::ta
