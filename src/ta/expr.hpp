// Expression language for timed-automaton guards, assignments and
// transfer-semantics conversion rules (paper Section IV-B).
//
// Grammar (precedence climbing):
//   expr     := or
//   or       := and ( "||" and )*
//   and      := cmp ( ("&&" | ",") cmp )*          -- the paper's Fig. 6
//                                                     writes conjunction as ','
//   cmp      := add ( ("<"|"<="|">"|">="|"=="|"!=") add )?
//   add      := mul ( ("+"|"-") mul )*
//   mul      := unary ( ("*"|"/"|"%") unary )*
//   unary    := ("!"|"-")? primary
//   primary  := number | string | "true" | "false" | ident
//             | ident "(" args ")" | "(" expr ")"
//   number   := digits [ "." digits ] [ "ns"|"us"|"ms"|"s" ]
//
// Durations written with a unit suffix (e.g. `5ms`) become integer
// nanosecond values, matching the global time base.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ta/interval.hpp"
#include "ta/value.hpp"
#include "util/result.hpp"
#include "util/symbol.hpp"

namespace decos::ta {

/// Name-resolution and function-call interface an expression evaluates
/// against. The timed-automaton interpreter implements this over its
/// clock/state variables and delegates `horizon`/`requ` to the gateway.
///
/// Identifiers are interned at parse time; the Symbol overloads are the
/// hot path (integer-keyed resolution) and default to the string
/// versions so simple environments only implement those.
class Environment {
 public:
  virtual ~Environment() = default;
  /// Value of identifier `name`. Throws SpecError if unknown.
  virtual Value get(const std::string& name) const = 0;
  /// Assign `value` to `name`. Throws SpecError if not assignable.
  virtual void set(const std::string& name, const Value& value) = 0;
  /// Invoke function `name` (e.g. horizon, requ, min, max, abs).
  virtual Value call(const std::string& name, const std::vector<Value>& args) = 0;

  /// Symbol-keyed fast paths used by evaluate(); `sym` is the interned
  /// form of `name`.
  virtual Value get(Symbol sym, const std::string& name) const {
    (void)sym;
    return get(name);
  }
  virtual void set(Symbol sym, const std::string& name, const Value& value) {
    (void)sym;
    set(name, value);
  }
};

/// Static type lattice of the expression language. `kAny` is the top
/// element used when a binding's type cannot be pinned down statically;
/// it never produces a type error.
enum class StaticType { kInt, kReal, kBool, kString, kAny };

std::string static_type_name(StaticType type);

/// Static type of a concrete runtime value.
StaticType static_type_of(const Value& value);

/// Static counterpart of Environment: resolves identifier and call
/// *types* instead of values, so expression trees can be checked before
/// deployment (declint rule DL002).
class TypeEnv {
 public:
  virtual ~TypeEnv() = default;
  /// Type of identifier `name`; failure == unknown identifier.
  virtual Result<StaticType> type_of(const std::string& name) const = 0;
  /// Result type of calling `fn` on arguments of the given types;
  /// failure == unknown function / wrong arity / bad argument type.
  virtual Result<StaticType> type_of_call(const std::string& fn,
                                          const std::vector<StaticType>& args) const = 0;
};

/// Immutable expression AST node.
class Expr {
 public:
  enum class Kind { kLiteral, kIdentifier, kUnary, kBinary, kCall };

  virtual ~Expr() = default;
  virtual Kind kind() const = 0;
  virtual Value evaluate(Environment& env) const = 0;
  virtual std::string to_string() const = 0;

  /// Static type of this expression under `env`, or a type error (e.g.
  /// arithmetic on a string, mismatched call arity). Mirrors exactly the
  /// coercions evaluate() performs at runtime: whatever fails here would
  /// throw SpecError during semantic conversion.
  virtual Result<StaticType> infer_type(const TypeEnv& env) const = 0;

  /// Collect all identifiers referenced (used for validation: which
  /// clocks/parameters a guard depends on).
  virtual void collect_identifiers(std::vector<std::string>& out) const = 0;

  /// Abstract evaluation over value intervals (declint rule DL009): the
  /// concrete evaluate() result always lies inside the returned interval.
  /// Sound default for nodes without a tighter abstraction: top.
  virtual Interval evaluate_interval(const IntervalEnv& env) const;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// A parsed assignment `target := expr` (also accepts `=`).
struct Assignment {
  std::string target;
  ExprPtr value;
  /// Interned form of `target`; filled by the parser, lazily re-derived
  /// for hand-built assignments.
  mutable Symbol target_sym{};

  void apply(Environment& env) const {
    if (!target_sym.valid()) target_sym = intern_symbol(target);
    env.set(target_sym, target, value->evaluate(env));
  }
  std::string to_string() const;
};

/// Deepest expression nesting the parser accepts: a bare operand is
/// depth 1, and each enclosing parenthesis, call or prefix operator adds
/// one. The parser recurses once per level, so deeper input is a parse
/// error rather than a stack overflow.
inline constexpr int kMaxExprDepth = 128;
/// Most binary operators one parse accepts: operator chains nest the
/// tree without recursing in the parser, so they are bounded apart.
inline constexpr int kMaxExprOperators = 1024;

/// Parse a single expression. Empty input is invalid.
Result<ExprPtr> parse_expression(std::string_view text);

/// Parse a ';'-separated list of assignments, e.g. "x:=0; n:=n+1".
/// An empty string yields an empty list.
Result<std::vector<Assignment>> parse_assignments(std::string_view text);

/// Assume `predicate` holds and narrow the identifier bindings in `env`
/// accordingly (comparison narrowing over top-level conjunctions, e.g.
/// `v >= 0 && v <= 100` pins v to [0, 100]). Only ever shrinks
/// intervals; shapes it cannot exploit are skipped, which stays sound.
void refine_by_predicate(const Expr& predicate, MapIntervalEnv& env);

}  // namespace decos::ta
