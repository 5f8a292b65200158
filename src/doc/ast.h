#ifndef HEPQUERY_DOC_AST_H_
#define HEPQUERY_DOC_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "doc/item.h"

namespace hepq::doc {

/// Dynamic evaluation environment: lexically scoped variable bindings plus
/// the context-item stack for predicate expressions ($$). Lookup is by
/// string, as in a straightforward tree-walking JSONiq interpreter.
class DocContext {
 public:
  void Push(const std::string& name, Sequence value) {
    bindings_.emplace_back(name, std::move(value));
  }
  void Pop() { bindings_.pop_back(); }

  /// The innermost binding of `name`, or nullptr if it is unbound.
  const Sequence* Lookup(std::string_view name) const;

  void PushContextItem(ItemPtr item) {
    context_items_.push_back(std::move(item));
  }
  void PopContextItem() { context_items_.pop_back(); }
  const ItemPtr& ContextItem() const { return context_items_.back(); }
  bool HasContextItem() const { return !context_items_.empty(); }

  /// Interpreter step counter (instrumentation for Table 2 / Figure 4).
  uint64_t steps = 0;

 private:
  std::vector<std::pair<std::string, Sequence>> bindings_;
  std::vector<ItemPtr> context_items_;
};

enum class DocBinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

class DocExpr;
struct FlworClause;

/// Structural reflection of one expression node, consumed by the
/// scan-predicate extraction (doc/runner.cc): it pattern-matches FLWOR
/// guards like `count($event.Jet[][$$.pt > 40]) > 1` without widening the
/// interpreter's class hierarchy. Nodes the extraction cannot use report
/// kOther. Child pointers stay owned by the reflected node.
struct DocShape {
  enum class Kind {
    kNum,
    kVar,
    kContextItem,
    kMember,
    kUnbox,
    kPredicate,
    kBin,
    kCall,
    kIf,
    kFlwor,
    kOther,
  };
  Kind kind = Kind::kOther;
  double num = 0.0;
  std::string name;  // variable / member / function name
  DocBinOp bin_op = DocBinOp::kAdd;
  const DocExpr* input = nullptr;      // member/unbox/predicate input, if cond
  const DocExpr* predicate = nullptr;  // DPredicate's predicate expression
  std::vector<const DocExpr*> args;    // bin {lhs,rhs} / call args /
                                       // if {then,else} (null = absent)
  const std::vector<FlworClause>* clauses = nullptr;  // kFlwor
};

/// A JSONiq-style expression: evaluates to a sequence of items.
class DocExpr {
 public:
  virtual ~DocExpr() = default;
  virtual Result<Sequence> Eval(DocContext* ctx) const = 0;
  /// Reflects the node for predicate extraction; defaults to opaque.
  virtual DocShape Shape() const { return DocShape{}; }
};

using DocExprPtr = std::shared_ptr<const DocExpr>;

// ---- Expression factories -------------------------------------------------

DocExprPtr DNum(double value);
DocExprPtr DBool(bool value);
/// Variable reference "$name" (pass the name without the dollar sign).
DocExprPtr DVar(std::string name);
/// The context item "$$" inside a predicate.
DocExprPtr DContextItem();
/// Member access ".name": maps over objects in the input sequence.
DocExprPtr DMember(DocExprPtr input, std::string name);
/// Array unboxing "[]": flattens arrays in the input sequence.
DocExprPtr DUnbox(DocExprPtr input);
/// Predicate "input[pred]": a numeric singleton predicate selects by
/// position (1-based); otherwise filters by effective boolean value with
/// the element bound as context item.
DocExprPtr DPredicate(DocExprPtr input, DocExprPtr predicate);
DocExprPtr DBin(DocBinOp op, DocExprPtr lhs, DocExprPtr rhs);
/// Builtin function call; see EnsureDocFunctionsRegistered for the
/// library. The function is resolved here; a name registered only later is
/// looked up on each evaluation, and an unknown one fails there (KeyError).
DocExprPtr DCall(std::string function, std::vector<DocExprPtr> args);
/// Object constructor { "a": expr, ... }.
DocExprPtr DObject(std::vector<std::pair<std::string, DocExprPtr>> members);
/// Array constructor [ expr ].
DocExprPtr DArray(DocExprPtr contents);
/// if (cond) then .. else ..
DocExprPtr DIf(DocExprPtr condition, DocExprPtr then_expr,
               DocExprPtr else_expr);
/// Sequence concatenation (comma operator).
DocExprPtr DConcat(std::vector<DocExprPtr> parts);

/// Quantified expression "some $var in source satisfies predicate":
/// true iff at least one binding makes the predicate's EBV true.
/// Short-circuits on the first witness.
DocExprPtr DSome(std::string var, DocExprPtr source, DocExprPtr predicate);

/// "every $var in source satisfies predicate": true iff all bindings
/// satisfy the predicate (vacuously true on the empty sequence).
DocExprPtr DEvery(std::string var, DocExprPtr source, DocExprPtr predicate);

// ---- FLWOR ------------------------------------------------------------

struct FlworClause {
  enum class Kind { kFor, kLet, kWhere, kGroupBy } kind = Kind::kFor;
  std::string var;           // bound variable for for/let/group-by
  std::string position_var;  // "at $i" counter for for (optional)
  DocExprPtr expr;           // unused for group-by
};

/// FLWOR expression (for/let/where/group-by clauses) with optional
/// trailing "order by <key> [descending]";
/// the key is evaluated per tuple and the return values are emitted in key
/// order (stable). This covers the "closest-to" idiom
/// `(for ... order by abs(...) return ...)[1]` used by Q6/Q8.
DocExprPtr DFlwor(std::vector<FlworClause> clauses, DocExprPtr return_expr,
                  DocExprPtr order_by_key = nullptr,
                  bool order_descending = false);

inline FlworClause For(std::string var, DocExprPtr expr,
                       std::string position_var = "") {
  return FlworClause{FlworClause::Kind::kFor, std::move(var),
                     std::move(position_var), std::move(expr)};
}
inline FlworClause Let(std::string var, DocExprPtr expr) {
  return FlworClause{FlworClause::Kind::kLet, std::move(var), "",
                     std::move(expr)};
}
inline FlworClause Where(DocExprPtr expr) {
  return FlworClause{FlworClause::Kind::kWhere, "", "", std::move(expr)};
}
/// "group by $var": groups the tuple stream by the (atomic) value of an
/// already-bound variable. Within each group, $var is bound to the key
/// and every other variable bound before the clause becomes the
/// concatenated sequence of its per-tuple values — JSONiq's grouping
/// semantics, and the mechanism behind the hep:histogram library function
/// of the corpus. Must appear after at least one for/let clause; at most
/// one group-by per FLWOR.
inline FlworClause GroupBy(std::string var) {
  return FlworClause{FlworClause::Kind::kGroupBy, std::move(var), "",
                     nullptr};
}

/// Builtin function signature: args are already-evaluated sequences.
using DocFunction =
    std::function<Result<Sequence>(const std::vector<Sequence>&)>;

/// Global function registry (fn: core functions + hep: physics library).
/// Registered once at process start via an internal initializer; exposed
/// for tests and user extensions. Register before evaluating on more than
/// one thread: the registry takes no lock.
void RegisterDocFunction(const std::string& name, DocFunction fn);
/// The registered function, or nullptr. The pointer stays valid for the
/// process (re-registering a name replaces the function it points to).
const DocFunction* LookupDocFunction(const std::string& name);

}  // namespace hepq::doc

#endif  // HEPQUERY_DOC_AST_H_
