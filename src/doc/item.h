#ifndef HEPQUERY_DOC_ITEM_H_
#define HEPQUERY_DOC_ITEM_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hepq::doc {

class Item;
using ItemPtr = std::shared_ptr<const Item>;
/// JSONiq sequences are flat, ordered collections of items.
using Sequence = std::vector<ItemPtr>;

/// A boxed JSON value — the runtime representation of the Rumble/JSONiq
/// execution model the paper benchmarks. The engine keeps the costs the
/// paper puts Rumble's slowness down to: every number, object and array is
/// its own heap-allocated, reference-counted item; member and variable
/// lookup are by-name scans; each event is boxed at full width; FLWOR runs
/// its loops as written. It does not model costs a boxed interpreter need
/// not pay: an item and its reference count share one allocation, `Bool`
/// hands out one of two shared (per-thread) boxes as `Null` does, and a
/// function call resolves its builtin when the call is built, not per
/// evaluation.
class Item {
  /// Passkey: only the factories construct items, yet std::make_shared can
  /// place each one beside its control block (one allocation per item).
  struct Token {
    explicit Token() = default;
  };

 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Item(Token, Kind kind) : kind_(kind) {}

  static ItemPtr Null();
  static ItemPtr Bool(bool value);
  static ItemPtr Number(double value);
  static ItemPtr String(std::string value);
  static ItemPtr Array(Sequence elements);
  static ItemPtr Object(std::vector<std::pair<std::string, ItemPtr>> members);

  Kind kind() const { return kind_; }
  bool IsNumber() const { return kind_ == Kind::kNumber; }
  bool IsObject() const { return kind_ == Kind::kObject; }
  bool IsArray() const { return kind_ == Kind::kArray; }

  /// Numeric value; numbers only (0 otherwise).
  double AsDouble() const { return number_; }
  /// Effective boolean value (JSONiq EBV of a singleton).
  bool AsBool() const;
  const std::string& AsString() const { return string_; }

  /// Array elements (empty for non-arrays).
  const Sequence& Elements() const { return elements_; }

  /// Object member by name, or nullptr. Linear scan by string — the
  /// realistic cost of schema-less records.
  ItemPtr Member(std::string_view name) const;
  const std::vector<std::pair<std::string, ItemPtr>>& Members() const {
    return members_;
  }

  /// Compact JSON (json::Writer: distinct numbers print distinctly, NaN
  /// and +-inf as null).
  std::string ToJson() const;

 private:
  static std::shared_ptr<Item> Make(Kind kind);

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Sequence elements_;
  std::vector<std::pair<std::string, ItemPtr>> members_;
};

/// Singleton-number helper: first item's numeric value, or `fallback` for
/// an empty sequence.
double SequenceToDouble(const Sequence& seq, double fallback = 0.0);

/// JSONiq effective boolean value of a sequence: empty -> false,
/// singleton -> item EBV, else true (node sequences are truthy).
bool EffectiveBooleanValue(const Sequence& seq);

}  // namespace hepq::doc

#endif  // HEPQUERY_DOC_ITEM_H_
