#include "doc/item.h"

#include "core/json.h"

namespace hepq::doc {

std::shared_ptr<Item> Item::Make(Kind kind) {
  return std::make_shared<Item>(Token{}, kind);
}

ItemPtr Item::Null() {
  static const ItemPtr& instance = *new ItemPtr(Make(Kind::kNull));
  return instance;
}

ItemPtr Item::Bool(bool value) {
  // Per thread, so scan threads do not share the refcount's cache line.
  thread_local const ItemPtr kFalse = Make(Kind::kBool);
  thread_local const ItemPtr kTrue = [] {
    auto item = Make(Kind::kBool);
    item->bool_ = true;
    return item;
  }();
  return value ? kTrue : kFalse;
}

ItemPtr Item::Number(double value) {
  auto item = Make(Kind::kNumber);
  item->number_ = value;
  return item;
}

ItemPtr Item::String(std::string value) {
  auto item = Make(Kind::kString);
  item->string_ = std::move(value);
  return item;
}

ItemPtr Item::Array(Sequence elements) {
  auto item = Make(Kind::kArray);
  item->elements_ = std::move(elements);
  return item;
}

ItemPtr Item::Object(std::vector<std::pair<std::string, ItemPtr>> members) {
  auto item = Make(Kind::kObject);
  item->members_ = std::move(members);
  return item;
}

bool Item::AsBool() const {
  switch (kind_) {
    case Kind::kNull:
      return false;
    case Kind::kBool:
      return bool_;
    case Kind::kNumber:
      return number_ != 0.0;
    case Kind::kString:
      return !string_.empty();
    default:
      return true;
  }
}

ItemPtr Item::Member(std::string_view name) const {
  for (const auto& [key, value] : members_) {
    if (key == name) return value;
  }
  return nullptr;
}

namespace {

void WriteJson(const Item& item, json::Writer* out) {
  switch (item.kind()) {
    case Item::Kind::kNull: out->Null(); break;
    case Item::Kind::kBool: out->Value(item.AsBool()); break;
    case Item::Kind::kNumber: out->Value(item.AsDouble()); break;
    case Item::Kind::kString: out->Value(item.AsString()); break;
    case Item::Kind::kArray:
      out->BeginArray();
      for (const ItemPtr& element : item.Elements()) WriteJson(*element, out);
      out->EndArray();
      break;
    case Item::Kind::kObject:
      out->BeginObject();
      for (const auto& [key, value] : item.Members()) {
        out->Key(key);
        WriteJson(*value, out);
      }
      out->EndObject();
      break;
  }
}

}  // namespace

std::string Item::ToJson() const {
  json::Writer out;
  WriteJson(*this, &out);
  return out.Take();
}

double SequenceToDouble(const Sequence& seq, double fallback) {
  if (seq.empty()) return fallback;
  return seq.front()->AsDouble();
}

bool EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq.size() == 1) return seq.front()->AsBool();
  return true;
}

}  // namespace hepq::doc
