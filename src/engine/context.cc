#include "engine/context.h"

namespace hepq::engine {

namespace {

Result<MemberAccessor> AccessorFor(const Array& values) {
  MemberAccessor acc;
  acc.type = values.type()->id();
  switch (acc.type) {
    case TypeId::kFloat32:
      acc.data = static_cast<const Float32Array&>(values).raw();
      break;
    case TypeId::kFloat64:
      acc.data = static_cast<const Float64Array&>(values).raw();
      break;
    case TypeId::kInt32:
      acc.data = static_cast<const Int32Array&>(values).raw();
      break;
    case TypeId::kInt64:
      acc.data = static_cast<const Int64Array&>(values).raw();
      break;
    case TypeId::kBool:
      acc.data = static_cast<const BoolArray&>(values).raw();
      break;
    default:
      // Declared here with a Status so MemberAccessor::Get never sees an
      // unsupported type at evaluation time.
      return Status::TypeError(std::string("accessor requires a primitive "
                                           "array, got ") +
                               TypeIdName(acc.type));
  }
  return acc;
}

}  // namespace

Status BatchBindings::BindUnion(const RecordBatch& batch,
                                const ListDecl& decl) {
  const size_t num_members = decl.members.size();
  struct BoundSource {
    const ListArray* list;
    std::vector<MemberAccessor> members;  // one per mapped member
    bool has_tag;
    double tag;
  };
  std::vector<BoundSource> sources;
  for (const UnionSource& source : decl.union_sources) {
    ArrayPtr column = batch.ColumnByName(source.column);
    if (column == nullptr || column->type()->id() != TypeId::kList) {
      return Status::KeyError("union source '" + source.column +
                              "' is not a list column in the batch");
    }
    const auto& list = static_cast<const ListArray&>(*column);
    const Array& child = *list.child();
    if (child.type()->id() != TypeId::kStruct) {
      return Status::TypeError("union source '" + source.column +
                               "' must contain structs");
    }
    const auto& st = static_cast<const StructArray&>(child);
    BoundSource bound;
    bound.list = &list;
    bound.has_tag = source.members.size() + 1 == num_members;
    bound.tag = source.tag;
    if (!bound.has_tag && source.members.size() != num_members) {
      return Status::Invalid("union source '" + source.column +
                             "' maps the wrong number of members");
    }
    for (const std::string& member : source.members) {
      ArrayPtr m = st.ChildByName(member);
      if (m == nullptr) {
        return Status::KeyError("union source '" + source.column +
                                "' has no member '" + member + "'");
      }
      MemberAccessor acc;
      HEPQ_ASSIGN_OR_RETURN(acc, AccessorFor(*m));
      bound.members.push_back(acc);
    }
    sources.push_back(std::move(bound));
  }

  // Materialize the concatenated list: per event, all elements of source 0,
  // then source 1, etc. This copy is the real cost of the "Leptons" CTE.
  // Two passes: the offsets pass fixes every output position, so the fill
  // pass writes into exactly-sized buffers with no per-element push_back
  // (no reallocation, no capacity checks in the hot loop).
  const int64_t rows = batch.num_rows();
  std::vector<uint32_t> offsets(static_cast<size_t>(rows) + 1, 0);
  for (int64_t row = 0; row < rows; ++row) {
    uint32_t count = 0;
    for (const BoundSource& source : sources) {
      count += static_cast<uint32_t>(source.list->list_length(row));
    }
    offsets[static_cast<size_t>(row) + 1] =
        offsets[static_cast<size_t>(row)] + count;
  }
  const size_t total = offsets[static_cast<size_t>(rows)];
  std::vector<std::vector<double>> values(num_members);
  for (auto& column : values) column.resize(total);
  for (int64_t row = 0; row < rows; ++row) {
    size_t at = offsets[static_cast<size_t>(row)];
    for (const BoundSource& source : sources) {
      const uint32_t begin =
          source.list->list_offset(static_cast<int64_t>(row));
      const uint32_t end =
          begin +
          static_cast<uint32_t>(source.list->list_length(row));
      for (uint32_t i = begin; i < end; ++i, ++at) {
        for (size_t m = 0; m < source.members.size(); ++m) {
          values[m][at] = source.members[m].Get(i);
        }
        if (source.has_tag) {
          values[num_members - 1][at] = source.tag;
        }
      }
    }
  }

  ListBinding binding;
  owned_offsets_.push_back(std::move(offsets));
  binding.offsets = owned_offsets_.back().data();
  for (size_t m = 0; m < num_members; ++m) {
    owned_values_.push_back(std::move(values[m]));
    binding.members.push_back(
        MemberAccessor{TypeId::kFloat64, owned_values_.back().data()});
  }
  lists_.push_back(std::move(binding));
  return Status::OK();
}

BatchBindings BatchBindings::Float64Scalars(
    const std::vector<const double*>& columns) {
  BatchBindings out;
  out.scalars_.reserve(columns.size());
  for (const double* column : columns) {
    out.scalars_.push_back(MemberAccessor{TypeId::kFloat64, column});
  }
  return out;
}

Result<BatchBindings> BatchBindings::Bind(
    const RecordBatch& batch, const std::vector<ListDecl>& lists,
    const std::vector<ScalarDecl>& scalars) {
  BatchBindings out;
  for (const ListDecl& decl : lists) {
    if (!decl.union_sources.empty()) {
      HEPQ_RETURN_NOT_OK(out.BindUnion(batch, decl));
      continue;
    }
    ArrayPtr column = batch.ColumnByName(decl.column);
    if (column == nullptr) {
      return Status::KeyError("batch has no column '" + decl.column + "'");
    }
    if (column->type()->id() != TypeId::kList) {
      return Status::TypeError("column '" + decl.column + "' is not a list");
    }
    const auto& list = static_cast<const ListArray&>(*column);
    ListBinding binding;
    binding.offsets = list.offsets().data();
    const Array& child = *list.child();
    for (const std::string& member : decl.members) {
      const Array* values = nullptr;
      if (child.type()->id() == TypeId::kStruct) {
        const auto& st = static_cast<const StructArray&>(child);
        ArrayPtr m = st.ChildByName(member);
        if (m == nullptr) {
          return Status::KeyError("list '" + decl.column +
                                  "' has no member '" + member + "'");
        }
        values = m.get();
        MemberAccessor acc;
        HEPQ_ASSIGN_OR_RETURN(acc, AccessorFor(*values));
        binding.members.push_back(acc);
        // Keep the child array alive through the batch; accessors hold raw
        // pointers, so the caller must keep the batch alive while binding
        // is in use (enforced by the per-row-group execution loop).
      } else {
        MemberAccessor acc;
        HEPQ_ASSIGN_OR_RETURN(acc, AccessorFor(child));
        binding.members.push_back(acc);
      }
    }
    out.lists_.push_back(std::move(binding));
  }
  for (const ScalarDecl& decl : scalars) {
    const size_t dot = decl.leaf_path.find('.');
    const std::string column_name = dot == std::string::npos
                                        ? decl.leaf_path
                                        : decl.leaf_path.substr(0, dot);
    ArrayPtr column = batch.ColumnByName(column_name);
    if (column == nullptr) {
      return Status::KeyError("batch has no column '" + column_name + "'");
    }
    const Array* values = column.get();
    if (dot != std::string::npos) {
      if (column->type()->id() != TypeId::kStruct) {
        return Status::TypeError("column '" + column_name +
                                 "' is not a struct");
      }
      const auto& st = static_cast<const StructArray&>(*column);
      ArrayPtr m = st.ChildByName(decl.leaf_path.substr(dot + 1));
      if (m == nullptr) {
        return Status::KeyError("no scalar leaf '" + decl.leaf_path + "'");
      }
      values = m.get();
    }
    MemberAccessor acc;
    HEPQ_ASSIGN_OR_RETURN(acc, AccessorFor(*values));
    out.scalars_.push_back(acc);
  }
  return out;
}

}  // namespace hepq::engine
