// The event-shape compiler has two jobs, and only two.
//
//  1. It lowers *pure* Expr trees (via their Shape() reflection) into
//     VProgram batch code. A tree is pure when it contains no aggregate
//     and no combination node, so evaluating it neither touches the ops
//     counter nor binds iterators, and eager batch evaluation is
//     unobservable.
//  2. It batches stage-position combination searches whose filter and
//     key are pure: every combination of the surviving events becomes a
//     lane, and the search body runs through the fused kernels with the
//     particles' Cartesian components converted once per list element.
//
// Everything else runs the interpreter's per-event tree walk: aggregates,
// per-element and per-combination fills, impure stage conjuncts, and the
// roots of impure CompiledExprKernels. Batched drivers for those shapes
// measured slower than the walk. Results and ops accounting (Table 2:
// +1 per event base access, +1 per aggregate element visited, kAny
// stopping at its first match, +1 per combination enumerated) match the
// interpreter bit for bit.

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/physics.h"
#include "engine/vexpr.h"

namespace hepq::engine {

namespace {

/// Events never split across combination-search flushes; a chunk grows past
/// this only when a single event has more combinations.
constexpr int kComboChunkLanes = 16384;

/// A set of evaluation lanes: each lane is an (event row, iterator
/// bindings) tuple — an event for stage predicates and fills, a particle
/// combination for searches. All iterator columns are absolute
/// child-array indices, like EvalContext::iter_index.
struct Frame {
  const BatchBindings* bindings = nullptr;
  int n = 0;
  const uint32_t* event = nullptr;
  const uint32_t* iter[kMaxIterators] = {nullptr, nullptr, nullptr, nullptr};
};

// ---- Purity analysis -------------------------------------------------------

/// A subtree is pure iff evaluating it neither touches the ops counter nor
/// binds iterators — i.e. it contains no aggregate or combination node.
/// Only pure subtrees are lowered to batch code.
bool IsPure(const Expr* e) {
  const ExprShape s = e->Shape();
  switch (s.kind) {
    case ExprShape::Kind::kAgg:
    case ExprShape::Kind::kBestCombination:
    case ExprShape::Kind::kAnyCombination:
      return false;
    default:
      break;
  }
  for (const Expr* op : s.operands) {
    if (!IsPure(op)) return false;
  }
  return true;
}

/// A combination search whose filter and key are pure: the one shape
/// RunComboUnit batches.
bool IsBatchedSearch(const Expr* e) {
  const ExprShape s = e->Shape();
  return (s.kind == ExprShape::Kind::kBestCombination ||
          s.kind == ExprShape::Kind::kAnyCombination) &&
         (s.filter == nullptr || IsPure(s.filter)) &&
         (s.value == nullptr || IsPure(s.value));
}

// ---- Compiled structures ---------------------------------------------------

/// How one VProgram input slot is filled from a Frame. kCartesian slots
/// are bound in groups of four (px, py, pz, E of one particle) by the
/// decomposed-combination pre-pass below, not by the generic slot loop.
struct SlotDesc {
  enum class Kind { kScalar, kMember, kOrdinal, kListSize, kCartesian };
  Kind kind = Kind::kScalar;
  int list_slot = -1;
  int iter_slot = -1;
  int member_slot = -1;
  int scalar_slot = -1;
};

/// One per-element Cartesian conversion: the (pt, eta, phi, mass) member
/// quad of one list, converted through PtEtaPhiM::ToPxPyPzE — the same
/// out-of-line helper every interpreter combination calls, so gathering
/// converted components per lane is bit-identical to converting per lane.
struct CartesianTable {
  int list_slot = -1;
  std::array<int, 4> members{};
};

/// Four consecutive input slots (first_slot .. first_slot+3) holding the
/// px/py/pz/E of the particle one iterator binds, read from `table`.
struct CartesianGroup {
  int table = -1;
  int iter_slot = -1;
  int first_slot = -1;
};

/// Distinct (list, member-quad) tables one scalar can reference; queries
/// use one or two, the lowering falls back past the cap.
constexpr int kMaxCartesianTables = 8;

/// A lowered pure expression.
struct CompiledScalar {
  VProgram program;
  std::vector<SlotDesc> slots;
  std::vector<CartesianTable> ctables;
  std::vector<CartesianGroup> cgroups;

  void Eval(const Frame& f, VexprScratch* s, double* out) const;
  /// Predicate form: binds and runs the fused gate, writing the passing
  /// lane positions (ascending) to sel_out and returning their count —
  /// the 0/1 vector of Eval never materializes.
  int Gate(const Frame& f, VexprScratch* s, bool negate,
           uint32_t* sel_out) const;

 private:
  void BindCartesian(const Frame& f, VexprScratch* s,
                     std::vector<VColumn>* cols) const;
  /// Binds every input slot of `program` for frame `f` (cols must hold
  /// slots.size() entries).
  void Bind(const Frame& f, VexprScratch* s,
            std::vector<VColumn>* cols) const;
};

/// One atom of a conjunction: `scalar` must be nonzero (or zero when
/// negated) for a lane to pass.
struct Conjunct {
  bool negate = false;
  CompiledScalar scalar;
};

/// A combination search in stage position: enumerates the deduplicated
/// Cartesian product per event, reduces to the best / first passing
/// combination, binds winners, and narrows the event selection.
struct ComboSearch {
  std::vector<ComboLoop> loops;
  bool best = false;  // strict-minimum argmin vs existence
  bool has_filter = false;
  CompiledScalar filter;
  CompiledScalar key;  // best only
};

/// One step of a stage's top-level conjunction: a pure conjunct, a
/// batched search, or (anything impure) the per-event tree walk.
struct StageUnit {
  enum class Kind { kConjunct, kCombo, kInterp };
  Kind kind = Kind::kConjunct;
  Conjunct conjunct;
  ComboSearch combo;
  const Expr* interp = nullptr;
};

struct CompiledStage {
  std::vector<StageUnit> units;
};

/// A fill: a pure per-event scalar runs compiled; per-element,
/// per-combination and impure fills walk the tree per event.
struct CompiledFill {
  bool compiled = false;
  CompiledScalar scalar;
  const FillExpr* src = nullptr;
};

// ---- Frame helpers ---------------------------------------------------------

/// Builds the event-level frame for the current selection: one lane per
/// selected row, iterators gathered from the per-row binding columns.
Frame MakeEventFrame(const BatchBindings& bindings,
                     const std::vector<uint32_t>& sel,
                     uint32_t* const bc[kMaxIterators], VexprScratch* s) {
  Frame f;
  f.bindings = &bindings;
  f.n = static_cast<int>(sel.size());
  f.event = sel.data();
  for (int k = 0; k < kMaxIterators; ++k) {
    std::vector<uint32_t>* it = s->AcquireU32();
    it->resize(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) (*it)[i] = bc[k][sel[i]];
    f.iter[k] = it->data();
  }
  return f;
}

// ---- Evaluation ------------------------------------------------------------

void CompiledScalar::BindCartesian(const Frame& f, VexprScratch* s,
                                   std::vector<VColumn>* cols) const {
  if (cgroups.empty() || f.n <= 0) return;

  // Two strategies per table, chosen by element reuse. A shared table
  // converts every element of [min, max] once and each lane gathers
  // components; the dense fallback converts per (lane, particle), exactly
  // the interpreter's cost, and wins when lanes reference few elements
  // from a wide index range. Both convert through the same helper, so the
  // choice never changes a bit of the result.
  struct TableBind {
    uint32_t min = 0;
    uint32_t max = 0;
    bool any = false;
    bool shared = false;
    int64_t ngroups = 0;
    const double* comp[4] = {nullptr, nullptr, nullptr, nullptr};
  };
  TableBind tb[kMaxCartesianTables];
  for (const CartesianGroup& g : cgroups) {
    TableBind& t = tb[g.table];
    ++t.ngroups;
    const uint32_t* it = f.iter[g.iter_slot];
    for (int i = 0; i < f.n; ++i) {
      const uint32_t j = it[i];
      if (!t.any) {
        t.min = t.max = j;
        t.any = true;
      } else {
        t.min = std::min(t.min, j);
        t.max = std::max(t.max, j);
      }
    }
  }
  for (size_t ti = 0; ti < ctables.size(); ++ti) {
    TableBind& t = tb[ti];
    if (!t.any) continue;
    const int64_t range = static_cast<int64_t>(t.max) - t.min + 1;
    if (range > t.ngroups * f.n) continue;
    const CartesianTable& ct = ctables[ti];
    const ListBinding& list = f.bindings->list(ct.list_slot);
    const MemberAccessor& mpt = list.members[static_cast<size_t>(ct.members[0])];
    const MemberAccessor& meta = list.members[static_cast<size_t>(ct.members[1])];
    const MemberAccessor& mphi = list.members[static_cast<size_t>(ct.members[2])];
    const MemberAccessor& mmass = list.members[static_cast<size_t>(ct.members[3])];
    double* comp[4];
    for (int c = 0; c < 4; ++c) {
      std::vector<double>* buf = s->AcquireF64();
      buf->resize(static_cast<size_t>(range));
      comp[c] = buf->data();
      t.comp[c] = comp[c];
    }
    for (int64_t r = 0; r < range; ++r) {
      const uint32_t j = t.min + static_cast<uint32_t>(r);
      const PxPyPzE v =
          PtEtaPhiM{mpt.Get(j), meta.Get(j), mphi.Get(j), mmass.Get(j)}
              .ToPxPyPzE();
      comp[0][r] = v.px;
      comp[1][r] = v.py;
      comp[2][r] = v.pz;
      comp[3][r] = v.e;
    }
    t.shared = true;
  }
  for (const CartesianGroup& g : cgroups) {
    const TableBind& t = tb[g.table];
    if (t.shared) {
      const uint32_t* idx = f.iter[g.iter_slot];
      if (t.min != 0) {
        std::vector<uint32_t>* adj = s->AcquireU32();
        adj->resize(static_cast<size_t>(f.n));
        for (int i = 0; i < f.n; ++i) (*adj)[i] = idx[i] - t.min;
        idx = adj->data();
      }
      for (int c = 0; c < 4; ++c) {
        VColumn vc;
        vc.type = TypeId::kFloat64;
        vc.data = t.comp[c];
        vc.index = idx;
        (*cols)[static_cast<size_t>(g.first_slot + c)] = vc;
      }
    } else {
      const CartesianTable& ct = ctables[static_cast<size_t>(g.table)];
      const ListBinding& list = f.bindings->list(ct.list_slot);
      const MemberAccessor& mpt =
          list.members[static_cast<size_t>(ct.members[0])];
      const MemberAccessor& meta =
          list.members[static_cast<size_t>(ct.members[1])];
      const MemberAccessor& mphi =
          list.members[static_cast<size_t>(ct.members[2])];
      const MemberAccessor& mmass =
          list.members[static_cast<size_t>(ct.members[3])];
      double* comp[4];
      for (int c = 0; c < 4; ++c) {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        comp[c] = buf->data();
      }
      const uint32_t* it = f.iter[g.iter_slot];
      for (int i = 0; i < f.n; ++i) {
        const uint32_t j = it[i];
        const PxPyPzE v =
            PtEtaPhiM{mpt.Get(j), meta.Get(j), mphi.Get(j), mmass.Get(j)}
                .ToPxPyPzE();
        comp[0][i] = v.px;
        comp[1][i] = v.py;
        comp[2][i] = v.pz;
        comp[3][i] = v.e;
      }
      for (int c = 0; c < 4; ++c) {
        VColumn vc;
        vc.type = TypeId::kFloat64;
        vc.data = comp[c];
        (*cols)[static_cast<size_t>(g.first_slot + c)] = vc;
      }
    }
  }
}

void CompiledScalar::Eval(const Frame& f, VexprScratch* s,
                          double* out) const {
  VexprScratch::Scope scope(s);
  std::vector<VColumn>* cols = s->AcquireCols();
  cols->resize(slots.size());
  Bind(f, s, cols);
  program.Run(cols->data(), f.n, &s->vm, out);
}

int CompiledScalar::Gate(const Frame& f, VexprScratch* s, bool negate,
                         uint32_t* sel_out) const {
  VexprScratch::Scope scope(s);
  std::vector<VColumn>* cols = s->AcquireCols();
  cols->resize(slots.size());
  Bind(f, s, cols);
  return program.RunGate(cols->data(), f.n, &s->vm, negate, sel_out);
}

void CompiledScalar::Bind(const Frame& f, VexprScratch* s,
                          std::vector<VColumn>* cols) const {
  BindCartesian(f, s, cols);
  for (size_t i = 0; i < slots.size(); ++i) {
    const SlotDesc& d = slots[i];
    if (d.kind == SlotDesc::Kind::kCartesian) continue;
    VColumn c;
    switch (d.kind) {
      case SlotDesc::Kind::kScalar: {
        const MemberAccessor& a = f.bindings->scalar(d.scalar_slot);
        c.type = a.type;
        c.data = a.data;
        c.index = f.event;
        break;
      }
      case SlotDesc::Kind::kMember: {
        const MemberAccessor& a =
            f.bindings->list(d.list_slot)
                .members[static_cast<size_t>(d.member_slot)];
        c.type = a.type;
        c.data = a.data;
        c.index = f.iter[d.iter_slot];
        break;
      }
      case SlotDesc::Kind::kOrdinal: {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        const ListBinding& list = f.bindings->list(d.list_slot);
        const uint32_t* it = f.iter[d.iter_slot];
        for (int j = 0; j < f.n; ++j) {
          (*buf)[j] = static_cast<double>(it[j] - list.begin(f.event[j]));
        }
        c.type = TypeId::kFloat64;
        c.data = buf->data();
        break;
      }
      case SlotDesc::Kind::kListSize: {
        std::vector<double>* buf = s->AcquireF64();
        buf->resize(static_cast<size_t>(f.n));
        const ListBinding& list = f.bindings->list(d.list_slot);
        for (int j = 0; j < f.n; ++j) {
          (*buf)[j] = static_cast<double>(list.size(f.event[j]));
        }
        c.type = TypeId::kFloat64;
        c.data = buf->data();
        break;
      }
      case SlotDesc::Kind::kCartesian:
        break;  // bound by BindCartesian above
    }
    (*cols)[i] = c;
  }
}

// ---- Lowering --------------------------------------------------------------

/// Lowers one pure tree; callers check IsPure first.
class ScalarLowerer {
 public:
  CompiledScalar Lower(const Expr* root) {
    const int reg = LowerNode(root);
    cs_.program = b_.Finish(reg);
    return std::move(cs_);
  }

 private:
  CompiledScalar cs_;
  VProgramBuilder b_;
  std::map<std::array<int, 4>, int> leaf_slots_;

  int LeafLoad(SlotDesc d) {
    const std::array<int, 4> key{static_cast<int>(d.kind), d.list_slot,
                                 d.iter_slot >= 0 ? d.iter_slot
                                                  : d.scalar_slot,
                                 d.member_slot};
    auto it = leaf_slots_.find(key);
    if (it != leaf_slots_.end()) return b_.Load(it->second);
    const int slot = static_cast<int>(cs_.slots.size());
    cs_.slots.push_back(d);
    leaf_slots_.emplace(key, slot);
    return b_.Load(slot);
  }

  /// Lowers InvMass2/InvMass3/SumPt3 calls whose arguments are per-particle
  /// (pt, eta, phi, mass) member quads to the decomposed Cartesian form:
  /// slots deliver px/py/pz/E converted once per list element, the opcode
  /// only adds and reduces per lane. Returns -1 when the call does not
  /// match (arguments are not plain iterator members), leaving the generic
  /// per-lane opcode to handle it.
  int TryLowerCartesianCall(const ExprShape& s) {
    VOp op;
    size_t particles;
    switch (s.fn) {
      case Fn::kInvMass2:
        op = VOp::kMassOfSum2;
        particles = 2;
        break;
      case Fn::kInvMass3:
        op = VOp::kMassOfSum3;
        particles = 3;
        break;
      case Fn::kSumPt3:
        op = VOp::kPtOfSum3;
        particles = 3;
        break;
      default:
        return -1;
    }
    if (s.operands.size() != particles * 4) return -1;
    std::vector<int> regs;
    regs.reserve(particles * 4);
    for (size_t g = 0; g < particles; ++g) {
      int list = -1;
      int iter = -1;
      std::array<int, 4> members{};
      for (int c = 0; c < 4; ++c) {
        const ExprShape a = s.operands[g * 4 + static_cast<size_t>(c)]->Shape();
        if (a.kind != ExprShape::Kind::kIterMember) return -1;
        if (c == 0) {
          list = a.list_slot;
          iter = a.iter_slot;
        } else if (a.list_slot != list || a.iter_slot != iter) {
          return -1;
        }
        members[static_cast<size_t>(c)] = a.member_slot;
      }
      int table = -1;
      for (size_t t = 0; t < cs_.ctables.size(); ++t) {
        if (cs_.ctables[t].list_slot == list &&
            cs_.ctables[t].members == members) {
          table = static_cast<int>(t);
          break;
        }
      }
      if (table < 0) {
        if (cs_.ctables.size() >= kMaxCartesianTables) return -1;
        table = static_cast<int>(cs_.ctables.size());
        cs_.ctables.push_back({list, members});
      }
      int first_slot = -1;
      for (const CartesianGroup& cg : cs_.cgroups) {
        if (cg.table == table && cg.iter_slot == iter) {
          first_slot = cg.first_slot;
          break;
        }
      }
      if (first_slot < 0) {
        first_slot = static_cast<int>(cs_.slots.size());
        for (int c = 0; c < 4; ++c) {
          SlotDesc d;
          d.kind = SlotDesc::Kind::kCartesian;
          d.list_slot = list;
          d.iter_slot = iter;
          d.member_slot = c;  // component: px, py, pz, E
          cs_.slots.push_back(d);
        }
        cs_.cgroups.push_back({table, iter, first_slot});
      }
      for (int c = 0; c < 4; ++c) regs.push_back(b_.Load(first_slot + c));
    }
    return b_.Op(op, regs);
  }

  int LowerNode(const Expr* e) {
    const ExprShape s = e->Shape();
    switch (s.kind) {
      case ExprShape::Kind::kLit:
        return b_.Const(s.lit);
      case ExprShape::Kind::kScalarRef: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kScalar;
        d.scalar_slot = s.scalar_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kIterMember: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kMember;
        d.list_slot = s.list_slot;
        d.iter_slot = s.iter_slot;
        d.member_slot = s.member_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kIterOrdinal: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kOrdinal;
        d.list_slot = s.list_slot;
        d.iter_slot = s.iter_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kListSize: {
        SlotDesc d;
        d.kind = SlotDesc::Kind::kListSize;
        d.list_slot = s.list_slot;
        return LeafLoad(d);
      }
      case ExprShape::Kind::kBin: {
        const int l = LowerNode(s.operands[0]);
        const int r = LowerNode(s.operands[1]);
        return b_.Op(VOpFor(s.bin_op), {l, r});
      }
      case ExprShape::Kind::kCall: {
        const int cart = TryLowerCartesianCall(s);
        if (cart >= 0) return cart;
        std::vector<int> regs;
        regs.reserve(s.operands.size());
        for (const Expr* arg : s.operands) regs.push_back(LowerNode(arg));
        return b_.Op(VOpFor(s.fn), regs);
      }
      case ExprShape::Kind::kAgg:
      case ExprShape::Kind::kBestCombination:
      case ExprShape::Kind::kAnyCombination:
        break;  // impure: never lowered (see IsPure)
    }
    return b_.Const(0.0);
  }
};

CompiledScalar LowerScalar(const Expr* e) {
  ScalarLowerer lowerer;
  return lowerer.Lower(e);
}

Conjunct LowerConjunct(const Expr* e) {
  Conjunct c;
  // Unwrap Not(...) wrappers into the negate flag.
  while (true) {
    const ExprShape s = e->Shape();
    if (s.kind == ExprShape::Kind::kCall && s.fn == Fn::kNot) {
      c.negate = !c.negate;
      e = s.operands[0];
      continue;
    }
    break;
  }
  c.scalar = LowerScalar(e);
  return c;
}

CompiledStage LowerStage(const Expr* root) {
  CompiledStage stage;
  std::vector<const Expr*> parts;
  SplitConjuncts(root, &parts);
  for (const Expr* part : parts) {
    StageUnit unit;
    if (IsBatchedSearch(part)) {
      const ExprShape s = part->Shape();
      unit.kind = StageUnit::Kind::kCombo;
      unit.combo.loops = s.loops;
      unit.combo.best = s.kind == ExprShape::Kind::kBestCombination;
      if (s.filter != nullptr) {
        unit.combo.has_filter = true;
        unit.combo.filter = LowerScalar(s.filter);
      }
      if (s.value != nullptr) unit.combo.key = LowerScalar(s.value);
    } else if (IsPure(part)) {
      unit.kind = StageUnit::Kind::kConjunct;
      unit.conjunct = LowerConjunct(part);
    } else {
      // Aggregates and searches with impure innards walk per event; a
      // search's winners persist into the binding columns for later
      // stages and fills.
      unit.kind = StageUnit::Kind::kInterp;
      unit.interp = part;
    }
    stage.units.push_back(std::move(unit));
  }
  return stage;
}

CompiledFill LowerFill(const FillExpr& fill) {
  CompiledFill out;
  out.src = &fill;
  if (!fill.per_element && !fill.per_combination &&
      IsPure(fill.scalar.get())) {
    out.compiled = true;
    out.scalar = LowerScalar(fill.scalar.get());
  }
  return out;
}

// ---- Combination enumeration -----------------------------------------------

/// Appends every (symmetric-deduplicated) combination of `loops` for event
/// `row` as lanes: event id, loop iterators set to the combination, other
/// iterators inherited from the binding columns. Returns the count, which
/// is the interpreter's per-event ops contribution.
uint64_t EnumerateCombos(const std::vector<ComboLoop>& loops,
                         const BatchBindings& bindings, uint32_t row,
                         uint32_t* const bc[kMaxIterators],
                         std::vector<uint32_t>* ev,
                         std::vector<uint32_t>* const cit[kMaxIterators]) {
  const size_t depth_count = loops.size();
  const ListBinding* lists[kMaxIterators];
  for (size_t d = 0; d < depth_count; ++d) {
    lists[d] = &bindings.list(loops[d].list_slot);
  }
  int slot_to_depth[kMaxIterators] = {-1, -1, -1, -1};
  for (size_t d = 0; d < depth_count; ++d) {
    slot_to_depth[loops[d].iter_slot] = static_cast<int>(d);
  }
  uint32_t cur[kMaxIterators] = {0, 0, 0, 0};
  uint64_t count = 0;

  const auto emit = [&]() {
    ++count;
    ev->push_back(row);
    for (int k = 0; k < kMaxIterators; ++k) {
      cit[k]->push_back(slot_to_depth[k] >= 0
                            ? cur[slot_to_depth[k]]
                            : bc[k][row]);
    }
  };
  const auto recurse = [&](const auto& self, size_t depth) -> void {
    if (depth == depth_count) {
      emit();
      return;
    }
    if (depth >= static_cast<size_t>(kMaxIterators)) return;  // unreachable
    uint32_t begin = lists[depth]->begin(row);
    const uint32_t end = lists[depth]->end(row);
    for (size_t d = 0; d < depth; ++d) {
      if (loops[d].list_slot == loops[depth].list_slot) {
        begin = std::max(begin, cur[d] + 1);
      }
    }
    for (uint32_t i = begin; i < end; ++i) {
      cur[depth] = i;
      self(self, depth + 1);
    }
  };
  recurse(recurse, 0);
  return count;
}

/// Runs a combination-search stage unit: narrows `sel` to events with a
/// qualifying combination and binds the winning iterators into `bc`.
void RunComboUnit(const ComboSearch& cs, const BatchBindings& bindings,
                  std::vector<uint32_t>* sel, uint32_t* bc[kMaxIterators],
                  VexprScratch* s, uint64_t* ops) {
  VexprScratch::Scope scope(s);
  std::vector<uint32_t>* ev = s->AcquireU32();
  std::vector<uint32_t>* cit[kMaxIterators];
  for (int k = 0; k < kMaxIterators; ++k) cit[k] = s->AcquireU32();
  std::vector<uint32_t>* ev_rows = s->AcquireU32();
  std::vector<uint32_t>* ev_start = s->AcquireU32();
  std::vector<uint32_t>* newsel = s->AcquireU32();
  newsel->reserve(sel->size());

  const auto flush = [&]() {
    if (ev_rows->empty()) return;
    VexprScratch::Scope flush_scope(s);
    const int cn = static_cast<int>(ev->size());
    Frame f;
    f.bindings = &bindings;
    f.n = cn;
    f.event = ev->data();
    for (int k = 0; k < kMaxIterators; ++k) f.iter[k] = cit[k]->data();
    const double* fv = nullptr;
    const double* kv = nullptr;
    if (cs.has_filter) {
      std::vector<double>* fbuf = s->AcquireF64();
      fbuf->resize(static_cast<size_t>(cn));
      cs.filter.Eval(f, s, fbuf->data());
      fv = fbuf->data();
    }
    if (cs.best) {
      std::vector<double>* kbuf = s->AcquireF64();
      kbuf->resize(static_cast<size_t>(cn));
      cs.key.Eval(f, s, kbuf->data());
      kv = kbuf->data();
    }
    for (size_t t = 0; t < ev_rows->size(); ++t) {
      const uint32_t row = (*ev_rows)[t];
      const uint32_t begin = (*ev_start)[t];
      const uint32_t end = t + 1 < ev_start->size()
                               ? (*ev_start)[t + 1]
                               : static_cast<uint32_t>(cn);
      bool found = false;
      double best_key = std::numeric_limits<double>::infinity();
      uint32_t win = 0;
      for (uint32_t j = begin; j < end; ++j) {
        if (fv != nullptr && fv[j] == 0.0) continue;
        if (!cs.best) {
          found = true;
          win = j;
          break;  // first passing combination, enumeration order
        }
        const double k = kv[j];
        // Strict < keeps the first minimal combination, like the
        // interpreter's `!found || k < best_key`.
        if (!found || k < best_key) {
          found = true;
          best_key = k;
          win = j;
        }
      }
      if (found) {
        for (const ComboLoop& loop : cs.loops) {
          bc[loop.iter_slot][row] = (*cit[loop.iter_slot])[win];
        }
        newsel->push_back(row);
      }
    }
    ev->clear();
    for (int k = 0; k < kMaxIterators; ++k) cit[k]->clear();
    ev_rows->clear();
    ev_start->clear();
  };

  for (const uint32_t row : *sel) {
    ev_rows->push_back(row);
    ev_start->push_back(static_cast<uint32_t>(ev->size()));
    *ops += EnumerateCombos(cs.loops, bindings, row, bc, ev, cit);
    if (static_cast<int>(ev->size()) >= kComboChunkLanes) flush();
  }
  flush();
  sel->assign(newsel->begin(), newsel->end());
}

// ---- Stage and fill drivers ------------------------------------------------

void RunConjunctUnit(const Conjunct& c, const BatchBindings& bindings,
                     std::vector<uint32_t>* sel,
                     uint32_t* const bc[kMaxIterators], VexprScratch* s) {
  if (sel->empty()) return;
  VexprScratch::Scope scope(s);
  const Frame f = MakeEventFrame(bindings, *sel, bc, s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(sel->size());
  c.scalar.Eval(f, s, vals->data());
  size_t w = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const bool pass = ((*vals)[i] != 0.0) != c.negate;
    if (pass) (*sel)[w++] = (*sel)[i];
  }
  sel->resize(w);
}

void RunInterpUnit(const Expr* e, const BatchBindings& bindings,
                   std::vector<uint32_t>* sel, uint32_t* bc[kMaxIterators],
                   uint64_t* ops) {
  size_t w = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const uint32_t row = (*sel)[i];
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = row;
    for (int k = 0; k < kMaxIterators; ++k) ctx.iter_index[k] = bc[k][row];
    const bool pass = e->EvalBool(&ctx);
    *ops += ctx.ops;
    // Persist bindings a combination search established for this event.
    for (int k = 0; k < kMaxIterators; ++k) bc[k][row] = ctx.iter_index[k];
    if (pass) (*sel)[w++] = row;
  }
  sel->resize(w);
}

void RunScalarFill(const CompiledScalar& scalar,
                   const BatchBindings& bindings,
                   const std::vector<uint32_t>& sel,
                   uint32_t* const bc[kMaxIterators], VexprScratch* s,
                   Histogram1D* hist) {
  if (sel.empty()) return;
  VexprScratch::Scope scope(s);
  const Frame f = MakeEventFrame(bindings, sel, bc, s);
  std::vector<double>* vals = s->AcquireF64();
  vals->resize(sel.size());
  scalar.Eval(f, s, vals->data());
  for (size_t i = 0; i < sel.size(); ++i) hist->Fill((*vals)[i]);
}

void RunInterpFill(const FillExpr& fill, const BatchBindings& bindings,
                   const std::vector<uint32_t>& sel,
                   uint32_t* const bc[kMaxIterators], Histogram1D* hist,
                   uint64_t* ops) {
  for (const uint32_t row : sel) {
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = row;
    for (int k = 0; k < kMaxIterators; ++k) ctx.iter_index[k] = bc[k][row];
    FillEvent(fill, &ctx, hist);
    *ops += ctx.ops;
  }
}

}  // namespace

// ---- CompiledEventQuery ----------------------------------------------------

bool HasBatchedSearch(const std::vector<ExprPtr>& stages) {
  std::vector<const Expr*> parts;
  for (const ExprPtr& stage : stages) SplitConjuncts(stage.get(), &parts);
  return std::any_of(parts.begin(), parts.end(), IsBatchedSearch);
}

struct CompiledEventQuery::Impl {
  CompiledQuerySpec spec;  // owns the expression trees the units reference
  std::vector<CompiledStage> stages;
  std::vector<CompiledFill> fills;
};

CompiledEventQuery::CompiledEventQuery() = default;
CompiledEventQuery::~CompiledEventQuery() = default;

Result<std::shared_ptr<const CompiledEventQuery>> CompiledEventQuery::Compile(
    CompiledQuerySpec spec) {
  auto query = std::shared_ptr<CompiledEventQuery>(new CompiledEventQuery());
  query->impl_ = std::make_unique<Impl>();
  Impl& impl = *query->impl_;
  impl.spec = std::move(spec);
  impl.stages.reserve(impl.spec.stages.size());
  for (const ExprPtr& stage : impl.spec.stages) {
    impl.stages.push_back(LowerStage(stage.get()));
  }
  impl.fills.reserve(impl.spec.fills.size());
  for (const FillExpr& fill : impl.spec.fills) {
    impl.fills.push_back(LowerFill(fill));
  }
  return std::shared_ptr<const CompiledEventQuery>(std::move(query));
}

Status CompiledEventQuery::ExecuteBatch(const BatchBindings& bindings,
                                        int64_t num_rows,
                                        VexprScratch* scratch,
                                        std::vector<Histogram1D>* histograms,
                                        int64_t* events_selected,
                                        uint64_t* ops) const {
  const Impl& impl = *impl_;
  scratch->ResetAll();
  VexprScratch::Scope scope(scratch);

  std::vector<uint32_t>* sel = scratch->AcquireU32();
  sel->resize(static_cast<size_t>(num_rows));
  for (int64_t i = 0; i < num_rows; ++i) {
    (*sel)[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
  }
  // Per-row iterator bindings, the batch-wide analogue of
  // EvalContext::iter_index: combination stages write winners here, later
  // stages and fills read them.
  uint32_t* bc[kMaxIterators];
  for (int k = 0; k < kMaxIterators; ++k) {
    std::vector<uint32_t>* v = scratch->AcquireU32();
    v->assign(static_cast<size_t>(num_rows), 0);
    bc[k] = v->data();
  }

  *ops += static_cast<uint64_t>(num_rows);  // per-event base record access

  for (const CompiledStage& stage : impl.stages) {
    for (const StageUnit& unit : stage.units) {
      switch (unit.kind) {
        case StageUnit::Kind::kConjunct:
          RunConjunctUnit(unit.conjunct, bindings, sel, bc, scratch);
          break;
        case StageUnit::Kind::kCombo:
          RunComboUnit(unit.combo, bindings, sel, bc, scratch, ops);
          break;
        case StageUnit::Kind::kInterp:
          RunInterpUnit(unit.interp, bindings, sel, bc, ops);
          break;
      }
      if (sel->empty()) break;
    }
  }

  *events_selected += static_cast<int64_t>(sel->size());

  for (size_t fidx = 0; fidx < impl.fills.size(); ++fidx) {
    const CompiledFill& fill = impl.fills[fidx];
    Histogram1D* hist = &(*histograms)[fidx];
    if (fill.compiled) {
      RunScalarFill(fill.scalar, bindings, *sel, bc, scratch, hist);
    } else {
      RunInterpFill(*fill.src, bindings, *sel, bc, hist, ops);
    }
  }
  return Status::OK();
}

// ---- CompiledExprKernel ----------------------------------------------------

namespace {

struct KernelImpl {
  ExprPtr root;
  bool pure = false;  // else every lane walks `root`
  CompiledScalar scalar;
  bool scalar_slots_only = false;  // every input slot is a kScalar leaf
};

/// The lane frame of a kernel call. Scalar-only kernels read their slots
/// through `rows` itself (contiguously when null); any other slot needs
/// explicit event lanes and iterators bound to element 0, acquired from
/// the caller's scratch scope.
Frame KernelFrame(const KernelImpl& impl, const BatchBindings& bindings,
                  const uint32_t* rows, int64_t n, VexprScratch* s) {
  Frame f;
  f.bindings = &bindings;
  f.n = static_cast<int>(n);
  f.event = rows;
  if (impl.scalar_slots_only) return f;
  if (rows == nullptr) {
    std::vector<uint32_t>* ev = s->AcquireU32();
    ev->resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      (*ev)[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
    }
    f.event = ev->data();
  }
  std::vector<uint32_t>* zero = s->AcquireU32();
  zero->assign(static_cast<size_t>(n), 0);
  for (int k = 0; k < kMaxIterators; ++k) f.iter[k] = zero->data();
  return f;
}

/// The impure form: lane i is Expr::Eval of row rows[i] (or i) with a
/// fresh EvalContext, so a search's winners stay visible to sibling
/// subtrees exactly as in the interpreter.
void WalkLanes(const Expr& root, const BatchBindings& bindings,
               const uint32_t* rows, int64_t n, double* out, uint64_t* ops) {
  for (int64_t i = 0; i < n; ++i) {
    EvalContext ctx;
    ctx.bindings = &bindings;
    ctx.row = rows != nullptr ? rows[i] : static_cast<uint32_t>(i);
    out[i] = root.Eval(&ctx);
    if (ops != nullptr) *ops += ctx.ops;
  }
}

}  // namespace

Result<CompiledExprKernel> CompiledExprKernel::Compile(ExprPtr expr) {
  if (expr == nullptr) return Status::Invalid("null expression");
  auto impl = std::make_shared<KernelImpl>();
  impl->root = std::move(expr);
  impl->pure = IsPure(impl->root.get());
  if (impl->pure) {
    impl->scalar = LowerScalar(impl->root.get());
    impl->scalar_slots_only = std::all_of(
        impl->scalar.slots.begin(), impl->scalar.slots.end(),
        [](const SlotDesc& d) { return d.kind == SlotDesc::Kind::kScalar; });
  }
  CompiledExprKernel kernel;
  kernel.impl_ = std::shared_ptr<const void>(impl, impl.get());
  return kernel;
}

Status CompiledExprKernel::Eval(const BatchBindings& bindings,
                                const uint32_t* rows, int64_t n,
                                VexprScratch* scratch, double* out,
                                uint64_t* ops) const {
  const KernelImpl& impl = *static_cast<const KernelImpl*>(impl_.get());
  if (!impl.pure) {
    WalkLanes(*impl.root, bindings, rows, n, out, ops);
    return Status::OK();
  }
  VexprScratch::Scope scope(scratch);
  impl.scalar.Eval(KernelFrame(impl, bindings, rows, n, scratch), scratch,
                   out);
  return Status::OK();
}

Result<int> CompiledExprKernel::Gate(const BatchBindings& bindings,
                                     const uint32_t* rows, int64_t n,
                                     VexprScratch* scratch, uint32_t* sel_out,
                                     uint64_t* ops) const {
  const KernelImpl& impl = *static_cast<const KernelImpl*>(impl_.get());
  VexprScratch::Scope scope(scratch);
  if (!impl.pure) {
    std::vector<double>* vals = scratch->AcquireF64();
    vals->resize(static_cast<size_t>(n));
    WalkLanes(*impl.root, bindings, rows, n, vals->data(), ops);
    int kept = 0;
    for (int64_t i = 0; i < n; ++i) {
      if ((*vals)[static_cast<size_t>(i)] != 0.0) {
        sel_out[kept++] = static_cast<uint32_t>(i);
      }
    }
    return kept;
  }
  return impl.scalar.Gate(KernelFrame(impl, bindings, rows, n, scratch),
                          scratch, /*negate=*/false, sel_out);
}

const VProgram& CompiledExprKernel::program() const {
  return static_cast<const KernelImpl*>(impl_.get())->scalar.program;
}

}  // namespace hepq::engine
