#ifndef HEPQUERY_DOC_FUNCTIONS_H_
#define HEPQUERY_DOC_FUNCTIONS_H_

namespace hepq::doc {

/// Registers the core (fn:) and physics (hep:) builtin function library in
/// the process-wide registry. Idempotent; DCall calls it, so every built
/// call sees the library.
///
/// Core: count, sum, min, max, abs, sqrt, exists, empty, not.
/// Physics (the "module library" of paper §3.6): hep:add-pt-eta-phi-m2/-m3
/// (pseudo-particle construction), hep:invariant-mass2/-mass3, hep:delta-r,
/// hep:delta-phi, hep:transverse-mass.
void EnsureDocFunctionsRegistered();

}  // namespace hepq::doc

#endif  // HEPQUERY_DOC_FUNCTIONS_H_
