//===- harness/Variants.h - The paper's interpreter variants ----*- C++ -*-===//
///
/// \file
/// The interpreter variant matrices of §7.1, with the paper's
/// parameters: 400 additional static instructions (replicas and/or
/// superinstructions), round-robin replica selection, greedy
/// superinstruction parsing.
///
//===----------------------------------------------------------------------===//

#ifndef VMIB_HARNESS_VARIANTS_H
#define VMIB_HARNESS_VARIANTS_H

#include "vmcore/Strategy.h"

#include <string>
#include <tuple>
#include <vector>

namespace vmib {

/// One column of the figures: a named interpreter construction.
struct VariantSpec {
  std::string Name;       ///< the paper's label ("plain", "across bb", ...)
  StrategyConfig Config;
  /// Number of static superinstructions to select for this variant.
  uint32_t SuperCount = 0;
  /// Number of additional static replicas to distribute.
  uint32_t ReplicaCount = 0;
  /// Replicate superinstructions too ("static both").
  bool ReplicateSupers = false;
};

/// Whether \p A and \p B build the same interpreter: every field of
/// VariantSpec and its StrategyConfig except the display name. A field
/// added to either struct must be added here too.
inline bool sameRecipe(const VariantSpec &A, const VariantSpec &B) {
  auto Recipe = [](const VariantSpec &V) {
    return std::tie(V.Config.Kind, V.Config.ReplicaCount, V.Config.SuperCount,
                    V.Config.Policy, V.Config.Parse, V.Config.Seed,
                    V.SuperCount, V.ReplicaCount, V.ReplicateSupers);
  };
  return Recipe(A) == Recipe(B);
}

/// The nine Gforth variants of §7.1 (plus their parameters).
std::vector<VariantSpec> gforthVariants();

/// The nine JVM variants of §7.1: drops "static both", adds
/// "w/static super across".
std::vector<VariantSpec> jvmVariants();

/// Makes a VariantSpec for an arbitrary strategy with default counts.
VariantSpec makeVariant(DispatchStrategy Kind, uint32_t SuperCount = 400,
                        uint32_t ReplicaCount = 400);

} // namespace vmib

#endif // VMIB_HARNESS_VARIANTS_H
