// Gain of merging a pair of leafsets (Section IV-E, Eqs. 9-15).
#ifndef CSPM_CSPM_GAIN_H_
#define CSPM_CSPM_GAIN_H_

#include <functional>

#include "cspm/code_model.h"
#include "cspm/inverted_database.h"

namespace cspm::core {

/// Which terms the acceptance test uses.
enum class GainPolicy {
  /// Pure data gain ΔL of Eq. 9 (the check used by Algorithm 2).
  kDataOnly,
  /// ΔL minus the code-table cost delta of materializing the new leafset
  /// (the "cost increase of the new pattern's leafset ... obtained through
  /// ST" the paper discusses); the MDL-faithful default.
  kDataPlusModel,
};

/// Decomposition of a candidate merge's effect on the description length.
struct GainResult {
  /// ΔL = P1 - P2 of Eq. 9, in bits (positive = data term shrinks).
  double data_gain_bits = 0.0;
  /// Net change of the CTL model cost in bits (positive = model grows).
  double model_delta_bits = 0.0;
  /// Shared coresets with non-empty position intersection.
  uint32_t cores_with_overlap = 0;
  /// Sum of xy_e over those coresets.
  uint64_t total_overlap = 0;
  /// True if at least one shared coreset has a non-empty intersection; an
  /// infeasible pair can never be merged (the paper's "gain is equal to
  /// zero" case).
  bool feasible = false;

  /// The gain under a policy.
  double Total(GainPolicy policy) const {
    return policy == GainPolicy::kDataOnly
               ? data_gain_bits
               : data_gain_bits - model_delta_bits;
  }
};

/// Computes the exact gain of merging leafsets x and y against the current
/// inverted database (no mutation). Handles all three cases of Eqs. 12-15
/// plus the fold-into-existing-union-line extension.
GainResult ComputeMergeGain(const InvertedDatabase& idb, const CodeModel& cm,
                            LeafsetId x, LeafsetId y);

/// The CSPM-Partial seed: the gains of every pair of active leafsets of a
/// *pre-merge* database (every interned leafset a singleton), without a
/// pairwise intersection. Per core, in ascending core order, it counts the
/// pairs of leaves co-occurring on each position (xy_e) and adds that
/// core's terms with ComputeMergeGain's expressions in ComputeMergeGain's
/// order, so each total is bit-identical to
/// ComputeMergeGain(idb, cm, x, y).Total(policy). Calls fn(x, y, total)
/// for every feasible pair, x < y, in the row-major order of
/// active_leafsets() — the order a pairwise scan visits them; infeasible
/// pairs are skipped. Scratch is bounded by a fixed number of pairs per
/// row block and freed on return. Returns the number of pairs judged
/// (every active pair).
uint64_t ForEachSeedGain(
    const InvertedDatabase& idb, const CodeModel& cm, GainPolicy policy,
    const std::function<void(LeafsetId x, LeafsetId y, double total)>& fn);

/// Computes the exact gain of *undoing* line (e, l) of a merged leafset
/// via InvertedDatabase::SplitLine (no mutation): its positions return to
/// the member singleton lines, so f_e grows by (|values| - 1) * fL. Uses
/// the same conventions as ComputeMergeGain — data_gain_bits is the exact
/// drop of Eq. 8's data term (positive = splitting shrinks it) and
/// model_delta_bits counts ST + Code_c per created/removed line, ignoring
/// Code_L drift. Infeasible when the line does not exist or l is a
/// singleton. Total(policy) > 0 means the split pays for itself — the
/// fast re-mine's undo criterion.
GainResult ComputeSplitGain(const InvertedDatabase& idb, const CodeModel& cm,
                            CoreId e, LeafsetId l);

}  // namespace cspm::core

#endif  // CSPM_CSPM_GAIN_H_
