#ifndef DCS_ANALYSIS_ALIGNED_DETECTOR_H_
#define DCS_ANALYSIS_ALIGNED_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_matrix.h"
#include "analysis/weight_screen.h"

namespace dcs {

/// Tuning of the greedy ASID search (Figs 5 and 6).
struct AlignedDetectorOptions {
  /// "Hopefuls" kept after the 2-product pass. The paper keeps O(n) of the
  /// n(n-1)/2 pairs; with the default n' = 4000 screen this is n'.
  std::size_t first_iteration_hopefuls = 4000;
  /// Hopefuls kept in later iterations. Monte-Carlo shows O(n) is
  /// sufficient, not necessary (Section III-B); a smaller list here cuts the
  /// per-iteration cost with no measurable accuracy loss at our scales.
  std::size_t hopefuls = 1024;
  /// Upper bound on iterations — the paper's num_iterations = b + c.
  std::size_t max_iterations = 40;
  /// epsilon of the non-naturally-occurring gate (Section III-C).
  double nno_epsilon = 1e-3;
  /// Core-scan slack: columns with >= weight(core) - gamma common 1s join
  /// the pattern (Fig 6 line 12; "2 or 3 works almost 100% of the time").
  std::uint32_t gamma = 2;
  /// When true, runs every iteration up to max_iterations (or until no
  /// extension is left) and records the full weight-loss trajectory (used
  /// to regenerate Fig 7). When false, the search stops on evidence (see
  /// AlignedDetector). Either way the reported product is the lowest-bound
  /// one it saw.
  bool record_full_trajectory = false;
};

/// Detector output.
struct AlignedDetection {
  /// Whether a non-naturally-occurring pattern was found.
  bool pattern_found = false;
  /// Rows of the detected core — the routers that saw the content.
  std::vector<std::uint32_t> rows;
  /// Original column ids of the detected pattern (core columns, plus scanned
  /// columns when expansion ran).
  std::vector<std::size_t> columns;
  /// Heaviest product weight after each iteration; index 0 is the 2-product
  /// pass (Fig 7's y-axis series).
  std::vector<std::size_t> weight_trajectory;
  /// b' of the reported product: the iteration whose heaviest hopeful had
  /// the lowest natural-occurrence bound (2 when no later one beat the pair
  /// pass, 0 when the search found no product). Unless the full trajectory
  /// was recorded, the search stopped at least three iterations after it,
  /// at the cap, or when no extension was left; the
  /// detector.aligned.stop_iteration gauge reports the last iteration run.
  std::size_t best_iteration = 0;
};

/// \brief Greedy ASID detector for the aligned case.
///
/// Detect() runs the k-product "hopefuls" iteration of Fig 5 over a set of
/// columns — the naive algorithm when given all columns, the refined
/// algorithm's core search when given the heaviest-n' screen. The product
/// with the lowest natural-occurrence bound across iterations is the
/// candidate, and the search stops on evidence that it is behind (where the
/// paper watches the weight curve for its second dive, Fig 7): three
/// iterations in a row that bring no lower bound and whose heaviest product
/// lost rows, or kept a weight too light to beat that bound within the
/// budget. The candidate passes the non-naturally-occurring gate before
/// being reported. DetectInMatrix()
/// adds the refined algorithm's final scan that grows the core across every
/// remaining column, screened or not (Fig 6 lines 10-14).
///
/// The search is flat. Detect() copies the screened columns into one
/// contiguous block of words_per_col = ceil(m / 64) words per column, and
/// every count — the pair pass and each hopeful's extensions — is one
/// BitKernelOps::and_count_columns call of a product against a slice of
/// that block. The hopefuls live in three flat arrays (product words,
/// sorted column ids, weights). Each pass keeps its top-H under a total
/// order (weight desc, then column ids asc) by appending the candidates
/// that reach the floor to a buffer and cutting it to H with nth_element
/// whenever it holds 4H; the top-H of a total order is a set, so this keeps
/// exactly what a bounded heap would.
///
/// Every step — the weight screen, the search and the core scan — runs on
/// the calling thread. Sharded on a pool, each cost CPU without a
/// measured wall-time win once the kernels took over their inner loops
/// (docs/PARALLELISM.md §7). The detection — rows, columns, and the full
/// weight trajectory — is bit-identical on every kernel tier.
class AlignedDetector {
 public:
  explicit AlignedDetector(const AlignedDetectorOptions& options);

  /// Core search over the given (typically screened) columns.
  AlignedDetection Detect(const ScreenedColumns& screened) const;

  /// Full refined pipeline: screen to n_prime columns, find the core, then
  /// scan every remaining column against the core.
  ///
  /// `column_weights`, when non-null, must equal matrix.ColumnWeights()
  /// (e.g. an IncrementalColumnWeights maintained while the rows arrived);
  /// the weight screen then starts hot instead of rescanning all columns.
  /// The detection is bit-identical either way (see ScreenHeaviestColumns).
  AlignedDetection DetectInMatrix(
      const BitMatrix& matrix, std::size_t n_prime,
      const std::vector<std::uint32_t>* column_weights = nullptr) const;

  const AlignedDetectorOptions& options() const { return options_; }

 private:
  AlignedDetectorOptions options_;
};

}  // namespace dcs

#endif  // DCS_ANALYSIS_ALIGNED_DETECTOR_H_
