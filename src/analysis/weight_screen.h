#ifndef DCS_ANALYSIS_WEIGHT_SCREEN_H_
#define DCS_ANALYSIS_WEIGHT_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bit_matrix.h"
#include "common/bit_vector.h"
#include "common/thread_pool.h"

namespace dcs {

/// Screened view of a matrix: the n' heaviest columns plus their identities,
/// the input to the refined detector (Fig 6, line "S1 := the set of heaviest
/// n' columns").
struct ScreenedColumns {
  /// The selected columns as bit vectors of length rows().
  std::vector<BitVector> columns;
  /// Original matrix column index of each selected column.
  std::vector<std::size_t> original_ids;
  /// Weight of each selected column.
  std::vector<std::uint32_t> weights;
  /// Number of rows in the source matrix.
  std::size_t num_rows = 0;
  /// Number of columns in the source matrix (before screening).
  std::size_t num_source_columns = 0;
};

/// Selects the `n_prime` heaviest columns of `matrix` (ties broken by lower
/// column id). One pass for the weights (BitMatrix::ColumnWeights), a top-k
/// selection (TopKIndices), and one pass to extract the chosen columns
/// (BitMatrix::ExtractColumns) — no transpose of the full matrix. Runs on
/// the calling thread.
///
/// `precomputed_weights`, when non-null, must be the exact column-weight
/// vector of `matrix` (size cols(); e.g. an IncrementalColumnWeights
/// maintained as the rows arrived — docs/STREAMING.md). The weight pass is
/// then skipped entirely — the screen "starts hot" — and only the selection
/// and the extraction pass run. The selection reads the same weights the
/// skipped pass would have produced, so the result is bit-identical to the
/// cold path.
ScreenedColumns ScreenHeaviestColumns(
    const BitMatrix& matrix, std::size_t n_prime,
    const std::vector<std::uint32_t>* precomputed_weights = nullptr);

/// perfbench's call shape, from when the screen took a pool: the pool is
/// ignored. Delete with perfbench's re-sync (ROADMAP item 7).
inline ScreenedColumns ScreenHeaviestColumns(
    const BitMatrix& matrix, std::size_t n_prime, ThreadPool* /*pool*/,
    const std::vector<std::uint32_t>* precomputed_weights) {
  return ScreenHeaviestColumns(matrix, n_prime, precomputed_weights);
}

/// Selects the indices of the `k` largest values (ties by lower index),
/// returned in descending value order.
std::vector<std::size_t> TopKIndices(const std::vector<std::uint32_t>& values,
                                     std::size_t k);

}  // namespace dcs

#endif  // DCS_ANALYSIS_WEIGHT_SCREEN_H_
