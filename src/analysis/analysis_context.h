#ifndef DCS_ANALYSIS_ANALYSIS_CONTEXT_H_
#define DCS_ANALYSIS_ANALYSIS_CONTEXT_H_

#include "common/thread_pool.h"

namespace dcs {

/// \brief Execution resources shared by the analysis-center pipelines.
///
/// Section IV-D observes the correlation work is embarrassingly parallel and
/// should be spread over many CPUs; this context carries the pool that does
/// it. The monitor copies the pool into the unaligned
/// GraphBuilderOptions::scan (λ calibration and the pair scan) when none
/// was set there; every other stage, the whole aligned engine included,
/// runs serially. A null pool means run serially; both pooled stages are
/// sharded with a deterministic merge, so results are bit-identical at any
/// thread count, including null.
struct AnalysisContext {
  ThreadPool* pool = nullptr;
};

}  // namespace dcs

#endif  // DCS_ANALYSIS_ANALYSIS_CONTEXT_H_
