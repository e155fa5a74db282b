#ifndef FUSION_COMPUTE_AGGREGATE_KERNELS_H_
#define FUSION_COMPUTE_AGGREGATE_KERNELS_H_

#include <cstdint>

#include "arrow/array.h"
#include "arrow/scalar.h"
#include "common/result.h"

namespace fusion {
namespace compute {

/// Whole-array min and max, used by FPQ zone maps, join runtime filters
/// and memory-table statistics. Nulls are skipped; an all-null (or
/// empty) input yields a null scalar.
Result<Scalar> MinArray(const Array& input);
Result<Scalar> MaxArray(const Array& input);

}  // namespace compute
}  // namespace fusion

#endif  // FUSION_COMPUTE_AGGREGATE_KERNELS_H_
