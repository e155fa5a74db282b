#ifndef FUSION_COMPUTE_HASH_KERNELS_H_
#define FUSION_COMPUTE_HASH_KERNELS_H_

#include <cstdint>
#include <vector>

#include "arrow/array.h"
#include "arrow/record_batch.h"
#include "common/result.h"

namespace fusion {
namespace compute {

/// \brief Vectorized hashing of one or more key columns into a single
/// uint64 hash per row (the basis of hash join / hash aggregation and
/// its radix-partitioned merge, cf. §6.3-§6.4 of the paper).
///
/// Hashes are combined column-by-column so multi-column keys hash in one
/// pass per column (cache-friendly columnar access).
Status HashArray(const Array& input, uint64_t seed, std::vector<uint64_t>* hashes);

/// Hash several columns (e.g. join keys) into `hashes` (resized to the
/// row count).
Status HashColumns(const std::vector<ArrayPtr>& columns,
                   std::vector<uint64_t>* hashes);

}  // namespace compute
}  // namespace fusion

#endif  // FUSION_COMPUTE_HASH_KERNELS_H_
