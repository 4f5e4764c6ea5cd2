#ifndef DBLSH_DATASET_IO_H_
#define DBLSH_DATASET_IO_H_

#include <string>

#include "dataset/float_matrix.h"
#include "util/status.h"

namespace dblsh {

/// Readers/writers for the interchange formats used by the public ANN
/// benchmark datasets (SIFT/GIST from corpus-texmex): `.fvecs` stores each
/// vector as `int32 dim` followed by `dim` little-endian floats; `.bvecs`
/// stores `int32 dim` followed by `dim` uint8 components (converted to float
/// on load). If the real datasets are available on disk they load through
/// these functions; otherwise the synthetic generators stand in. This is
/// the repository's only fvecs/bvecs reader and writer.
///
/// Load contract (both formats): IoError when the file cannot be opened;
/// Corruption on an empty file, a non-positive, oversized or inconsistent
/// per-record dimension, a truncated payload, or a torn trailing header.
/// A full load (max_rows = 0) succeeds only when the file ends exactly on
/// a record boundary.

/// Loads an .fvecs file. `max_rows = 0` means "all".
Result<FloatMatrix> LoadFvecs(const std::string& path, size_t max_rows = 0);

/// Writes a matrix as .fvecs.
Status SaveFvecs(const FloatMatrix& m, const std::string& path);

/// Loads a .bvecs file (uint8 components widened to float).
Result<FloatMatrix> LoadBvecs(const std::string& path, size_t max_rows = 0);

/// Writes a matrix as .bvecs, rounding each component to the nearest
/// integer and clamping it to [0, 255].
Status SaveBvecs(const FloatMatrix& m, const std::string& path);

/// Loads whitespace-separated text, one vector per line.
Result<FloatMatrix> LoadText(const std::string& path, size_t max_rows = 0);

}  // namespace dblsh

#endif  // DBLSH_DATASET_IO_H_
