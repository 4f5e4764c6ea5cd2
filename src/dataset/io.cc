#include "dataset/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

namespace dblsh {

namespace {

/// Shared loop for fvecs/bvecs: both store `int32 dim` headers per record.
template <typename Component>
Result<FloatMatrix> LoadVecsFile(const std::string& path, size_t max_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);

  FloatMatrix out;
  std::vector<Component> raw;
  std::vector<float> row;
  while (max_rows == 0 || out.rows() < max_rows) {
    int32_t dim = 0;
    if (!in.read(reinterpret_cast<char*>(&dim), sizeof(dim))) {
      if (in.eof() && in.gcount() == 0) break;  // clean end between records
      return Status::Corruption(path + ": truncated header after record " +
                                std::to_string(out.rows()));
    }
    if (dim <= 0 || dim > (1 << 20)) {
      return Status::Corruption(path + ": bad record dimension " +
                                std::to_string(dim));
    }
    if (!out.empty() && static_cast<size_t>(dim) != out.cols()) {
      return Status::Corruption(path + ": inconsistent dimensions");
    }
    raw.resize(static_cast<size_t>(dim));
    if (!in.read(reinterpret_cast<char*>(raw.data()),
                 static_cast<std::streamsize>(raw.size() *
                                              sizeof(Component)))) {
      return Status::Corruption(path + ": truncated record");
    }
    row.assign(raw.begin(), raw.end());
    out.AppendRow(row.data(), row.size());
  }
  if (out.empty()) return Status::Corruption(path + ": no records");
  return out;
}

/// Shared writer for fvecs/bvecs; u8 components are rounded and clamped.
template <typename Component>
Status SaveVecsFile(const FloatMatrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const int32_t dim = static_cast<int32_t>(m.cols());
  std::vector<Component> raw(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (size_t j = 0; j < m.cols(); ++j) {
      if constexpr (std::is_same_v<Component, uint8_t>) {
        raw[j] = static_cast<uint8_t>(
            std::clamp(std::nearbyint(row[j]), 0.f, 255.f));
      } else {
        raw[j] = row[j];
      }
    }
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size() * sizeof(Component)));
  }
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

}  // namespace

Result<FloatMatrix> LoadFvecs(const std::string& path, size_t max_rows) {
  return LoadVecsFile<float>(path, max_rows);
}

Result<FloatMatrix> LoadBvecs(const std::string& path, size_t max_rows) {
  return LoadVecsFile<uint8_t>(path, max_rows);
}

Status SaveFvecs(const FloatMatrix& m, const std::string& path) {
  return SaveVecsFile<float>(m, path);
}

Status SaveBvecs(const FloatMatrix& m, const std::string& path) {
  return SaveVecsFile<uint8_t>(m, path);
}

Result<FloatMatrix> LoadText(const std::string& path, size_t max_rows) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  FloatMatrix out;
  std::string line;
  std::vector<float> row;
  while ((max_rows == 0 || out.rows() < max_rows) && std::getline(in, line)) {
    if (line.empty()) continue;
    row.clear();
    std::istringstream ss(line);
    float v;
    while (ss >> v) row.push_back(v);
    if (row.empty()) continue;
    if (!out.empty() && row.size() != out.cols()) {
      return Status::Corruption(path + ": inconsistent dimensions");
    }
    out.AppendRow(row.data(), row.size());
  }
  if (out.empty()) return Status::Corruption(path + ": no records");
  return out;
}

}  // namespace dblsh
