#include "pw/kernel/multi_kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace pw::kernel {

std::vector<XRange> partition_x(std::size_t nx, std::size_t kernels) {
  if (kernels == 0) {
    throw std::invalid_argument("partition_x: need at least one kernel");
  }
  kernels = std::min(kernels, nx);
  std::vector<XRange> ranges;
  ranges.reserve(kernels);
  const std::size_t base = nx / kernels;
  const std::size_t extra = nx % kernels;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < kernels; ++p) {
    const std::size_t width = base + (p < extra ? 1 : 0);
    ranges.push_back({begin, begin + width});
    begin += width;
  }
  return ranges;
}

}  // namespace pw::kernel
