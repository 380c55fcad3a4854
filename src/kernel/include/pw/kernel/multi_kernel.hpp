#pragma once

#include <cstddef>
#include <vector>

#include "pw/kernel/config.hpp"

namespace pw::kernel {

/// Splits the interior x-planes into `kernels` near-equal slabs, one per
/// kernel instance (§IV: six kernels on the Alveo, five on the Stratix 10).
/// Each slab additionally streams its own +/-1 halo planes.
std::vector<XRange> partition_x(std::size_t nx, std::size_t kernels);

}  // namespace pw::kernel
