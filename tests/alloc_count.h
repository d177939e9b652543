// Process-wide heap allocation counter for tests, fed by the counting
// global operator new in alloc_count.cc (the perfbench idiom). Link that
// file only into test executables that measure allocations.
#pragma once

#include <cstdint>

namespace presto::testing {

/// Calls to any global operator new since the process started.
std::uint64_t alloc_count();

}  // namespace presto::testing
