// Process-wide heap allocation counter, fed by the counting global
// operator new in alloc_count.cc (linked into every perfbench binary).
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since the process started.
std::uint64_t alloc_count();

}  // namespace perfbench
