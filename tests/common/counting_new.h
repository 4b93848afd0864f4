// A counting replacement of the global operator new/delete, for the
// allocation-budget tests (DESIGN.md §14). Link counting_new.cc into a test
// binary of its own: the replacement is process-wide.
#pragma once

#include <cstdint>

namespace mcrdl {

// Heap allocations made through operator new since the process started.
std::uint64_t heap_allocations();

}  // namespace mcrdl
