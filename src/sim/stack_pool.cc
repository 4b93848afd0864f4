#include "src/sim/stack_pool.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <climits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/common/status.h"

namespace mcrdl::sim {
namespace {

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

std::size_t StackPool::stack_size() {
  static const std::size_t size = [] {
    std::size_t bytes = std::size_t{2} << 20;
    rlimit limit{};
    if (getrlimit(RLIMIT_STACK, &limit) == 0 && limit.rlim_cur != RLIM_INFINITY) {
      bytes = static_cast<std::size_t>(limit.rlim_cur);
    }
    bytes = std::max(bytes, static_cast<std::size_t>(PTHREAD_STACK_MIN));
    const std::size_t page = page_size();
    return (bytes + page - 1) / page * page;
  }();
  return size;
}

void* StackPool::acquire() {
  if (!free_.empty()) {
    void* bottom = free_.back();
    free_.pop_back();
    return bottom;
  }
  // release() runs in ~Fiber, so it must not allocate.
  if (free_.capacity() <= mapped_) free_.reserve(2 * mapped_ + 1);
  const std::size_t guard = page_size();
  void* map = mmap(nullptr, guard + stack_size(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  MCRDL_CHECK(map != MAP_FAILED) << "cannot map a fiber stack";
  if (mprotect(map, guard, PROT_NONE) != 0) {
    munmap(map, guard + stack_size());
    MCRDL_CHECK(false) << "cannot guard a fiber stack";
  }
  ++mapped_;
  return static_cast<char*>(map) + guard;
}

void StackPool::release(void* bottom) {
#if defined(__SANITIZE_ADDRESS__)
  // Frames still live when the fiber switched away for the last time leave
  // their redzones poisoned; the stack's next fiber must not inherit them.
  ASAN_UNPOISON_MEMORY_REGION(bottom, stack_size());
#endif
  free_.push_back(bottom);
}

StackPool::~StackPool() {
  const std::size_t guard = page_size();
  for (void* bottom : free_) munmap(static_cast<char*>(bottom) - guard, guard + stack_size());
}

}  // namespace mcrdl::sim
