// StackPool — the guard-paged fiber stacks SerialBaton runs its actors on
// (DESIGN.md §4).
//
// Mapping, guarding and faulting in a fresh stack per actor per run() was
// most of the host cost of a short SPMD run (a tuning grid point maps 256 of
// them), so stacks are kept for reuse: acquire() maps a new stack only when
// the free list is empty, release() puts one back without unmapping it, and
// the destructor unmaps every stack the pool holds. The free list is LIFO, so
// the most recently used (still resident) stack goes out first.
//
// Threading contract: a pool is borrowed by the Schedulers (and so the
// ClusterContexts) that run on one thread, one at a time, and must outlive
// every one of them. Contexts on separate threads keep separate pools.
#pragma once

#include <cstddef>
#include <vector>

namespace mcrdl::sim {

class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool();

  // Usable bytes of every stack: the pthread default an actor had when it
  // was a thread (RLIMIT_STACK, or 2 MiB when that is unlimited).
  static std::size_t stack_size();

  // Returns the lowest usable address of a stack_size()-byte stack whose
  // page below is a PROT_NONE guard.
  void* acquire();
  // Takes back a stack acquire() handed out; no frame on it may be live.
  void release(void* bottom);

  // Stacks this pool has mapped, handed out or free.
  std::size_t mapped() const { return mapped_; }

 private:
  std::vector<void*> free_;
  std::size_t mapped_ = 0;
};

}  // namespace mcrdl::sim
