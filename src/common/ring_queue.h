// RingQueue: a FIFO over one growable circular buffer.
//
// std::deque allocates and frees a chunk every few hundred bytes of
// traffic, so a queue that is filled and drained once per operation (a
// stream's op queue) allocates in steady state. A RingQueue keeps its
// buffer: once it has grown to the deepest backlog seen, pushing and
// popping never touch the heap. Popping resets the slot to T{}, so a popped
// element releases what it held at once.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mcrdl {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  // i-th element from the front.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    buf_[head_] = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  // Doubles the buffer (a power of two, so wrapping is a mask), unrolling
  // the live elements to the front.
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcrdl
