#pragma once

// Growable FIFO ring for the packet path.
//
// Links, the loopback path, qdisc bands and transport connections park
// packets and segments here so the closures they schedule capture only
// `this`. A ring starts with no storage (an idle link holds nothing) and
// doubles when full, so once it has grown to a path's peak depth its
// push/pop cycle never touches the allocator. Elements are indexed from
// the front; insert() shifts the tail back by one, which keeps a sorted
// ring cheap when, as for out-of-order segments, most inserts land at
// the back.

#include <cstddef>
#include <memory>
#include <utility>

namespace meshnet::sim {

template <typename T>
class Ring {
 public:
  Ring() noexcept = default;

  /// Movable so that rings can live in a std::vector (qdisc bands).
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}

  Ring& operator=(Ring&&) = delete;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  ~Ring() { release(); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) noexcept { return slots_[index(i)]; }
  const T& operator[](std::size_t i) const noexcept {
    return slots_[index(i)];
  }
  T& front() noexcept { return (*this)[0]; }
  const T& front() const noexcept { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + index(size_), std::move(value));
    ++size_;
  }

  /// Inserts `value` before the i-th element (i == size() appends).
  void insert(std::size_t i, T value) {
    push_back(std::move(value));
    for (std::size_t j = size_ - 1; j > i; --j) {
      std::swap((*this)[j], (*this)[j - 1]);
    }
  }

  void pop_front() noexcept {
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Moves the front element out and pops it.
  T take_front() {
    T out = std::move(front());
    pop_front();
    return out;
  }

  /// Destroys every element; keeps the storage.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  std::size_t index(std::size_t i) const noexcept {
    return (head_ + i) & (capacity_ - 1);
  }

  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      std::construct_at(slots + i, std::move(from));
      std::destroy_at(&from);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  void release() noexcept {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  ///< zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace meshnet::sim
