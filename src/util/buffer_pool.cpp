#include "util/buffer_pool.hpp"

#include <algorithm>
#include <bit>

#include "util/numa.hpp"

// ASan manual poisoning: cached blocks are poisoned while they sit in
// the free list so a use-after-release reads like a use-after-free.
#if defined(__SANITIZE_ADDRESS__)
#define HMM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMM_POOL_ASAN 1
#endif
#endif
#if defined(HMM_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#define HMM_POOL_POISON(ptr, size) __asan_poison_memory_region((ptr), (size))
#define HMM_POOL_UNPOISON(ptr, size) __asan_unpoison_memory_region((ptr), (size))
#else
#define HMM_POOL_POISON(ptr, size) ((void)0)
#define HMM_POOL_UNPOISON(ptr, size) ((void)0)
#endif

namespace hmm::util {

BufferPool::BufferPool(Config config) : config_(config) {
  HMM_CHECK(config_.min_class_bytes > 0 && std::has_single_bit(config_.min_class_bytes));
  // One free-list set per NUMA node (a single set on UMA machines),
  // with one list per possible power-of-two class above
  // min_class_bytes; 64 covers every representable size.
  const int nodes = std::max(1, numa::node_count());
  free_lists_.resize(static_cast<std::size_t>(nodes));
  for (auto& per_class : free_lists_) per_class.resize(64);
}

BufferPool::~BufferPool() { trim(); }

std::size_t BufferPool::class_bytes(std::size_t bytes, std::size_t min_class_bytes) noexcept {
  if (bytes <= min_class_bytes) return min_class_bytes;
  return std::bit_ceil(bytes);
}

std::size_t BufferPool::class_index(std::size_t class_size) const noexcept {
  return static_cast<std::size_t>(std::countr_zero(class_size)) -
         static_cast<std::size_t>(std::countr_zero(config_.min_class_bytes));
}

PooledBuffer BufferPool::try_acquire(std::size_t bytes) {
  // On NUMA machines, prefer blocks whose pages already live on the
  // caller's node; on UMA this resolves to node 0 with zero overhead.
  return try_acquire_on_node(bytes, numa::aware() ? numa::current_node() : 0);
}

PooledBuffer BufferPool::try_acquire_on_node(std::size_t bytes, int node) {
  if (node < 0 || static_cast<std::size_t>(node) >= free_lists_.size()) node = 0;
  if (bytes == 0) return PooledBuffer(this, nullptr, 0, node);
  const std::size_t size = class_bytes(bytes, config_.min_class_bytes);

  if (config_.max_outstanding_bytes != 0) {
    // Optimistic reserve: back it out if over the cap. Two racing
    // acquires can both fail at the boundary; the cap stays honored.
    const std::uint64_t now =
        outstanding_bytes_.fetch_add(size, std::memory_order_relaxed) + size;
    if (now > config_.max_outstanding_bytes) {
      outstanding_bytes_.fetch_sub(size, std::memory_order_relaxed);
      acquire_failures_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
  } else {
    outstanding_bytes_.fetch_add(size, std::memory_order_relaxed);
  }

  {
    std::lock_guard lock(mutex_);
    std::vector<std::uint8_t*>& list =
        free_lists_[static_cast<std::size_t>(node)][class_index(size)];
    if (!list.empty()) {
      std::uint8_t* block = list.back();
      list.pop_back();
      pooled_bytes_ -= size;
      hits_.fetch_add(1, std::memory_order_relaxed);
      HMM_POOL_UNPOISON(block, size);
      return PooledBuffer(this, block, size, node);
    }
  }

  // Miss: allocate fresh rather than stealing another node's cached
  // block — fresh pages bind to whichever node first touches them
  // (the caller's pinned workers), while a stolen block's pages are
  // already bound to the wrong socket for the rest of its life.
  misses_.fetch_add(1, std::memory_order_relaxed);
  try {
    auto* block = static_cast<std::uint8_t*>(
        ::operator new(size, std::align_val_t{kBufferAlignment}));
    return PooledBuffer(this, block, size, node);
  } catch (...) {
    outstanding_bytes_.fetch_sub(size, std::memory_order_relaxed);
    throw;
  }
}

PooledBuffer BufferPool::acquire(std::size_t bytes) {
  PooledBuffer buf = try_acquire(bytes);
  if (!buf.valid()) throw std::bad_alloc();
  return buf;
}

void BufferPool::release(std::uint8_t* data, std::size_t capacity, int node) noexcept {
  if (node < 0 || static_cast<std::size_t>(node) >= free_lists_.size()) node = 0;
  outstanding_bytes_.fetch_sub(capacity, std::memory_order_relaxed);
  releases_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    if (pooled_bytes_ + capacity <= config_.max_pooled_bytes) {
      // push_back can allocate list capacity; amortized zero at steady
      // state, and a failure here must not lose the block.
      try {
        free_lists_[static_cast<std::size_t>(node)][class_index(capacity)].push_back(data);
        pooled_bytes_ += capacity;
        HMM_POOL_POISON(data, capacity);
        return;
      } catch (...) {
        // fall through to free
      }
    }
  }
  trims_.fetch_add(1, std::memory_order_relaxed);
  ::operator delete(data, std::align_val_t{kBufferAlignment});
}

void BufferPool::trim() {
  std::lock_guard lock(mutex_);
  for (auto& per_class : free_lists_) {
    for (std::size_t i = 0; i < per_class.size(); ++i) {
      [[maybe_unused]] const std::size_t size = config_.min_class_bytes << i;  // poisoning only
      for (std::uint8_t* block : per_class[i]) {
        HMM_POOL_UNPOISON(block, size);
        ::operator delete(block, std::align_val_t{kBufferAlignment});
      }
      per_class[i].clear();
    }
  }
  pooled_bytes_ = 0;
}

BufferPool::Stats BufferPool::stats() const noexcept {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  s.trims = trims_.load(std::memory_order_relaxed);
  s.acquire_failures = acquire_failures_.load(std::memory_order_relaxed);
  s.outstanding_bytes = outstanding_bytes_.load(std::memory_order_relaxed);
  {
    // pooled_bytes_ is mutex-guarded, not atomic; stats() is cold.
    std::lock_guard lock(mutex_);
    s.pooled_bytes = pooled_bytes_;
  }
  return s;
}

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

}  // namespace hmm::util
