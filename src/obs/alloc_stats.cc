#include "chameleon/obs/alloc_stats.h"

#include <atomic>
#include <cstdlib>
#include <new>

/// Replacement global allocation functions. [replacement.functions] allows
/// a program to define these; every image linking libchameleon gets them
/// (the archive member is pulled in because operator new is referenced
/// everywhere). They forward to malloc/free — ASan still interposes at the
/// malloc layer, so leak and overflow detection keep working — and add a
/// few thread-local counter stores. All overloads route through the three
/// Counted* helpers below: the C++17 aligned (std::align_val_t) and sized
/// variants included, so over-aligned allocations hit the same counters
/// as plain ones.
///
/// The counters live in malloc'd per-thread nodes on a leaked intrusive
/// list, so TotalAllocStats() can sum the whole process (run_summary's
/// heap headline) while the per-thread reads stay one pointer hop. The
/// fields are atomics written with relaxed load+store by their owner
/// thread only — that compiles to the same plain add as the old
/// thread_local integers while making the cross-thread sum race-free.
/// Nodes are registered through a trivially-initialized thread_local
/// pointer, so touching them from inside operator new cannot recurse
/// through dynamic TLS construction; they outlive their thread (the list
/// never shrinks) so exited threads keep counting toward the totals.

namespace chameleon::obs {
namespace {

struct ThreadCounterNode {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
  std::atomic<std::uint64_t> frees{0};
  ThreadCounterNode* next = nullptr;
};

std::atomic<ThreadCounterNode*> g_counter_list{nullptr};

thread_local ThreadCounterNode* tls_counters = nullptr;

/// First allocation on this thread: register a node. Uses malloc +
/// placement new directly so registration never re-enters operator new.
ThreadCounterNode* RegisterThreadCountersSlow() {
  void* raw = std::malloc(sizeof(ThreadCounterNode));
  if (raw == nullptr) return nullptr;
  auto* node = new (raw) ThreadCounterNode();
  node->next = g_counter_list.load(std::memory_order_relaxed);
  while (!g_counter_list.compare_exchange_weak(node->next, node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
  }
  tls_counters = node;
  return node;
}

inline ThreadCounterNode* Counters() {
  ThreadCounterNode* node = tls_counters;
  return node != nullptr ? node : RegisterThreadCountersSlow();
}

/// Owner-thread increment: relaxed load+store (not fetch_add) — the node
/// is only written by its owning thread, so this compiles to a plain
/// add while staying race-free against TotalAllocStats readers.
inline void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

}  // namespace

AllocStats ThreadAllocStats() {
  const ThreadCounterNode* node = tls_counters;
  if (node == nullptr) return AllocStats{};
  return AllocStats{node->allocs.load(std::memory_order_relaxed),
                    node->alloc_bytes.load(std::memory_order_relaxed),
                    node->frees.load(std::memory_order_relaxed)};
}

AllocStats TotalAllocStats() {
  AllocStats total;
  for (const ThreadCounterNode* node =
           g_counter_list.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    total.allocs += node->allocs.load(std::memory_order_relaxed);
    total.alloc_bytes += node->alloc_bytes.load(std::memory_order_relaxed);
    total.frees += node->frees.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace chameleon::obs

namespace {

void* CountedAlloc(std::size_t size) noexcept {
  chameleon::obs::ThreadCounterNode* counters = chameleon::obs::Counters();
  if (counters != nullptr) {
    chameleon::obs::Bump(counters->allocs, 1);
    chameleon::obs::Bump(counters->alloc_bytes, size);
  }
  // malloc(0) may return null; operator new must return a unique pointer.
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) noexcept {
  chameleon::obs::ThreadCounterNode* counters = chameleon::obs::Counters();
  if (counters != nullptr) {
    chameleon::obs::Bump(counters->allocs, 1);
    chameleon::obs::Bump(counters->alloc_bytes, size);
  }
  void* ptr = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (posix_memalign(&ptr, alignment, size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return ptr;
}

void CountedFree(void* ptr) noexcept {
  if (ptr == nullptr) return;
  chameleon::obs::ThreadCounterNode* counters = chameleon::obs::Counters();
  if (counters != nullptr) chameleon::obs::Bump(counters->frees, 1);
  std::free(ptr);
}

[[noreturn]] void ThrowBadAlloc() { throw std::bad_alloc(); }

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = CountedAlloc(size);
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) ThrowBadAlloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  CountedFree(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  CountedFree(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(ptr);
}
