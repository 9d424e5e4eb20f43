#ifndef CHAMELEON_OBS_ALLOC_STATS_H_
#define CHAMELEON_OBS_ALLOC_STATS_H_

#include <cstdint>

/// \file alloc_stats.h
/// Heap-allocation counters. alloc_stats.cc replaces the global operator
/// new/delete (every overload — plain, array, nothrow, sized, and the
/// C++17 aligned std::align_val_t variants) with malloc-backed versions
/// that bump per-thread counters, so a TraceSpan can report how many
/// allocations (and requested bytes) a phase performed on its thread and
/// run_summary can report the process-wide totals. The counters are monotonically
/// increasing; consumers diff two samples.

namespace chameleon::obs {

struct AllocStats {
  /// operator new calls on this thread since it started.
  std::uint64_t allocs = 0;
  /// Sum of requested sizes across those calls.
  std::uint64_t alloc_bytes = 0;
  /// operator delete calls on this thread (frees of other threads'
  /// allocations count here, not on the allocating thread).
  std::uint64_t frees = 0;
};

/// Counters of the calling thread. Lock-free: one thread-local pointer
/// hop plus relaxed loads.
AllocStats ThreadAllocStats();

/// Process-wide totals: the sum over every thread that ever allocated,
/// exited threads included. Lock-free walk of the (leaked) per-thread
/// counter list; feeds run_summary's heap block.
AllocStats TotalAllocStats();

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_ALLOC_STATS_H_
