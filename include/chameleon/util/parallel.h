#ifndef CHAMELEON_UTIL_PARALLEL_H_
#define CHAMELEON_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

/// \file parallel.h
/// Minimal fork-join parallelism for embarrassingly parallel vertex/edge
/// sweeps. The primitive is block-based: the index range [0, n) is cut
/// into fixed-size blocks whose boundaries depend only on `n` and
/// `block_size`, and workers claim blocks through an atomic cursor.
/// Dynamic claiming balances skewed per-item costs (degree-squared work
/// piles onto hub vertices), while the fixed block boundaries let callers
/// accumulate per-block partial results and reduce them in block order —
/// making floating-point output independent of the worker count.
///
/// While observability is live (obs::InitObservability), every region
/// additionally emits one `parallel_region` JSONL record — per-worker
/// busy/idle time, blocks claimed, imbalance, spawn+join overhead, and
/// realized speedup (see chameleon/obs/parallel_stats.h). The
/// instrumentation only timestamps the existing block claims; block
/// boundaries and the worker-count clamps are shared with the plain
/// path, so outputs stay bit-identical with telemetry on or off.

namespace chameleon {

/// Resolves a requested worker count: values < 1 mean "use the process
/// default" — the hardware concurrency unless a tool narrowed it with
/// SetDefaultThreads. Explicit requests pass through verbatim;
/// ParallelForBlocks applies its own clamps (block count, real cores,
/// minimum grain) on top, so callers can pass the user-facing --threads
/// flag straight through.
int EffectiveThreads(int requested);

/// Sets the process-wide default worker count that EffectiveThreads
/// resolves `requested < 1` to. Tools call this once after parsing
/// --threads so library code that never sees the flag (e.g. the
/// obfuscation verifier invoked deep inside an estimator) still honours
/// it. Values < 1 restore the hardware-concurrency default.
void SetDefaultThreads(int threads);

/// Number of fixed-size blocks covering [0, n).
inline std::size_t NumBlocks(std::size_t n, std::size_t block_size) {
  return block_size == 0 ? 0 : (n + block_size - 1) / block_size;
}

/// The worker count ParallelForBlocks grants for these arguments (0 when
/// it would run nothing). Callers that keep one partial result per
/// worker size their blocks from this, so each worker gets one block.
std::size_t ParallelWorkers(std::size_t n, std::size_t block_size,
                            int threads, std::size_t item_cost = 1);

/// Runs `fn(block, begin, end)` for every block of `block_size`
/// consecutive indices in [0, n), using up to `threads` workers (< 1 =
/// hardware concurrency). Blocks are claimed dynamically but their
/// boundaries are fixed, so `fn` sees the same (block, begin, end)
/// triples regardless of the worker count — worker count is purely a
/// scheduling choice, so output stays bit-identical as the clamps
/// change. The effective worker count is capped at the block count, the
/// hardware concurrency (oversubscription only adds contention), and a
/// minimum grain of ~1024 units of work per spawned worker, where the
/// range holds n · item_cost units (below that, thread startup costs
/// more than the parallelism returns — tiny inputs run inline on the
/// caller with no threads spawned). `item_cost` is the caller's estimate
/// of one item's work relative to a cheap per-vertex step: a sweep whose
/// every item touches all |E| edges passes |E|. It moves only the worker
/// count, never the block boundaries. `fn` must be thread-safe across
/// distinct blocks and must not throw. Blocks are claimed in increasing
/// order, and a worker claims its next block only once `fn` returned on
/// its last, so `fn` may wait for an earlier block's call to finish:
/// that call has started, on another worker.
void ParallelForBlocks(
    std::size_t n, std::size_t block_size, int threads,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn,
    std::size_t item_cost = 1);

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_PARALLEL_H_
