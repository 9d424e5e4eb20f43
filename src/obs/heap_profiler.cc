#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // pthread_getattr_np
#endif

#include "chameleon/obs/heap_profiler.h"

#include "heap_hooks.h"
#include "profiler_internal.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chameleon/obs/alloc_stats.h"
#include "chameleon/obs/obs.h"
#include "chameleon/obs/record.h"
#include "chameleon/obs/sink.h"
#include "chameleon/obs/trace.h"
#include "chameleon/util/logging.h"
#include "chameleon/util/string_util.h"
#include "chameleon/util/timer.h"

#if CHAMELEON_PROFILER_IMPL
#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>
#endif

// The hooks run inside the allocator the sanitizers interpose, and the
// stack capture reads raw saved-FP/return-address words; both are safe
// on a plain build and poison sanitizer bookkeeping. The sampler
// therefore refuses to start under ASan/TSan/MSan and FinalizeRun
// documents the refusal with one heap_profiler_unavailable record.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CHAMELEON_HEAP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CHAMELEON_HEAP_SANITIZED 1
#endif
#endif
#ifndef CHAMELEON_HEAP_SANITIZED
#define CHAMELEON_HEAP_SANITIZED 0
#endif

namespace chameleon::obs {

namespace internal {

// Defined unconditionally: alloc_stats.cc references the hook fast path
// in every build, including where the sampler itself is stubbed out
// (non-Linux) and the flag stays 0.
std::atomic<std::uint32_t> g_heap_sampling_active{0};
thread_local std::int64_t tls_heap_countdown = 0;

}  // namespace internal

namespace {

constexpr const char kNotRequestedReason[] =
    "heap profiling not requested (--heap_profile)";

std::string& UnavailableReasonStorage() {
  static auto* reason = new std::string(kNotRequestedReason);
  return *reason;
}

std::mutex& ReasonMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

void SetUnavailableReason(std::string_view reason) {
  const std::lock_guard<std::mutex> lock(ReasonMu());
  UnavailableReasonStorage().assign(reason);
}

}  // namespace

std::string HeapProfilerUnavailableReason() {
  const std::lock_guard<std::mutex> lock(ReasonMu());
  return UnavailableReasonStorage();
}

#if CHAMELEON_PROFILER_IMPL

namespace {

constexpr const char kNoSpanLabel[] = "(no_span)";

/// Stack pcs kept per site key. Shorter than the CPU profiler's walk
/// depth: allocation sites distinguish themselves within a few frames
/// and shorter keys keep the intern map cheap inside operator new.
constexpr std::uint32_t kSiteStackDepth = 24;

/// Live-allocation map capacity. At the default 512 KiB rate this
/// covers ~4 GiB of sampled live heap before inserts start dropping
/// (counted, reported as `dropped`).
constexpr std::uint32_t kLiveSlots = 1u << 13;
constexpr std::uint32_t kMaxProbe = 64;
constexpr std::uintptr_t kTombstone = 1;

constexpr std::size_t kMaxTimelinePoints = 512;
constexpr std::size_t kMaxEmittedSites = 64;
constexpr std::size_t kMaxEmittedPoints = 160;

/// One slot of the fixed live map. `ptr` is lock-free readable so the
/// delete fast path (miss, the overwhelmingly common case) is a short
/// relaxed probe; payloads are only read/written under HeapMu after a
/// pointer match, which re-verifies the slot.
struct LiveSlot {
  std::atomic<std::uintptr_t> ptr{0};
  std::uint32_t site = 0;
  double weight_bytes = 0.0;
  double weight_count = 0.0;
};

LiveSlot g_live[kLiveSlots];  // zero-initialized, touches no heap

struct SiteStats {
  std::vector<std::uintptr_t> key;  ///< [path_id, pcs... innermost first]
  std::uint64_t samples = 0;
  double cum_bytes = 0.0;
  double cum_allocs = 0.0;
  double live_bytes = 0.0;
  double live_allocs = 0.0;
  double peak_bytes = 0.0;
};

/// Everything the slow path mutates, behind one leaked mutex. Sampling
/// happens once per ~sample_bytes allocated — per phase, not per
/// allocation — so a single lock is not a scaling concern.
struct HeapState {
  bool running = false;
  HeapProfilerOptions options;
  std::uint64_t start_nanos = 0;
  std::map<std::vector<std::uintptr_t>, std::uint32_t> site_ids;
  std::vector<SiteStats> sites;
  std::uint64_t dropped = 0;
  double est_live_bytes = 0.0;
  double est_peak_bytes = 0.0;
  std::vector<HeapTimelinePoint> timeline;
  std::uint64_t timeline_interval_nanos = 0;
};

std::mutex& HeapMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

HeapState& State() {
  static auto* state = new HeapState();
  return *state;
}

/// Mean bytes between samples, mirrored out of the options so the slow
/// path can refill without the state mutex.
std::atomic<std::uint64_t> g_sample_bytes{kDefaultHeapSampleBytes};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_last_point_nanos{0};
std::atomic<std::uint64_t> g_point_interval_nanos{250'000'000};
/// Set once records reach a sink for the current capture, so FinalizeRun
/// never follows real heap_profile records with an unavailable record.
std::atomic<bool> g_emitted{false};

/// Per-thread sampler scratch: xorshift state for the exponential
/// draws, lazily-resolved stack bounds, and the recursion guard that
/// keeps the sampler's own allocations (site map nodes, report
/// strings) from re-entering it. Trivially initialized.
struct TlsHeapScratch {
  std::uint64_t rng = 0;
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
  bool bounds_ready = false;
  bool in_hook = false;
};

thread_local TlsHeapScratch tls_scratch;

std::uint64_t XorShift(std::uint64_t* state) {
  std::uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

/// Next exponential inter-sample gap: -R * ln(U), U uniform in (0, 1].
std::int64_t NextCountdown(std::uint64_t rate_bytes, std::uint64_t* rng) {
  const double u =
      (static_cast<double>(XorShift(rng) >> 11) + 1.0) * 0x1.0p-53;
  const double gap = -static_cast<double>(rate_bytes) * std::log(u);
  const double clamped =
      std::min(gap, static_cast<double>(1ull << 62));
  return static_cast<std::int64_t>(clamped) + 1;
}

/// Sampling probability for an allocation of `size` bytes under rate R:
/// the chance an exponential gap of mean R ends inside the allocation.
double SampleProbability(std::size_t size, std::uint64_t rate_bytes) {
  const double s = static_cast<double>(size);
  const double r = static_cast<double>(rate_bytes);
  if (s >= r) return 1.0 - std::exp(-s / r);
  // expm1 keeps precision for the common tiny-allocation case.
  return -std::expm1(-s / r);
}

void ResolveStackBounds(TlsHeapScratch* scratch) {
  scratch->bounds_ready = true;  // attempt once per thread
  // Prefer the bounds the CPU profiler recorded at registration.
  if (internal::CurrentThreadStackBounds(&scratch->stack_lo,
                                         &scratch->stack_hi)) {
    return;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* stack_addr = nullptr;
  std::size_t stack_size = 0;
  if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
    scratch->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
    scratch->stack_hi = scratch->stack_lo + stack_size;
  }
  pthread_attr_destroy(&attr);
}

/// Frame-pointer walk from the current frame (no ucontext — this runs
/// synchronously inside operator new, not in a signal handler). Same
/// bounds discipline as the profiler's walker. The first `skip` return
/// addresses are the sampler's and allocator's own frames (WalkFromHere
/// -> HeapSampleSlow -> operator new); dropping them makes the innermost
/// recorded frame the actual allocating code.
CHAMELEON_NO_SANITIZE __attribute__((noinline))
std::uint32_t WalkFromHere(std::uintptr_t* pcs, std::uint32_t max_depth,
                           std::uint32_t skip, std::uintptr_t stack_lo,
                           std::uintptr_t stack_hi) {
  std::uint32_t depth = 0;
  auto fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  while (depth < max_depth) {
    if (fp < stack_lo || fp + 2 * sizeof(std::uintptr_t) > stack_hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const std::uintptr_t next = reinterpret_cast<std::uintptr_t*>(fp)[0];
    const std::uintptr_t ret = reinterpret_cast<std::uintptr_t*>(fp)[1];
    if (ret == 0) break;
    if (skip > 0) {
      --skip;
    } else {
      pcs[depth++] = ret;
    }
    if (next <= fp) break;  // frames must move up the stack
    fp = next;
  }
  return depth;
}

std::uint32_t HashPointer(std::uintptr_t ptr) {
  // Fibonacci hash over the address sans allocator-alignment bits.
  const std::uint64_t mixed = (ptr >> 4) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::uint32_t>(mixed >> 32) & (kLiveSlots - 1);
}

/// Inserts a sampled block. Caller holds HeapMu. Returns false when the
/// probe window is exhausted (the sample still counts toward cumulative
/// stats; it just cannot be decremented on free).
bool LiveInsertLocked(std::uintptr_t ptr, std::uint32_t site,
                      double weight_bytes, double weight_count) {
  std::uint32_t index = HashPointer(ptr);
  for (std::uint32_t probe = 0; probe < kMaxProbe; ++probe) {
    LiveSlot& slot = g_live[index];
    const std::uintptr_t current = slot.ptr.load(std::memory_order_relaxed);
    if (current == 0 || current == kTombstone) {
      slot.site = site;
      slot.weight_bytes = weight_bytes;
      slot.weight_count = weight_count;
      slot.ptr.store(ptr, std::memory_order_release);
      return true;
    }
    index = (index + 1) & (kLiveSlots - 1);
  }
  return false;
}

std::uint64_t CurrentRssKb() {
  // /proc/self/statm second field = resident pages. Raw read into a
  // stack buffer: this runs from span closes, keep it allocation-free.
  static const long page_kb = [] {
    const long page = sysconf(_SC_PAGESIZE);
    return page > 0 ? page / 1024 : 4;
  }();
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* p = buf;
  while (*p != '\0' && *p != ' ') ++p;  // skip "size"
  while (*p == ' ') ++p;
  std::uint64_t resident = 0;
  while (*p >= '0' && *p <= '9') {
    resident = resident * 10 + static_cast<std::uint64_t>(*p++ - '0');
  }
  return resident * static_cast<std::uint64_t>(page_kb);
}

/// Appends a timeline point. Caller holds HeapMu and set in_hook.
void TakeTimelinePointLocked(HeapState& state, std::uint64_t now_nanos) {
  const AllocStats totals = TotalAllocStats();
  HeapTimelinePoint point;
  point.mono_ns = now_nanos;
  point.live_bytes = static_cast<std::uint64_t>(state.est_live_bytes);
  point.cum_alloc_bytes = totals.alloc_bytes;
  point.cum_allocs = totals.allocs;
  point.rss_kb = CurrentRssKb();
  state.timeline.push_back(point);
  g_last_point_nanos.store(now_nanos, std::memory_order_relaxed);
  if (state.timeline.size() >= kMaxTimelinePoints) {
    // Thin to every other point and double the cadence, so long runs
    // keep a bounded, evenly-spread timeline.
    std::vector<HeapTimelinePoint> thinned;
    thinned.reserve(state.timeline.size() / 2 + 1);
    for (std::size_t i = 0; i < state.timeline.size(); i += 2) {
      thinned.push_back(state.timeline[i]);
    }
    state.timeline.swap(thinned);
    state.timeline_interval_nanos *= 2;
    g_point_interval_nanos.store(state.timeline_interval_nanos,
                                 std::memory_order_relaxed);
  }
}

std::vector<std::string>& LeakAllowlist() {
  static auto* allowlist = new std::vector<std::string>{
      // Singletons this library leaks by design (obs teardown doctrine).
      "FlightRecorder", "flight_recorder", "MetricsRegistry",
      "SpanPath",       "ProfilerRegister", "HeapState",
      "Retired",
  };
  return *allowlist;
}

bool IsAllowlistedLeak(const HeapSiteReport& site) {
  for (const std::string& needle : LeakAllowlist()) {
    if (site.span_path.find(needle) != std::string::npos) return true;
    for (const std::string& frame : site.frames) {
      if (frame.find(needle) != std::string::npos) return true;
    }
  }
  return false;
}

std::string SpanPathLabelFor(std::uint32_t path_id) {
  if (path_id == 0) return kNoSpanLabel;
  std::string path;
  if (TrySpanPathForId(path_id, &path)) return path;
  // Intern table contended (crashing thread) — keep the id visible.
  return StrFormat("(span_%u)", path_id);
}

/// Renders the report from the site table. Caller holds HeapMu and set
/// in_hook (symbolization allocates).
HeapProfileReport BuildReportLocked(const HeapState& state, bool symbolize) {
  HeapProfileReport report;
  report.sample_bytes = state.options.sample_bytes;
  report.duration_ms =
      static_cast<double>(MonotonicNanos() - state.start_nanos) * 1e-6;
  report.samples = g_samples.load(std::memory_order_relaxed);
  report.dropped = state.dropped;
  report.est_live_bytes = static_cast<std::uint64_t>(state.est_live_bytes);
  report.est_peak_bytes = static_cast<std::uint64_t>(state.est_peak_bytes);
  const AllocStats totals = TotalAllocStats();
  report.exact_cum_bytes = totals.alloc_bytes;
  report.exact_cum_allocs = totals.allocs;
  report.timeline = state.timeline;

  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  report.sites.reserve(state.sites.size());
  double est_cum_bytes = 0.0;
  double est_cum_allocs = 0.0;
  for (const SiteStats& stats : state.sites) {
    est_cum_bytes += stats.cum_bytes;
    est_cum_allocs += stats.cum_allocs;
    HeapSiteReport site;
    site.span_path =
        SpanPathLabelFor(static_cast<std::uint32_t>(stats.key[0]));
    site.samples = stats.samples;
    site.cum_bytes = static_cast<std::uint64_t>(stats.cum_bytes);
    site.cum_allocs = static_cast<std::uint64_t>(stats.cum_allocs);
    site.live_bytes = static_cast<std::uint64_t>(stats.live_bytes);
    site.live_allocs = static_cast<std::uint64_t>(stats.live_allocs);
    site.peak_bytes = static_cast<std::uint64_t>(stats.peak_bytes);
    if (symbolize) {
      site.frames.reserve(stats.key.size() - 1);
      for (std::size_t i = 1; i < stats.key.size(); ++i) {
        site.frames.push_back(
            internal::SymbolizePc(stats.key[i], &symbol_cache));
      }
    }
    site.allowlisted = site.live_bytes > 0 && IsAllowlistedLeak(site);
    report.sites.push_back(std::move(site));
  }
  report.est_cum_bytes = static_cast<std::uint64_t>(est_cum_bytes);
  report.est_cum_allocs = static_cast<std::uint64_t>(est_cum_allocs);
  std::stable_sort(report.sites.begin(), report.sites.end(),
                   [](const HeapSiteReport& a, const HeapSiteReport& b) {
                     return a.cum_bytes > b.cum_bytes;
                   });
  return report;
}

/// Folded collapsed stacks weighted by cumulative bytes: span path
/// components as synthetic roots, then the walked frames outermost
/// first — the same shape as the CPU profiler's folded output, so the
/// flamegraph toolchain applies unchanged.
std::string HeapFoldedText(const HeapProfileReport& report) {
  std::string out;
  for (const HeapSiteReport& site : report.sites) {
    if (site.cum_bytes == 0) continue;
    std::string line;
    if (site.span_path.empty()) {
      line += kNoSpanLabel;
    } else {
      bool first = true;
      for (const std::string& part : SplitTokens(site.span_path, "/")) {
        if (!first) line += ';';
        first = false;
        line += internal::SanitizeFrame(part);
      }
    }
    for (auto it = site.frames.rbegin(); it != site.frames.rend(); ++it) {
      line += ';';
      line += *it;
    }
    out += line;
    out += StrFormat(" %llu\n",
                     static_cast<unsigned long long>(site.cum_bytes));
  }
  return out;
}

Status WriteHeapFoldedFile(const std::string& path,
                           const std::string& folded) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::size_t written =
      std::fwrite(folded.data(), 1, folded.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != folded.size() || !closed) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

/// RAII recursion guard around every path that allocates or takes
/// HeapMu, so the sampler never re-enters itself through its own
/// operator-new traffic.
struct HookGuard {
  bool entered = false;
  HookGuard() {
    if (!tls_scratch.in_hook) {
      tls_scratch.in_hook = true;
      entered = true;
    }
  }
  ~HookGuard() {
    if (entered) tls_scratch.in_hook = false;
  }
};

}  // namespace

namespace internal {

void HeapSampleSlow(void* ptr, std::size_t size) noexcept {
  TlsHeapScratch& scratch = tls_scratch;
  const std::uint64_t rate =
      g_sample_bytes.load(std::memory_order_relaxed);
  if (scratch.rng == 0) {
    // First hit on this thread: seed the RNG and burn in the countdown
    // without sampling (the zero-initialized countdown is not an
    // exponential arrival).
    scratch.rng = (reinterpret_cast<std::uintptr_t>(&scratch) << 1) ^
                  MonotonicNanos() ^ 0x2545F4914F6CDD1Dull;
    tls_heap_countdown = NextCountdown(rate, &scratch.rng);
    return;
  }
  tls_heap_countdown = NextCountdown(rate, &scratch.rng);
  if (scratch.in_hook) return;  // sampler-internal allocation: refill only
  HookGuard guard;

  if (!scratch.bounds_ready) ResolveStackBounds(&scratch);
  std::uintptr_t pcs[kSiteStackDepth];
  // skip=2: WalkFromHere's return into HeapSampleSlow and the return
  // into operator new (CountedAlloc and HeapHookAlloc are inlined).
  const std::uint32_t depth = WalkFromHere(
      pcs, kSiteStackDepth, /*skip=*/2, scratch.stack_lo, scratch.stack_hi);

  const double p = SampleProbability(size, rate);
  const double weight_count = p > 0.0 ? 1.0 / p : 0.0;
  const double weight_bytes = static_cast<double>(size) * weight_count;

  std::vector<std::uintptr_t> key;
  key.reserve(1 + depth);
  key.push_back(CurrentSpanPathId());
  for (std::uint32_t i = 0; i < depth; ++i) key.push_back(pcs[i]);

  const std::lock_guard<std::mutex> lock(HeapMu());
  HeapState& state = State();
  if (!state.running) return;
  std::uint32_t site_index;
  const auto it = state.site_ids.find(key);
  if (it != state.site_ids.end()) {
    site_index = it->second;
  } else {
    site_index = static_cast<std::uint32_t>(state.sites.size());
    state.site_ids.emplace(key, site_index);
    state.sites.emplace_back();
    state.sites.back().key = std::move(key);
  }
  SiteStats& site = state.sites[site_index];
  ++site.samples;
  site.cum_bytes += weight_bytes;
  site.cum_allocs += weight_count;
  site.live_bytes += weight_bytes;
  site.live_allocs += weight_count;
  site.peak_bytes = std::max(site.peak_bytes, site.live_bytes);
  state.est_live_bytes += weight_bytes;
  state.est_peak_bytes = std::max(state.est_peak_bytes, state.est_live_bytes);
  g_samples.fetch_add(1, std::memory_order_relaxed);
  if (!LiveInsertLocked(reinterpret_cast<std::uintptr_t>(ptr), site_index,
                        weight_bytes, weight_count)) {
    ++state.dropped;
  }
}

void HeapFreeSlow(void* ptr) noexcept {
  if (tls_scratch.in_hook) return;
  const auto target = reinterpret_cast<std::uintptr_t>(ptr);
  std::uint32_t index = HashPointer(target);
  for (std::uint32_t probe = 0; probe < kMaxProbe; ++probe) {
    LiveSlot& slot = g_live[index];
    const std::uintptr_t current = slot.ptr.load(std::memory_order_relaxed);
    if (current == 0) return;  // never-used slot ends the probe chain
    if (current == target) {
      const std::lock_guard<std::mutex> lock(HeapMu());
      // Re-verify under the lock: a racing free of the same pointer
      // (double free) or a stop/clear may have taken the slot.
      if (slot.ptr.load(std::memory_order_relaxed) != target) return;
      HeapState& state = State();
      if (state.running && slot.site < state.sites.size()) {
        SiteStats& site = state.sites[slot.site];
        site.live_bytes = std::max(0.0, site.live_bytes - slot.weight_bytes);
        site.live_allocs =
            std::max(0.0, site.live_allocs - slot.weight_count);
        state.est_live_bytes =
            std::max(0.0, state.est_live_bytes - slot.weight_bytes);
      }
      slot.ptr.store(kTombstone, std::memory_order_release);
      return;
    }
    index = (index + 1) & (kLiveSlots - 1);
  }
}

}  // namespace internal

Status StartHeapProfiler(const HeapProfilerOptions& options) {
  if (options.sample_bytes == 0) {
    return Status::InvalidArgument("heap_sample_bytes must be positive");
  }
#if CHAMELEON_HEAP_SANITIZED
  const Status refused = Status::FailedPrecondition(
      "heap profiler disabled under a sanitizer (sampling hooks run "
      "inside the interposed allocator)");
  SetUnavailableReason(refused.message());
  return refused;
#else
  HookGuard guard;
  const std::lock_guard<std::mutex> lock(HeapMu());
  HeapState& state = State();
  if (state.running) {
    return Status::FailedPrecondition("heap profiler already running");
  }
  state.options = options;
  state.start_nanos = MonotonicNanos();
  state.site_ids.clear();
  state.sites.clear();
  state.dropped = 0;
  state.est_live_bytes = 0.0;
  state.est_peak_bytes = 0.0;
  state.timeline.clear();
  state.timeline_interval_nanos = options.timeline_interval_nanos;
  for (LiveSlot& slot : g_live) {
    slot.ptr.store(0, std::memory_order_relaxed);
  }
  g_samples.store(0, std::memory_order_relaxed);
  g_sample_bytes.store(options.sample_bytes, std::memory_order_relaxed);
  g_point_interval_nanos.store(options.timeline_interval_nanos,
                               std::memory_order_relaxed);
  g_emitted.store(false, std::memory_order_relaxed);
  state.running = true;
  TakeTimelinePointLocked(state, state.start_nanos);
  SetUnavailableReason("");
  // Flip last: hooks start sampling only after the state is consistent.
  internal::g_heap_sampling_active.store(1, std::memory_order_release);
  CH_LOG(Info) << "heap profiler sampling every ~" << options.sample_bytes
               << " allocated bytes";
  return Status::OK();
#endif  // CHAMELEON_HEAP_SANITIZED
}

Result<HeapProfileReport> StopHeapProfiler() {
  internal::g_heap_sampling_active.store(0, std::memory_order_release);
  HookGuard guard;
  const std::lock_guard<std::mutex> lock(HeapMu());
  HeapState& state = State();
  if (!state.running) {
    return Status::FailedPrecondition("heap profiler not running");
  }
  TakeTimelinePointLocked(state, MonotonicNanos());
  HeapProfileReport report = BuildReportLocked(state, /*symbolize=*/true);
  state.running = false;
  SetUnavailableReason("heap profiler stopped before run end");
  for (LiveSlot& slot : g_live) {
    slot.ptr.store(0, std::memory_order_relaxed);
  }
  if (!state.options.folded_out.empty()) {
    if (Status s = WriteHeapFoldedFile(state.options.folded_out,
                                       HeapFoldedText(report));
        !s.ok()) {
      return s;
    }
  }
  return report;
}

bool HeapProfilerActive() {
  return internal::g_heap_sampling_active.load(std::memory_order_relaxed) !=
         0;
}

HeapProfileReport SnapshotHeapProfile(bool symbolize) {
  HookGuard guard;
  const std::lock_guard<std::mutex> lock(HeapMu());
  HeapState& state = State();
  if (!state.running) return HeapProfileReport();
  return BuildReportLocked(state, symbolize);
}

void HeapProfilerMaybeSampleTimeline() {
  if (!HeapProfilerActive()) return;
  const std::uint64_t now = MonotonicNanos();
  const std::uint64_t last = g_last_point_nanos.load(std::memory_order_relaxed);
  if (now - last < g_point_interval_nanos.load(std::memory_order_relaxed)) {
    return;
  }
  HookGuard guard;
  std::unique_lock<std::mutex> lock(HeapMu(), std::try_to_lock);
  if (!lock.owns_lock()) return;  // a sampler holds it; next close retries
  HeapState& state = State();
  if (!state.running) return;
  if (now - g_last_point_nanos.load(std::memory_order_relaxed) <
      state.timeline_interval_nanos) {
    return;
  }
  TakeTimelinePointLocked(state, now);
}

void EmitHeapProfileRecords(RecordSink* sink) {
  if (sink == nullptr || !HeapProfilerActive()) return;
  HookGuard guard;
  HeapProfileReport report;
  {
    // FinalizeRun path: never block behind a thread that crashed while
    // sampling. A skipped emission loses the heap report, not the run.
    std::unique_lock<std::mutex> lock(HeapMu(), std::try_to_lock);
    if (!lock.owns_lock()) return;
    HeapState& state = State();
    if (!state.running) return;
    TakeTimelinePointLocked(state, MonotonicNanos());
    report = BuildReportLocked(state, /*symbolize=*/true);
  }

  const std::uint64_t t_ms = WallUnixMillis();
  std::size_t emitted_sites = 0;
  for (const HeapSiteReport& site : report.sites) {
    if (emitted_sites >= kMaxEmittedSites) break;
    ++emitted_sites;
    const double scale =
        site.samples > 0
            ? static_cast<double>(site.cum_allocs) /
                  static_cast<double>(site.samples)
            : 0.0;
    Record record("heap_profile", t_ms);
    record.Str("span_path", site.span_path)
        .Int("samples", site.samples)
        .Int("cum_bytes", site.cum_bytes)
        .Int("cum_allocs", site.cum_allocs)
        .Int("live_bytes", site.live_bytes)
        .Int("live_allocs", site.live_allocs)
        .Int("peak_bytes", site.peak_bytes)
        .Int("leak_bytes", site.live_bytes)
        .Bool("allowlisted", site.allowlisted)
        .Int("sample_bytes", report.sample_bytes)
        .Num("scale", scale)
        .Array("frames");
    for (const std::string& frame : site.frames) record.Str(frame);
    sink->Write(record.Finish());
  }

  Record record("heap_timeline", t_ms);
  record.Int("sample_bytes", report.sample_bytes)
      .Num("duration_ms", report.duration_ms)
      .Int("samples", report.samples)
      .Int("dropped", report.dropped)
      .Int("sites", report.sites.size())
      .Int("est_cum_bytes", report.est_cum_bytes)
      .Int("est_cum_allocs", report.est_cum_allocs)
      .Int("est_live_bytes", report.est_live_bytes)
      .Int("est_peak_bytes", report.est_peak_bytes)
      .Int("exact_cum_bytes", report.exact_cum_bytes)
      .Int("exact_cum_allocs", report.exact_cum_allocs)
      .Array("points");
  // Keep the record line bounded: stride over the points if the
  // timeline grew past the emission cap.
  const std::size_t stride =
      report.timeline.size() > kMaxEmittedPoints
          ? (report.timeline.size() + kMaxEmittedPoints - 1) /
                kMaxEmittedPoints
          : 1;
  for (std::size_t i = 0; i < report.timeline.size(); i += stride) {
    const HeapTimelinePoint& point = report.timeline[i];
    record.Object()
        .Int("mono_ns", point.mono_ns)
        .Int("live_bytes", point.live_bytes)
        .Int("cum_bytes", point.cum_alloc_bytes)
        .Int("cum_allocs", point.cum_allocs)
        .Int("rss_kb", point.rss_kb)
        .End();
  }
  sink->Write(record.Finish());
  sink->Flush();
  g_emitted.store(true, std::memory_order_relaxed);
}

std::uint64_t HeapSamplesRecorded() {
  return g_samples.load(std::memory_order_relaxed);
}

bool HeapRecordsEmitted() {
  return g_emitted.load(std::memory_order_relaxed);
}

void SetHeapLeakAllowlistForTesting(std::vector<std::string> substrings) {
  HookGuard guard;
  const std::lock_guard<std::mutex> lock(HeapMu());
  LeakAllowlist() = std::move(substrings);
}

#else  // !CHAMELEON_PROFILER_IMPL

namespace internal {
void HeapSampleSlow(void* /*ptr*/, std::size_t /*size*/) noexcept {}
void HeapFreeSlow(void* /*ptr*/) noexcept {}
}  // namespace internal

namespace {
Status HeapProfilerUnavailable() {
  return Status::Unimplemented(
      "heap profiling requires Linux frame-pointer walks");
}
}  // namespace

Status StartHeapProfiler(const HeapProfilerOptions& options) {
  if (options.sample_bytes == 0) {
    return Status::InvalidArgument("heap_sample_bytes must be positive");
  }
  const Status status = HeapProfilerUnavailable();
  SetUnavailableReason(status.message());
  return status;
}

Result<HeapProfileReport> StopHeapProfiler() {
  return HeapProfilerUnavailable();
}

bool HeapProfilerActive() { return false; }

HeapProfileReport SnapshotHeapProfile(bool /*symbolize*/) {
  return HeapProfileReport();
}

void EmitHeapProfileRecords(RecordSink* /*sink*/) {}
void HeapProfilerMaybeSampleTimeline() {}
std::uint64_t HeapSamplesRecorded() { return 0; }
bool HeapRecordsEmitted() { return false; }
void SetHeapLeakAllowlistForTesting(std::vector<std::string> /*substrings*/) {}

#endif  // CHAMELEON_PROFILER_IMPL

}  // namespace chameleon::obs
