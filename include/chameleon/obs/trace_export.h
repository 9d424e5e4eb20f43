#ifndef CHAMELEON_OBS_TRACE_EXPORT_H_
#define CHAMELEON_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "chameleon/util/status.h"

/// \file trace_export.h
/// Converts a chameleon metrics JSONL stream into Chrome trace-event JSON
/// (the format chrome://tracing and ui.perfetto.dev load natively):
///   * span records   -> "X" complete events (ts/dur in microseconds on
///                       the monotonic clock), resource counters in args
///   * progress       -> "C" counter events (done units over time)
///   * manifest       -> process_name metadata + trace otherData
/// Thread indices from span records become Chrome tids, so multi-threaded
/// runs render one track per thread.

namespace chameleon::obs {

struct TraceExportStats {
  std::size_t spans = 0;
  std::size_t progress = 0;
  std::size_t skipped_lines = 0;
  bool saw_manifest = false;
};

/// Converts JSONL lines to one Chrome trace JSON document. Lines that are
/// not chameleon records are counted in `stats->skipped_lines` (may be
/// null) and ignored, matching obs_dump's tolerance of mixed streams.
std::string ChromeTraceFromJsonlLines(const std::vector<std::string>& lines,
                                      TraceExportStats* stats = nullptr);

/// File-to-file wrapper: reads `input_jsonl`, writes `output_json`.
/// IoError when either file cannot be opened; NotFound when the input
/// contains no span records at all (an empty trace almost always means
/// the wrong file was passed).
Result<TraceExportStats> ExportChromeTrace(const std::string& input_jsonl,
                                           const std::string& output_json);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_TRACE_EXPORT_H_
