// Serialisation of metrics snapshots as JSON (machine-readable, embedded in
// bench artefacts / written by --metrics-out).
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace hdc::obs {

/// One JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...},
/// "windowed": {...}}. Gauges carry {"value", "max"}; histograms carry
/// bounds, per-bucket counts, total count, and sum; windowed sketches carry
/// p50/p90/p99 plus their bucket bounds and counts.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// Snapshot the global registry and write to_json() to `path`; false on I/O
/// failure. Logs a structured info line on success.
bool write_metrics_json(const std::string& path);

}  // namespace hdc::obs
