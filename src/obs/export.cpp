#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/log.hpp"

namespace hdc::obs {

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_number(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += buf;
}

void append_number(std::string& out, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out += buf;
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_json_string(out, snapshot.counters[i].name);
    out.push_back(':');
    append_number(out, snapshot.counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_json_string(out, snapshot.gauges[i].name);
    out += ":{\"value\":";
    append_number(out, snapshot.gauges[i].value);
    out += ",\"max\":";
    append_number(out, snapshot.gauges[i].max);
    out.push_back('}');
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& h = snapshot.histograms[i];
    if (i > 0) out.push_back(',');
    append_json_string(out, h.name);
    out += ":{\"count\":";
    append_number(out, h.count);
    out += ",\"sum\":";
    append_number(out, h.sum);
    out += ",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_number(out, h.bounds[b]);
    }
    out += "],\"bucket_counts\":[";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_number(out, h.bucket_counts[b]);
    }
    out += "]}";
  }
  out += "},\"windowed\":{";
  for (std::size_t i = 0; i < snapshot.windowed.size(); ++i) {
    const WindowedSample& w = snapshot.windowed[i];
    if (i > 0) out.push_back(',');
    append_json_string(out, w.name);
    out += ":{\"p50\":";
    append_number(out, w.p50);
    out += ",\"p90\":";
    append_number(out, w.p90);
    out += ",\"p99\":";
    append_number(out, w.p99);
    out += ",\"window_count\":";
    append_number(out, w.window_count);
    out += ",\"window_sum\":";
    append_number(out, w.window_sum);
    out += ",\"total_count\":";
    append_number(out, w.total_count);
    out += ",\"total_sum\":";
    append_number(out, w.total_sum);
    out += ",\"span_seconds\":";
    append_number(out, w.span_seconds);
    out += ",\"bounds\":[";
    for (std::size_t b = 0; b < w.bounds.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_number(out, w.bounds[b]);
    }
    out += "],\"bucket_counts\":[";
    for (std::size_t b = 0; b < w.bucket_counts.size(); ++b) {
      if (b > 0) out.push_back(',');
      append_number(out, w.bucket_counts[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool write_metrics_json(const std::string& path) {
  const std::string json = to_json(snapshot());
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  const bool closed = std::fclose(file) == 0;
  if (wrote && closed) {
    util::log_fields(util::LogLevel::kInfo, "obs: metrics flushed",
                     {{"path", path}, {"bytes", std::to_string(json.size())}});
  }
  return wrote && closed;
}

}  // namespace hdc::obs
