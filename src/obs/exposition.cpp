#include "obs/exposition.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "obs/timeseries.h"

namespace mlck::obs {

namespace {

std::string format_uint(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

/// ISO-8601 UTC timestamp ("2026-08-07T12:34:56Z").
std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

}  // namespace

std::string openmetrics_name(const std::string& name) {
  std::string out = "mlck_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_';
    out.push_back(valid ? c : '_');
  }
  return out;
}

std::string openmetrics_text(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string om = openmetrics_name(name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + format_uint(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string om = openmetrics_name(name);
    out += "# TYPE " + om + " gauge\n";
    out += om + " " + util::format_g17(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string om = openmetrics_name(name);
    out += "# TYPE " + om + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [le, in_bucket] : h.buckets) {
      cumulative += in_bucket;
      if (!std::isfinite(le)) continue;  // folded into +Inf below
      out += om + "_bucket{le=\"" + util::format_g17(le) + "\"} " +
             format_uint(cumulative) + "\n";
    }
    out += om + "_bucket{le=\"+Inf\"} " + format_uint(h.count) + "\n";
    out += om + "_sum " + util::format_g17(h.sum) + "\n";
    out += om + "_count " + format_uint(h.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

util::Json sidecar_meta(const std::vector<std::string>& argv,
                        std::size_t metric_count) {
  util::Json::Object meta;
  meta["schema_version"] = util::Json(kSidecarSchemaVersion);
  meta["written_at"] = util::Json(utc_now_iso8601());
  util::Json::Array args;
  args.reserve(argv.size());
  for (const std::string& arg : argv) args.emplace_back(arg);
  meta["argv"] = util::Json(std::move(args));
  meta["metric_count"] = util::Json(static_cast<double>(metric_count));
  return util::Json(std::move(meta));
}

util::Json sidecar_json(const MetricsRegistry& registry,
                        const std::vector<std::string>& argv) {
  const RegistrySnapshot snapshot = registry.snapshot();
  util::Json doc = registry.to_json();
  doc.make_object()["meta"] = sidecar_meta(argv, snapshot.metric_count());
  return doc;
}

std::string timeline_jsonl(const TelemetrySampler& sampler,
                           const std::vector<std::string>& argv) {
  const util::Json timeline = sampler.to_json();
  const auto& doc = timeline.as_object();

  util::Json meta = sidecar_meta(
      argv,
      doc.at("series").size() + doc.at("histograms").size());
  util::Json::Object& meta_obj = meta.make_object();
  meta_obj["kind"] = util::Json("timeline_meta");
  meta_obj["period_ms"] = doc.at("period_ms");
  meta_obj["capacity"] = doc.at("capacity");
  meta_obj["ticks"] = doc.at("ticks");
  meta_obj["overruns"] = doc.at("overruns");

  std::string out = meta.dump() + "\n";
  for (const auto& [name, entry] : doc.at("series").as_object()) {
    const auto& object = entry.as_object();
    for (const util::Json& point : object.at("points").as_array()) {
      util::Json::Object line;
      line["kind"] = util::Json("point");
      line["metric"] = util::Json(name);
      line["type"] = object.at("kind");
      line["t"] = point.at("t");
      line["value"] = point.at("value");
      line["rate"] = point.at("rate");
      out += util::Json(std::move(line)).dump() + "\n";
    }
  }
  for (const auto& [name, entry] : doc.at("histograms").as_object()) {
    for (const util::Json& point : entry.as_object().at("points").as_array()) {
      util::Json::Object line;
      line["kind"] = util::Json("hist");
      line["metric"] = util::Json(name);
      for (const auto& [key, value] : point.as_object()) {
        line[key] = value;
      }
      out += util::Json(std::move(line)).dump() + "\n";
    }
  }
  return out;
}

}  // namespace mlck::obs
