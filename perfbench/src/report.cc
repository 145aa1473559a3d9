#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.9g", value);
  return text;
}

std::string List(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(items[i]);
  }
  return out + "]";
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"failures\": " + List(failures) +
                    ", \"invalid\": " + List(invalid) + ", \"notes\": {";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(notes[i].first) + ": " + JsonQuote(notes[i].second);
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    const Metric& metric = metrics[i];
    out += JsonQuote(metric.name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + JsonQuote(metric.unit);
    if (metric.samples >= 0) {
      out += ", \"samples\": " + std::to_string(metric.samples);
    }
    if (!metric.not_applicable.empty()) {
      out += ", \"not_applicable\": " + JsonQuote(metric.not_applicable);
    }
    out += "}";
  }
  return out + "}}";
}

}  // namespace perfbench
