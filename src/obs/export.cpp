#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace bluedove::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Recursive-descent parser over the exporter's JSON subset.
class JsonReader {
 public:
  explicit JsonReader(const std::string& s) : p_(s.c_str()) {}

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }

  void ws() {
    while (std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool consume(char c) {
    ws();
    if (*p_ != c) return false;
    ++p_;
    return true;
  }

  bool expect(char c) {
    if (!consume(c)) ok_ = false;
    return ok_;
  }

  bool peek(char c) {
    ws();
    return *p_ == c;
  }

  std::string string() {
    if (!expect('"')) return {};
    std::string out;
    while (*p_ != '"' && *p_ != '\0') {
      if (*p_ == '\\' && p_[1] != '\0') {
        ++p_;
        switch (*p_) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            out += *p_;
        }
      } else {
        out += *p_;
      }
      ++p_;
    }
    if (*p_ != '"') {
      ok_ = false;
      return out;
    }
    ++p_;
    return out;
  }

  double number() {
    ws();
    char* end = nullptr;
    const double v = std::strtod(p_, &end);
    if (end == p_) {
      ok_ = false;
      return 0.0;
    }
    p_ = end;
    return v;
  }

  std::uint64_t u64() {
    ws();
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(p_, &end, 10);
    if (end == p_) {
      ok_ = false;
      return 0;
    }
    p_ = end;
    return v;
  }

  /// Iterates "key": <value> pairs of an object; `field` parses one value.
  template <typename Fn>
  void object(Fn&& field) {
    if (!expect('{')) return;
    if (consume('}')) return;
    do {
      const std::string key = string();
      if (!expect(':')) return;
      field(key);
      if (!ok_) return;
    } while (consume(','));
    expect('}');
  }

 private:
  const char* p_;
  bool ok_ = true;
};

}  // namespace

std::string to_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_u64(out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    append_double(out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ":{\"unit\":";
    append_double(out, h.unit);
    out += ",\"count\":";
    append_u64(out, h.count);
    out += ",\"sum_units\":";
    append_u64(out, h.sum_units);
    out += ",\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ',';
      append_u64(out, h.counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool from_json(const std::string& json, MetricsSnapshot& out) {
  out = MetricsSnapshot{};
  JsonReader r(json);
  r.object([&](const std::string& section) {
    if (section == "counters") {
      r.object([&](const std::string& name) { out.counters[name] = r.u64(); });
    } else if (section == "gauges") {
      r.object([&](const std::string& name) { out.gauges[name] = r.number(); });
    } else if (section == "histograms") {
      r.object([&](const std::string& name) {
        HistogramSnapshot h;
        r.object([&](const std::string& field) {
          if (field == "unit") {
            h.unit = r.number();
          } else if (field == "count") {
            h.count = r.u64();
          } else if (field == "sum_units") {
            h.sum_units = r.u64();
          } else if (field == "counts") {
            if (!r.expect('[')) return;
            if (r.consume(']')) return;
            do {
              h.counts.push_back(r.u64());
            } while (r.ok() && r.consume(','));
            r.expect(']');
          } else {
            r.fail();
          }
        });
        out.histograms[name] = std::move(h);
      });
    } else {
      r.fail();
    }
  });
  return r.ok();
}

std::string prometheus_escape_label(const std::string& value) {
  // Exposition format: inside a quoted label value, backslash, double-quote
  // and line-feed must be escaped as \\ , \" and \n respectively.
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  auto sanitize = [](const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != ':') {
        c = '_';
      }
    }
    return out;
  };
  // HELP text escapes backslash and line-feed (but not quotes).
  auto escape_help = [](const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  };
  // Hand-written HELP text for families whose semantics are not obvious
  // from the name; everything else gets the generic fallback below.
  auto describe = [](const std::string& name) -> const char* {
    static const std::map<std::string, const char*> kHelp = {
        {"edge.accepts", "Client connections accepted by the edge listener"},
        {"edge.accept_rejects",
         "Client connections refused at the max_connections cap"},
        {"edge.disconnects", "Client connections closed (any reason)"},
        {"edge.evictions",
         "Slow clients disconnected for exceeding the write-queue bound"},
        {"edge.sessions_created", "Fresh edge sessions established"},
        {"edge.sessions_resumed",
         "Reconnects that resumed an existing session"},
        {"edge.sessions_reaped",
         "Detached sessions discarded after the resume timeout"},
        {"edge.deliveries",
         "Deliveries sequenced into edge sessions (sent or buffered)"},
        {"edge.replay_hits",
         "Buffered deliveries replayed to resuming clients"},
        {"edge.replay_gaps",
         "Deliveries lost to resuming clients (replay ring overflowed)"},
        {"edge.connections", "Currently connected edge clients"},
        {"edge.sessions", "Resident edge sessions (connected or resumable)"},
        {"edge.delivery_latency",
         "Per delivery written, the wait of its hand-off batch: seconds "
         "from the hand-off that opened the batch to the end of the "
         "batch's serialization into the subscriber connections (an "
         "upper bound on the delivery's own wait)"},
    };
    const auto it = kHelp.find(name);
    return it == kHelp.end() ? nullptr : it->second;
  };
  // The HELP line deliberately repeats the sanitized name, not the dotted
  // source: consumers match on the exposition name, and the dotted form
  // appearing anywhere would defeat grep-based sanity checks.
  auto header = [&](std::string& dst, const std::string& n,
                    const std::string& raw, const char* type) {
    const char* help = describe(raw);
    dst += "# HELP " + n + " " +
           escape_help(help != nullptr
                           ? std::string(help)
                           : "BlueDove " + std::string(type) + " " + n) +
           "\n# TYPE " + n + " " + type + "\n";
  };
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string n = sanitize(name);
    header(out, n, name, "counter");
    out += n + " ";
    append_u64(out, v);
    out += '\n';
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string n = sanitize(name);
    header(out, n, name, "gauge");
    out += n + " ";
    append_double(out, v);
    out += '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = sanitize(name);
    header(out, n, name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      cumulative += h.counts[i];
      std::string le;
      append_double(le, h.unit * LatencyHistogram::bucket_hi(i));
      out += n + "_bucket{le=\"" + prometheus_escape_label(le) + "\"} ";
      append_u64(out, cumulative);
      out += '\n';
    }
    out += n + "_bucket{le=\"+Inf\"} ";
    append_u64(out, h.count);
    out += '\n' + n + "_sum ";
    append_double(out, h.unit * static_cast<double>(h.sum_units));
    out += '\n' + n + "_count ";
    append_u64(out, h.count);
    out += '\n';
  }
  return out;
}

bool write_json_file(const std::string& path, const MetricsSnapshot& snap) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json(snap);
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                     std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace bluedove::obs
