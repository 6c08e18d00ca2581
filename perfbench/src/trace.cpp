#include "trace.hpp"

#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start = Clock::now();
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end = Clock::now();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                 std::size_t adopt_from) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start = start;
  s.end = end;
  const int idx = static_cast<int>(spans_.size());
  for (std::size_t i = adopt_from; i < spans_.size(); ++i) {
    if (spans_[i].parent == s.parent) spans_[i].parent = idx;
  }
  spans_.push_back(s);
}

void Tracer::count(const char* name, double value) {
  if (enabled) counts_.push_back(Count{name, value, op_, Clock::now()});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::count_values(const std::string& name) const {
  std::vector<double> out;
  for (const Count& c : counts_) {
    if (name == c.name) out.push_back(c.value);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %lld, \"id\": %zu, "
                 "\"parent\": %d}}",
                 first ? "" : ",\n", s.name, us(s.start), us(s.end) - us(s.start),
                 static_cast<long long>(s.op), i, s.parent);
    first = false;
  }
  for (const Count& c : counts_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"args\": {\"value\": %.17g, \"op\": %lld}}",
                 first ? "" : ",\n", c.name, us(c.at), c.value, static_cast<long long>(c.op));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string Tracer::self_time_table() const {
  struct Row {
    long calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = ms_between(spans_[i].start, spans_[i].end);
    ++r.calls;
    r.total += d;
    r.self += d - child_ms[i];
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %10s %14s %14s\n", "span", "calls",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-24s %10ld %14.3f %14.3f\n", name.c_str(),
                  r.calls, r.total, r.self);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
