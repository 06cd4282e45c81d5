#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "stats.hpp"

namespace perfbench {

Trace::Trace() : origin_(std::chrono::steady_clock::now()) {}

double Trace::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Trace::begin(std::string name, int request, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  cpu_start_.push_back(process_cpu_ms());
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_ms = now_ms();
  s.cpu_ms = process_cpu_ms() - cpu_start_[static_cast<std::size_t>(id)];
}

void Trace::count(int id, const std::string& counter, double value) {
  spans_.at(static_cast<std::size_t>(id)).counters[counter] = value;
}

double Trace::self_ms(int id) const {
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) covered += s.wall_ms();
  }
  return span(id).wall_ms() - covered;
}

void Trace::write_json(const std::string& path) const {
  ballfit::obs::JsonWriter w;
  w.begin_object();
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.field("id", static_cast<std::uint64_t>(i));
    w.field("name", s.name);
    w.field("parent", s.parent);
    w.field("request", s.request);
    w.field("start_ms", s.start_ms);
    w.field("end_ms", s.end_ms);
    w.field("cpu_ms", s.cpu_ms);
    w.field("self_ms", self_ms(static_cast<int>(i)));
    w.key("counters").begin_object();
    for (const auto& [k, v] : s.counters) w.field(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

}  // namespace perfbench
