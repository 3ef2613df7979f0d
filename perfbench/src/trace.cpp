#include "trace.h"

#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

void ThreadTrace::open(const char* name) {
  const std::uint64_t id = (slot_ << 40) | ++next_;
  std::uint64_t parent = 0;
  if (stack_.empty()) {
    request_ = id;
  } else {
    parent = spans_[stack_.back()].id;
  }
  stack_.push_back(spans_.size());
  spans_.push_back(Span{name, nowNs(), 0, id, parent, request_});
}

void ThreadTrace::close() {
  spans_[stack_.back()].endNs = nowNs();
  stack_.pop_back();
}

ThreadTrace* Tracer::slot(std::size_t s) {
  while (slots_.size() <= s) {
    slots_.push_back(std::make_unique<ThreadTrace>(slots_.size() + 1));
  }
  return slots_[s].get();
}

std::map<std::string, SpanTotals> Tracer::byName() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& slot : slots_) {
    // Children on one thread nest strictly inside their parent and do not
    // overlap each other, so their summed duration is the covered time.
    std::unordered_map<std::uint64_t, double> childMs;
    for (const Span& s : slot->spans()) {
      if (s.parent != 0) childMs[s.parent] += (s.endNs - s.startNs) / 1e6;
    }
    for (const Span& s : slot->spans()) {
      SpanTotals& t = out[s.name];
      const double ms = (s.endNs - s.startNs) / 1e6;
      const auto child = childMs.find(s.id);
      ++t.count;
      t.totalMs += ms;
      t.selfMs += ms - (child == childMs.end() ? 0.0 : child->second);
    }
  }
  return out;
}

std::map<std::string, SpanTotals> Tracer::byLayer() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, t] : byName()) {
    SpanTotals& l = out[name.substr(0, name.find('.'))];
    l.count += t.count;
    l.totalMs += t.totalMs;
    l.selfMs += t.selfMs;
  }
  return out;
}

std::size_t Tracer::spanCount() const {
  std::size_t n = 0;
  for (const auto& slot : slots_) n += slot->spans().size();
  return n;
}

void Tracer::write(const std::string& path, const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  out << header << '\n';
  for (const auto& slot : slots_) {
    for (const Span& s : slot->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
          << ",\"end_ns\":" << s.endNs << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }
  if (!out.flush()) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace perfbench
