#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "graph/serialization.h"
#include "perfbench.h"
#include "repair/predicates.h"

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> open_stack;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  start_ = NowSeconds();
  index_ = tracer_->Open(name, start_);
  open_stack.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  open_stack.pop_back();
  tracer_->Close(index_, NowSeconds());
}

double Tracer::Scope::Elapsed() const { return NowSeconds() - start_; }

uint32_t Tracer::NewRun() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++run_;
}

uint32_t Tracer::Open(const char* name, double start) {
  uint32_t parent = open_stack.empty() ? kNoParent : open_stack.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, run_, start, start});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::Close(uint32_t index, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = end;
}

double Tracer::SelfSeconds(uint32_t run, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run on its thread, one after another, so their
  // durations add up to the part of the parent they cover.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.run == run && s.parent != kNoParent) {
      covered[s.parent] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run == run && name == s.name) {
      total += std::max(0.0, s.end - s.start - covered[i]);
    }
  }
  return total;
}

double Tracer::TotalSeconds(uint32_t run, std::string_view name) const {
  double total = 0.0;
  for (double d : Durations(run, name)) total += d;
  return total;
}

std::vector<double> Tracer::Durations(uint32_t run,
                                      std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.run == run && name == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::RootSeconds(uint32_t run) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.run == run && s.parent == kNoParent) total += s.end - s.start;
  }
  return total;
}

void TraceGraphLayers(Tracer& tr, const Inputs& in, bool reachability,
                      Outcome* out) {
  uint32_t run = tr.NewRun();
  {
    Tracer::Scope span(&tr, "graph.parse");
    std::istringstream text(in.graph_text);
    auto parsed = idrepair::ReadTransitionGraph(text);
    out->Op(parsed.ok() && parsed->Validate().ok());
    if (parsed.ok() && reachability) {
      Tracer::Scope reach(&tr, "graph.reachability");
      idrepair::PredicateEvaluator pred(*parsed, in.options.theta,
                                        in.options.eta);
      (void)pred.theta();
    }
  }
  out->Set("graph.parse_s", tr.SelfSeconds(run, "graph.parse"));
  out->Set("graph.reachability_s", tr.SelfSeconds(run, "graph.reachability"));
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"run\":%u,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 i, parent, s.run, s.name, s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
