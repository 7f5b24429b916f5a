// The benchmark's in-memory span recorder. Spans are opened around calls
// into the program's public functions (never inside the program), nest per
// thread, and carry the ID of the run they belong to. Self time of a span
// is its duration minus the part of it covered by its child spans.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;  // a string literal
    uint32_t parent;   // index into spans(), or kNoParent
    uint32_t run;
    double start;      // NowSeconds()
    double end;
  };

  /// Opens a span on the calling thread until destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double Elapsed() const;

   private:
    Tracer* tracer_;
    uint32_t index_ = 0;
    double start_ = 0.0;
  };

  /// Starts a new run: spans opened from now on carry its ID.
  uint32_t NewRun();

  /// Sum over `run`'s spans named `name` of their self time.
  double SelfSeconds(uint32_t run, std::string_view name) const;
  /// Sum over `run`'s spans named `name` of their duration.
  double TotalSeconds(uint32_t run, std::string_view name) const;
  /// Durations of `run`'s spans named `name`, in opening order.
  std::vector<double> Durations(uint32_t run, std::string_view name) const;
  /// Sum of the durations of `run`'s root spans (no parent).
  double RootSeconds(uint32_t run) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  uint32_t Open(const char* name, double start);
  void Close(uint32_t index, double end);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint32_t run_ = 0;         // guarded by mu_
};

struct Inputs;
struct Outcome;

/// Traces a standalone parse + validation of `in`'s graph and, when
/// `reachability` is set, the reachability closure over it, and sets
/// graph.parse_s and graph.reachability_s in `out`.
void TraceGraphLayers(Tracer& tr, const Inputs& in, bool reachability,
                      Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
