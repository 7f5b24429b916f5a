// stream_burst: a live producer replays the records in timestamp order
// through StreamingRepairer::Append, calls Poll every kPollEvery stream
// seconds and Finish at the end. The loop is closed: the API is synchronous
// and the caller is the producer.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "checker.h"
#include "common/stopwatch.h"
#include "graph/serialization.h"
#include "perfbench.h"
#include "stream/streaming_repairer.h"
#include "trace.h"

namespace perfbench {

using namespace idrepair;

namespace {

constexpr Timestamp kPollEvery = 300;

/// A parsed graph and a stream engine over it: what set-up produces.
struct Engine {
  std::unique_ptr<TransitionGraph> graph;
  std::unique_ptr<StreamingRepairer> stream;
};

Result<Engine> SetUp(const Inputs& in) {
  std::istringstream text(in.graph_text);
  auto parsed = ReadTransitionGraph(text);
  if (!parsed.ok()) return parsed.status();
  IDREPAIR_RETURN_NOT_OK(parsed->Validate());
  Engine e;
  e.graph = std::make_unique<TransitionGraph>(std::move(parsed).value());
  e.stream = std::make_unique<StreamingRepairer>(*e.graph, in.options,
                                                 StreamOptions{});
  return e;
}

struct Replay {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<double> append_s;  // per Append, in record order
  std::vector<double> poll_s;    // per Poll
  std::vector<double> cycle_s;   // appends of one poll interval + its Poll
  std::vector<Trajectory> emitted;
  size_t pending_peak = 0;
  size_t live_peak = 0;
  double finish_s = 0.0;
};

/// Replays `records` (timestamp order) through `stream`, counting every call
/// as one operation. With a tracer, each call gets a span under one root.
Replay RunReplay(StreamingRepairer& stream,
                 const std::vector<TrackingRecord>& records, Tracer* tr,
                 Outcome* out) {
  Replay r;
  r.append_s.reserve(records.size());
  auto take = [&r](std::vector<Trajectory> v) {
    for (auto& t : v) r.emitted.push_back(std::move(t));
  };
  CpuStopwatch cpu;
  double t0 = NowSeconds();
  {
    Tracer::Scope root(tr, "stream.replay");
    Timestamp next_poll = records.empty() ? 0 : records.front().ts + kPollEvery;
    double cycle_start = t0;
    for (const TrackingRecord& rec : records) {
      if (rec.ts >= next_poll) {
        double p0 = NowSeconds();
        std::vector<Trajectory> polled;
        {
          Tracer::Scope span(tr, "stream.poll");
          polled = stream.Poll();
        }
        double p1 = NowSeconds();
        out->Op(true);
        r.poll_s.push_back(p1 - p0);
        r.cycle_s.push_back(p1 - cycle_start);
        cycle_start = p1;
        take(std::move(polled));
        while (next_poll <= rec.ts) next_poll += kPollEvery;
      }
      double a0 = NowSeconds();
      Status st;
      {
        Tracer::Scope span(tr, "stream.append");
        st = stream.Append(rec);
      }
      r.append_s.push_back(NowSeconds() - a0);
      out->Op(st.ok());
      if (tr != nullptr) {
        r.pending_peak = std::max(r.pending_peak, stream.pending_records());
        r.live_peak = std::max(r.live_peak, stream.live_components());
      }
    }
    double f0 = NowSeconds();
    std::vector<Trajectory> rest;
    {
      Tracer::Scope span(tr, "stream.finish");
      rest = stream.Finish();
    }
    r.finish_s = NowSeconds() - f0;
    out->Op(true);
    take(std::move(rest));
  }
  r.wall = NowSeconds() - t0;
  r.cpu = cpu.ElapsedSeconds();
  return r;
}

/// Checks one replay's emissions; returns the quality on success.
bool CheckReplay(const Replay& r, const std::vector<InRow>& rows,
                 Quality* quality) {
  std::vector<OutRec> outs;
  outs.reserve(rows.size());
  for (size_t t = 0; t < r.emitted.size(); ++t) {
    for (const auto& p : r.emitted[t].points()) {
      outs.push_back(OutRec{r.emitted[t].id(), static_cast<uint32_t>(p.loc),
                            p.ts, static_cast<uint32_t>(t)});
    }
  }
  CheckResult c = CheckRecords(rows, outs);
  if (!c.ok) std::cerr << "perfbench: stream check failed: " << c.error << "\n";
  *quality = c.quality;
  return c.ok;
}

}  // namespace

Outcome RunStream(const Args& args, const std::vector<Inputs>& ins) {
  Outcome out;
  // Per instance: records in timestamp order, truth rows permuted alongside.
  std::vector<std::vector<TrackingRecord>> records(ins.size());
  std::vector<std::vector<InRow>> rows(ins.size());
  std::vector<std::vector<GroundTruthRecord>> truth(ins.size());
  for (size_t k = 0; k < ins.size(); ++k) {
    ChronoOrder(ins[k], &records[k], &truth[k]);
    rows[k] = RowsOf(truth[k]);
  }

  std::vector<double> setups;
  auto set_up = [&](const Inputs& in) -> std::optional<Engine> {
    double t0 = NowSeconds();
    auto e = SetUp(in);
    setups.push_back(NowSeconds() - t0);
    out.Op(e.ok());
    if (!e.ok()) {
      std::cerr << "perfbench: set-up failed: " << e.status().ToString() << "\n";
      return std::nullopt;
    }
    return std::move(e).value();
  };
  while (setups.size() < 5) {
    if (!set_up(ins[setups.size() % ins.size()])) return out;
  }

  // Every replay is checked in full; f_measure sums the first replay of
  // each instance, and instances the window did not reach are replayed
  // (untimed) afterwards so it always covers all of them.
  std::vector<char> scored(ins.size(), 0);
  Quality quality;
  auto replay = [&](size_t k, Tracer* tr) -> std::optional<Replay> {
    auto e = set_up(ins[k]);
    if (!e) return std::nullopt;
    Replay r = RunReplay(*e->stream, records[k], tr, &out);
    Quality q;
    out.Op(CheckReplay(r, rows[k], &q));
    if (!scored[k]) quality.Add(q);
    scored[k] = 1;
    return r;
  };
  auto cover_all = [&] {
    for (size_t k = 0; k < ins.size(); ++k) {
      if (!scored[k]) replay(k, nullptr);
    }
  };

  const double end = NowSeconds() + args.seconds;
  size_t next = 0;
  if (!args.trace) {
    // The poll-cycle median is taken per replay (each holds ~360 cycles)
    // and reported as the median over the run's replays.
    std::vector<double> cycle_p50;
    double n = 0.0, wall = 0.0, cpu = 0.0;
    size_t appends = 0, polls = 0;
    do {
      auto r = replay(next, nullptr);
      if (!r) return out;
      n += static_cast<double>(records[next].size());
      wall += r->wall;
      cpu += r->cpu;
      cycle_p50.push_back(Percentile(r->cycle_s, 50) * 1e3);
      appends += r->append_s.size();
      polls += r->poll_s.size();
      next = (next + 1) % ins.size();
    } while (NowSeconds() < end);
    cover_all();
    out.Set("setup_s", Median(setups), "s");
    out.Set("records_per_s", n / wall, "1/s");
    out.Set("cpu_ms_per_krecord", cpu * 1e3 / (n / 1e3), "ms");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Set("request_ms_p50", Median(cycle_p50), "ms");
    out.Set("f_measure", quality.FMeasure(), "ratio");
    std::cout << "# samples: " << cycle_p50.size() << " replays, " << appends
              << " appends, " << polls << " polls\n";
    return out;
  }

  InitLayerMetrics(&out);
  Tracer tr;
  TraceGraphLayers(tr, ins.front(), /*reachability=*/true, &out);
  // Traced and untraced replays alternate on the same instance.
  std::map<std::string, std::vector<double>> samples;
  double traced_wall = 0.0, plain_wall = 0.0;
  do {
    const double n = static_cast<double>(records[next].size());
    uint32_t run = tr.NewRun();
    auto e = set_up(ins[next]);
    if (!e) return out;
    Replay r = RunReplay(*e->stream, records[next], &tr, &out);
    Quality q;
    out.Op(CheckReplay(r, rows[next], &q));
    traced_wall += r.wall;
    const StreamingRepairer& s = *e->stream;
    std::vector<double> d = tr.Durations(run, "stream.append");
    size_t decile = std::max<size_t>(1, d.size() / 10);
    double first = Median({d.begin(), d.begin() + decile});
    double last = Median({d.end() - decile, d.end()});
    samples["stream.append_s"].push_back(tr.SelfSeconds(run, "stream.append"));
    samples["stream.poll_s"].push_back(tr.SelfSeconds(run, "stream.poll"));
    samples["stream.finish_s"].push_back(tr.SelfSeconds(run, "stream.finish"));
    samples["stream.append_growth"].push_back(first > 0 ? last / first : 0.0);
    samples["stream.generation_runs"].push_back(s.generation_runs());
    samples["stream.dirty_components"].push_back(s.dirty_components_seen());
    samples["stream.records_reused"].push_back(s.records_reused());
    samples["stream.reuse_ratio"].push_back(s.records_reused() / n);
    samples["stream.pending_peak"].push_back(r.pending_peak);
    samples["stream.live_components_peak"].push_back(r.live_peak);
    samples["trace.unaccounted_s"].push_back(tr.SelfSeconds(run, "stream.replay"));

    auto p = replay(next, nullptr);
    if (!p) return out;
    plain_wall += p->wall;
    // The stall tails a live caller sees, from the untraced replay.
    samples["stream.append_us_p99"].push_back(Percentile(p->append_s, 99) * 1e6);
    samples["stream.poll_ms_p95"].push_back(Percentile(p->poll_s, 95) * 1e3);
    next = (next + 1) % ins.size();
  } while (NowSeconds() < end);
  for (const auto& [name, v] : samples) out.Set(name, Median(v));
  out.Set("trace.overhead", traced_wall / plain_wall - 1.0);
  std::cout << "# samples: " << samples["stream.append_s"].size()
            << " traced replays\n";
  tr.WriteJsonl(args.scratch + "/spans_" + ins.front().name + ".jsonl");
  return out;
}

}  // namespace perfbench
