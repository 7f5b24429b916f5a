// dense_batch and city_batch: what `idrepair_cli repair` does, from CSV text
// in memory to repaired CSV text, with a fresh IdRepairer per job. The
// traced run replays the same public call sequence IdRepairer::Repair makes,
// one span per call, and must produce byte-identical output.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "checker.h"
#include "common/resource.h"
#include "common/stopwatch.h"
#include "graph/serialization.h"
#include "lig/length_indexed_grids.h"
#include "perfbench.h"
#include "repair/candidates.h"
#include "repair/partitioned.h"
#include "repair/predicates.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "repair/trajectory_graph.h"
#include "trace.h"
#include "traj/csv.h"

namespace perfbench {

using namespace idrepair;

namespace {

struct Job {
  bool ok = true;
  std::string error;
  std::string csv;
  double wall = 0.0;
  double cpu = 0.0;
};

std::string EncodeCsv(const TransitionGraph& graph, const TrajectorySet& set,
                      Status* status) {
  std::vector<TrackingRecord> flat;
  flat.reserve(set.total_records());
  for (const auto& t : set.trajectories()) {
    for (const auto& p : t.points()) {
      flat.push_back(TrackingRecord{t.id(), p.loc, p.ts});
    }
  }
  std::ostringstream out;
  *status = WriteRecordsCsv(out, graph, flat);
  return out.str();
}

Job EngineJob(const TransitionGraph& graph, const RepairOptions& options,
              const std::string& csv) {
  Job job;
  Stopwatch wall;
  CpuStopwatch cpu;
  std::istringstream in(csv);
  auto records = ReadRecordsCsv(in, graph);
  if (!records.ok()) {
    job.ok = false;
    job.error = records.status().ToString();
    return job;
  }
  TrajectorySet set = TrajectorySet::FromRecords(*records);
  IdRepairer repairer(graph, options);
  auto result = repairer.Repair(set);
  if (!result.ok() || !result->completion.ok()) {
    job.ok = false;
    job.error = result.ok() ? result->completion.ToString()
                            : result.status().ToString();
    return job;
  }
  Status st;
  job.csv = EncodeCsv(graph, result->repaired, &st);
  if (!st.ok()) {
    job.ok = false;
    job.error = st.ToString();
  }
  job.wall = wall.ElapsedSeconds();
  job.cpu = cpu.ElapsedSeconds();
  return job;
}

/// The default similarity, counting the evaluations the generator's memo
/// did not answer. Counters are spread over padded slots so worker threads
/// do not contend on one cache line.
class CountingSimilarity final : public IdSimilarity {
 public:
  double Similarity(std::string_view a, std::string_view b) const override {
    size_t slot = std::hash<std::thread::id>()(std::this_thread::get_id()) %
                  slots_.size();
    slots_[slot].n.fetch_add(1, std::memory_order_relaxed);
    return inner_.Similarity(a, b);
  }
  std::string_view name() const override { return inner_.name(); }
  uint64_t calls() const {
    uint64_t total = 0;
    for (const auto& s : slots_) total += s.n.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> n{0};
  };
  NormalizedEditSimilarity inner_;
  mutable std::array<Slot, 64> slots_;
};

using Sample = std::map<std::string, double>;  // one traced job's layer values

/// Samples the process's resident set every 2 ms on a thread of its own and
/// keeps the largest value seen since the last Reset(), so each job's peak
/// is measured on its own rather than folded into the process's lifetime
/// peak.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Reset() { peak_.store(CurrentRssBytes()); }
  double PeakMb() const {
    return static_cast<double>(
               std::max(peak_.load(), CurrentRssBytes())) /
           (1024.0 * 1024.0);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      size_t now = CurrentRssBytes();
      size_t seen = peak_.load();
      while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread thread_;  // last: starts after the members it reads
};

/// The decomposed pipeline of IdRepairer::Repair under spans.
Job TracedJob(Tracer& tr, const TransitionGraph& graph,
              const RepairOptions& options, const std::string& csv,
              Sample* s) {
  Job job;
  auto fail = [&job](const Status& st) {
    job.ok = false;
    job.error = st.ToString();
    return job;
  };
  uint32_t run = tr.NewRun();
  std::optional<TrajectorySet> set;
  {
    std::optional<Tracer::Scope> root;
    root.emplace(&tr, "batch.job");
    std::optional<Result<std::vector<TrackingRecord>>> records;
    {
      Tracer::Scope span(&tr, "traj.csv_decode");
      std::istringstream in(csv);
      records.emplace(ReadRecordsCsv(in, graph));
    }
    if (!records->ok()) return fail(records->status());
    {
      Tracer::Scope span(&tr, "traj.set_build");
      set.emplace(TrajectorySet::FromRecords(**records));
    }
    std::vector<bool> is_valid(set->size(), false);
    {
      Tracer::Scope span(&tr, "repair.validity");
      for (TrajIndex i = 0; i < set->size(); ++i) {
        is_valid[i] = set->at(i).IsValid(graph);
      }
    }
    std::optional<PredicateEvaluator> pred;
    {
      Tracer::Scope span(&tr, "graph.reachability");
      pred.emplace(graph, options.theta, options.eta);
    }
    std::optional<TrajectoryGraph> gm;
    {
      Tracer::Scope span(&tr, "repair.gm");
      gm.emplace(*set, *pred, options);
    }
    CountingSimilarity similarity;
    GenerationStats gen;
    std::optional<Result<CandidateSet>> candidates;
    double gen_cpu = 0.0;
    {
      Tracer::Scope span(&tr, "repair.generation");
      CpuStopwatch cpu;
      candidates.emplace(GenerateCandidates(*set, *gm, *pred, options,
                                            similarity, is_valid, &gen));
      gen_cpu = cpu.ElapsedSeconds();
    }
    if (!candidates->ok()) return fail(candidates->status());
    CandidateSet& cands = **candidates;
    {
      Tracer::Scope span(&tr, "repair.effectiveness");
      Status st = ComputeEffectiveness(cands, options, set->size());
      if (!st.ok()) return fail(st);
    }
    std::optional<Result<std::vector<RepairIndex>>> selected;
    {
      Tracer::Scope span(&tr, "repair.selection");
      SelectionContext ctx;
      ctx.exec = options.exec;
      selected.emplace(SelectEmaxByCover(cands, set->size(), ctx));
    }
    if (!selected->ok()) return fail(selected->status());
    std::optional<TrajectorySet> repaired;
    {
      Tracer::Scope span(&tr, "repair.apply");
      std::unordered_map<TrajIndex, std::string> rewrites;
      for (RepairIndex r : **selected) {
        const std::string& target = cands.target_id(r);
        for (TrajIndex m : cands.members(r)) {
          if (set->at(m).id() != target) rewrites[m] = target;
        }
      }
      repaired.emplace(ApplyRewrites(*set, rewrites));
    }
    {
      Tracer::Scope span(&tr, "traj.csv_encode");
      Status st;
      job.csv = EncodeCsv(graph, *repaired, &st);
      if (!st.ok()) return fail(st);
    }
    job.wall = root->Elapsed();
    root.reset();

    const auto& gs = gm->stats();
    double cliques = static_cast<double>(gen.clique_stats.cliques_emitted);
    double hits = static_cast<double>(gen.similarity_cache_hits);
    double ncand = static_cast<double>(cands.size());
    (*s)["repair.gm_cex_evals"] = static_cast<double>(gs.cex_evaluations);
    (*s)["repair.gm_candidate_pairs"] = static_cast<double>(gs.candidate_pairs);
    (*s)["repair.gm_edges"] = static_cast<double>(gs.edges);
    (*s)["repair.gm_edge_yield"] =
        gs.cex_evaluations > 0
            ? static_cast<double>(gs.edges) / gs.cex_evaluations
            : 0.0;
    (*s)["repair.generation_cpu_s"] = gen_cpu;
    (*s)["repair.cliques"] = cliques;
    (*s)["repair.pck_pruned"] = static_cast<double>(gen.clique_stats.pck_pruned);
    (*s)["repair.jnb_checks"] = static_cast<double>(gen.jnb_checks);
    (*s)["repair.candidates"] = ncand;
    (*s)["repair.candidate_yield"] = cliques > 0 ? ncand / cliques : 0.0;
    (*s)["repair.candidates_mb"] =
        static_cast<double>(cands.MemoryBytes()) / (1024.0 * 1024.0);
    (*s)["repair.selected"] = static_cast<double>((*selected)->size());
    (*s)["repair.select_ratio"] =
        ncand > 0 ? static_cast<double>((*selected)->size()) / ncand : 0.0;
    double calls = hits + static_cast<double>(similarity.calls());
    (*s)["sim.cache_hit_ratio"] = calls > 0 ? hits / calls : 0.0;
    (*s)["exec.sched_blocks"] = static_cast<double>(gen.sched_blocks);
    (*s)["exec.sched_workers"] = static_cast<double>(gen.sched_workers);
    (*s)["exec.sched_imbalance"] = gen.sched_imbalance;
  }
  // Off the blocking path: a standalone LIG build over the same set and the
  // chain-component partition, each as its own root span.
  {
    Tracer::Scope span(&tr, "lig.build");
    LengthIndexedGrids lig(*set, LengthIndexedGrids::Options{
                                     options.theta, options.eta,
                                     options.time_bin});
    (void)lig.num_indexed();
  }
  {
    Tracer::Scope span(&tr, "repair.partition");
    auto parts = PartitionedRepairer(graph, options).Partition(*set);
    size_t largest = 0;
    for (const auto& p : parts) largest = std::max(largest, p.size());
    (*s)["repair.partitions"] = static_cast<double>(parts.size());
    (*s)["repair.largest_partition"] = static_cast<double>(largest);
  }
  for (const char* name :
       {"traj.csv_decode", "traj.set_build", "traj.csv_encode",
        "graph.reachability", "lig.build", "repair.validity", "repair.gm",
        "repair.generation", "repair.effectiveness", "repair.selection",
        "repair.apply", "repair.partition"}) {
    (*s)[std::string(name) + "_s"] = tr.SelfSeconds(run, name);
  }
  double gen_wall = (*s)["repair.generation_s"];
  (*s)["exec.generation_parallel_eff"] =
      gen_wall > 0 ? (*s)["repair.generation_cpu_s"] /
                         (gen_wall * options.exec.ResolvedThreads())
                   : 0.0;
  (*s)["trace.unaccounted_s"] = tr.SelfSeconds(run, "batch.job");
  return job;
}

}  // namespace

Outcome RunBatch(const Args& args, const std::vector<Inputs>& ins) {
  Outcome out;
  const Inputs& first = ins.front();  // every instance shares its graph

  // Set-up: graph parse + validation + engine construction, repeated.
  std::vector<double> setups;
  std::optional<TransitionGraph> graph;
  double setup_total = 0.0;
  while (setups.size() < 5 || (setups.size() < 100000 && setup_total < 0.3)) {
    double t0 = NowSeconds();
    std::istringstream text(first.graph_text);
    auto parsed = ReadTransitionGraph(text);
    if (!parsed.ok() || !parsed->Validate().ok()) {
      std::cerr << "perfbench: graph does not parse\n";
      out.Op(false);
      return out;
    }
    IdRepairer engine(*parsed, first.options);
    (void)engine.name();
    setups.push_back(NowSeconds() - t0);
    setup_total += setups.back();
    graph.emplace(std::move(parsed).value());
  }

  // The first output of each instance is checked in full and becomes the
  // reference every later job on it (engine or traced) must reproduce byte
  // for byte.
  std::vector<std::string> refs(ins.size());
  Quality quality;
  auto check = [&](size_t i, const Job& job) {
    if (!job.ok) {
      std::cerr << "perfbench: repair failed: " << job.error << "\n";
      return false;
    }
    if (!refs[i].empty()) return job.csv == refs[i];
    CheckResult c = CheckCsv(ins[i].csv, ins[i].truth, job.csv);
    if (!c.ok) {
      std::cerr << "perfbench: check failed: " << c.error << "\n";
      return false;
    }
    quality.Add(c.quality);
    refs[i] = job.csv;
    return true;
  };
  const double end = NowSeconds() + args.seconds;
  size_t next = 0;
  if (!args.trace) {
    // Jobs cycle through the instances until the window has passed and
    // every instance ran; throughput weighs each instance once, by its
    // median job, however often the window happened to repeat it.
    std::vector<std::vector<double>> walls(ins.size()), cpus(ins.size());
    std::vector<double> wall, peak_mb;
    size_t jobs = 0;
    RssSampler rss;
    do {
      const Inputs& in = ins[next];
      rss.Reset();
      Job job = EngineJob(*graph, in.options, in.csv);
      peak_mb.push_back(rss.PeakMb());
      out.Op(check(next, job));
      if (job.ok) {
        walls[next].push_back(job.wall);
        cpus[next].push_back(job.cpu);
        wall.push_back(job.wall * 1e3);
      }
      next = (next + 1) % ins.size();
      ++jobs;
    } while (NowSeconds() < end || jobs < ins.size());
    double records = 0.0, total_wall = 0.0, total_cpu = 0.0;
    for (size_t i = 0; i < ins.size(); ++i) {
      if (walls[i].empty()) continue;
      records += static_cast<double>(ins[i].observed.size());
      total_wall += Median(walls[i]);
      total_cpu += Median(cpus[i]);
    }
    out.Set("setup_s", Median(setups), "s");
    out.Set("records_per_s", records / total_wall, "1/s");
    out.Set("cpu_ms_per_krecord", total_cpu * 1e3 / (records / 1e3), "ms");
    out.Set("peak_rss_mb", Median(peak_mb), "MB");
    out.Set("request_ms_p50", Percentile(wall, 50), "ms");
    out.Set("f_measure", quality.FMeasure(), "ratio");
    std::cout << "# samples: " << wall.size() << " jobs over " << ins.size()
              << " instances\n";
    return out;
  }

  InitLayerMetrics(&out);
  Tracer tr;
  TraceGraphLayers(tr, first, /*reachability=*/false, &out);
  // Traced and untraced jobs alternate on the same instance.
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> traced_wall, plain_wall;
  do {
    const Inputs& in = ins[next];
    Sample s;
    Job traced = TracedJob(tr, *graph, in.options, in.csv, &s);
    Job plain = EngineJob(*graph, in.options, in.csv);
    out.Op(check(next, plain));
    bool same = traced.ok && traced.csv == refs[next];
    if (!same) {
      std::cerr << "perfbench: traced pipeline output differs from the "
                   "engine's"
                << (traced.ok ? "" : ": " + traced.error) << "\n";
    }
    out.Op(same);
    if (same) {
      for (const auto& [name, value] : s) samples[name].push_back(value);
    }
    traced_wall.push_back(traced.wall);
    plain_wall.push_back(plain.wall);
    next = (next + 1) % ins.size();
  } while (NowSeconds() < end);
  for (const auto& [name, v] : samples) out.Set(name, Median(v));
  double traced_total = 0.0, plain_total = 0.0;
  for (size_t k = 0; k < traced_wall.size(); ++k) {
    traced_total += traced_wall[k];
    plain_total += plain_wall[k];
  }
  out.Set("trace.overhead", traced_total / plain_total - 1.0);
  std::cout << "# samples: " << traced_wall.size() << " traced jobs\n";
  tr.WriteJsonl(args.scratch + "/spans_" + first.name + ".jsonl");
  return out;
}

}  // namespace perfbench
