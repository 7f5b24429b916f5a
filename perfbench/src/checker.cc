#include "checker.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <numeric>
#include <tuple>
#include <unordered_map>

namespace perfbench {

double Quality::FMeasure() const {
  double p = rewritten > 0 ? static_cast<double>(correct) / rewritten : 0.0;
  double r = erroneous > 0 ? static_cast<double>(correct) / erroneous : 0.0;
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

CheckResult CheckRecords(const std::vector<InRow>& in,
                         const std::vector<OutRec>& out) {
  CheckResult res;
  auto fail = [&res](std::string why) {
    res.ok = false;
    res.error = std::move(why);
    return res;
  };

  // Strict time order inside each output trajectory.
  std::vector<int64_t> last_ts;
  for (const OutRec& o : out) {
    if (o.traj >= last_ts.size()) {
      last_ts.resize(o.traj + 1, std::numeric_limits<int64_t>::min());
    }
    if (o.ts <= last_ts[o.traj]) {
      return fail("trajectory '" + std::string(o.id) +
                  "' is not strictly time-ordered at ts=" +
                  std::to_string(o.ts));
    }
    last_ts[o.traj] = o.ts;
  }

  // Record conservation: equal (location, timestamp) multisets.
  if (in.size() != out.size()) {
    return fail("record count changed: " + std::to_string(in.size()) +
                " in, " + std::to_string(out.size()) + " out");
  }
  std::vector<uint32_t> ii(in.size());
  std::vector<uint32_t> oi(out.size());
  std::iota(ii.begin(), ii.end(), 0u);
  std::iota(oi.begin(), oi.end(), 0u);
  std::sort(ii.begin(), ii.end(), [&in](uint32_t a, uint32_t b) {
    return std::tie(in[a].ts, in[a].loc) < std::tie(in[b].ts, in[b].loc);
  });
  std::sort(oi.begin(), oi.end(), [&out](uint32_t a, uint32_t b) {
    return std::tie(out[a].ts, out[a].loc) < std::tie(out[b].ts, out[b].loc);
  });
  for (size_t k = 0; k < ii.size(); ++k) {
    const InRow& a = in[ii[k]];
    const OutRec& b = out[oi[k]];
    if (a.ts != b.ts || a.loc != b.loc) {
      return fail("record multiset changed near ts=" +
                  std::to_string(std::min(a.ts, b.ts)));
    }
  }

  // Quality. Records sharing (location, timestamp) are matched inside their
  // group: an output keeping some input's observed ID is that record
  // unchanged; every other output is a rewrite, correct when some
  // remaining input of the group has it as its true ID.
  Quality& q = res.quality;
  for (const InRow& r : in) {
    if (r.observed != r.truth) ++q.erroneous;
  }
  std::vector<char> used;
  std::vector<char> kept;
  for (size_t lo = 0; lo < ii.size();) {
    size_t hi = lo + 1;
    while (hi < ii.size() && in[ii[hi]].ts == in[ii[lo]].ts &&
           in[ii[hi]].loc == in[ii[lo]].loc) {
      ++hi;
    }
    size_t n = hi - lo;
    used.assign(n, 0);
    kept.assign(n, 0);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (!used[b] && in[ii[lo + b]].observed == out[oi[lo + a]].id) {
          used[b] = 1;
          kept[a] = 1;
          break;
        }
      }
    }
    for (size_t a = 0; a < n; ++a) {
      if (kept[a]) continue;
      ++q.rewritten;
      size_t pick = n;
      for (size_t b = 0; b < n; ++b) {
        if (used[b]) continue;
        if (in[ii[lo + b]].truth == out[oi[lo + a]].id) {
          pick = b;
          ++q.correct;
          break;
        }
        if (pick == n) pick = b;
      }
      if (pick < n) used[pick] = 1;
    }
    lo = hi;
  }
  return res;
}

std::vector<InRow> RowsOf(
    const std::vector<idrepair::GroundTruthRecord>& truth) {
  std::vector<InRow> rows;
  rows.reserve(truth.size());
  for (const auto& t : truth) {
    rows.push_back(InRow{t.observed_id, t.true_id,
                         static_cast<uint32_t>(t.loc), t.ts});
  }
  return rows;
}

namespace {

struct CsvRow {
  std::string_view id;
  std::string_view loc;
  int64_t ts = 0;
};

/// Parses `id,loc,ts` lines (optional header). False on a malformed line.
bool ParseCsv(std::string_view text, std::vector<CsvRow>* rows) {
  size_t line_no = 0;
  while (!text.empty()) {
    size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || (line_no == 1 && line == "id,loc,ts")) continue;
    size_t c1 = line.find(',');
    size_t c2 = line.rfind(',');
    if (c1 == std::string_view::npos || c1 == c2) return false;
    CsvRow r;
    r.id = line.substr(0, c1);
    r.loc = line.substr(c1 + 1, c2 - c1 - 1);
    std::string_view ts = line.substr(c2 + 1);
    auto [p, ec] = std::from_chars(ts.data(), ts.data() + ts.size(), r.ts);
    if (ec != std::errc() || p != ts.data() + ts.size()) return false;
    rows->push_back(r);
  }
  return true;
}

}  // namespace

CheckResult CheckCsv(const std::string& input_csv,
                     const std::vector<idrepair::GroundTruthRecord>& truth,
                     const std::string& output_csv) {
  CheckResult bad;
  bad.ok = false;
  std::vector<CsvRow> in_rows;
  std::vector<CsvRow> out_rows;
  if (!ParseCsv(input_csv, &in_rows) || in_rows.size() != truth.size()) {
    bad.error = "input CSV does not match the truth rows";
    return bad;
  }
  if (!ParseCsv(output_csv, &out_rows)) {
    bad.error = "output CSV is malformed";
    return bad;
  }
  std::unordered_map<std::string_view, uint32_t> locs;
  auto intern = [&locs](std::string_view name) {
    return locs.emplace(name, static_cast<uint32_t>(locs.size()))
        .first->second;
  };
  std::vector<InRow> in;
  in.reserve(in_rows.size());
  for (size_t i = 0; i < in_rows.size(); ++i) {
    if (in_rows[i].id != truth[i].observed_id || in_rows[i].ts != truth[i].ts) {
      bad.error = "input CSV row " + std::to_string(i) + " != truth row";
      return bad;
    }
    in.push_back(InRow{in_rows[i].id, truth[i].true_id, intern(in_rows[i].loc),
                       in_rows[i].ts});
  }
  std::unordered_map<std::string_view, uint32_t> trajs;
  std::vector<OutRec> out;
  out.reserve(out_rows.size());
  for (const CsvRow& r : out_rows) {
    uint32_t t = trajs.emplace(r.id, static_cast<uint32_t>(trajs.size()))
                     .first->second;
    out.push_back(OutRec{r.id, intern(r.loc), r.ts, t});
  }
  return CheckRecords(in, out);
}

}  // namespace perfbench
