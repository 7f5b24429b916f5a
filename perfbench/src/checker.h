// Output checker of the benchmark, written against plain records only: it
// never calls the repair code, so a repair bug cannot hide in shared logic.
//
// For one output it checks that
//  * the multiset of (location, timestamp) pairs out equals the multiset in
//    (no record lost, duplicated or moved),
//  * every output trajectory is strictly time-ordered,
// and it scores the output's IDs against the ground truth (record-level
// precision, recall and f-measure of the ID rewrites).
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gen/dataset.h"

namespace perfbench {

/// One input record: the ID the program saw and the true ID.
struct InRow {
  std::string_view observed;
  std::string_view truth;
  uint32_t loc = 0;
  int64_t ts = 0;
};

/// One output record; `traj` numbers the output trajectory it belongs to.
struct OutRec {
  std::string_view id;
  uint32_t loc = 0;
  int64_t ts = 0;
  uint32_t traj = 0;
};

/// Record-level repair quality. A record is erroneous when its observed ID
/// differs from the truth, rewritten when the output ID differs from the
/// observed one, and correct when a rewrite lands on the true ID.
struct Quality {
  uint64_t erroneous = 0;
  uint64_t rewritten = 0;
  uint64_t correct = 0;

  void Add(const Quality& q) {
    erroneous += q.erroneous;
    rewritten += q.rewritten;
    correct += q.correct;
  }
  double FMeasure() const;
};

struct CheckResult {
  bool ok = true;
  std::string error;  // first violation, when !ok
  Quality quality;
};

/// Checks one output against the input records it was produced from.
CheckResult CheckRecords(const std::vector<InRow>& in,
                         const std::vector<OutRec>& out);

/// Input rows of `truth` (location IDs as the generator numbered them).
std::vector<InRow> RowsOf(const std::vector<idrepair::GroundTruthRecord>& truth);

/// Checks a repaired CSV file (the CLI's output format, `id,loc,ts`) against
/// the input CSV it came from. `truth` holds the input's rows in file order.
/// Each ID of the output is one trajectory.
CheckResult CheckCsv(const std::string& input_csv,
                     const std::vector<idrepair::GroundTruthRecord>& truth,
                     const std::string& output_csv);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
