#ifndef IDREPAIR_REPAIR_PARTITIONED_H_
#define IDREPAIR_REPAIR_PARTITIONED_H_

#include "repair/repairer.h"

namespace idrepair {

/// Kept only so the frozen perfbench sources, which time
/// `PartitionedRepairer(graph, options).Partition(set)`, still compile.
/// There is one batch engine: IdRepairer repairs every chain component
/// independently in a single run, and IdRepairer::Partition reports them.
using PartitionedRepairer = IdRepairer;

}  // namespace idrepair

#endif  // IDREPAIR_REPAIR_PARTITIONED_H_
