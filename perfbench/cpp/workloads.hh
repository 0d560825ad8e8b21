/**
 * @file
 * The four benchmark workloads. README.md records why each exists and
 * which layer metrics it is expected to move.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

/** Protein-BERT embedding of a directed-evolution variant library. */
std::unique_ptr<Workload> makeEmbedVariants();
/** DseEngine::explore over the Table 3 16K-PE space. */
std::unique_ptr<Workload> makeDseSweep();
/** Healthy and chaos drills on a 4-instance serving fleet. */
std::unique_ptr<Workload> makeFleetChaos();
/** A BERT-layer dataflow chain on the functional simulator under
 *  rotating fault campaigns. */
std::unique_ptr<Workload> makeFsimFaults();

/** Workload by name, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
