/**
 * @file
 * Multi-instance ProSE system model. Section 3.2: "we envision a host
 * CPU that is capable of supporting four NVLinks similar to what the
 * latest NVIDIA Grace CPU is capable of, with each NVLink connecting to
 * one ProSE instance, totaling four ProSE instances per system."
 *
 * Instances are independent accelerator cards on independent links; the
 * system shards an inference batch across them and the host CPU serves
 * all of their softmax/Other work. This is the deployment-scale view on
 * top of the single-instance PerfSim, driven on the same instance pool
 * as the serving simulator (accel/instance_pool.hh).
 */

#ifndef PROSE_ACCEL_SYSTEM_HH
#define PROSE_ACCEL_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "perf_sim.hh"
#include "power/power_model.hh"

namespace prose {

/** A host with several ProSE instances on dedicated links. */
struct SystemConfig
{
    ProseConfig instance = ProseConfig::bestPerf();
    std::uint32_t instanceCount = 4; ///< Grace-class hosts carry four
};

/** Aggregated result of a system-level run. */
struct SystemReport
{
    double makespan = 0.0;          ///< slowest instance's makespan
    std::uint64_t inferences = 0;
    double systemWatts = 0.0;       ///< all instances + shared host
    double hostDuty = 0.0;          ///< combined host capacity fraction
    std::vector<SimReport> perInstance;

    /** @name Degraded-mode accounting (defaults when fault-free) @{ */
    /** Instances killed before the batch drained (busy or idle). */
    std::uint32_t failedInstances = 0;
    /** Inferences a kill dropped, summed over kills: an inference
     *  dropped by two kills counts twice. */
    std::uint64_t reshardedInferences = 0;
    /** From the first re-shard to the makespan (0 without one). */
    double reshardSeconds = 0.0;
    /**
     * Throughput kept relative to the same campaign without instance
     * deaths: healthy makespan / degraded makespan. 1.0 when no
     * instance died.
     */
    double throughputRetention = 1.0;
    /** Link-fault counters summed over every dispatched shard. */
    std::uint64_t linkTransferErrors = 0;
    std::uint64_t linkTimeouts = 0;
    std::uint64_t taskRetries = 0;
    /**
     * Per-inference completion times (size == inferences), indexed by
     * inference; the first wave shards the batch in instance order, so
     * a healthy run lists each instance's PerfSim inferenceEndSeconds
     * in turn. An inference ends at the dispatch time of the shard
     * that completed it plus its PerfSim end time in that shard. The
     * maximum entry equals the makespan.
     */
    std::vector<double> completionSeconds;
    /** @} */

    double inferencesPerSecond() const;
    double efficiency() const; ///< inferences/s/W
};

/** Batch-sharding system simulator. */
class ProseSystem
{
  public:
    explicit ProseSystem(SystemConfig config = SystemConfig{});

    /**
     * Shard `shape.batch` as evenly as possible across the instances
     * and simulate each; the system finishes when the slowest instance
     * does. Host softmax throughput is divided among active instances.
     *
     * Under a fault campaign each shard's simulator samples the link
     * faults and array kills, and instance kills fire on the pool at
     * their time (an arrival-indexed kill at t=0: the whole batch
     * arrives then). A kill keeps the inferences whose PerfSim end
     * time falls before it and drops the rest. Whenever the pool is
     * idle with dropped work left, that work is re-sharded over the
     * alive instances; a kill during a re-shard simply triggers the
     * next one. The report's throughputRetention quantifies the loss.
     */
    SystemReport run(const BertShape &shape,
                     FaultInjector *injector = nullptr) const;

    const SystemConfig &config() const { return config_; }

  private:
    SystemConfig config_;
};

} // namespace prose

#endif // PROSE_ACCEL_SYSTEM_HH
