/**
 * @file
 * The benchmark's own machinery: host spans, the statistics it reports,
 * output digests, and the interface every workload implements.
 *
 * Spans are recorded from the benchmark's files around each call into a
 * library layer; the library itself is not instrumented. A span is named
 * `<module>.<call>`, where the module is the src/ directory that owns the
 * call (model, trace, accel, dse, power, baseline, serve, systolic,
 * fault, common) and `bench` marks the benchmark's own glue.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();

/** One closed host span. */
struct SpanRecord
{
    std::string name;      ///< `<module>.<call>`
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1; ///< index of the enclosing span, -1 at top
    std::int64_t step = -1;   ///< step id, -1 outside steps
};

/**
 * In-memory span log. Disabled, opening a span costs one branch and
 * records nothing; spans are kept until the run ends and then written
 * out as Chrome trace-event JSON.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    /** Step id stamped on spans opened from now on. */
    void setStep(std::int64_t step) { step_ = step; }

    /** Open a span; returns its index, or -1 when disabled. */
    std::int64_t open(const char *name);
    /** Close the innermost open span, which must be `index`. */
    void close(std::int64_t index);

    const std::vector<SpanRecord> &spans() const { return spans_; }
    void clear();

    /** Write the log as Chrome trace-event JSON (opens in Perfetto). */
    bool writeChromeTrace(const std::string &path,
                          const std::string &process_name) const;

  private:
    bool enabled_ = false;
    std::int64_t step_ = -1;
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> open_;
};

/** The process-wide tracer the workloads record into. */
Tracer &tracer();

/**
 * RAII span. Always measures its own duration (the workloads use it as
 * their stopwatch); it lands in the span log only when tracing is on.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close now (idempotent) and return the duration in ms. */
    double end();

  private:
    std::int64_t index_ = -1;
    std::int64_t startNs_ = 0;
    double ms_ = -1.0;
};

/** Module of a span name: the text before the first '.'. */
std::string moduleOf(const std::string &span_name);

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its direct children (overlapping children count once).
 */
std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord> &spans);

/** Summed self time per module over the spans of steps (step >= 0). */
std::map<std::string, std::int64_t>
moduleSelfNs(const std::vector<SpanRecord> &spans);

/**
 * Samples lying strictly above the nearest-rank `percent`-th percentile
 * of `count` samples, i.e. count - ceil(count * percent / 100).
 */
std::uint64_t samplesBeyond(std::uint64_t count, unsigned percent);

/**
 * A percentile is reported only when at least ten samples lie beyond
 * it; p90 therefore needs at least 100 steps.
 */
bool percentileReportable(std::uint64_t count, unsigned percent);

/** FNV-1a 64-bit digest builder over exact bit patterns. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void floats(const float *data, std::size_t count)
    {
        bytes(data, count * sizeof(float));
    }
    void text(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hex form of a digest, as committed in golden/digests.txt. */
std::string hex64(std::uint64_t v);

/** What one step did and whether its output checked out. */
struct StepResult
{
    std::uint64_t items = 0;  ///< work items completed by the step
    std::uint64_t digest = 0; ///< bit-exact digest of the step's outputs
    /**
     * False for outputs the library is expected to change (chaos
     * drills): those are checked by invariants and within-run replay,
     * never against a committed digest.
     */
    bool goldenComparable = true;
    std::string failure; ///< empty when every check passed
};

/**
 * Accounting of one measured phase. Items count only when their step
 * passed its checks; a failed step is attempted but completes nothing.
 */
struct PhaseStats
{
    std::vector<double> stepMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t items = 0;
    double elapsedS = 0.0;

    void record(double ms, const StepResult &result);
    double itemsPerSecond() const;
    /** Host seconds inside steps per item completed; 0 with no items. */
    double stepSecondsPerItem() const;
};

/**
 * Per-layer sample sink. Workloads push raw samples under the per-layer
 * metric names of BENCHMARK.json; the runner reduces each to one value.
 */
class LayerSamples
{
  public:
    /** One timing sample; reported as the median. */
    void time(const std::string &metric, double value)
    {
        times_[metric].push_back(value);
    }
    /** One per-step quantity; reported as the mean over steps. */
    void perStep(const std::string &metric, double value)
    {
        perStep_[metric].push_back(value);
    }
    /** A value computed once by the workload; reported as given. */
    void set(const std::string &metric, double value)
    {
        fixed_[metric] = value;
    }

    /** Reduce every metric to its reported value. */
    std::map<std::string, double> reduce() const;

  private:
    std::map<std::string, std::vector<double>> times_;
    std::map<std::string, std::vector<double>> perStep_;
    std::map<std::string, double> fixed_;
};

/**
 * One benchmark workload: a closed loop with one client. Steps are
 * numbered from 0; step i runs input i % deckSize(), so inputs repeat
 * and every repeat must reproduce the first digest exactly.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** Thread-pool lanes this workload is pinned to. */
    virtual unsigned lanes() const = 0;
    /** Steps in one whole cycle of the step mix (timing unit). */
    virtual std::size_t cycleSteps() const = 0;
    /** Distinct step inputs before they repeat (a multiple of cycle). */
    virtual std::size_t deckSize() const = 0;
    /** Unit of the item count, for the docs and the run record. */
    virtual const char *itemName() const = 0;
    /** True when deck entry `local` has the same inputs for every seed,
     *  so one committed digest checks it under any seed. */
    virtual bool seedFree(std::size_t /*local*/) const { return false; }
    /** Index under which deck entry `local`'s digest is committed. */
    virtual std::size_t goldenIndex(std::size_t local) const
    {
        return local;
    }

    /** Build all state from the seed; spans recorded here are set-up. */
    virtual void setup(std::uint64_t seed) = 0;
    /**
     * Run step `index`. The work is the same either way; when `traced`
     * the step also records its layer samples.
     */
    virtual StepResult step(std::size_t index, bool traced) = 0;
    /**
     * After traced step `index`, outside its timing: separately timed
     * calls to the public parts of the composites the step ran, for the
     * layer metrics the composite's single span cannot give.
     */
    virtual void probe(std::size_t /*index*/) {}
    /** Fold cross-step samples into metrics before they are reduced. */
    virtual void finish() {}

    LayerSamples &samples() { return samples_; }

  protected:
    LayerSamples samples_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
