/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the percentile rule,
 * self time with nested spans, items accounting, the digest function,
 * and digest stability of every workload across two fresh runs (one
 * plain, one traced). Exits non-zero if any check fails.
 *
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <iostream>
#include <string>

#include "harness.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

SpanRecord
span(const char *name, std::int64_t start, std::int64_t end,
     std::int64_t parent)
{
    SpanRecord s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    s.step = 0;
    return s;
}

void
percentileRule()
{
    expect(samplesBeyond(100, 90) == 10, "p90 of 100 samples has 10 beyond");
    expect(percentileReportable(100, 90), "p90 reportable at 100 steps");
    expect(!percentileReportable(99, 90), "p90 not reportable at 99 steps");
    expect(samplesBeyond(1000, 99) == 10, "p99 of 1000 samples has 10 beyond");
    expect(!percentileReportable(999, 99), "p99 not reportable at 999");
    expect(percentileReportable(20, 50), "p50 reportable at 20 steps");
}

void
selfTime()
{
    // root [0,100] > a [10,40] > a1 [20,30]; root > b [50,90] and an
    // overlapping c [80,95]: the root's children cover 30 + 45.
    const std::vector<SpanRecord> spans = {
        span("bench.step", 0, 100, -1), span("model.a", 10, 40, 0),
        span("trace.a1", 20, 30, 1),    span("accel.b", 50, 90, 0),
        span("accel.c", 80, 95, 0),
    };
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    expect(self[0] == 25, "root self time excludes covered children once");
    expect(self[1] == 20, "child self time excludes its grandchild");
    expect(self[2] == 10 && self[3] == 40 && self[4] == 15,
           "leaf self time is its duration");
    const auto modules = moduleSelfNs(spans);
    expect(modules.at("bench") == 25 && modules.at("model") == 20 &&
               modules.at("trace") == 10 && modules.at("accel") == 55,
           "module self time sums its spans");
    std::int64_t total = 0;
    for (const auto &[module, ns] : modules)
        total += ns;
    expect(total == 110, "overlapping siblings each keep their own self time");

    // The live tracer records parents from nesting.
    Tracer &t = tracer();
    t.clear();
    t.setEnabled(true);
    t.setStep(7);
    {
        Span outer("bench.step");
        Span inner("model.forward");
    }
    t.setEnabled(false);
    expect(t.spans().size() == 2 && t.spans()[0].parent == -1 &&
               t.spans()[1].parent == 0 && t.spans()[1].step == 7 &&
               t.spans()[1].endNs <= t.spans()[0].endNs,
           "tracer nests spans and stamps the step");
    {
        Span off("model.forward");
    }
    expect(t.spans().size() == 2, "disabled tracer records nothing");
    t.clear();
}

void
itemsAccounting()
{
    PhaseStats stats;
    StepResult ok;
    ok.items = 4;
    StepResult bad;
    bad.items = 100;
    bad.failure = "mismatch";
    stats.record(10.0, ok);
    stats.record(20.0, bad);
    stats.record(30.0, ok);
    stats.elapsedS = 2.0;
    expect(stats.attempted == 3 && stats.failed == 1,
           "failed steps count as attempted and failed");
    expect(stats.items == 8, "a failed step completes no items");
    expect(stats.itemsPerSecond() == 4.0, "items per second");
    expect(stats.stepMs.size() == 3, "every step is timed");
}

void
digestFunction()
{
    Digest d;
    d.bytes("a", 1);
    expect(d.value() == 0xaf63dc4c8601ec8cull, "FNV-1a 64 of \"a\"");
    expect(hex64(0xabcull) == "0000000000000abc", "digest hex form");
}

void
digestStability()
{
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<Workload> first = makeWorkload(name);
        std::unique_ptr<Workload> second = makeWorkload(name);
        first->setup(1);
        second->setup(1);
        const StepResult a = first->step(0, false);
        const StepResult b = second->step(0, true);
        expect(a.failure.empty() && b.failure.empty(),
               name + ": step 0 passes its checks (" + a.failure +
                   b.failure + ")");
        expect(a.digest == b.digest && a.items == b.items && a.items > 0,
               name + ": digest stable across two runs, plain and traced");
    }
}

} // namespace

int
main()
{
    percentileRule();
    selfTime();
    itemsAccounting();
    digestFunction();
    digestStability();
    std::cout << (failures ? "FAILED " : "passed ") << failures
              << " failure(s)\n";
    return failures ? 1 : 0;
}
