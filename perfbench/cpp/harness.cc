#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/stats.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.step = step_;
    rec.startNs = nowNs();
    spans_.push_back(std::move(rec));
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
Tracer::close(std::int64_t index)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Tracer::clear()
{
    spans_.clear();
    open_.clear();
}

namespace {

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &process_name) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
          "\"process_name\", \"args\": {\"name\": ";
    jsonString(os, process_name);
    os << "}}";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"cat\": ";
        jsonString(os, moduleOf(s.name));
        os << ", \"name\": ";
        jsonString(os, s.name);
        std::snprintf(buf, sizeof buf,
                      ", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %zu, \"parent\": %lld, \"step\": %lld}}",
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                      static_cast<long long>(s.parent),
                      static_cast<long long>(s.step));
        os << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

Span::Span(const char *name)
    : index_(tracer().open(name)), startNs_(nowNs())
{
}

Span::~Span()
{
    end();
}

double
Span::end()
{
    if (ms_ < 0.0) {
        ms_ = static_cast<double>(nowNs() - startNs_) / 1e6;
        tracer().close(index_);
    }
    return ms_;
}

std::string
moduleOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (const std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].startNs, s.startNs);
            const std::int64_t hi = std::min(spans[c].endNs, s.endNs);
            if (hi > lo)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0, reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

std::map<std::string, std::int64_t>
moduleSelfNs(const std::vector<SpanRecord> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].step >= 0)
            out[moduleOf(spans[i].name)] += self[i];
    }
    return out;
}

std::uint64_t
samplesBeyond(std::uint64_t count, unsigned percent)
{
    const std::uint64_t rank = (count * percent + 99) / 100;
    return count - rank;
}

bool
percentileReportable(std::uint64_t count, unsigned percent)
{
    return samplesBeyond(count, percent) >= 10;
}

void
Digest::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
PhaseStats::record(double ms, const StepResult &result)
{
    stepMs.push_back(ms);
    ++attempted;
    if (result.failure.empty())
        items += result.items;
    else
        ++failed;
}

double
PhaseStats::itemsPerSecond() const
{
    return elapsedS > 0.0 ? static_cast<double>(items) / elapsedS : 0.0;
}

double
PhaseStats::stepSecondsPerItem() const
{
    double ms = 0.0;
    for (const double m : stepMs)
        ms += m;
    return items > 0 ? ms / 1e3 / static_cast<double>(items) : 0.0;
}

std::map<std::string, double>
LayerSamples::reduce() const
{
    std::map<std::string, double> out(fixed_);
    for (const auto &[name, values] : times_) {
        if (!values.empty())
            out[name] = prose::percentile(values, 50.0);
    }
    for (const auto &[name, values] : perStep_) {
        if (!values.empty())
            out[name] = prose::mean(values);
    }
    return out;
}

} // namespace perfbench
