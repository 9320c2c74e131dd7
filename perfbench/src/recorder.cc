#include "recorder.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench
{

double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch)
        .count();
}

int
SpanLog::open(const char *name)
{
    if (!tracing_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.beginUs = nowUs();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
}

void
SpanLog::close(int idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].endUs = nowUs();
    // Scopes close in reverse order of opening.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == idx)
            break;
    }
}

void
SpanLog::add(const char *name, double begin_us, double end_us)
{
    if (!tracing_)
        return;
    Span s;
    s.name = name;
    s.beginUs = begin_us;
    s.endUs = end_us;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

std::vector<double>
spanDurations(const std::vector<SpanLog> &logs, const std::string &name)
{
    std::vector<double> out;
    for (const SpanLog &log : logs)
        for (const Span &s : log.spans())
            if (name == s.name)
                out.push_back(s.endUs - s.beginUs);
    return out;
}

namespace
{

bool
isBench(const char *name)
{
    return std::strncmp(name, "bench.", 6) == 0;
}

} // namespace

double
unaccountedPct(const std::vector<SpanLog> &logs)
{
    double wall = 0.0;
    double covered = 0.0;
    for (const SpanLog &log : logs) {
        const std::vector<Span> &spans = log.spans();
        // Layer spans directly under a bench.* group inside the
        // "bench.run" span; anything deeper is already covered by
        // its layer ancestor.
        std::vector<char> in_run(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.parent < 0) {
                if (std::strcmp(s.name, "bench.run") == 0) {
                    in_run[i] = 1;
                    wall += s.endUs - s.beginUs;
                }
                continue;
            }
            const std::size_t p = static_cast<std::size_t>(s.parent);
            in_run[i] = in_run[p];
            if (in_run[i] && !isBench(s.name) &&
                isBench(spans[p].name)) {
                covered += s.endUs - s.beginUs;
            }
        }
    }
    return wall > 0.0 ? 100.0 * (wall - covered) / wall : 0.0;
}

std::map<std::string, double>
selfTimes(const std::vector<SpanLog> &logs)
{
    std::map<std::string, double> self;
    for (const SpanLog &log : logs) {
        const std::vector<Span> &spans = log.spans();
        std::vector<double> child(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endUs - s.beginUs;
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[spans[i].name] +=
                spans[i].endUs - spans[i].beginUs - child[i];
    }
    return self;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanLog> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const SpanLog &log : logs) {
        std::fprintf(f,
                     "%s\n{\"name\":\"thread_name\",\"ph\":\"M\","
                     "\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
                     "\"%s%d\"}}",
                     first ? "" : ",", log.tid(),
                     log.tid() >= 100 ? "replay" : "rank", log.tid());
        first = false;
        const std::vector<Span> &spans = log.spans();
        std::vector<double> child(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.endUs - s.beginUs;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double dur = s.endUs - s.beginUs;
            const char *dot = std::strrchr(s.name, '.');
            const std::string cat =
                dot ? std::string(s.name, dot) : std::string(s.name);
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"cat\":\"%s\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                         "\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"self_us\":%.3f}}",
                         s.name, cat.c_str(), log.tid(), s.beginUs,
                         dur, dur - child[i]);
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SeedRng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace perfbench
