/**
 * @file
 * The benchmark's own instrumentation: a per-thread span log that
 * records calls into the library's layers from outside, order
 * statistics over timing samples, a named metric set with units,
 * and a Chrome trace exporter. Nothing here touches src/obs — the
 * program's own telemetry stays off in every benchmark run.
 */

#ifndef PERFBENCH_RECORDER_HH
#define PERFBENCH_RECORDER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Microseconds on the steady clock since the first call. */
double nowUs();

/** One closed span: a call into a layer, nested under @c parent
 *  (index into the same log, -1 at top level). */
struct Span
{
    const char *name = "";
    double beginUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
};

/**
 * Span log of one thread (one emulated rank, or the bench thread).
 * With tracing off every call is a no-op, so the untraced loop pays
 * only for the clock reads its end-to-end metrics need; the traced
 * loop is the same code plus the reads and pushes done here.
 */
class SpanLog
{
  public:
    SpanLog(bool tracing, int tid) : tracing_(tracing), tid_(tid) {}

    int tid() const { return tid_; }

    /** Open a span now (-1 when tracing is off). */
    int open(const char *name);

    /** Close the span @p idx opened (no-op for -1). */
    void close(int idx);

    /** Record a span whose ends the caller already timed, nested
     *  under the innermost open span. */
    void add(const char *name, double begin_us, double end_us);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool tracing_;
    int tid_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Scoped span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name)
        : log_(log), idx_(log.open(name))
    {
    }
    ~Scope() { log_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int idx_;
};

/** Run @p fn, record it as span @p name when tracing, and return
 *  its duration in microseconds (always measured). */
template <typename Fn>
double
timed(SpanLog &log, const char *name, Fn &&fn)
{
    const double b = nowUs();
    fn();
    const double e = nowUs();
    log.add(name, b, e);
    return e - b;
}

/** Linear-interpolated quantile @p q in [0, 1] (0 when empty). */
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Durations (us) of every span named @p name across @p logs. */
std::vector<double> spanDurations(const std::vector<SpanLog> &logs,
                                  const std::string &name);

/**
 * Share (%) of the "bench.run" spans' time that no layer span
 * covers. Layer spans are the non-"bench.*" spans directly under a
 * "bench.*" grouping span (bench.run, bench.iteration); anything the
 * bench does itself between them is what stays unaccounted.
 */
double unaccountedPct(const std::vector<SpanLog> &logs);

/** Total self time (us) per span name: duration minus the part
 *  its direct children cover. */
std::map<std::string, double>
selfTimes(const std::vector<SpanLog> &logs);

/** Write @p logs as Chrome trace-event JSON (ph "X" events, one
 *  tid per log, self time in args); @return false on I/O error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanLog> &logs);

/** Named metrics with units, kept in insertion order. */
class MetricSet
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** FNV-1a over raw bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/** SplitMix64: the seed expander behind every workload input. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, 1). */
    double uniform();

  private:
    std::uint64_t state_;
};

} // namespace perfbench

#endif // PERFBENCH_RECORDER_HH
