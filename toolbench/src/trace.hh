/**
 * @file
 * Spans recorded by the benchmark around its own calls into each
 * layer's public entry points. A span has a name ("<layer>.<call>"),
 * start and end (seconds since the tracer started), the index of the
 * span that was open when it began (its parent), and the id of the
 * unit of work it belongs to. Spans stay in memory and are written as
 * JSON when the run ends.
 *
 * A Tracer is used from one thread at a time: traced runs use pool
 * width 1 so that self times add up.
 */
#ifndef SYMBENCH_TRACE_HH
#define SYMBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace symbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds @p clock has counted so far. */
inline double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPU seconds of the calling thread; time it waited for a CPU while
 *  other programs ran is not in it. */
inline double
threadCpuSeconds()
{
    return cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
}

/** CPU seconds of all threads of this process. */
inline double
processCpuSeconds()
{
    return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

struct SpanRec
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    std::uint64_t unit = 0;
};

class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) {}

    int open(const char *name, std::uint64_t unit);
    void close(int idx);

    const std::vector<SpanRec> &spans() const { return spans_; }
    /** Seconds since the tracer was created. */
    double now() const { return secondsSince(t0_); }

    /** Total duration of the spans named @p name. */
    double total(const std::string &name) const;
    /** Self time (duration minus child spans) per layer, the layer
     *  being the span name up to its first '.'. */
    std::map<std::string, double> selfByLayer() const;
    /** Seconds of [from, to) covered by no span at all. */
    double uncovered(double from, double to) const;
    /** Longest total span time of any single unit of work. */
    double longestUnit() const;

    /** The spans as a JSON document. */
    std::string json() const;

  private:
    Clock::time_point t0_;
    std::vector<SpanRec> spans_;
    int current_ = -1;
};

/** RAII span; a no-op when the tracer is null (untraced runs). */
class Span
{
  public:
    Span(Tracer *t, const char *name, std::uint64_t unit)
        : t_(t), idx_(t ? t->open(name, unit) : -1)
    {
    }
    ~Span()
    {
        if (t_)
            t_->close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
    int idx_;
};

/** Run @p fn inside a span; returns what it returns. */
template <class F>
auto
traced(Tracer *t, const char *name, std::uint64_t unit, F &&fn)
{
    Span s(t, name, unit);
    return fn();
}

} // namespace symbench

#endif // SYMBENCH_TRACE_HH
