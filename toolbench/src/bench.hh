/**
 * @file
 * Shared types of the toolchain benchmark: run options, the workload
 * interface, what one pass and one run measured, and the per-layer
 * metric table.
 *
 * A run sets up its workload, then runs passes until its time is up.
 * Untraced passes at pool width min(nproc, 4) give the end-to-end
 * metrics, timed in CPU seconds so that other programs' load on a
 * shared host does not enter them, and scaled by a reference loop
 * (reference.hh) for the speed the host gives the process. A traced run (--trace 1) gives the per-layer metrics: it
 * runs untraced passes at full width (driver utilisation), untraced
 * passes at width 1, and traced passes at width 1, whose spans around
 * the benchmark's own calls into each layer give the layer times and
 * whose exact counts give the layer work. The difference between the
 * two width-1 phases is the tracing overhead.
 */
#ifndef SYMBENCH_BENCH_HH
#define SYMBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pass/instrument.hh"
#include "trace.hh"

namespace symbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured seconds of the run. */
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Pool width of the untraced passes: min(nproc, 4). */
    unsigned jobs = 1;
    /** Self-check size: a few units, one pass per phase. */
    bool small = false;
    /** Scratch directory inside the checkout (sockets, stores). */
    std::string workDir;
};

/** Exact counts of deterministic work, keyed by metric name. */
using Counts = std::map<std::string, std::uint64_t>;

/** What one pass measured. */
struct PassResult
{
    double wall = 0;
    /** CPU seconds of every thread of the process during the pass. */
    double cpu = 0;
    /** Units of work done (points, schedules, cases, requests). */
    double units = 0;
    /** CPU time of each unit, ms (empty: the pass is the unit). */
    std::vector<double> unitMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Exact counts the untraced and the traced run both see (the
     *  self-check compares these). */
    Counts counts;
    /** Exact counts only the traced calls see; the self-check compares
     *  them across traced runs and against identities with counts. */
    Counts traceOnly;
    /** Measured per-layer values summed over passes (seconds,
     *  fractions), divided by the pass count at the end. */
    std::map<std::string, double> sums;

    void
    fail(const std::string &why, std::uint64_t n = 1)
    {
        failed += n;
        if (errors.size() < 4)
            errors.push_back(why);
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** What one unit of work is, for the report. */
    virtual const char *unitName() const = 0;
    /** Percentile reported as unit_tail_ms. */
    virtual double tailPct() const = 0;
    /** The end-to-end throughput's name in the report. */
    virtual const char *throughputName() const = 0;
    /** Set up once (may be called several times); seconds taken. */
    virtual double setup() = 0;
    /** Set-ups per untraced run; setup_s is their median. */
    virtual int setups() const { return 5; }
    /** Threads the untraced passes at pool width @p jobs keep busy. */
    virtual unsigned busyThreads(unsigned jobs) const { return jobs; }
    /** Run pass number @p index at pool width @p jobs; spans go to
     *  @p t when tracing. */
    virtual PassResult pass(unsigned jobs, Tracer *t,
                            std::uint64_t index) = 0;
    /** Release what setup() holds (servers, temp dirs). */
    virtual void teardown() {}
};

std::unique_ptr<Workload> makeCheckedSweep(const Options &o);
std::unique_ptr<Workload> makeFuzzWindow(const Options &o);
std::unique_ptr<Workload> makeService(const Options &o);

/** A metric as printed in the result object. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run measured. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** End-to-end (untraced run) or per-layer (traced run). */
    std::vector<Metric> metrics;
    /** Counts of the first measured pass (for the self-check). */
    Counts counts;
    Counts traceOnly;
    /** Human-readable report lines. */
    std::vector<std::string> lines;
    /** Spans of the traced phase, as JSON (traced runs only). */
    std::string traceJson;
};

/** Every workload symbench runs (BENCHMARK.json gates a subset). */
const std::vector<std::string> &workloadNames();
/** Run @p o.workload; throws on an unknown name. */
Outcome runWorkload(const Options &o);

/** @name Statistics */
/** @{ */
double median(std::vector<double> v);
/** Linear-interpolated percentile @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);
/** @} */

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Totals of a pass-instrumentation sink, by pass name. */
struct SinkTotals
{
    std::map<std::string, double> seconds;
    std::map<std::string, std::uint64_t> in, out, calls;
};
SinkTotals totals(const symbol::pass::PassInstrumentation &sink);
/** What was recorded between two totals of one sink. */
SinkTotals since(const SinkTotals &after, const SinkTotals &before);
/** The exact counts a sink holds, under the layer metric names
 *  (prolog.source_bytes, sched.ddg_edges, check.diagnostics, ...). */
void addSinkCounts(Counts &c, const SinkTotals &t);
/** Add the sink's seconds to @p sums under "sink.<pass>". */
void addSinkSeconds(std::map<std::string, double> &sums,
                    const SinkTotals &t);

/** "12,345". */
std::string thousands(std::uint64_t n);

} // namespace symbench

#endif // SYMBENCH_BENCH_HH
