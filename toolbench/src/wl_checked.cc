/**
 * @file
 * checked-sweep: the 144-schedule --verify-schedule grid over all 16
 * Aquarius programs. Each schedule is compacted and then checked by
 * verify::checkSchedule and check::analyzeWide; check::analyze runs
 * over the 48 (program x front config) workloads. Nothing is
 * simulated.
 *
 * Each pass uses a fresh in-memory suite::EvalDriver, so it builds its
 * 48 front ends as a --verify-schedule sweep does, and runs its tasks
 * in an order drawn from the seed and the pass index. Traced passes
 * make the same calls on the calling thread, one span each; the front
 * ends' layer times come from the driver's pass-instrumentation sink.
 */
#include "bench.hh"
#include "check/check.hh"
#include "check/wide.hh"
#include "fuzz/rng.hh"
#include "suite/driver.hh"
#include "verify/verify.hh"

namespace symbench
{

using namespace symbol;

namespace
{

suite::DriverOptions
driverOptions(unsigned jobs, pass::PassInstrumentation *sink)
{
    suite::DriverOptions d;
    d.jobs = jobs;
    d.quiet = true;
    d.passInstr = sink;
    return d;
}

/** One point of the --verify-schedule machine/scheduling grid. */
struct SchedPoint
{
    std::size_t front; ///< index into CheckedSweep::fronts_
    machine::MachineConfig mc;
    sched::CompactOptions co;
};

class CheckedSweep final : public Workload
{
  public:
    explicit CheckedSweep(const Options &o) : o_(o)
    {
        for (const suite::Benchmark &b : suite::aquarius())
            programs_.push_back(&b);
        if (o.small)
            programs_.resize(3);

        suite::WorkloadOptions expandTags;
        expandTags.translate.expandTagBranches = true;
        suite::WorkloadOptions noIndexing;
        noIndexing.compiler.indexing = false;
        fronts_ = {suite::WorkloadOptions{}, expandTags, noIndexing};

        std::vector<SchedPoint> points;
        auto add = [&](machine::MachineConfig mc,
                       sched::CompactOptions co = {},
                       std::size_t front = 0) {
            points.push_back({front, std::move(mc), co});
        };
        add(machine::MachineConfig::idealShared(3));
        for (int units : {1, 2, 4})
            add(machine::MachineConfig::idealShared(units));
        add(machine::MachineConfig::prototype(3));
        {
            machine::MachineConfig mc = machine::MachineConfig::idealShared(3);
            mc.memPortsTotal = 2;
            add(mc);
        }
        {
            sched::CompactOptions co;
            co.traceMode = false;
            add(machine::MachineConfig::idealShared(3), co);
        }
        {
            sched::CompactOptions co;
            co.freshAllocDisambiguation = false;
            add(machine::MachineConfig::idealShared(3), co);
        }
        add(machine::MachineConfig::idealShared(3), {}, 1);

        for (const SchedPoint &p : points)
            for (const suite::Benchmark *b : programs_)
                tasks_.push_back({b, p, false});
        for (std::size_t f = 0; f < fronts_.size(); ++f)
            for (const suite::Benchmark *b : programs_)
                tasks_.push_back({b, {f, {}, {}}, true});
        for (const Task &t : tasks_)
            schedules_ += t.analyze ? 0 : 1;
    }

    const char *unitName() const override { return "schedule"; }
    double tailPct() const override { return 99; }
    int setups() const override { return 15; }
    const char *throughputName() const override
    {
        return "schedules_checked_per_s";
    }

    /** A fresh driver with every front end of the grid built, as the
     *  sweep has it before its first schedule. */
    double
    setup() override
    {
        const double cpu0 = processCpuSeconds();
        pass::PassInstrumentation sink;
        suite::EvalDriver drv(driverOptions(o_.jobs, &sink));
        std::vector<std::string> names;
        for (const suite::Benchmark *b : programs_)
            names.push_back(b->name);
        for (const suite::WorkloadOptions &wo : fronts_)
            drv.prefetch(names, wo);
        return processCpuSeconds() - cpu0;
    }

    PassResult
    pass(unsigned jobs, Tracer *t, std::uint64_t index) override
    {
        // The order changes from pass to pass, so the pass medians do
        // not hang on which long schedule one order happens to leave
        // for last.
        std::vector<const Task *> order;
        for (const Task &task : tasks_)
            order.push_back(&task);
        fuzz::Rng rng(fuzz::mix64(o_.seed ^ fuzz::mix64(index + 1)));
        for (std::size_t n = order.size(); n > 1; --n)
            std::swap(order[n - 1], order[rng.below(n)]);

        PassResult r;
        r.units = static_cast<double>(schedules_);
        r.attempted = tasks_.size();
        pass::PassInstrumentation sink;
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = processCpuSeconds();
        try {
            suite::EvalDriver drv(driverOptions(t ? 1 : jobs, &sink));
            auto cell = [&](std::size_t i) {
                const Task &task = *order[i];
                const std::uint64_t unit = index * 1'000'000 + i;
                const double c0 = threadCpuSeconds();
                const suite::Workload &w =
                    *traced(t, "suite.workload", unit, [&] {
                        return &drv.workload(*task.bench,
                                             fronts_[task.point.front]);
                    });
                Cell c = runTask(task, w, t, unit, sink);
                c.ms = (threadCpuSeconds() - c0) * 1e3;
                return c;
            };
            std::vector<Cell> cells;
            if (t) // one thread: the tracer's span stack is not shared
                for (std::size_t i = 0; i < order.size(); ++i)
                    cells.push_back(cell(i));
            else
                cells = drv.map(order.size(), cell);
            r.wall = secondsSince(t0);
            r.cpu = processCpuSeconds() - cpu0;
            for (std::size_t i = 0; i < cells.size(); ++i)
                account(*order[i], cells[i], r);
            const suite::DriverStats st = drv.stats();
            r.sums["suite.workloads_built"] +=
                static_cast<double>(st.workloadsBuilt);
            r.sums["suite.cache_hits"] += static_cast<double>(st.cacheHits);
        } catch (const std::exception &e) {
            r.wall = secondsSince(t0);
            r.cpu = processCpuSeconds() - cpu0;
            r.fail(std::string("checked-sweep pass: ") + e.what(),
                   tasks_.size());
        }
        const SinkTotals st = totals(sink);
        addSinkCounts(r.counts, st);
        addSinkSeconds(r.sums, st);
        return r;
    }

  private:
    struct Task
    {
        const suite::Benchmark *bench;
        SchedPoint point;
        bool analyze; ///< check::analyze of a front end, not a schedule
    };

    struct Cell
    {
        verify::Report rep;
        check::WideAnalysis wide;
        check::DiagnosticEngine diag;
        double ms = 0;
    };

    /** One task's layer calls, spanned when @p t is set. */
    static Cell
    runTask(const Task &task, const suite::Workload &w, Tracer *t,
            std::uint64_t unit, pass::PassInstrumentation &sink)
    {
        Cell c;
        if (task.analyze) {
            c.diag = traced(t, "check.analyze", unit, [&] {
                return check::analyze(w.bamModule(), w.ici(), {}, &sink);
            });
            return c;
        }
        const SchedPoint &p = task.point;
        sched::CompactResult cr = traced(t, "sched.compact", unit, [&] {
            return sched::compact(w.ici(), w.profile(), p.mc, p.co, &sink);
        });
        c.rep = traced(t, "verify.check", unit, [&] {
            return verify::checkSchedule(cr.code, w.ici(), p.mc);
        });
        c.wide = traced(t, "check.wide", unit, [&] {
            return check::analyzeWide(cr.code, p.mc, {}, &sink);
        });
        return c;
    }

    static void
    account(const Task &task, const Cell &c, PassResult &r)
    {
        const std::string where =
            task.bench->name + " (" + task.point.mc.name + ")";
        if (task.analyze) {
            if (!c.diag.ok())
                r.fail(where + ": analyzer: " + c.diag.summary());
            return;
        }
        r.unitMs.push_back(c.ms);
        r.counts["verify.schedules"] += 1;
        r.counts["verify.violations"] += c.rep.total;
        r.counts["verify.wides"] += c.rep.wideInstrs;
        if (!c.rep.ok())
            r.fail(where + ": " + std::to_string(c.rep.total) +
                   " verifier violation(s)");
        else if (!c.wide.ok())
            r.fail(where + ": wide analyzer: " + c.wide.diag.summary());
    }

    Options o_;
    std::vector<const suite::Benchmark *> programs_;
    std::vector<suite::WorkloadOptions> fronts_;
    std::vector<Task> tasks_;
    std::size_t schedules_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCheckedSweep(const Options &o)
{
    return std::make_unique<CheckedSweep>(o);
}

} // namespace symbench
