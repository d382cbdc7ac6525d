/**
 * @file
 * The run driver: set-up, the untraced and traced phases, and the
 * end-to-end and per-layer metrics computed from them.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

#include "bench.hh"
#include "reference.hh"
#include "support/text.hh"

namespace symbench
{

using symbol::strprintf;

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
thousands(std::uint64_t n)
{
    std::string s = std::to_string(n);
    for (int i = static_cast<int>(s.size()) - 3; i > 0; i -= 3)
        s.insert(static_cast<std::size_t>(i), ",");
    return s;
}

SinkTotals
totals(const symbol::pass::PassInstrumentation &sink)
{
    SinkTotals t;
    for (const symbol::pass::PassStats &p : sink.snapshot()) {
        t.seconds[p.name] += p.wallSeconds;
        t.in[p.name] += p.irIn;
        t.out[p.name] += p.irOut;
        t.calls[p.name] += p.invocations;
    }
    return t;
}

SinkTotals
since(const SinkTotals &after, const SinkTotals &before)
{
    SinkTotals d = after;
    auto sub = [](auto &m, const auto &b) {
        for (auto &[k, v] : m) {
            auto it = b.find(k);
            if (it != b.end())
                v -= it->second;
        }
    };
    sub(d.seconds, before.seconds);
    sub(d.in, before.in);
    sub(d.out, before.out);
    sub(d.calls, before.calls);
    return d;
}

void
addSinkCounts(Counts &c, const SinkTotals &t)
{
    auto put = [&](const char *metric,
                   const std::map<std::string, std::uint64_t> &m,
                   const char *pass) {
        auto it = m.find(pass);
        if (it != m.end())
            c[metric] += it->second;
    };
    put("prolog.source_bytes", t.in, "parse");
    put("bamc.bam_instrs", t.out, "bam-compile");
    put("intcode.icis", t.out, "intcode");
    put("intcode.blocks", t.out, "cfg");
    put("emul.executed_icis", t.out, "profile");
    put("sched.ops", t.in, "sched.ddg");
    put("sched.ddg_edges", t.out, "sched.ddg");
    put("sched.wides", t.out, "sched.emit");
    put("vliw.simulations", t.calls, "simulate");
    put("check.analyses", t.calls, "check-structural");
    put("check.ir_in", t.in, "check-structural");
    put("check.wide_analyses", t.calls, "wide-flowgraph");
    put("check.wide_ir_in", t.in, "wide-flowgraph");
    for (const auto &[name, in] : t.in)
        if (name.rfind("opt-", 0) == 0)
            c["opt.icis_removed"] += in - t.out.at(name);
    // An analyzer pass records the diagnostics found so far as its
    // output, so the pass with the most, summed over calls, is each
    // call's last: its total is every diagnostic found.
    auto mostOut = [&](const char *metric,
                       std::initializer_list<const char *> passes) {
        std::uint64_t most = 0;
        bool any = false;
        for (const char *p : passes) {
            auto it = t.out.find(p);
            if (it != t.out.end()) {
                most = std::max(most, it->second);
                any = true;
            }
        }
        if (any)
            c[metric] += most;
    };
    mostOut("check.diagnostics",
            {"check-structural", "check-definit", "check-tags",
             "check-balance", "check-deadcode"});
    mostOut("check.wide_diagnostics",
            {"wide-flowgraph", "wide-definit", "wide-liveness",
             "wide-pressure"});
}

void
addSinkSeconds(std::map<std::string, double> &sums, const SinkTotals &t)
{
    for (const auto &[name, s] : t.seconds)
        sums["sink." + name] += s;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "checked-sweep", "fuzz-window", "service"};
    return names;
}

namespace
{

/** Passes of one phase, with its wall and process cpu time. */
struct Phase
{
    std::vector<PassResult> passes;
    double wall = 0;
    double cpu = 0;
    /** CPU seconds of the reference loop, one round after each pass. */
    std::vector<double> reference;

    double
    throughput() const
    {
        std::vector<double> v;
        for (const PassResult &p : passes)
            v.push_back(p.units / p.cpu);
        return median(v);
    }
    double
    medianWall() const
    {
        std::vector<double> v;
        for (const PassResult &p : passes)
            v.push_back(p.wall);
        return median(v);
    }
};

/** Run passes until @p budget seconds have gone (at least one), each
 *  followed by a round of @p ref when given. */
Phase
runPhase(Workload &w, unsigned jobs, Tracer *t, double budget,
         bool small, Reference *ref = nullptr)
{
    Phase ph;
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = processCpuSeconds();
    for (std::uint64_t i = 0;; ++i) {
        ph.passes.push_back(w.pass(jobs, t, i));
        if (ref)
            ph.reference.push_back(ref->round());
        if (small || secondsSince(t0) >= budget)
            break;
    }
    ph.wall = secondsSince(t0);
    ph.cpu = processCpuSeconds() - cpu0;
    return ph;
}

void
collect(Outcome &out, const Phase &ph)
{
    for (const PassResult &p : ph.passes) {
        out.attempted += p.attempted;
        out.failed += p.failed;
        for (const std::string &e : p.errors)
            if (out.errors.size() < 8)
                out.errors.push_back(e);
    }
}

void
endToEnd(const Options &o, Workload &w, Outcome &out)
{
    const int setups = o.small ? 1 : w.setups();
    Reference ref(w.busyThreads(o.jobs));
    std::vector<double> setup;
    for (int i = 0; i < setups; ++i)
        setup.push_back(w.setup());
    Phase ph = runPhase(w, o.jobs, nullptr, o.seconds, o.small, &ref);
    collect(out, ph);
    out.counts = ph.passes.front().counts;

    std::vector<double> unitMs;
    double units = 0;
    for (const PassResult &p : ph.passes) {
        units += p.units;
        if (p.unitMs.empty())
            unitMs.push_back(p.wall * 1e3);
        unitMs.insert(unitMs.end(), p.unitMs.begin(), p.unitMs.end());
    }
    // CPU times at the reference speed: scaled by the reference loop's
    // time on the machine of baseline.json over its time in this run.
    const double refS = median(ph.reference);
    const double scale = kReferenceSeconds / refS;
    const double tput = ph.throughput();
    const double p50 = median(unitMs);
    const double tail = percentile(unitMs, w.tailPct());
    const double rss = peakRssMb();
    const double setupS = median(setup);
    out.metrics = {{"setup_s", setupS * scale, "s"},
                   {"throughput_per_s", tput / scale, "1/s"},
                   {"unit_p50_ms", p50 * scale, "ms"},
                   {"unit_tail_ms", tail * scale, "ms"},
                   {"peak_rss_mb", rss, "MiB"}};

    const std::string unit = w.unitName();
    out.lines.push_back(strprintf(
        "workload %s: seed %llu, pool width %u, %zu pass(es) in %.2f s, "
        "%s units of work",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        o.jobs, ph.passes.size(), ph.wall,
        thousands(static_cast<std::uint64_t>(units)).c_str()));
    out.lines.push_back(strprintf(
        "  reference loop     = %.6f s CPU (median of %zu rounds on %u "
        "thread(s)); times below are CPU times x %.4f (unscaled in "
        "brackets)",
        refS, ph.reference.size(), w.busyThreads(o.jobs), scale));
    out.lines.push_back(strprintf(
        "  setup_s            = %.6f s [%.6f] (median of %d set-ups)",
        setupS * scale, setupS, setups));
    out.lines.push_back(strprintf(
        "  %-18s = %.4f 1/s [%.4f] (throughput_per_s; per CPU-second, "
        "median of %zu passes)",
        w.throughputName(), tput / scale, tput, ph.passes.size()));
    out.lines.push_back(strprintf(
        "  %-18s = %.4f ms [%.4f] (unit_p50_ms; over %zu %s samples)",
        (unit + "_p50_ms").c_str(), p50 * scale, p50, unitMs.size(),
        unit.c_str()));
    out.lines.push_back(strprintf(
        "  %-18s = %.4f ms [%.4f] (unit_tail_ms; %.0f samples beyond it)",
        strprintf("%s_p%g_ms", unit.c_str(), w.tailPct()).c_str(),
        tail * scale, tail,
        static_cast<double>(unitMs.size()) * (100 - w.tailPct()) /
            100));
    out.lines.push_back(strprintf("  %-18s = %.2f MiB", "peak_rss_mb",
                                  rss));
    out.lines.push_back(strprintf(
        "  %-18s = %.6f (%llu failed of %llu attempted)", "error_rate",
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 0.0,
        static_cast<unsigned long long>(out.failed),
        static_cast<unsigned long long>(out.attempted)));
}

/** One per-layer metric: its name and unit. */
struct LayerRow
{
    const char *name;
    const char *unit;
};

const std::vector<LayerRow> &
layerRows()
{
    static const std::vector<LayerRow> rows = {
        {"prolog.parse_s", "s"},
        {"prolog.source_bytes", "B"},
        {"bamc.compile_s", "s"},
        {"bamc.bam_instrs", "count"},
        {"intcode.translate_s", "s"},
        {"intcode.cfg_s", "s"},
        {"intcode.icis", "count"},
        {"intcode.blocks", "count"},
        {"opt.optimize_s", "s"},
        {"opt.icis_removed", "count"},
        {"emul.profile_s", "s"},
        {"emul.executed_icis", "count"},
        {"emul.ns_per_ici", "ns"},
        {"sched.traces_s", "s"},
        {"sched.ddg_s", "s"},
        {"sched.schedule_s", "s"},
        {"sched.emit_s", "s"},
        {"sched.ddg_edges", "count"},
        {"sched.ops", "count"},
        {"sched.wides", "count"},
        {"sched.ns_per_ddg_edge", "ns"},
        {"vliw.simulate_s", "s"},
        {"vliw.sim_cycles", "count"},
        {"vliw.wides_executed", "count"},
        {"vliw.ops_executed", "count"},
        {"vliw.ns_per_sim_cycle", "ns"},
        {"vliw.configs_per_simulation", "ratio"},
        {"verify.check_s", "s"},
        {"verify.schedules", "count"},
        {"verify.violations", "count"},
        {"verify.ns_per_wide", "ns"},
        {"check.analyze_s", "s"},
        {"check.wide_definit_s", "s"},
        {"check.wide_liveness_s", "s"},
        {"check.wide_pressure_s", "s"},
        {"check.diagnostics", "count"},
        {"check.wide_diagnostics", "count"},
        {"suite.workloads_built", "count"},
        {"suite.cache_hits", "count"},
        {"suite.driver_busy_frac", "ratio"},
        {"suite.straggler_frac", "ratio"},
        {"fuzz.generate_s", "s"},
        {"fuzz.oracle_s", "s"},
        {"fuzz.cases_pass", "count"},
        {"fuzz.configs_per_case", "ratio"},
        {"store.load_s", "s"},
        {"store.save_s", "s"},
        {"store.bytes_read", "B"},
        {"store.rebuilds", "count"},
        {"server.hit_p50_ms", "ms"},
        {"server.miss_p50_ms", "ms"},
        {"server.resp_memory_hits", "count"},
        {"server.resp_disk_hits", "count"},
        {"server.misses", "count"},
        {"server.overloaded", "count"},
    };
    return rows;
}

void
perLayer(const Options &o, Workload &w, Outcome &out)
{
    const double third = o.seconds / 3;
    // Phase A: untraced, full width — driver utilisation.
    w.setup();
    Phase wide = runPhase(w, o.jobs, nullptr, third, o.small);
    // Phase B: untraced, width 1 — the overhead baseline.
    w.setup();
    Phase base = runPhase(w, 1, nullptr, third, o.small);
    // Phase C: traced, width 1.
    w.setup();
    Tracer tracer;
    const double c0 = tracer.now();
    Phase tr = runPhase(w, 1, &tracer, third, o.small);
    const double c1 = tracer.now();
    for (const Phase *ph : {&wide, &base, &tr})
        collect(out, *ph);
    out.counts = tr.passes.front().counts;
    out.traceOnly = tr.passes.front().traceOnly;

    const double passes = static_cast<double>(tr.passes.size());
    Counts counts;
    std::map<std::string, double> sums;
    for (const PassResult &p : tr.passes) {
        for (const Counts *c : {&p.counts, &p.traceOnly})
            for (const auto &[k, v] : *c)
                counts[k] += v;
        for (const auto &[k, v] : p.sums)
            sums[k] += v;
    }
    auto count = [&](const std::string &k) {
        auto it = counts.find(k);
        return it == counts.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto sum = [&](const std::string &k) {
        auto it = sums.find(k);
        return it == sums.end() ? 0.0 : it->second;
    };
    auto perNs = [](double seconds, double n) {
        return n > 0 ? seconds * 1e9 / n : 0.0;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::map<std::string, double> v;
    std::map<std::string, std::string> bases; // "over N edges"
    // Layer time: the benchmark's spans around its calls; where the
    // calls happen inside the program (the server's pipeline), the
    // program's own pass instrumentation of the same stages.
    std::map<std::string, double> layerTime;
    auto span = [&](const char *metric, const char *name,
                    std::vector<const char *> passNames) {
        double s = tracer.total(name);
        if (s == 0)
            for (const char *p : passNames)
                s += sum(std::string("sink.") + p);
        layerTime[name] = s;
        v[metric] = s / passes;
    };
    span("prolog.parse_s", "prolog.parse", {"parse"});
    span("bamc.compile_s", "bamc.compile", {"normalize", "bam-compile"});
    span("intcode.translate_s", "intcode.translate", {"intcode"});
    span("intcode.cfg_s", "intcode.cfg", {"cfg"});
    span("opt.optimize_s", "opt.optimize",
         {"opt-tagelim", "opt-cleanup", "opt-lvn", "opt-dce"});
    span("emul.profile_s", "emul.profile", {"profile"});
    span("vliw.simulate_s", "vliw.simulate", {"simulate"});
    span("verify.check_s", "verify.check", {"verify"});
    span("check.analyze_s", "check.analyze", {});
    span("fuzz.generate_s", "fuzz.generate", {});
    span("fuzz.oracle_s", "fuzz.oracle", {});
    v["sched.traces_s"] = sum("sink.sched.traces") / passes;
    v["sched.ddg_s"] = sum("sink.sched.ddg") / passes;
    v["sched.schedule_s"] = sum("sink.sched.schedule") / passes;
    v["sched.emit_s"] = sum("sink.sched.emit") / passes;
    v["check.wide_definit_s"] = sum("sink.wide-definit") / passes;
    v["check.wide_liveness_s"] = sum("sink.wide-liveness") / passes;
    v["check.wide_pressure_s"] = sum("sink.wide-pressure") / passes;
    for (const char *k :
         {"prolog.source_bytes", "bamc.bam_instrs", "intcode.icis",
          "intcode.blocks", "opt.icis_removed", "emul.executed_icis",
          "sched.ddg_edges", "sched.ops", "sched.wides",
          "vliw.sim_cycles", "vliw.wides_executed", "vliw.ops_executed",
          "verify.schedules", "verify.violations", "check.diagnostics",
          "check.wide_diagnostics", "fuzz.cases_pass", "server.misses",
          "server.overloaded"})
        v[k] = count(k) / passes;
    for (const char *k :
         {"store.load_s", "store.save_s", "store.bytes_read",
          "store.rebuilds", "server.hit_p50_ms", "server.miss_p50_ms",
          "server.resp_memory_hits", "server.resp_disk_hits"})
        v[k] = sum(k) / passes;

    v["emul.ns_per_ici"] = perNs(layerTime["emul.profile"],
                                 count("emul.executed_icis"));
    bases["emul.ns_per_ici"] = "over " +
        thousands(static_cast<std::uint64_t>(count("emul.executed_icis"))) +
        " profiled ICIs";
    v["sched.ns_per_ddg_edge"] =
        perNs(sum("sink.sched.ddg"), count("sched.ddg_edges"));
    bases["sched.ns_per_ddg_edge"] = "over " +
        thousands(static_cast<std::uint64_t>(count("sched.ddg_edges"))) +
        " edges";
    v["vliw.ns_per_sim_cycle"] = perNs(layerTime["vliw.simulate"],
                                       count("vliw.sim_cycles"));
    bases["vliw.ns_per_sim_cycle"] = "over " +
        thousands(static_cast<std::uint64_t>(count("vliw.sim_cycles"))) +
        " simulated cycles";
    v["vliw.configs_per_simulation"] =
        ratio(count("vliw.configs"), count("vliw.simulations"));
    bases["vliw.configs_per_simulation"] =
        thousands(static_cast<std::uint64_t>(count("vliw.configs"))) +
        " configs over " +
        thousands(static_cast<std::uint64_t>(count("vliw.simulations"))) +
        " simulations";
    v["verify.ns_per_wide"] =
        perNs(layerTime["verify.check"], count("verify.wides"));
    bases["verify.ns_per_wide"] = "over " +
        thousands(static_cast<std::uint64_t>(count("verify.wides"))) +
        " verified wides";
    v["fuzz.configs_per_case"] =
        ratio(count("fuzz.configs"), count("fuzz.cases"));
    bases["fuzz.configs_per_case"] =
        thousands(static_cast<std::uint64_t>(count("fuzz.configs"))) +
        " configs over " +
        thousands(static_cast<std::uint64_t>(count("fuzz.cases"))) +
        " cases";

    // Driver cache traffic and utilisation from the full-width phase:
    // cpu over (wall x width), and the longest single unit of work
    // (traced, uncontended) over the full-width pass wall.
    for (const char *k : {"suite.workloads_built", "suite.cache_hits"}) {
        double n = 0;
        for (const PassResult &p : wide.passes)
            n += p.sums.count(k) ? p.sums.at(k) : 0;
        v[k] = n / static_cast<double>(wide.passes.size());
    }
    v["suite.driver_busy_frac"] =
        ratio(wide.cpu, wide.wall * static_cast<double>(o.jobs));
    bases["suite.driver_busy_frac"] = strprintf(
        "%.3f cpu-s over %.3f s x %u workers", wide.cpu, wide.wall,
        o.jobs);
    v["suite.straggler_frac"] =
        ratio(tracer.longestUnit(), wide.medianWall());
    bases["suite.straggler_frac"] = strprintf(
        "longest unit %.4f s over a %.4f s pass at width %u",
        tracer.longestUnit(), wide.medianWall(), o.jobs);

    for (const LayerRow &r : layerRows()) {
        out.metrics.push_back({r.name, v[r.name], r.unit});
        auto b = bases.find(r.name);
        out.lines.push_back(strprintf(
            "  %-28s = %.6g %s%s", r.name, v[r.name], r.unit,
            b == bases.end() ? "" : (" (" + b->second + ")").c_str()));
    }

    // Self times per layer, the wall no layer span covers, and the
    // cost of tracing (width-1 throughput, traced vs untraced).
    const double wall = c1 - c0;
    std::vector<std::string> head;
    head.push_back(strprintf(
        "workload %s: seed %llu, traced %zu pass(es) at width 1 in "
        "%.3f s; per-layer values are per pass",
        o.workload.c_str(), static_cast<unsigned long long>(o.seed),
        tr.passes.size(), wall));
    head.push_back("  self time by layer (span minus child spans):");
    double attributed = 0;
    for (const auto &[layer, s] : tracer.selfByLayer()) {
        attributed += s;
        head.push_back(strprintf("    %-10s %10.4f s  %5.1f%%",
                                 layer.c_str(), s,
                                 wall > 0 ? 100 * s / wall : 0.0));
    }
    const double un = tracer.uncovered(c0, c1);
    head.push_back(strprintf("    %-10s %10.4f s  %5.1f%%",
                             "unattributed", un,
                             wall > 0 ? 100 * un / wall : 0.0));
    const double tb = base.throughput(), tt = tr.throughput();
    head.push_back(strprintf(
        "  tracing overhead: %.4f vs %.4f %s/s untraced at width 1 "
        "(%+.1f%%)",
        tt, tb, w.unitName(), tb > 0 ? 100 * (tt - tb) / tb : 0.0));
    out.lines.insert(out.lines.begin(), head.begin(), head.end());
    out.traceJson = tracer.json();
}

} // namespace

Outcome
runWorkload(const Options &o)
{
    std::unique_ptr<Workload> w;
    if (o.workload == "checked-sweep")
        w = makeCheckedSweep(o);
    else if (o.workload == "fuzz-window")
        w = makeFuzzWindow(o);
    else if (o.workload == "service")
        w = makeService(o);
    else
        throw std::invalid_argument("unknown workload '" + o.workload +
                                    "'");
    Outcome out;
    try {
        if (o.trace)
            perLayer(o, *w, out);
        else
            endToEnd(o, *w, out);
    } catch (...) {
        w->teardown();
        throw;
    }
    w->teardown();
    return out;
}

} // namespace symbench
