/**
 * @file
 * fuzz-window: a seeded window of generated programs, each judged by
 * the full differential oracle (4 front configs; analyzer, verifier,
 * wide analyzer and simulation per config).
 *
 * Untraced passes run the window the way fuzz::runCampaign does (case
 * seeds from fuzz::caseSeed, generate + render + fuzz::runOracle per
 * case on a thread pool) but time each case. Traced passes make the
 * oracle's layer calls themselves, one span each, inside a fuzz.oracle
 * span per case.
 */
#include <numeric>

#include "bench.hh"
#include "check/check.hh"
#include "check/wide.hh"
#include "fuzz/campaign.hh"
#include "prolog/parser.hh"
#include "sched/compact.hh"
#include "support/diagnostics.hh"
#include "support/threadpool.hh"
#include "verify/verify.hh"

namespace symbench
{

using namespace symbol;

namespace
{

/** Window of the set-up's warm-up wave: fixed, so set-up time does
 *  not depend on the seed. */
constexpr std::uint64_t kWarmupSeed = 0x5e7u;

struct CaseResult
{
    bool pass = false;
    std::string verdict;
    std::uint64_t configs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t vliwCycles = 0;
    double ms = 0;
    /** Counts only the traced calls see (runOracle keeps none). */
    Counts traceOnly;
};

CaseResult
fromVerdict(const fuzz::Verdict &v)
{
    CaseResult c;
    c.pass = v.pass();
    c.verdict = v.str();
    c.configs = v.reports.size();
    for (const fuzz::ConfigReport &r : v.reports) {
        c.instructions += r.instructions;
        c.vliwCycles += r.vliwCycles;
    }
    return c;
}

/**
 * fuzz::runOracle's layer calls, one span each, with the same
 * per-config work and checks as the oracle; the verdict is "pass" or
 * why not. The analyzers and the scheduler record into @p sink, as
 * the oracle's calls record into the process-wide sink, and the
 * self-check holds the two to the same counts.
 */
CaseResult
tracedOracle(const std::string &source, Tracer &t, std::uint64_t unit,
             pass::PassInstrumentation &sink)
{
    const fuzz::OracleOptions opts;
    const machine::MachineConfig &mc = opts.machine;
    CaseResult c;
    std::vector<std::string> texts;
    bool allOk = true;
    auto fail = [&](const std::string &config, const std::string &why) {
        c.verdict = why + " [" + config + "]";
        return c;
    };
    for (const fuzz::FrontConfig &fc : fuzz::defaultConfigs()) {
        try {
            Interner interner;
            prolog::Program pp = traced(&t, "prolog.parse", unit, [&] {
                return prolog::parseProgram(source, interner);
            });
            bam::Module mod = traced(&t, "bamc.compile", unit, [&] {
                return bamc::compile(pp, fc.compiler);
            });
            intcode::Program ici = traced(&t, "intcode.translate", unit,
                                          [&] {
                return intcode::translate(mod, fc.translate);
            });
            const std::uint64_t icis = ici.code.size();
            if (fc.opt.enabled())
                traced(&t, "opt.optimize", unit,
                       [&] { return opt::optimize(ici, fc.opt); });
            c.traceOnly["prolog.source_bytes"] += source.size();
            c.traceOnly["bamc.bam_instrs"] += mod.code.size();
            c.traceOnly["intcode.icis"] += icis;
            c.traceOnly["opt.icis_removed"] += icis - ici.code.size();
            check::DiagnosticEngine diag = traced(
                &t, "check.analyze", unit,
                [&] { return check::analyze(mod, ici, {}, &sink); });
            if (!diag.ok())
                return fail(fc.name, "invariant-violation: analyzer");

            emul::RunResult sr = traced(&t, "emul.profile", unit, [&] {
                emul::Machine seq(ici);
                emul::RunOptions ro;
                ro.trapErrors = true;
                ro.maxSteps = opts.maxSteps;
                return seq.run(ro);
            });
            ++c.configs;
            c.instructions += sr.instructions;
            const std::uint64_t expectSum =
                std::accumulate(sr.profile.expect.begin(),
                                sr.profile.expect.end(), std::uint64_t{0});
            if (expectSum != sr.instructions ||
                sr.seqCycles < sr.instructions)
                return fail(fc.name, "invariant-violation: profile");

            sched::CompactResult cr = traced(&t, "sched.compact", unit, [&] {
                return sched::compact(ici, sr.profile, mc, {}, &sink);
            });
            verify::Report vr = traced(&t, "verify.check", unit, [&] {
                return verify::checkSchedule(cr.code, ici, mc);
            });
            c.traceOnly["verify.schedules"] += 1;
            c.traceOnly["verify.violations"] += vr.total;
            c.traceOnly["verify.wides"] += vr.wideInstrs;
            if (!vr.ok())
                return fail(fc.name, "verify-violation");
            check::WideAnalysis wa = traced(&t, "check.wide", unit, [&] {
                return check::analyzeWide(cr.code, mc, {}, &sink);
            });
            if (!wa.ok())
                return fail(fc.name, "invariant-violation: wide analyzer");

            texts.push_back(emul::decodeOutputStream(sr.output, &interner));
            if (sr.status != emul::RunStatus::Ok) {
                allOk = false;
                continue;
            }
            vliw::SimResult mr = traced(&t, "vliw.simulate", unit, [&] {
                vliw::Machine vm(cr.code, mc);
                vliw::SimOptions so;
                so.trapErrors = true;
                so.maxCycles = opts.maxCycles;
                return vm.run(so);
            });
            c.vliwCycles += mr.cycles;
            c.traceOnly["vliw.wides_executed"] += mr.wideExecuted;
            c.traceOnly["vliw.ops_executed"] += mr.opsExecuted;
            c.traceOnly["vliw.simulations"] += 1;
            c.traceOnly["vliw.configs"] += 1;
            if (mr.latencyViolations != 0 || mr.badUnitOps != 0)
                return fail(fc.name, "invariant-violation: simulator");
            if (mr.status != vliw::SimStatus::Ok)
                return fail(fc.name, "status-mismatch");
            if (mr.output != sr.output)
                return fail(fc.name, "output-mismatch");
        } catch (const CompileError &e) {
            return fail(fc.name, std::string("compile-reject: ") + e.what());
        } catch (const std::exception &e) {
            return fail(fc.name, std::string("crash: ") + e.what());
        }
    }
    if (allOk)
        for (const std::string &s : texts)
            if (s != texts.front())
                return fail("", "cross-config-mismatch");
    c.pass = true;
    c.verdict = "pass";
    return c;
}

class FuzzWindow final : public Workload
{
  public:
    explicit FuzzWindow(const Options &o)
        : o_(o), perPass_(o.small ? 4 : 8 * o.jobs)
    {
    }

    const char *unitName() const override { return "case"; }
    double tailPct() const override { return 90; }
    int setups() const override { return 5; }
    const char *throughputName() const override
    {
        return "fuzz_cases_per_s";
    }

    /** A pool plus a warm-up wave of the oracle, two cases per
     *  worker. */
    double
    setup() override
    {
        const double cpu0 = processCpuSeconds();
        support::ThreadPool pool(o_.jobs);
        std::vector<support::ThreadPool::Future<bool>> fs;
        for (unsigned i = 0; i < 2 * o_.jobs; ++i)
            fs.push_back(pool.submit([i] {
                std::uint64_t s =
                    fuzz::caseSeed(kWarmupSeed, static_cast<int>(i));
                return fuzz::runOracle(
                           fuzz::renderProgram(fuzz::generate(s)))
                    .pass();
            }));
        for (auto &f : fs)
            f.get();
        return processCpuSeconds() - cpu0;
    }

    PassResult
    pass(unsigned jobs, Tracer *t, std::uint64_t index) override
    {
        PassResult r;
        r.units = static_cast<double>(perPass_);
        r.attempted = perPass_;
        std::vector<std::uint64_t> seeds;
        for (unsigned i = 0; i < perPass_; ++i)
            seeds.push_back(fuzz::caseSeed(
                o_.seed, static_cast<int>(index * perPass_ + i)));

        std::vector<CaseResult> cases;
        pass::PassInstrumentation sink;
        const SinkTotals before = totals(pass::PassInstrumentation::global());
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = processCpuSeconds();
        if (t) {
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                const std::uint64_t unit = index * 1'000'000 + i;
                const double c0 = threadCpuSeconds();
                std::string src = traced(t, "fuzz.generate", unit, [&] {
                    return fuzz::renderProgram(fuzz::generate(seeds[i]));
                });
                CaseResult c = traced(t, "fuzz.oracle", unit, [&] {
                    return tracedOracle(src, *t, unit, sink);
                });
                c.ms = (threadCpuSeconds() - c0) * 1e3;
                cases.push_back(std::move(c));
            }
        } else {
            support::ThreadPool pool(jobs);
            std::vector<support::ThreadPool::Future<CaseResult>> fs;
            for (std::uint64_t s : seeds)
                fs.push_back(pool.submit([s] {
                    const double c0 = threadCpuSeconds();
                    CaseResult c = fromVerdict(fuzz::runOracle(
                        fuzz::renderProgram(fuzz::generate(s))));
                    c.ms = (threadCpuSeconds() - c0) * 1e3;
                    return c;
                }));
            for (auto &f : fs)
                cases.push_back(f.get());
        }
        r.wall = secondsSince(t0);
        r.cpu = processCpuSeconds() - cpu0;

        for (std::size_t i = 0; i < cases.size(); ++i) {
            const CaseResult &c = cases[i];
            r.unitMs.push_back(c.ms);
            r.counts["fuzz.cases"] += 1;
            r.counts["fuzz.cases_pass"] += c.pass ? 1 : 0;
            r.counts["fuzz.configs"] += c.configs;
            r.counts["emul.executed_icis"] += c.instructions;
            r.counts["vliw.sim_cycles"] += c.vliwCycles;
            for (const auto &[k, v] : c.traceOnly)
                r.traceOnly[k] += v;
            if (!c.pass)
                r.fail("case seed " + std::to_string(seeds[i]) + ": " +
                       c.verdict);
        }
        // The oracle records into the process-wide sink, the traced
        // calls into the local one.
        SinkTotals st;
        if (t) {
            st = totals(sink);
            addSinkSeconds(r.sums, st);
        } else {
            st = since(totals(pass::PassInstrumentation::global()), before);
        }
        addSinkCounts(r.counts, st);
        return r;
    }

  private:
    Options o_;
    unsigned perPass_;
};

} // namespace

std::unique_ptr<Workload>
makeFuzzWindow(const Options &o)
{
    return std::make_unique<FuzzWindow>(o);
}

} // namespace symbench
