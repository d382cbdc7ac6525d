/**
 * @file
 * symbench: the toolchain benchmark.
 *
 *   symbench --workload NAME --seed N --seconds S --trace 0|1
 *   symbench --selfcheck
 *
 * Prints a human-readable report and, as its last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
 * any output check failed. --selfcheck runs every workload at a small
 * size and checks that every exact count repeats across two runs,
 * across pool widths 1 and min(nproc, 4), and between the traced and
 * the untraced run, and that the counts only traced calls see repeat
 * and agree with the program's own instrumentation.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hh"

namespace
{

using namespace symbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "symbench: %s\nusage: symbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n       symbench --selfcheck\n",
                 why.c_str());
    std::exit(2);
}

unsigned
fullWidth()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Nothing the program reads may come from the caller's environment:
 *  no disk store, no debug checks, no pool-width override. */
void
isolate()
{
    for (const char *v : {"SYMBOL_CACHE_DIR", "SYMBOL_VERIFY",
                          "SYMBOL_ANALYZE", "SYMBOL_JOBS",
                          "SYMBOL_TIME_PASSES", "SYMBOL_DISPATCH"})
        unsetenv(v);
    setenv("SYMBOL_QUIET", "1", 1);
}

std::string
jsonResult(const Outcome &out)
{
    std::string s = "{\"correct\": ";
    s += out.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        // Non-finite values only arise from failed passes, which the
        // result already marks as incorrect; keep the object valid JSON.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}}";
}

/** Compare @p b against the reference counts @p a; a key that only
 *  one side has is a mismatch too. Returns the number of mismatches
 *  and prints them. */
int
compareCounts(const std::string &what, const Counts &a, const Counts &b)
{
    int bad = 0, same = 0;
    auto show = [](const Counts &c, const std::string &k) {
        auto it = c.find(k);
        return it == c.end() ? std::string("missing")
                             : std::to_string(it->second);
    };
    Counts keys = a;
    keys.insert(b.begin(), b.end());
    for (const auto &kv : keys) {
        const std::string &k = kv.first;
        if (a.count(k) && b.count(k) && a.at(k) == b.at(k)) {
            ++same;
            continue;
        }
        std::printf("  MISMATCH %s: %s = %s vs %s\n", what.c_str(),
                    k.c_str(), show(a, k).c_str(), show(b, k).c_str());
        ++bad;
    }
    std::printf("  %-34s %d count(s) equal, %d differ\n", what.c_str(),
                same, bad);
    return bad;
}

/**
 * Identities that tie the counts only the traced calls see to counts
 * the program's own instrumentation records in untraced runs too: the
 * analyzer reads every BAM instruction and every ICI left after the
 * optimizer, and the wide analyzer reads every wide the verifier
 * checked. Each holds wherever all of its keys are present.
 */
int
checkIdentities(const Counts &shared, const Counts &traceOnly)
{
    const std::vector<std::pair<std::vector<std::string>,
                                std::vector<std::string>>>
        identities = {
            {{"bamc.bam_instrs", "intcode.icis"},
             {"check.ir_in", "opt.icis_removed"}},
            {{"verify.wides"}, {"check.wide_ir_in"}},
            {{"verify.schedules"}, {"check.wide_analyses"}},
        };
    Counts all = shared;
    all.insert(traceOnly.begin(), traceOnly.end());
    int bad = 0, held = 0;
    for (const auto &[lhs, rhs] : identities) {
        std::uint64_t l = 0, r = 0;
        bool present = true;
        for (const std::string &k : lhs) {
            present = present && all.count(k);
            l += present ? all.at(k) : 0;
        }
        for (const std::string &k : rhs) {
            present = present && all.count(k);
            r += present ? all.at(k) : 0;
        }
        if (!present)
            continue;
        if (l == r) {
            ++held;
            continue;
        }
        std::printf("  IDENTITY FAILS: %s ... = %llu but %s ... = %llu\n",
                    lhs.front().c_str(), static_cast<unsigned long long>(l),
                    rhs.front().c_str(), static_cast<unsigned long long>(r));
        ++bad;
    }
    std::printf("  %-34s %d hold, %d fail\n", "identities", held, bad);
    return bad;
}

int
selfCheck(const std::string &workDir)
{
    // Counts each workload must report in every mode.
    const std::map<std::string, std::vector<std::string>> required = {
        {"checked-sweep",
         {"sched.ddg_edges", "sched.wides", "verify.violations",
          "verify.schedules", "check.diagnostics",
          "check.wide_diagnostics", "emul.executed_icis"}},
        {"fuzz-window",
         {"sched.ddg_edges", "sched.wides", "vliw.sim_cycles",
          "emul.executed_icis", "fuzz.cases_pass", "check.diagnostics",
          "check.wide_diagnostics", "check.ir_in"}},
        {"service",
         {"server.hits", "server.misses", "service.vliw_cycles",
          "service.instructions"}},
    };
    int bad = 0;
    for (const std::string &name : workloadNames()) {
        Options o;
        o.workload = name;
        o.seed = 7;
        o.small = true;
        o.workDir = workDir;
        std::printf("%s:\n", name.c_str());
        auto run = [&](unsigned jobs, bool trace) {
            o.jobs = jobs;
            o.trace = trace;
            Outcome out = runWorkload(o);
            if (out.failed) {
                std::printf("  FAILED checks: %s\n",
                            out.errors.empty() ? "?"
                                               : out.errors[0].c_str());
                ++bad;
            }
            for (const std::string &k : required.at(name))
                if (!out.counts.count(k)) {
                    std::printf("  MISSING count %s\n", k.c_str());
                    ++bad;
                }
            return out;
        };
        const Counts ref = run(1, false).counts;
        bad += compareCounts("second run, width 1", ref,
                             run(1, false).counts);
        bad += compareCounts("width " + std::to_string(fullWidth()), ref,
                             run(fullWidth(), false).counts);
        const Outcome traced = run(fullWidth(), true);
        bad += compareCounts("traced vs untraced", ref, traced.counts);
        bad += compareCounts("traced-only, second traced run",
                             traced.traceOnly,
                             run(fullWidth(), true).traceOnly);
        bad += checkIdentities(traced.counts, traced.traceOnly);
    }
    std::printf("selfcheck: %s\n", bad ? "FAILED" : "ok");
    return bad ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    isolate();
    Options o;
    o.jobs = fullWidth();
    bool selfcheck = false;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--selfcheck")
                selfcheck = true;
            else if (a == "--workload") {
                o.workload = value();
                haveWorkload = true;
            } else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }

    if (!selfcheck && !haveWorkload)
        usage("--workload is required");
    // Sockets and stores live in a per-process directory inside the
    // working directory (the checkout), removed on exit.
    const std::string workDir =
        ".bench_build/symbench-" + std::to_string(getpid());
    std::filesystem::create_directories(workDir);
    o.workDir = workDir;
    int rc = 0;
    try {
        if (selfcheck) {
            rc = selfCheck(workDir);
        } else {
            Outcome out = runWorkload(o);
            for (const std::string &l : out.lines)
                std::printf("%s\n", l.c_str());
            for (const std::string &e : out.errors)
                std::printf("  check failed: %s\n", e.c_str());
            if (!out.traceJson.empty()) {
                const std::string path = ".bench_build/trace-" +
                                         o.workload + ".json";
                std::ofstream(path) << out.traceJson;
                std::printf("  spans written to %s\n", path.c_str());
            }
            std::printf("%s\n", jsonResult(out).c_str());
            rc = out.failed ? 1 : 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "symbench: %s\n", e.what());
        rc = 1;
    }
    std::filesystem::remove_all(workDir);
    return rc;
}
