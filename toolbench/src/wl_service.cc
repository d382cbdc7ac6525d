/**
 * @file
 * service: an in-process server::Server on a socket and artefact store
 * in the benchmark's scratch directory (pool width 2 at full width, 1
 * at width 1), driven in a closed loop by one server::Client
 * connection. With one request in flight at a time, the process CPU
 * time a request takes is the client's and the server's work for it
 * alone; that is its measured cost. The process keeps to one CPU
 * while the workload lives, so that a request's cost does not depend
 * on which other CPUs other programs leave idle (a wake-up on an idle
 * CPU costs about as much as a hit itself).
 *
 * The request mix is synthetic. Set-up populates a fresh store with
 * every suite key (program x units x mode) and restarts the server.
 * Each pass restarts the server
 * on that store, so the first request for a key is answered from the
 * store's `rs-` blobs and later ones from memory. A fixed share of the
 * seeded request stream is freshly generated fuzz programs, which miss
 * every cache; their expected answer comes from an in-process
 * sequential run.
 */
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <optional>

#include "fuzz/campaign.hh"
#include "fuzz/rng.hh"
#include "bench.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "suite/benchmarks.hh"
#include "suite/pipeline.hh"
#include "support/diagnostics.hh"

namespace symbench
{

using namespace symbol;

namespace
{

/**
 * Share of requests that are fresh programs, in percent. The mix is
 * synthetic (no record of real symbold traffic exists): above 1%, so
 * that the p99 request is a miss while the p50 request is a hit, and
 * 48 misses per 1,200-request pass, so that the miss tail is sampled
 * in every pass.
 */
constexpr std::uint64_t kMissPercent = 4;

/** The answer of @p source's sequential run under the server's
 *  default front end, or nullopt when the run traps or does not halt
 *  (the server answers such a program with an error). */
std::optional<std::string>
sequentialAnswer(const std::string &source)
{
    const suite::WorkloadOptions wo;
    Interner interner;
    prolog::Program pp = prolog::parseProgram(source, interner);
    bam::Module mod = bamc::compile(pp, wo.compiler);
    intcode::Program ici = intcode::translate(mod, wo.translate);
    emul::Machine m(ici);
    emul::RunOptions ro;
    ro.maxSteps = wo.maxSteps;
    try {
        if (!m.run(ro).halted)
            return std::nullopt;
    } catch (const RuntimeError &) {
        return std::nullopt;
    }
    return m.decodeOutput();
}

/** Keeps the calling thread, and the threads it starts, on the CPU
 *  it runs on, until destroyed. */
class OneCpu
{
  public:
    OneCpu()
    {
        const int cpu = sched_getcpu();
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0 || cpu < 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~OneCpu()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }
    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

struct Request
{
    server::CompileRequest req;
    std::string expected;
    bool miss = false;
};

class Service final : public Workload
{
  public:
    explicit Service(const Options &o)
        : o_(o), perPass_(o.small ? 50 : 1200)
    {
        for (const suite::Benchmark &b : suite::aquarius())
            for (const char *mode : {"trace", "bb", "seq"})
                for (std::uint32_t units : {1u, 3u}) {
                    Request r;
                    r.req.name = b.name;
                    r.req.mode = mode;
                    r.req.units = units;
                    r.expected = b.expected;
                    keys_.push_back(std::move(r));
                    if (std::string(mode) == "seq")
                        break; // units do not shape a seq answer
                }
    }

    const char *unitName() const override { return "request"; }
    double tailPct() const override { return 99; }
    const char *throughputName() const override
    {
        return "requests_per_s";
    }
    int setups() const override { return 3; }
    /** One request in flight: one thread busy at a time. */
    unsigned busyThreads(unsigned) const override { return 1; }

    /** Fresh store, populate every key, restart the server. */
    double
    setup() override
    {
        teardown();
        if (!store_.empty())
            std::filesystem::remove_all(store_);
        const double cpu0 = processCpuSeconds();
        store_ = o_.workDir + "/store-" + std::to_string(generation_++);
        std::filesystem::remove_all(store_);
        start(o_.jobs);
        {
            server::Client c(socket_);
            for (const Request &k : keys_) {
                server::CompileResponse resp = c.compile(k.req);
                if (resp.answer != k.expected)
                    throw std::runtime_error("service set-up: " +
                                             k.req.name +
                                             " answered wrongly");
            }
        }
        start(o_.jobs);
        fresh_ = true;
        return processCpuSeconds() - cpu0;
    }

    void
    teardown() override
    {
        server_.reset();
    }

    PassResult
    pass(unsigned jobs, Tracer *t, std::uint64_t index) override
    {
        if (!fresh_ || jobs != jobs_)
            start(jobs);
        fresh_ = false;
        const std::vector<Request> stream = requests(index);

        PassResult r;
        r.units = static_cast<double>(stream.size());
        r.attempted = stream.size();
        std::vector<double> ms(stream.size());
        std::vector<server::CompileResponse> resp(stream.size());
        std::vector<std::string> error(stream.size());

        const SinkTotals before = totals(pass::PassInstrumentation::global());
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = processCpuSeconds();
        {
            server::Client conn(socket_);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                const double r0 = processCpuSeconds();
                try {
                    Span s(t, "server.compile", index * 1'000'000 + i);
                    resp[i] = conn.compile(stream[i].req);
                } catch (const std::exception &e) {
                    error[i] = e.what();
                }
                ms[i] = (processCpuSeconds() - r0) * 1e3;
            }
        }
        r.wall = secondsSince(t0);
        r.cpu = processCpuSeconds() - cpu0;
        // The server's pipeline records into the process-wide sink:
        // the layer work its misses did.
        const SinkTotals st =
            since(totals(pass::PassInstrumentation::global()), before);
        addSinkCounts(r.counts, st);
        addSinkSeconds(r.sums, st);

        std::vector<double> hitMs, missMs;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const Request &q = stream[i];
            r.unitMs.push_back(ms[i]);
            (q.miss ? missMs : hitMs).push_back(ms[i]);
            r.counts["service.requests"] += 1;
            if (!error[i].empty()) {
                r.fail(q.req.name + ": " + error[i]);
                continue;
            }
            if (resp[i].answer != q.expected)
                r.fail(q.req.name + " (" + q.req.mode +
                       "): answer differs from the expected one");
            r.counts["service.instructions"] += resp[i].instructions;
            r.counts["service.vliw_cycles"] += resp[i].vliwCycles;
            if (q.miss) // simulated by the server for this request
                r.counts["vliw.sim_cycles"] += resp[i].vliwCycles;
        }

        const server::ServerCounters sc = server_->counters();
        const suite::DriverStats ds = server_->driver().stats();
        const std::uint64_t hits = sc.respMemoryHits + sc.respDiskHits;
        r.counts["server.hits"] += hits;
        r.counts["server.misses"] += sc.requests - hits;
        r.counts["server.overloaded"] += sc.overloadRejected;
        r.sums["server.resp_memory_hits"] +=
            static_cast<double>(sc.respMemoryHits);
        r.sums["server.resp_disk_hits"] +=
            static_cast<double>(sc.respDiskHits);
        r.sums["server.hit_p50_ms"] += median(hitMs);
        r.sums["server.miss_p50_ms"] += median(missMs);
        r.sums["suite.workloads_built"] +=
            static_cast<double>(ds.workloadsBuilt);
        r.sums["suite.cache_hits"] += static_cast<double>(ds.cacheHits);
        r.sums["store.load_s"] += ds.store.deserializeSeconds;
        r.sums["store.save_s"] += ds.store.serializeSeconds;
        r.sums["store.bytes_read"] +=
            static_cast<double>(ds.store.bytesRead);
        r.sums["store.rebuilds"] += static_cast<double>(ds.workloadsBuilt);
        return r;
    }

  private:
    /** (Re)start the server on the current store at pool width
     *  half of @p jobs (at least 1); the client takes the rest. */
    void
    start(unsigned jobs)
    {
        server_.reset();
        server::ServerOptions so;
        socket_ = o_.workDir + "/svc.sock";
        so.socketPath = socket_;
        so.cacheDir = store_;
        so.jobs = jobs >= 2 ? jobs / 2 : 1;
        so.quiet = true;
        server_ = std::make_unique<server::Server>(so);
        server_->start();
        jobs_ = jobs;
    }

    /** The seeded request stream of pass @p index. */
    std::vector<Request>
    requests(std::uint64_t index) const
    {
        fuzz::Rng rng(fuzz::mix64(o_.seed ^ fuzz::mix64(index + 1)));
        // Exactly kMissPercent of the pass misses, at seeded positions:
        // each miss costs hundreds of hits, so a drawn miss count would
        // swing the pass time with the seed.
        std::vector<char> miss(perPass_, 0);
        std::fill_n(miss.begin(), perPass_ * kMissPercent / 100, 1);
        for (std::size_t n = perPass_; n > 1; --n)
            std::swap(miss[n - 1], miss[rng.below(n)]);
        std::vector<Request> out;
        int fresh = 0;
        for (std::size_t i = 0; i < perPass_; ++i) {
            if (!miss[i]) {
                out.push_back(keys_[rng.below(keys_.size())]);
                continue;
            }
            // A fresh generated program; its expected answer is the
            // in-process sequential run's. A program whose run does not
            // halt is answered with an error by design, so the stream
            // draws the next one instead.
            Request r;
            r.miss = true;
            r.req.name = "fuzz";
            for (std::optional<std::string> answer; !answer;) {
                r.req.source = fuzz::renderProgram(fuzz::generate(
                    fuzz::caseSeed(o_.seed ^ 0x5e41ull,
                                   static_cast<int>(index * perPass_) +
                                       fresh++)));
                answer = sequentialAnswer(r.req.source);
                if (answer)
                    r.expected = *answer;
            }
            out.push_back(std::move(r));
        }
        return out;
    }

    OneCpu cpu_; // first: outlives the server's threads
    Options o_;
    std::size_t perPass_;
    std::vector<Request> keys_;
    std::string store_;
    std::string socket_;
    int generation_ = 0;
    unsigned jobs_ = 0;
    bool fresh_ = false;
    std::unique_ptr<server::Server> server_;
};

} // namespace

std::unique_ptr<Workload>
makeService(const Options &o)
{
    return std::make_unique<Service>(o);
}

} // namespace symbench
