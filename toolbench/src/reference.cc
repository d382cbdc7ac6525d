/**
 * @file
 * The reference loop (see reference.hh).
 */
#include "reference.hh"

#include <algorithm>
#include <thread>

#include "trace.hh"

namespace symbench
{

namespace
{

/** 128 KiB per table, within a core's own caches: the loop times the
 *  core. A table beyond them timed the memory other machines share,
 *  whose latency swung by a third from run to run without the
 *  workloads' times following it. */
constexpr std::size_t kTableWords = std::size_t{1} << 15;
constexpr int kSteps = 1'500'000;

/** Pseudo-random reads and writes of @p t with a branch on each value
 *  read, which no predictor can learn. */
std::uint64_t
loop(std::vector<std::uint32_t> &t)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &c = t[(x ^ acc) & (kTableWords - 1)];
        if (c & 1)
            acc += c * 3ull;
        else
            acc ^= c >> 1;
        c = c * 1664525u + 1013904223u;
    }
    return acc;
}

/** CPU seconds of one loop on the calling thread. */
double
timedLoop(std::vector<std::uint32_t> &t)
{
    const double c0 = threadCpuSeconds();
    volatile std::uint64_t sink = loop(t);
    (void)sink;
    return threadCpuSeconds() - c0;
}

} // namespace

Reference::Reference(unsigned threads)
{
    for (unsigned i = 0; i < std::max(threads, 1u); ++i) {
        tables_.emplace_back(kTableWords);
        for (std::size_t j = 0; j < kTableWords; ++j)
            tables_.back()[j] = static_cast<std::uint32_t>(j * 2654435761u);
    }
}

double
Reference::round()
{
    std::vector<double> s(tables_.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 1; i < tables_.size(); ++i)
        threads.emplace_back([&, i] { s[i] = timedLoop(tables_[i]); });
    s[0] = timedLoop(tables_[0]);
    for (std::thread &th : threads)
        th.join();
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

} // namespace symbench
