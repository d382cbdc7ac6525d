/**
 * @file
 * The reference loop: a fixed amount of integer, branch and memory work
 * on private tables, sharing no code with the library. The CPU time it
 * takes follows the speed the host gives this process, which on a
 * shared host drifts by up to a third over minutes with other
 * machines' load; the end-to-end times are scaled by it, so that they
 * measure the program and not that drift.
 */
#ifndef SYMBENCH_REFERENCE_HH
#define SYMBENCH_REFERENCE_HH

#include <cstdint>
#include <vector>

namespace symbench
{

/** CPU seconds of one reference loop on the machine of baseline.json;
 *  scaled times read as if the host ran at that speed. */
constexpr double kReferenceSeconds = 0.0235;

class Reference
{
  public:
    /** Tables for @p threads loops that run at once. */
    explicit Reference(unsigned threads);

    /** Run the loop once on each thread at the same time, as many as
     *  the workload keeps busy; returns the median CPU seconds of one
     *  loop. */
    double round();

  private:
    std::vector<std::vector<std::uint32_t>> tables_;
};

} // namespace symbench

#endif // SYMBENCH_REFERENCE_HH
