/**
 * @file
 * Shared pieces of the steady benchmark: run configuration, sample
 * statistics, the result record printed as the final JSON line, and
 * the outside-in tracer that records one span per layer call.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling_graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Command-line inputs of one run. The workload names the device
 *  family every path of the run compiles for. */
struct RunConfig
{
    std::string workload; // "heavyhex" or "sycamore"
    permuq::arch::ArchKind arch = permuq::arch::ArchKind::HeavyHex;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Times are collected as samples and summarised by order statistics
 *  only: no totals, no means (see README). */
double quantile(std::vector<double> values, double q);
inline double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}
double geomean(const std::vector<double>& values);

/**
 * The level of a repeated timing: its 95th percentile. On a shared
 * machine whose speed drifts, the median of a run moves with the share
 * of fast moments in that run while a high percentile stays on the
 * slow state's level; measured run-to-run spreads are in the README.
 */
inline double
level(const std::vector<double>& values)
{
    return quantile(values, 0.95);
}

/** splitmix64: derives independent sub-seeds from the run seed. */
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** A check failed on an operation that is not a known fault:
     *  the operation counts as failed and the run as incorrect. */
    void check_failed(const std::string& what);
};

/**
 * Outside-in tracer: each layer is timed by calling the library's
 * public function for it, and each call is recorded as one span with
 * the id and label of the end-to-end operation that caused it. Spans
 * stay in memory and are written as Chrome trace JSON at the end.
 * When off, or for a null layer name, time() still returns the
 * call's duration but records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    bool on() const { return on_; }

    /** Start a new end-to-end operation; later spans name it as
     *  their cause. */
    void begin_op(const std::string& label);

    template <typename F>
    double
    time(const char* layer, F&& fn)
    {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        if (on_ && layer)
            record(layer, t0, t1);
        return std::chrono::duration<double, std::milli>(t1 - t0).count();
    }

    void write_chrome_json(const std::string& path) const;

  private:
    void record(const char* layer, Clock::time_point t0,
                Clock::time_point t1);

    struct Span
    {
        const char* layer;
        std::int64_t op;
        double start_us;
        double dur_us;
    };
    bool on_;
    Clock::time_point origin_;
    std::int64_t op_ = -1;
    std::vector<std::string> op_labels_;
    std::vector<Span> spans_;
};

/** Peak resident set of this process so far, in MiB. */
double peak_rss_mib();

/**
 * One user-visible path of a workload. A run sets every path up
 * (timed into setup_s, repeated), then calls round() on each path in
 * turn for a fixed number of rounds, so every path's samples are
 * interleaved across the whole run, and finally collects each path's
 * metrics.
 */
class Path
{
  public:
    virtual ~Path() = default;
    /** Build (or rebuild) every input and warm up. */
    virtual void setup() = 0;
    /** One round: the same operations every time, each checked. */
    virtual void round(int index, Result& result) = 0;
    /** Add the end-to-end metrics, or the per-layer ones when tracing. */
    virtual void report(Result& result) = 0;
};

std::unique_ptr<Path> make_compile_corpus(const RunConfig& config,
                                          Tracer& tracer);
std::unique_ptr<Path> make_service_mixed(const RunConfig& config,
                                         Tracer& tracer);
std::unique_ptr<Path> make_qaoa_tune(const RunConfig& config,
                                     Tracer& tracer);

/** Set-up is repeated this many times per run and reported as the
 *  median (only the last set-up's state is measured). */
constexpr int kSetupRepeats = 3;

/**
 * Rounds are whole and their number is fixed by --seconds, not by a
 * deadline: each round attempts the same operations, so attempted,
 * the failed share and the server's cache footprint (and with it
 * peak_rss_mib) are the same in every run of a given length. One
 * untraced round takes about 2.9 s on the reference machine; this
 * leaves it some room, so a run takes a little less than --seconds.
 */
constexpr double kRoundSeconds = 3.3;
constexpr int kMinRounds = 4;
/** No round starts after this multiple of --seconds (twice that when
 *  tracing), nor after kMaxRoundsSeconds, so a run on a machine far
 *  slower than the reference still ends in time. */
constexpr double kMaxSlowdown = 1.6;
constexpr double kMaxRoundsSeconds = 120.0;

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
