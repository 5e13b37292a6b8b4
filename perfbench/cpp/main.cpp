/**
 * @file
 * Entry point of the steady benchmark. Usually started through
 * perfbench/run.py, which builds this program and pins its
 * environment:
 *
 *   perfbench --workload heavyhex|sycamore
 *             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * The workload names a device family; every run drives three paths
 * for it, interleaved round by round: compile-corpus, service-mixed
 * and qaoa-tune. Prints the run's environment, any failed items, and
 * as its last line one JSON object {"correct", "attempted", "failed",
 * "metrics"}.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/parallel.h"
#include "common/vecops.h"
#include "sim/simd.h"

extern char** environ;

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return std::nan("");
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
mix_seed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Result::check_failed(const std::string& what)
{
    correct = false;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {}

void
Tracer::begin_op(const std::string& label)
{
    if (!on_)
        return;
    op_labels_.push_back(label);
    op_ = static_cast<std::int64_t>(op_labels_.size()) - 1;
}

void
Tracer::record(const char* layer, Clock::time_point t0,
               Clock::time_point t1)
{
    using us = std::chrono::duration<double, std::micro>;
    spans_.push_back(
        {layer, op_, us(t0 - origin_).count(), us(t1 - t0).count()});
}

namespace {

// The result line has its own escaper, so the benchmark's output does not
// depend on the code it measures (the library's JSON codec included).
std::string
json_string(const std::string& raw)
{
    std::string out = "\"";
    for (char c : raw) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Tracer::write_chrome_json(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.layer)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << json_number(s.start_us) << ",\"dur\":"
            << json_number(s.dur_us) << ",\"args\":{\"op\":" << s.op
            << ",\"cause\":"
            << json_string(s.op >= 0 ? op_labels_[static_cast<std::size_t>(
                                           s.op)]
                                     : "setup")
            << "}}";
    }
    out << "\n]}\n";
}

double
peak_rss_mib()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

[[noreturn]] void
usage_error(const std::string& message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "heavyhex|sycamore --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n",
                 message.c_str());
    std::exit(2);
}

/** The library reads PERMUQ_* variables (tier, threads, SIMD tier,
 *  tracing, logging) at load time, before main() could clear them, so
 *  a run that inherits any of them is refused rather than measured. */
void
refuse_ambient_knobs()
{
    bool found = false;
    for (char** e = environ; e && *e; ++e)
        if (std::strncmp(*e, "PERMUQ_", 7) == 0) {
            std::fprintf(stderr, "perfbench: ambient %s would change what "
                                 "is measured\n",
                         *e);
            found = true;
        }
    if (found)
        usage_error("unset every PERMUQ_* variable (run.py does this)");
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

std::string
llc_size()
{
    for (int index = 4; index >= 0; --index) {
        std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size");
        std::string size;
        if (in >> size)
            return size;
    }
    return "unknown";
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    refuse_ambient_knobs();

    RunConfig config;
    std::string trace_dir;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage_error("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                config.workload = value;
                have_workload = true;
                if (value == "heavyhex")
                    config.arch = permuq::arch::ArchKind::HeavyHex;
                else if (value == "sycamore")
                    config.arch = permuq::arch::ArchKind::Sycamore;
                else
                    usage_error("unknown workload " + value);
            } else if (arg == "--seed") {
                config.seed = std::stoull(value);
                have_seed = true;
            } else if (arg == "--seconds") {
                config.seconds = std::stod(value);
                have_seconds = config.seconds > 0.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    usage_error("--trace takes 0 or 1");
                config.trace = value == "1";
                have_trace = true;
            } else if (arg == "--trace-dir") {
                trace_dir = value;
            } else {
                usage_error("unknown flag " + arg);
            }
        } catch (const std::logic_error&) {
            usage_error("bad value for " + arg + ": " + value);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage_error("--workload, --seed, --seconds and --trace are required");

    // One fixed thread count for every run (recorded below): the
    // compile pool, the simulator and the daemon's worker all run on
    // it, which keeps timings comparable on a shared machine.
    constexpr int kThreads = 1;
    permuq::common::set_num_threads(kThreads);
    // The whole process, the daemon's threads included, stays on the
    // CPU it started on, so a service round trip hands the request
    // from thread to thread on one CPU instead of waiting for another
    // virtual CPU to be woken, whose latency follows the host's load.
    const int cpu = sched_getcpu();
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    CPU_SET(cpu, &one_cpu);
    if (cpu < 0 || sched_setaffinity(0, sizeof one_cpu, &one_cpu) != 0)
        usage_error("cannot keep the run on one CPU");
    std::printf("env: workload=%s seed=%llu seconds=%g trace=%d "
                "threads=%d pinned_cpu=%d nproc=%ld simd=%s vecops=%s "
                "cpu=\"%s\" llc=%s\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0,
                permuq::common::num_threads(), cpu,
                sysconf(_SC_NPROCESSORS_ONLN),
                permuq::sim::simd_tier_name(
                    permuq::sim::active_simd_tier()),
                permuq::common::vecops::vec_tier_name(
                    permuq::common::vecops::active_vec_tier()),
                cpu_model().c_str(), llc_size().c_str());

    Tracer tracer(config.trace);
    Result result;
    try {
        std::vector<std::unique_ptr<Path>> paths;
        paths.push_back(make_compile_corpus(config, tracer));
        paths.push_back(make_service_mixed(config, tracer));
        paths.push_back(make_qaoa_tune(config, tracer));

        std::vector<double> setup_s;
        for (int r = 0; r < kSetupRepeats; ++r) {
            const auto t0 = Clock::now();
            for (auto& path : paths)
                path->setup();
            setup_s.push_back(ms_since(t0) / 1000.0);
        }
        const int rounds =
            std::max(kMinRounds,
                     static_cast<int>(std::lround(config.seconds /
                                                  kRoundSeconds)));
        // A traced round also replays every layer, which about doubles
        // its time.
        const double cap_ms =
            std::min(kMaxRoundsSeconds,
                     kMaxSlowdown * config.seconds * (config.trace ? 2 : 1)) *
            1000.0;
        const auto start = Clock::now();
        int done = 0;
        for (; done < rounds && ms_since(start) < cap_ms; ++done)
            for (auto& path : paths)
                path->round(done, result);
        std::printf("rounds: %d of %d in %.1f s\n", done, rounds,
                    ms_since(start) / 1000.0);

        if (!config.trace) {
            result.add("setup_s", median(setup_s), "s");
            result.add("peak_rss_mib", peak_rss_mib(), "MiB");
        }
        for (auto& path : paths)
            path->report(result);
        if (config.trace && !trace_dir.empty()) {
            const std::string path =
                trace_dir + "/" + config.workload + "-seed" +
                std::to_string(config.seed) + ".json";
            tracer.write_chrome_json(path);
            std::printf("trace: %s\n", path.c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s has no value\n",
                         m.name.c_str());
            return 1;
        }
        json += (i ? ", " : "") + json_string(m.name) +
                ": {\"value\": " + json_number(m.value) +
                ", \"unit\": " + json_string(m.unit) + "}";
    }
    json += "}}";
    std::fflush(stdout);
    std::cout << json << std::endl;
    return 0;
}
