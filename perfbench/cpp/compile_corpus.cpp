/**
 * compile-corpus path: the one-shot compile path, core::compile
 * followed by circuit::to_qasm, over a fixed corpus for the workload's
 * device family at every tier, plus sharded fabric compiles. The
 * corpus does not depend on --seed (so depth, CX and the known
 * best-vs-fast fault repeat exactly in every run); the seed orders the
 * operations within each pass.
 */
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/coupling_graph.h"
#include "ata/ata.h"
#include "bench.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "core/compiler.h"
#include "core/placement.h"
#include "problem/generators.h"
#include "verify/equivalence.h"

namespace perfbench {

using namespace permuq;

namespace {

constexpr int kTiers = 3; // fast, balanced, best
const core::CompileTier kTierOf[kTiers] = {
    core::CompileTier::Fast, core::CompileTier::Balanced,
    core::CompileTier::Best};
const char* const kTierName[kTiers] = {"fast", "balanced", "best"};
/** Sharded fabric compiles run at one explicit tier. */
constexpr core::CompileTier kShardTier = core::CompileTier::Balanced;
constexpr std::int32_t kFabricSide = 64; // 4096-qubit grid
constexpr std::int32_t kShardRegions = 8;
constexpr int kFabricPrograms = 2;

struct Program
{
    std::string label;
    graph::Graph problem;
    std::unique_ptr<arch::CouplingGraph> device;
    bool sharded = false;
    /** Pure-greedy reference: the base of the selector cost F. */
    circuit::Metrics greedy_ref;
    std::unordered_map<VertexPair, std::int32_t, VertexPairHash> edge_id;
};

struct Op
{
    int program = 0;
    int tier = 0; // index into kTierName; sharded programs use 1
};

struct Corpus
{
    std::vector<Program> programs;
    std::vector<Op> ops;
    double generate_ms = 0.0;
    double device_ms = 0.0;
};

/** Index of the workload's device family; it also picks the graph
 *  seeds, so each family's programs are the same in every run. */
int
arch_index(arch::ArchKind kind)
{
    return kind == arch::ArchKind::HeavyHex ? 0 : 1;
}

/** Build the corpus, its devices and the greedy references. The
 *  reference compiles also fill every device's lazy distance table,
 *  which is the compile path's warm-up. */
Corpus
build_corpus(arch::ArchKind kind, const std::string& kind_name,
             Tracer& tracer)
{
    Corpus c;
    c.generate_ms = tracer.time("problem.generate", [&] {
        std::uint64_t seed = 7001 + 8 * arch_index(kind);
        for (std::int32_t n : {64, 128, 256, 512})
            for (bool dense : {false, true}) {
                Program p;
                p.label = kind_name + "-" + std::to_string(n) +
                          (dense ? "-er0.3" : "-reg3");
                p.problem = dense
                                ? problem::random_graph(n, 0.3, seed)
                                : problem::random_regular_graph(n, 3, seed);
                ++seed;
                c.programs.push_back(std::move(p));
            }
        for (int f = 0; f < kFabricPrograms; ++f) {
            Program p;
            p.label = "fabric-" + std::to_string(kFabricSide * kFabricSide) +
                      "-" + std::to_string(f);
            p.sharded = true;
            p.problem = problem::fabric_local_graph(
                kFabricSide, kFabricSide, 0.3, 1, 9901 + f);
            c.programs.push_back(std::move(p));
        }
    });
    // The fabric is a grid in every workload: heavy-hex devices cannot
    // be sharded into bands.
    c.device_ms = tracer.time("arch.device", [&] {
        for (Program& p : c.programs)
            p.device = std::make_unique<arch::CouplingGraph>(
                p.sharded ? arch::make_grid(kFabricSide, kFabricSide)
                          : arch::smallest_arch(kind,
                                                p.problem.num_vertices()));
    });
    for (std::size_t i = 0; i < c.programs.size(); ++i) {
        Program& p = c.programs[i];
        const auto& edges = p.problem.edges();
        p.edge_id.reserve(edges.size());
        for (std::size_t e = 0; e < edges.size(); ++e)
            p.edge_id.emplace(edges[e], static_cast<std::int32_t>(e));
        if (p.sharded) {
            c.ops.push_back({static_cast<int>(i), 1});
            continue;
        }
        core::CompilerOptions greedy;
        greedy.tier = core::CompileTier::Best;
        greedy.use_ata_prediction = false;
        p.greedy_ref = core::compile(*p.device, p.problem, greedy).metrics;
        for (int t = 0; t < kTiers; ++t)
            c.ops.push_back({static_cast<int>(i), t});
    }
    return c;
}

core::CompilerOptions
options_for(const Program& p, int tier)
{
    core::CompilerOptions o;
    if (p.sharded) {
        o.tier = kShardTier;
        o.shard_regions = kShardRegions;
    } else {
        o.tier = kTierOf[tier];
    }
    return o;
}

/** The benchmark's own replay: tracks the mapping through SWAPs and
 *  trusts none of the op annotations. Empty string = valid. */
std::string
replay_check(const Program& p, const circuit::Circuit& circ)
{
    circuit::Mapping map = circ.initial_mapping();
    std::vector<std::uint8_t> done(p.edge_id.size(), 0);
    std::size_t computed = 0;
    std::int64_t index = 0;
    for (const auto& op : circ.ops()) {
        if (!p.device->coupled(op.p, op.q))
            return "op " + std::to_string(index) + " is not on a coupler";
        if (op.kind == circuit::OpKind::Swap) {
            map.apply_swap(op.p, op.q);
        } else {
            const LogicalQubit a = map.logical_at(op.p);
            const LogicalQubit b = map.logical_at(op.q);
            if (a == kInvalidQubit || b == kInvalidQubit)
                return "op " + std::to_string(index) +
                       " computes on an empty position";
            const auto it = p.edge_id.find(VertexPair(a, b));
            if (it == p.edge_id.end())
                return "op " + std::to_string(index) +
                       " computes a pair that is not a problem edge";
            if (done[static_cast<std::size_t>(it->second)]++)
                return "op " + std::to_string(index) +
                       " computes an edge twice";
            ++computed;
        }
        ++index;
    }
    if (computed != done.size())
        return std::to_string(done.size() - computed) +
               " problem edges never computed";
    return "";
}

std::int64_t
count_cx_lines(const std::string& qasm)
{
    std::int64_t n = qasm.rfind("cx ", 0) == 0 ? 1 : 0;
    for (std::size_t pos = qasm.find("\ncx "); pos != std::string::npos;
         pos = qasm.find("\ncx ", pos + 1))
        ++n;
    return n;
}

/** Per-op samples (ms) of every timed quantity. */
struct OpSamples
{
    std::vector<double> e2e;         // compile + QASM, untraced
    std::vector<double> e2e_traced;  // the same with spans recorded
    std::vector<double> compile, qasm, placement, schedule, metrics,
        report_json;
    std::vector<double> rep_placement, rep_greedy, rep_materialize,
        rep_stitch, rep_unattributed;
    std::int64_t depth = -1, cx = -1;
    double qasm_bytes = 0.0;
    std::int64_t sched_hits = 0, sched_total = 0, pull_hits = 0,
                 pull_total = 0;
};

double
geomean_of_levels(const std::vector<OpSamples>& samples,
                   const std::vector<std::size_t>& ops,
                   std::vector<double> OpSamples::*field)
{
    std::vector<double> meds;
    for (std::size_t i : ops)
        meds.push_back(level(samples[i].*field));
    return geomean(meds);
}

double
mean_of_levels(const std::vector<OpSamples>& samples,
               const std::vector<std::size_t>& ops,
               std::vector<double> OpSamples::*field)
{
    double sum = 0.0;
    for (std::size_t i : ops)
        sum += level(samples[i].*field);
    return sum / static_cast<double>(ops.size());
}

class CompileCorpus final : public Path
{
  public:
    CompileCorpus(const RunConfig& config, Tracer& tracer)
        : config_(config), tracer_(tracer),
          order_rng_(mix_seed(config.seed, 1))
    {
    }

    void
    setup() override
    {
        corpus_ = Corpus{};
        corpus_ = build_corpus(config_.arch, config_.workload, tracer_);
        generate_ms_.push_back(corpus_.generate_ms);
        device_ms_.push_back(corpus_.device_ms);
        samples_.assign(corpus_.ops.size(), OpSamples{});
        order_.resize(corpus_.ops.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
    }

    void round(int pass, Result& result) override;
    void report(Result& result) override;

  private:
    const RunConfig& config_;
    Tracer& tracer_;
    Corpus corpus_;
    std::vector<double> generate_ms_, device_ms_;
    std::vector<OpSamples> samples_;
    std::vector<std::size_t> order_;
    std::mt19937_64 order_rng_;
    std::vector<std::string> fault_items_;
};

void
CompileCorpus::round(int pass, Result& result)
{
    std::shuffle(order_.begin(), order_.end(), order_rng_);
    // Metrics of this pass, per program and tier, for the F check.
    std::vector<std::array<circuit::Metrics, kTiers>> pass_metrics(
        corpus_.programs.size());
    for (std::size_t oi : order_) {
        const Op& op = corpus_.ops[oi];
        const Program& p = corpus_.programs[op.program];
        const auto options = options_for(p, op.tier);
        OpSamples& s = samples_[oi];
        ++result.attempted;

        // The end-to-end operation, untraced.
        core::CompileResult compiled;
        std::string qasm;
        auto untraced = [&] {
            const auto t0 = Clock::now();
            compiled = core::compile(*p.device, p.problem, options);
            qasm = circuit::to_qasm(compiled.circuit);
            s.e2e.push_back(ms_since(t0));
        };
        // The same operation layer by layer, then the layers that run
        // inside core::compile, each called on its own through its
        // public function.
        auto traced = [&] {
            tracer_.begin_op(p.label + " " +
                             (p.sharded ? "sharded" : kTierName[op.tier]));
            core::CompileResult again;
            std::string qasm_again;
            const double c = tracer_.time("core.compile", [&] {
                again = core::compile(*p.device, p.problem, options);
            });
            const double q = tracer_.time("circuit.qasm", [&] {
                qasm_again = circuit::to_qasm(again.circuit);
            });
            s.compile.push_back(c);
            s.qasm.push_back(q);
            s.e2e_traced.push_back(c + q);
            if (!p.sharded) {
                s.placement.push_back(tracer_.time("core.placement", [&] {
                    (void)core::connectivity_strength_placement(*p.device,
                                                                p.problem);
                }));
                s.schedule.push_back(tracer_.time("ata.schedule", [&] {
                    (void)ata::full_ata_schedule(*p.device);
                }));
            }
            s.metrics.push_back(tracer_.time("circuit.metrics", [&] {
                (void)circuit::compute_metrics(again.circuit);
            }));
            s.report_json.push_back(tracer_.time("report.json", [&] {
                (void)again.report.to_json();
            }));
            const auto& rep = again.report;
            s.rep_placement.push_back(rep.placement_seconds * 1e3);
            s.rep_greedy.push_back(rep.greedy_seconds * 1e3);
            s.rep_materialize.push_back(rep.materialize_seconds * 1e3);
            s.rep_stitch.push_back(rep.stitch_seconds * 1e3);
            s.rep_unattributed.push_back(
                (rep.total_seconds - rep.placement_seconds -
                 rep.greedy_seconds - rep.materialize_seconds -
                 rep.stitch_seconds) *
                1e3);
            s.sched_hits = rep.schedule_cache_hits;
            s.sched_total =
                rep.schedule_cache_hits + rep.schedule_cache_misses;
            s.pull_hits = rep.pull_cache_hits;
            s.pull_total = rep.pull_cache_hits + rep.pull_cache_misses;
        };
        // Alternate which version runs first, so neither always finds
        // the caches warmed by the other.
        if (!tracer_.on()) {
            untraced();
        } else if (pass % 2 == 0) {
            untraced();
            traced();
        } else {
            traced();
            untraced();
        }

        // Output checks, outside the timed region.
        const std::string where =
            p.label + " " + (p.sharded ? "sharded" : kTierName[op.tier]);
        const auto& m = compiled.metrics;
        std::string bad = replay_check(p, compiled.circuit);
        if (bad.empty()) {
            const auto sym =
                verify::check_symbolic(*p.device, p.problem, compiled.circuit);
            if (!sym.ok)
                bad = "check_symbolic disagrees: " + sym.summary();
        }
        if (bad.empty() && count_cx_lines(qasm) != m.cx_count)
            bad = "QASM has " + std::to_string(count_cx_lines(qasm)) +
                  " cx lines, report says " + std::to_string(m.cx_count);
        if (bad.empty() && s.depth >= 0 &&
            (s.depth != m.depth || s.cx != m.cx_count))
            bad = "depth/CX differ from the previous pass";
        if (!bad.empty()) {
            result.check_failed(where + ": " + bad);
            continue;
        }
        s.depth = m.depth;
        s.cx = m.cx_count;
        s.qasm_bytes = static_cast<double>(qasm.size());
        if (!p.sharded)
            pass_metrics[op.program][op.tier] = m;
    }

    // Known fault: a `best` plan whose selector cost F is above the
    // `fast` plan's on the same input is a failed operation.
    for (std::size_t i = 0; i < corpus_.programs.size(); ++i) {
        const Program& p = corpus_.programs[i];
        if (p.sharded)
            continue;
        const auto& pm = pass_metrics[i];
        if (pm[0].depth == 0 || pm[2].depth == 0)
            continue; // a failed check already counted this pass
        const double f_fast =
            core::selector_cost(pm[0], p.greedy_ref, nullptr, 0.5);
        const double f_best =
            core::selector_cost(pm[2], p.greedy_ref, nullptr, 0.5);
        if (f_best > f_fast) {
            ++result.failed;
            if (pass == 0) {
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "%s: best F=%.4f depth=%lld > fast "
                              "F=%.4f depth=%lld",
                              p.label.c_str(), f_best,
                              static_cast<long long>(pm[2].depth), f_fast,
                              static_cast<long long>(pm[0].depth));
                fault_items_.push_back(buf);
            }
        }
    }
}

void
CompileCorpus::report(Result& result)
{
    for (const auto& item : fault_items_)
        std::printf("known fault (best worse than fast on F): %s\n",
                    item.c_str());

    const std::vector<OpSamples>& samples = samples_;
    // Group the ops for aggregation.
    std::vector<std::size_t> by_tier[kTiers], sharded, all;
    for (std::size_t i = 0; i < corpus_.ops.size(); ++i) {
        const Op& op = corpus_.ops[i];
        all.push_back(i);
        if (corpus_.programs[op.program].sharded) {
            sharded.push_back(i);
        } else {
            by_tier[op.tier].push_back(i);
        }
    }
    const char* const e2e_name[] = {"fast_ms", "balanced_ms", "best_ms"};
    const char* const depth_name[] = {"fast_depth", "balanced_depth",
                                      "best_depth"};
    auto geomean_depth = [&](const std::vector<std::size_t>& ops) {
        std::vector<double> v;
        for (std::size_t i : ops)
            v.push_back(static_cast<double>(samples[i].depth));
        return geomean(v);
    };

    if (!tracer_.on()) {
        for (int t = 0; t < kTiers; ++t)
            result.add(e2e_name[t],
                       geomean_of_levels(samples, by_tier[t],
                                          &OpSamples::e2e),
                       "ms");
        result.add("sharded_ms",
                   geomean_of_levels(samples, sharded, &OpSamples::e2e),
                   "ms");
        for (int t = 0; t < kTiers; ++t)
            result.add(depth_name[t], geomean_depth(by_tier[t]), "count");
        std::vector<double> cx;
        for (std::size_t i : all)
            cx.push_back(static_cast<double>(samples[i].cx));
        result.add("cx_geomean", geomean(cx), "count");
        return;
    }

    // Traced run: per-layer metrics, each e2e number's remainder, and
    // the cost of recording the spans.
    result.add("problem.generate_ms", level(generate_ms_), "ms");
    result.add("arch.device_ms", level(device_ms_), "ms");
    result.add("core.placement_ms",
               geomean_of_levels(samples, by_tier[0], &OpSamples::placement),
               "ms");
    result.add("ata.schedule_ms",
               geomean_of_levels(samples, by_tier[0], &OpSamples::schedule),
               "ms");
    const char* const compile_name[] = {"core.compile_fast_ms",
                                        "core.compile_balanced_ms",
                                        "core.compile_best_ms"};
    for (int t = 0; t < kTiers; ++t)
        result.add(compile_name[t],
                   geomean_of_levels(samples, by_tier[t],
                                      &OpSamples::compile),
                   "ms");
    result.add("core.compile_sharded_ms",
               geomean_of_levels(samples, sharded, &OpSamples::compile),
               "ms");
    double bytes_sum = 0.0, qasm_ms_sum = 0.0;
    std::vector<double> bytes;
    for (std::size_t i : all) {
        bytes_sum += samples[i].qasm_bytes;
        qasm_ms_sum += level(samples[i].qasm);
        bytes.push_back(samples[i].qasm_bytes);
    }
    result.add("circuit.qasm_ms",
               geomean_of_levels(samples, all, &OpSamples::qasm), "ms");
    result.add("circuit.qasm_mib_per_s",
               bytes_sum / (1024.0 * 1024.0) / (qasm_ms_sum / 1e3), "MiB/s");
    result.add("circuit.qasm_bytes", geomean(bytes), "bytes");
    result.add("circuit.metrics_ms",
               geomean_of_levels(samples, all, &OpSamples::metrics), "ms");
    result.add("report.json_ms",
               geomean_of_levels(samples, all, &OpSamples::report_json),
               "ms");
    result.add("report.placement_ms",
               mean_of_levels(samples, all, &OpSamples::rep_placement), "ms");
    result.add("report.greedy_ms",
               mean_of_levels(samples, all, &OpSamples::rep_greedy), "ms");
    result.add("report.materialize_ms",
               mean_of_levels(samples, all, &OpSamples::rep_materialize),
               "ms");
    result.add("report.stitch_ms",
               mean_of_levels(samples, sharded, &OpSamples::rep_stitch),
               "ms");
    result.add("report.unattributed_ms",
               mean_of_levels(samples, all, &OpSamples::rep_unattributed),
               "ms");
    std::int64_t sh = 0, st = 0, ph = 0, pt = 0;
    for (const auto& s : samples) {
        sh += s.sched_hits;
        st += s.sched_total;
        ph += s.pull_hits;
        pt += s.pull_total;
    }
    result.add("report.schedule_cache_hit_ratio",
               st ? static_cast<double>(sh) / static_cast<double>(st) : 0.0,
               "ratio");
    result.add("report.pull_cache_hit_ratio",
               pt ? static_cast<double>(ph) / static_cast<double>(pt) : 0.0,
               "ratio");

    // Remainder: the e2e geomean minus the geomean of the per-program
    // layer sums (compile + QASM) over the same programs.
    auto remainder = [&](const std::vector<std::size_t>& ops) {
        std::vector<double> sums;
        for (std::size_t i : ops)
            sums.push_back(level(samples[i].compile) +
                           level(samples[i].qasm));
        return geomean_of_levels(samples, ops, &OpSamples::e2e) -
               geomean(sums);
    };
    result.add("unaccounted.fast_ms", remainder(by_tier[0]), "ms");
    result.add("unaccounted.balanced_ms", remainder(by_tier[1]), "ms");
    result.add("unaccounted.best_ms", remainder(by_tier[2]), "ms");
    result.add("unaccounted.sharded_ms", remainder(sharded), "ms");
    result.add("trace.corpus_overhead_pct",
               (geomean_of_levels(samples, all, &OpSamples::e2e_traced) /
                    geomean_of_levels(samples, all, &OpSamples::e2e) -
                1.0) *
                   100.0,
               "%");
}

} // namespace

std::unique_ptr<Path>
make_compile_corpus(const RunConfig& config, Tracer& tracer)
{
    return std::make_unique<CompileCorpus>(config, tracer);
}

} // namespace perfbench
