/**
 * @file
 * qaoa-tune path: QAOA angle tuning for a 3-regular MaxCut problem of
 * 20 qubits. Each round runs a p=1 (gamma, beta) grid through the
 * batched SweepEvaluator, a seeded Nelder-Mead refinement at p=2
 * through QaoaObjective, and noisy evaluations of a small plan
 * compiled for the workload's device family under its calibrated
 * noise model.
 *
 * 20 qubits: one sequential state is 16 MiB and the 8-point batched
 * sweep buffers 128 MiB, so a round fits beside the other two paths.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling_graph.h"
#include "arch/noise_model.h"
#include "bench.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/nelder_mead.h"
#include "sim/qaoa.h"
#include "sim/qaoa_objective.h"
#include "sim/statevector.h"
#include "sim/sweep.h"

namespace perfbench {

using namespace permuq;

namespace {

constexpr std::int32_t kQubits = 20;
constexpr std::int32_t kNoisyQubits = 16;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kGridGammas = 4, kGridBetas = 2; // one batched pass
constexpr std::int32_t kNelderMeadEvals = 8;
constexpr int kNoisyEvals = 6;

/**
 * Closed form of the p=1 QAOA MaxCut expectation for an unweighted
 * graph (Wang, Hadfield, Jiang, Rieffel, PRA 97, 022304 (2018)): for
 * edge (u, v) with d = deg(u) - 1, e = deg(v) - 1 and f triangles
 * through it,
 *   <C_uv> = 1/2 + 1/4 sin(4b) sin(g) (cos^d g + cos^e g)
 *                - 1/4 sin^2(2b) cos^(d+e-2f) g (1 - cos^f 2g).
 */
double
closed_form_p1(const graph::Graph& g, double gamma, double beta)
{
    double total = 0.0;
    for (const auto& edge : g.edges()) {
        const int d = g.degree(edge.a) - 1;
        const int e = g.degree(edge.b) - 1;
        int f = 0;
        for (std::int32_t w : g.neighbors(edge.a))
            if (w != edge.b && g.has_edge(w, edge.b))
                ++f;
        const double cg = std::cos(gamma);
        const double s2b = std::sin(2.0 * beta);
        total += 0.5 +
                 0.25 * std::sin(4.0 * beta) * std::sin(gamma) *
                     (std::pow(cg, d) + std::pow(cg, e)) -
                 0.25 * s2b * s2b * std::pow(cg, d + e - 2 * f) *
                     (1.0 - std::pow(std::cos(2.0 * gamma), f));
    }
    return total;
}

/** Everything one set-up creates; the last one is measured. */
struct Setup
{
    graph::Graph problem;
    std::unique_ptr<sim::QaoaObjective> objective;
    std::unique_ptr<sim::SweepEvaluator> sweep;
    graph::Graph small;
    std::unique_ptr<arch::CouplingGraph> small_device;
    std::unique_ptr<arch::NoiseModel> noise;
    core::CompileResult small_plan;
    std::unique_ptr<sim::QaoaObjective> small_objective;
    double objective_build_ms = 0.0;
};

Setup
build_setup(const RunConfig& config, Tracer& tracer,
            const std::vector<sim::QaoaAngles>& grid)
{
    Setup s;
    s.problem = problem::random_regular_graph(kQubits, 3,
                                              mix_seed(config.seed, 3));
    s.objective_build_ms = tracer.time("sim.objective_build", [&] {
        s.objective = std::make_unique<sim::QaoaObjective>(s.problem);
    });
    sim::SweepOptions sweep_options;
    sweep_options.batch = kBatch;
    s.sweep = std::make_unique<sim::SweepEvaluator>(*s.objective,
                                                    sweep_options);
    // Warm-up: first touch of the batched buffers and the state.
    (void)s.sweep->ideal_sweep(grid);
    (void)s.objective->ideal_expectation(grid[0]);

    // The noisy plan is one fixed instance per device family: its cost
    // depends on the compiled plan and the noise draws, which would
    // otherwise make noisy_evals_per_s vary with the seed.
    s.small = problem::random_regular_graph(kNoisyQubits, 3, 1601);
    s.small_device = std::make_unique<arch::CouplingGraph>(
        arch::smallest_arch(config.arch, kNoisyQubits));
    core::CompilerOptions options;
    options.tier = core::CompileTier::Balanced;
    s.small_plan = core::compile(*s.small_device, s.small, options);
    s.noise = std::make_unique<arch::NoiseModel>(arch::NoiseModel::calibrated(
        *s.small_device, 1602));
    s.small_objective = std::make_unique<sim::QaoaObjective>(s.small);
    return s;
}

/** Bytes per amplitude moved by one pass (minimum traffic). */
double
gbps(double bytes, double ms)
{
    return bytes / (ms * 1e-3) / 1e9;
}

class QaoaTune final : public Path
{
  public:
    QaoaTune(const RunConfig& config, Tracer& tracer)
        : config_(config), tracer_(tracer),
          grid_(sim::sweep_grid(kGridGammas, kGridBetas, 1)),
          noisy_angles_(sim::sweep_grid(3, 2, 1))
    {
    }

    void
    setup() override
    {
        s_ = Setup{};
        s_ = build_setup(config_, tracer_, grid_);
        build_ms_.push_back(s_.objective_build_ms);
        max_cut_ = sim::max_cut(s_.problem);
        if (tracer_.on() && !sv_) {
            // One sequential state and a streaming buffer of the same
            // size for the kernel passes and their roofline.
            sv_ = std::make_unique<sim::Statevector>(kQubits);
            stream_src_.assign(std::size_t(2) << kQubits, 1.0);
            stream_dst_.assign(std::size_t(2) << kQubits, 0.0);
        }
        if (tracer_.on()) {
            phase_table_.resize(std::size_t(1) << kQubits);
            for (std::size_t z = 0; z < phase_table_.size(); ++z)
                phase_table_[z] = s_.objective->cut(z);
        }
    }

    void round(int index, Result& result) override;
    void report(Result& result) override;

  private:
    const RunConfig& config_;
    Tracer& tracer_;
    const std::vector<sim::QaoaAngles> grid_, noisy_angles_;
    Setup s_;
    double max_cut_ = 0.0;
    std::unique_ptr<sim::Statevector> sv_;
    std::vector<double> phase_table_, stream_src_, stream_dst_;
    std::vector<double> build_ms_, pass_ms_, eval_ms_, eval_traced_ms_,
        eval_untraced_ms_, noisy_ms_;
    std::vector<double> fill_ms_, phase_ms_, mixer_ms_, reduce_ms_,
        stream_ms_, trajectory_ms_;
    std::int64_t evals_ = 0;
};

void
QaoaTune::round(int index, Result& result)
{
    // p=1 grid in one batched pass; every value must match the closed
    // form.
    tracer_.begin_op("grid round " + std::to_string(index));
    sim::SweepResult r;
    pass_ms_.push_back(tracer_.time("sim.sweep_pass", [&] {
        r = s_.sweep->ideal_sweep(grid_);
    }));
    ++result.attempted;
    bool ok = r.values.size() == grid_.size();
    for (std::size_t i = 0; ok && i < grid_.size(); ++i) {
        const double want =
            closed_form_p1(s_.problem, grid_[i].gamma[0], grid_[i].beta[0]);
        ok = std::fabs(r.values[i] - want) <= 1e-9 * std::fabs(want);
        if (!ok)
            result.check_failed("grid point " + std::to_string(i) + ": " +
                                std::to_string(r.values[i]) +
                                " vs closed form " + std::to_string(want));
    }
    if (!ok)
        return;
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(r.values.begin(), r.values.end()) -
        r.values.begin());
    const double p1_best = r.values[best];

    // p=2 Nelder-Mead from the best grid point with a zero second
    // layer; every evaluation is one timed operation, and the search
    // always spends its whole budget.
    tracer_.begin_op("nelder-mead round " + std::to_string(index));
    auto objective = [&](const std::vector<double>& x) {
        const sim::QaoaAngles a{{x[0], x[1]}, {x[2], x[3]}};
        double v = 0.0;
        const bool traced = tracer_.on() && (evals_++ % 2 == 1);
        auto eval = [&] { v = s_.objective->ideal_expectation(a); };
        const double ms =
            tracer_.time(traced ? "sim.objective_eval" : nullptr, eval);
        eval_ms_.push_back(ms);
        if (tracer_.on())
            (traced ? eval_traced_ms_ : eval_untraced_ms_).push_back(ms);
        ++result.attempted;
        return -v;
    };
    const auto nm = sim::nelder_mead(
        objective, {grid_[best].gamma[0], 0.0, grid_[best].beta[0], 0.0},
        0.1, kNelderMeadEvals);
    const double p2 = -nm.best_f;
    if (p2 < p1_best - 1e-9 || p2 > max_cut_ + 1e-9)
        result.check_failed("p=2 value " + std::to_string(p2) +
                            " outside [p=1 " + std::to_string(p1_best) +
                            ", max cut " + std::to_string(max_cut_) + "]");

    // Noisy evaluations of the small compiled plan, then one
    // zero-noise evaluation that must match the ideal value within its
    // shot tolerance.
    tracer_.begin_op("noisy round " + std::to_string(index));
    const sim::NoisySimOptions noisy_options;
    for (int k = 0; k < kNoisyEvals; ++k) {
        const auto& a =
            noisy_angles_[static_cast<std::size_t>(k) % noisy_angles_.size()];
        double v = 0.0;
        noisy_ms_.push_back(tracer_.time("sim.noisy_eval", [&] {
            v = s_.small_objective->noisy_expectation(
                s_.small_plan.circuit, *s_.noise, a, noisy_options);
        }));
        ++result.attempted;
        if (!(v > 0.0 && v <= s_.small.num_edges()))
            result.check_failed("noisy value " + std::to_string(v));
    }
    {
        const auto& a = noisy_angles_[0];
        const auto ideal_noise = arch::NoiseModel::ideal(*s_.small_device);
        const double noiseless = s_.small_objective->noisy_expectation(
            s_.small_plan.circuit, ideal_noise, a, noisy_options);
        const auto dist = s_.small_objective->ideal_distribution(a);
        double mean = 0.0, second = 0.0;
        for (std::size_t z = 0; z < dist.size(); ++z) {
            const double c = s_.small_objective->cut(z);
            mean += dist[z] * c;
            second += dist[z] * c * c;
        }
        const double tolerance =
            5.0 * std::sqrt(std::max(0.0, second - mean * mean) /
                            noisy_options.shots);
        ++result.attempted;
        if (std::fabs(noiseless - mean) > tolerance)
            result.check_failed("zero-noise value " +
                                std::to_string(noiseless) + " vs ideal " +
                                std::to_string(mean) + " (tolerance " +
                                std::to_string(tolerance) + ")");
    }

    if (!tracer_.on())
        return;
    // One pass of each kernel at the workload's size, plus the
    // benchmark's own streaming copy as the roofline.
    tracer_.begin_op("kernels round " + std::to_string(index));
    fill_ms_.push_back(tracer_.time("sim.fill", [&] { sv_->reset_to_plus(); }));
    phase_ms_.push_back(tracer_.time(
        "sim.phase", [&] { sv_->apply_phase_table(phase_table_, 0.3); }));
    mixer_ms_.push_back(
        tracer_.time("sim.mixer", [&] { sv_->apply_rx_all(0.7); }));
    double norm = 0.0;
    reduce_ms_.push_back(
        tracer_.time("sim.reduce", [&] { norm = sv_->norm_sq(); }));
    if (std::fabs(norm - 1.0) > 1e-9)
        result.check_failed("state norm " + std::to_string(norm));
    stream_ms_.push_back(tracer_.time("sim.stream", [&] {
        std::memcpy(stream_dst_.data(), stream_src_.data(),
                    stream_src_.size() * sizeof(double));
    }));
    // One trajectory with its share of the shots.
    sim::NoisySimOptions one = noisy_options;
    one.trajectories = 1;
    one.shots = noisy_options.shots / noisy_options.trajectories;
    trajectory_ms_.push_back(tracer_.time("sim.trajectory", [&] {
        (void)s_.small_objective->noisy_expectation(
            s_.small_plan.circuit, *s_.noise, noisy_angles_[0], one);
    }));
}

void
QaoaTune::report(Result& result)
{
    if (!tracer_.on()) {
        result.add("sweep_points_per_s",
                   static_cast<double>(grid_.size()) / (level(pass_ms_) / 1e3),
                   "1/s");
        result.add("objective_evals_per_s", 1e3 / level(eval_ms_), "1/s");
        result.add("noisy_evals_per_s", 1e3 / level(noisy_ms_), "1/s");
        return;
    }
    const double state_bytes = 16.0 * static_cast<double>(1u << kQubits);
    const double fill = level(fill_ms_), phase = level(phase_ms_),
                 mixer = level(mixer_ms_), reduce = level(reduce_ms_);
    result.add("sim.objective_build_ms", level(build_ms_), "ms");
    result.add("sim.fill_ms", fill, "ms");
    result.add("sim.phase_ms", phase, "ms");
    result.add("sim.mixer_ms", mixer, "ms");
    result.add("sim.reduce_ms", reduce, "ms");
    // Minimum traffic per pass: fill writes the state; phase reads the
    // state and the table and writes the state; the mixer reads and
    // writes the state; the reduction reads it.
    result.add("sim.fill_gbps", gbps(state_bytes, fill), "GB/s");
    result.add("sim.phase_gbps", gbps(2.5 * state_bytes, phase), "GB/s");
    result.add("sim.mixer_gbps", gbps(2.0 * state_bytes, mixer), "GB/s");
    result.add("sim.reduce_gbps", gbps(state_bytes, reduce), "GB/s");
    result.add("sim.stream_gbps", gbps(2.0 * state_bytes, level(stream_ms_)),
               "GB/s");
    const double point_ms =
        level(pass_ms_) / static_cast<double>(grid_.size());
    result.add("sim.sweep_batch", static_cast<double>(s_.sweep->batch()),
               "count");
    result.add("sim.sweep_point_ms", point_ms, "ms");
    result.add("sim.trajectory_ms", level(trajectory_ms_), "ms");
    result.add("sim.noisy_ops",
               static_cast<double>(s_.small_plan.circuit.ops().size()),
               "count");
    // Remainders: what the kernel passes do not account for.
    result.add("unaccounted.objective_eval_ms",
               level(eval_ms_) - (fill + 2.0 * (phase + mixer) + reduce),
               "ms");
    result.add("unaccounted.sweep_point_ms",
               point_ms - (fill + phase + mixer + reduce), "ms");
    result.add("unaccounted.noisy_eval_ms",
               level(noisy_ms_) - sim::NoisySimOptions{}.trajectories *
                                      level(trajectory_ms_),
               "ms");
    result.add("trace.qaoa_overhead_pct",
               (level(eval_traced_ms_) / level(eval_untraced_ms_) - 1.0) *
                   100.0,
               "%");
}

} // namespace

std::unique_ptr<Path>
make_qaoa_tune(const RunConfig& config, Tracer& tracer)
{
    return std::make_unique<QaoaTune>(config, tracer);
}

} // namespace perfbench
