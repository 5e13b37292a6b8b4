/**
 * @file
 * service-mixed path: an in-process permuqd Server (one worker,
 * default cache budget) and one Client on loopback in a closed loop,
 * all requests for the workload's device family. Each round sends the
 * same skewed multiset of catalogue requests (cache hits once primed)
 * plus one never-seen request of each catalogue shape (misses), in a
 * seeded order.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/coupling_graph.h"
#include "bench.h"
#include "circuit/metrics.h"
#include "circuit/qasm.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "service/client.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {

using namespace permuq;

namespace {

/** Shape of a request; the seed picks the instance. */
struct Shape
{
    const char* arch;
    std::int32_t n;
    bool dense; // random spec at density 0.3; else explicit 3-regular edges
    const char* tier;
};

service::Request
make_request(const Shape& shape, std::uint64_t seed)
{
    service::Request r;
    r.arch = shape.arch;
    r.problem_n = shape.n;
    r.random_n = shape.n;
    r.tier = shape.tier;
    if (shape.dense) {
        r.density = 0.3;
        r.seed = seed;
    } else {
        r.has_edges = true;
        r.edges = problem::random_regular_graph(shape.n, 3, seed).edges();
    }
    return r;
}

/** Catalogue shapes for one device family: 3-regular edge lists at
 *  64-256 qubits and dense random specs at 64-128, at both tiers. */
std::vector<Shape>
catalogue_shapes(const char* arch)
{
    std::vector<Shape> out;
    for (const char* tier : {"fast", "balanced"}) {
        for (std::int32_t n : {64, 128, 256})
            out.push_back({arch, n, false, tier});
        for (std::int32_t n : {64, 128})
            out.push_back({arch, n, true, tier});
    }
    return out;
}

/** Catalogue: every request that can hit, fixed across seeds. */
std::vector<service::Request>
catalogue(const std::vector<Shape>& shapes, std::uint64_t first_seed)
{
    std::vector<service::Request> out;
    std::uint64_t seed = first_seed;
    for (const Shape& shape : shapes)
        out.push_back(make_request(shape, seed++));
    // A fixed popularity order that mixes small and large fragments.
    std::mt19937_64 rng(424242);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
}

/** Requests of catalogue rank r (1-based) per round: ~36/r (Zipf). */
int
per_round(std::size_t rank)
{
    return std::max(1, static_cast<int>(36.0 / static_cast<double>(rank) +
                                        0.5));
}

/** The benchmark's own model of the server's plan cache: strict LRU
 *  over (2 * key + fragment + 128)-byte entries within the budget, as
 *  the cache documents. Predicts whether each request is a hit. */
class LruModel
{
  public:
    explicit LruModel(std::size_t budget) : budget_(budget) {}

    bool
    touch(const std::string& key)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return false;
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        return true;
    }

    void
    insert(const std::string& key, std::size_t fragment_bytes)
    {
        const std::size_t cost = 2 * key.size() + fragment_bytes + 128;
        if (cost > budget_)
            return;
        lru_.push_front(key);
        map_[key] = {cost, lru_.begin()};
        bytes_ += cost;
        while (bytes_ > budget_) {
            auto victim = map_.find(lru_.back());
            bytes_ -= victim->second.cost;
            map_.erase(victim);
            lru_.pop_back();
        }
    }

  private:
    struct Slot
    {
        std::size_t cost;
        std::list<std::string>::iterator pos;
    };
    std::size_t budget_;
    std::size_t bytes_ = 0;
    std::list<std::string> lru_;
    std::unordered_map<std::string, Slot> map_;
};

/** Per-request layer samples (ms), traced run only. */
struct Layers
{
    std::vector<double> encode, decode, key, lookup, response_build,
        response_decode, transport, compile, qasm, metrics, report_json,
        fragment_build, insert, miss_rest;
};

/** Everything one set-up creates; the last one is measured. */
struct Live
{
    std::unique_ptr<service::Server> server;
    std::unique_ptr<service::Client> client;
    std::unique_ptr<LruModel> model;
    std::unique_ptr<service::PlanCache> mirror; // traced layer timing
    std::unordered_map<std::string, std::string> first_fragment;
    std::int64_t next_id = 1;
};

class ServiceMixed final : public Path
{
  public:
    ServiceMixed(const RunConfig& config, Tracer& tracer)
        : config_(config), tracer_(tracer),
          shapes_(catalogue_shapes(config.workload.c_str())),
          rng_(mix_seed(config.seed, 2))
    {
        // Catalogue seeds differ between device families.
        cat_ = catalogue(shapes_, config.arch == arch::ArchKind::HeavyHex
                                      ? 501
                                      : 501 + shapes_.size());
        for (const auto& r : cat_)
            cat_key_.push_back(service::PlanCache::make_key(r, r.tier));
        // The round's request multiset is fixed; only its order and
        // the fresh instances depend on the seed.
        for (std::size_t i = 0; i < cat_.size(); ++i)
            for (int c = 0; c < per_round(i + 1); ++c)
                round_slots_.push_back(static_cast<int>(i));
        for (std::size_t f = 0; f < shapes_.size(); ++f)
            round_slots_.push_back(-1 - static_cast<int>(f));
        hit_by_entry_.resize(cat_.size());
        miss_by_shape_.resize(shapes_.size());
    }

    ~ServiceMixed() override { shut_down(); }

    void
    setup() override
    {
        shut_down();
        live_ = Live{};
        service::ServerOptions options;
        options.workers = 1; // default cache budget, ephemeral port
        live_.server = std::make_unique<service::Server>(options);
        std::string error;
        if (!live_.server->start(error))
            throw std::runtime_error("server start: " + error);
        live_.client = std::make_unique<service::Client>();
        if (!live_.client->connect(live_.server->port(), error))
            throw std::runtime_error("connect: " + error);
        live_.model = std::make_unique<LruModel>(
            live_.server->options().cache_budget_bytes);
        live_.mirror = std::make_unique<service::PlanCache>(
            live_.server->options().cache_budget_bytes);
        // Warm-up: prime the cache with every catalogue request.
        Result warm;
        for (std::size_t i = 0; i < cat_.size(); ++i)
            exchange(cat_[i], cat_key_[i], i, false, false, warm);
        if (warm.failed)
            throw std::runtime_error("service warm-up failed its checks");
    }

    void
    round(int index, Result& result) override
    {
        std::shuffle(round_slots_.begin(), round_slots_.end(), rng_);
        // Whole rounds alternate, so a replay's cache footprint reaches
        // the untraced requests only at round boundaries.
        const bool traced = tracer_.on() && index % 2 == 1;
        for (int slot : round_slots_) {
            if (slot >= 0) {
                const auto entry = static_cast<std::size_t>(slot);
                exchange(cat_[entry], cat_key_[entry], entry, true, traced,
                         result);
            } else {
                const auto shape_index = static_cast<std::size_t>(-1 - slot);
                const Shape& shape = shapes_[shape_index];
                // Top bit clear: the protocol carries seeds as int64.
                const std::uint64_t seed =
                    mix_seed(config_.seed, 1000 + fresh_counter_++) >> 1;
                const auto req = make_request(shape, seed);
                exchange(req, service::PlanCache::make_key(req, req.tier),
                         shape_index, true, traced, result);
            }
        }
    }

    void report(Result& result) override;

  private:
    /** One request: timed round trip, then the checks (and in a traced
     *  run, the layer replays) outside the timed region. */
    void exchange(const service::Request& base, const std::string& key,
                  std::size_t group, bool timed, bool traced,
                  Result& result);

    void
    shut_down()
    {
        if (live_.client)
            live_.client->close();
        if (live_.server)
            live_.server->stop();
    }

    const RunConfig& config_;
    Tracer& tracer_;
    std::vector<Shape> shapes_;
    std::vector<service::Request> cat_;
    std::vector<std::string> cat_key_;
    std::vector<int> round_slots_; // >= 0: catalogue index; < 0: fresh
    std::mt19937_64 rng_;
    std::uint64_t fresh_counter_ = 0;
    Live live_;
    Layers layers_;
    std::vector<double> hit_rt_, hit_rt_traced_, hit_rt_untraced_,
        fragment_kib_;
    std::int64_t hits_ = 0, requests_ = 0;
    /** Round trips per catalogue entry (hits) and per shape (misses). */
    std::vector<std::vector<double>> hit_by_entry_, miss_by_shape_;
};

void
ServiceMixed::exchange(const service::Request& base, const std::string& key,
                       std::size_t group, bool timed, bool traced,
                       Result& result)
{
    service::Request req = base;
    req.id = live_.next_id++;
    const bool predicted_hit = live_.model->touch(key);
    service::Response resp;
    std::string error;
    if (timed && traced)
        tracer_.begin_op(std::string(predicted_hit ? "hit " : "miss ") +
                         req.arch + " n=" + std::to_string(req.problem_n) +
                         (req.has_edges ? " reg3 " : " er0.3 ") + req.tier);
    bool ok = false;
    const double rt = tracer_.time(
        timed && traced ? "service.round_trip" : nullptr,
        [&] { ok = live_.client->call(req, resp, error); });
    if (timed) {
        ++result.attempted;
        ++requests_;
    }
    if (!ok || resp.type != "result") {
        result.check_failed("request " + std::to_string(req.id) + ": " +
                            (ok ? resp.message : error));
        return;
    }
    if (resp.cached != predicted_hit) {
        result.check_failed("request " + std::to_string(req.id) +
                            " cached=" + (resp.cached ? "true" : "false") +
                            ", predicted otherwise");
        return;
    }
    if (resp.cached) {
        const auto it = live_.first_fragment.find(key);
        if (it == live_.first_fragment.end() ||
            it->second != resp.fragment) {
            result.check_failed("hit fragment of request " +
                                std::to_string(req.id) +
                                " differs from its first response");
            return;
        }
        if (!timed)
            return;
        ++hits_;
        hit_rt_.push_back(rt);
        hit_by_entry_[group].push_back(rt);
        fragment_kib_.push_back(
            static_cast<double>(resp.fragment.size()) / 1024.0);
        if (tracer_.on())
            (traced ? hit_rt_traced_ : hit_rt_untraced_).push_back(rt);
        if (!traced)
            return;
        std::string payload, built;
        service::Request parsed;
        service::ErrorKind kind;
        std::string message, key_again;
        service::Response decoded;
        const double enc = tracer_.time("service.request_encode", [&] {
            payload = service::build_request_payload(req);
        });
        const double dec = tracer_.time("service.request_decode", [&] {
            service::parse_request(payload, parsed, kind, message);
        });
        const double k = tracer_.time("service.cache_key", [&] {
            key_again = service::PlanCache::make_key(parsed, parsed.tier);
        });
        std::shared_ptr<const std::string> fragment;
        const double look = tracer_.time("service.cache_lookup", [&] {
            fragment = live_.mirror->lookup(key_again);
        });
        if (!fragment) {
            result.check_failed("traced replay: mirror cache lost " +
                                std::to_string(req.id));
            return;
        }
        const double build = tracer_.time("service.response_build", [&] {
            built = service::build_result_payload(
                req.id, true, resp.queue_ms, resp.compile_ms, *fragment);
        });
        const double decode = tracer_.time("service.response_decode", [&] {
            service::parse_response(built, decoded, message);
        });
        layers_.encode.push_back(enc);
        layers_.decode.push_back(dec);
        layers_.key.push_back(k);
        layers_.lookup.push_back(look);
        layers_.response_build.push_back(build);
        layers_.response_decode.push_back(decode);
        layers_.transport.push_back(rt -
                                    (enc + dec + k + look + build + decode));
        return;
    }

    // Miss: the plan must equal an in-process one-shot compile of
    // the same request, built the way permuqc builds it.
    graph::Graph problem(0);
    if (req.has_edges) {
        graph::Graph g(req.problem_n);
        for (const auto& e : req.edges)
            g.add_edge(e.a, e.b);
        problem = std::move(g);
    } else {
        problem = problem::random_graph(req.problem_n, req.density,
                                        req.seed);
    }
    const arch::CouplingGraph device =
        arch::smallest_arch(config_.arch, problem.num_vertices());
    core::CompilerOptions options;
    if (!core::parse_tier(req.tier, options.tier))
        throw std::logic_error("bad tier " + req.tier);
    core::CompileResult compiled;
    circuit::Metrics metrics;
    std::string qasm, report_json;
    const bool replay = timed && traced;
    auto layer = [&](const char* name, auto&& fn) {
        return replay ? tracer_.time(name, fn)
                      : (fn(), 0.0);
    };
    const double c = layer("core.compile", [&] {
        compiled = core::compile(device, problem, options);
    });
    const double m = layer("circuit.metrics", [&] {
        metrics = circuit::compute_metrics(compiled.circuit);
    });
    const double q = layer("circuit.qasm", [&] {
        qasm = circuit::to_qasm(compiled.circuit);
    });
    const bool same = resp.qasm == qasm &&
                      resp.plan.tier == compiled.tier &&
                      resp.plan.selected == compiled.selected &&
                      resp.plan.depth == metrics.depth &&
                      resp.plan.cx == metrics.cx_count &&
                      resp.plan.swaps == metrics.swap_gates;
    if (!same) {
        result.check_failed("miss " + std::to_string(req.id) +
                            " differs from a one-shot compile");
        return;
    }
    auto fragment = std::make_shared<const std::string>(resp.fragment);
    live_.model->insert(key, fragment->size());
    if (std::find(cat_key_.begin(), cat_key_.end(), key) != cat_key_.end())
        live_.first_fragment[key] = *fragment;
    if (tracer_.on() && !replay)
        live_.mirror->insert(key, fragment);
    if (!timed)
        return;
    miss_by_shape_[group].push_back(rt);
    if (!replay)
        return;
    service::PlanSummary summary;
    summary.tier = compiled.tier;
    summary.selected = compiled.selected;
    summary.depth = metrics.depth;
    summary.cx = metrics.cx_count;
    summary.swaps = metrics.swap_gates;
    std::string payload, built, message;
    service::Request parsed;
    service::ErrorKind kind;
    service::Response decoded;
    const double enc = tracer_.time("service.request_encode", [&] {
        payload = service::build_request_payload(req);
    });
    const double dec = tracer_.time("service.request_decode", [&] {
        service::parse_request(payload, parsed, kind, message);
    });
    std::string key_again;
    const double k = tracer_.time("service.cache_key", [&] {
        key_again = service::PlanCache::make_key(parsed, parsed.tier);
    });
    const double look = tracer_.time("service.cache_lookup", [&] {
        (void)live_.mirror->lookup(key_again);
    });
    const double rj = tracer_.time("report.json", [&] {
        report_json = compiled.report.to_json();
    });
    std::string frag;
    const double fb = tracer_.time("service.fragment_build", [&] {
        frag = service::build_plan_fragment(summary, qasm, report_json);
    });
    const double ins = tracer_.time("service.cache_insert", [&] {
        live_.mirror->insert(key, fragment);
    });
    const double build = tracer_.time("service.response_build", [&] {
        built = service::build_result_payload(req.id, false, resp.queue_ms,
                                              resp.compile_ms, frag);
    });
    const double decode = tracer_.time("service.response_decode", [&] {
        service::parse_response(built, decoded, message);
    });
    layers_.compile.push_back(c);
    layers_.metrics.push_back(m);
    layers_.qasm.push_back(q);
    layers_.report_json.push_back(rj);
    layers_.fragment_build.push_back(fb);
    layers_.insert.push_back(ins);
    layers_.miss_rest.push_back(rt - (enc + dec + k + look + c + m + q +
                                      rj + fb + ins + build + decode));
}

/** The highest whole percentile with at least 10 samples beyond it. */
double
tail_quantile(std::size_t samples)
{
    const double n = static_cast<double>(samples);
    return std::max(0.5, std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0);
}

void
ServiceMixed::report(Result& result)
{
    if (!tracer_.on()) {
        const double q = tail_quantile(hit_rt_.size());
        std::printf("hit_tail_ms: %.0fth percentile of %zu hits\n",
                    q * 100.0, hit_rt_.size());
        std::vector<double> hit_levels, miss_levels;
        for (const auto& samples : hit_by_entry_)
            hit_levels.push_back(level(samples));
        for (const auto& samples : miss_by_shape_)
            miss_levels.push_back(level(samples));
        result.add("hit_ms", geomean(hit_levels), "ms");
        result.add("hit_tail_ms", quantile(hit_rt_, q), "ms");
        result.add("miss_ms", geomean(miss_levels), "ms");
        return;
    }
    result.add("service.request_encode_ms", median(layers_.encode), "ms");
    result.add("service.request_decode_ms", median(layers_.decode), "ms");
    result.add("service.cache_key_ms", median(layers_.key), "ms");
    result.add("service.cache_lookup_ms", median(layers_.lookup), "ms");
    result.add("service.response_build_ms", median(layers_.response_build),
               "ms");
    result.add("service.response_decode_ms", median(layers_.response_decode),
               "ms");
    result.add("service.transport_ms", median(layers_.transport), "ms");
    result.add("service.fragment_kib", median(fragment_kib_), "KiB");
    result.add("service.hit_ratio",
               static_cast<double>(hits_) / static_cast<double>(requests_),
               "ratio");
    result.add("service.miss_compile_ms", median(layers_.compile), "ms");
    result.add("service.miss_qasm_ms", median(layers_.qasm), "ms");
    result.add("service.miss_metrics_ms", median(layers_.metrics), "ms");
    result.add("service.miss_report_json_ms", median(layers_.report_json),
               "ms");
    result.add("service.fragment_build_ms", median(layers_.fragment_build),
               "ms");
    result.add("service.cache_insert_ms", median(layers_.insert), "ms");
    result.add("service.cache_mib",
               static_cast<double>(live_.server->cache().bytes()) /
                   (1024.0 * 1024.0),
               "MiB");
    result.add("unaccounted.miss_ms", median(layers_.miss_rest), "ms");
    result.add("trace.service_overhead_pct",
               (median(hit_rt_traced_) / median(hit_rt_untraced_) - 1.0) *
                   100.0,
               "%");
}

} // namespace

std::unique_ptr<Path>
make_service_mixed(const RunConfig& config, Tracer& tracer)
{
    return std::make_unique<ServiceMixed>(config, tracer);
}

} // namespace perfbench
