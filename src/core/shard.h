/**
 * @file
 * Region-sharded hierarchical compilation for fabric-scale devices
 * (10k-100k qubits).
 *
 * The paper's unit decomposition (§3) makes regular architectures
 * self-similar: a horizontal band of a grid/Sycamore fabric is itself
 * a grid/Sycamore device, and the row-major qubit numbering makes the
 * band a contiguous physical-id range. The sharder exploits this:
 *
 *  1. partition the device into ~k contiguous unit bands (ShardPlan);
 *  2. assign logical qubit v to the band owning physical position v
 *     (the compiler's documented identity start, so sharding off/on
 *     agree on which program qubits are "near" each other);
 *  3. compile each band's induced subproblem independently on the
 *     band's exact sub-device — full PermuQ pipeline per region
 *     (greedy + ATA prediction + multi-start), concurrently on the
 *     shared thread pool; equal-size bands are the same sub-device,
 *     built once with its distance table before the fan-out;
 *  4. stitch: translate region circuits into the global id space
 *     (a single offset add per op), then route every cross-band
 *     problem edge with the inter-region router, which walks the
 *     endpoints together over BFS distances computed on demand
 *     (graph::BfsOracle — no dense all-pairs table is ever built).
 *
 * Determinism: regions are assembled in band order and the stitch
 * order is a sorted edge list, so a fixed seed and fixed region count
 * give bit-identical output at any thread count. Memory: the dense
 * DistanceMatrix is only ever built per distinct band shape (one
 * (n/k)^2 table for k even bands instead of one n^2 table), and the
 * streaming entry point emits QASM
 * as regions complete without materializing the global circuit.
 */
#ifndef PERMUQ_CORE_SHARD_H
#define PERMUQ_CORE_SHARD_H

#include <cstdint>
#include <vector>

#include "arch/coupling_graph.h"
#include "circuit/qasm.h"
#include "core/compiler.h"
#include "core/options.h"
#include "graph/graph.h"

namespace permuq::core {

/** One contiguous physical band of the device. */
struct ShardRegion
{
    /** First global physical id of the band (bands are contiguous). */
    std::int32_t first_qubit = 0;
    /** Number of physical positions in the band. */
    std::int32_t num_qubits = 0;
    /** First device unit (row) of the band; -1 for Line devices,
     *  which band directly by qubit index. */
    std::int32_t first_unit = -1;
    /** Units (rows) spanned; -1 for Line devices. */
    std::int32_t num_units = -1;
};

/** A banding of the device into regions. */
struct ShardPlan
{
    /** True when the device banded into >= 2 exact sub-devices;
     *  false means the caller must use the unsharded compiler. */
    bool shardable = false;
    /** Bands in ascending physical order, covering every qubit. */
    std::vector<ShardRegion> regions;
};

/**
 * Partition @p device into at most @p want_regions contiguous bands
 * of at least 1 + @p margin units each (Line devices: qubits each).
 * Only Line, Grid, and Sycamore devices band exactly (Sycamore bands
 * are clamped to even rows so the zig-zag coupler parity of each
 * sub-device matches the fabric); every other architecture — and any
 * banding that would leave fewer than two regions — returns an
 * unshardable plan.
 */
ShardPlan plan_shards(const arch::CouplingGraph& device,
                      std::int32_t want_regions, std::int32_t margin);

/** Build the exact sub-device of one band of @p device. */
arch::CouplingGraph make_band_device(const arch::CouplingGraph& device,
                                     const ShardRegion& region);

/**
 * Sharded compile with a materialized result: equivalent in interface
 * to core::compile (metrics, selected = "sharded", wall time) and
 * verified by the same Tier A/B checkers. The region-local optimizers
 * run noise-blind (a NoiseModel indexes global links; the final
 * metrics still account for it); @p options.shard_regions chooses the
 * band count. Falls back to core::compile when the device or region
 * count is unshardable.
 */
CompileResult shard_compile(const arch::CouplingGraph& device,
                            const graph::Graph& problem,
                            const CompilerOptions& options);

/** Outcome of a streaming sharded compile. */
struct ShardStreamResult
{
    /** Aggregate metrics of the emitted program (noise-blind). */
    circuit::Metrics metrics;
    /** Total ops emitted across all chunks. */
    std::int64_t total_ops = 0;
    /** Largest number of circuit bytes live at once (max over time of
     *  the in-flight region circuits + stitch tail). */
    std::size_t peak_circuit_bytes = 0;
    /** Regions the plan used. */
    std::int32_t regions = 0;
    /** Cross-band problem edges routed by the stitcher. */
    std::int64_t stitched_edges = 0;
    double compile_seconds = 0.0;
    /** Per-compile explain report (band rows, stitch attribution,
     *  cache rates) — same shape as CompileResult::report. */
    CompileReport report;
};

/**
 * Sharded compile that streams OpenQASM into @p writer as regions
 * complete instead of materializing the global circuit: regions are
 * compiled one at a time, emitted as one chunk each (in band order,
 * ids translated by the band offset), and freed before the next
 * region starts; the stitch tail is emitted as the final chunk. Peak
 * circuit memory is one region plus the stitch tail. The device must
 * be shardable (check plan_shards) and @p options.noise must be null.
 * Byte-identical to emitting shard_compile()'s chunks region by
 * region with the same writer options.
 */
ShardStreamResult
shard_compile_stream(const arch::CouplingGraph& device,
                     const graph::Graph& problem,
                     const CompilerOptions& options,
                     circuit::QasmStreamWriter& writer);

} // namespace permuq::core

#endif // PERMUQ_CORE_SHARD_H
