/**
 * @file
 * Tests of the OpenQASM export: structural checks plus a semantic
 * check that the lowered CX/RZ sequence implements the same unitary
 * as the abstract RZZ/SWAP schedule (verified with the statevector
 * simulator, including the merged CPHASE+SWAP identity).
 */
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "arch/coupling_graph.h"
#include "circuit/circuit.h"
#include "circuit/qasm.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "problem/generators.h"
#include "sim/statevector.h"

namespace permuq::circuit {
namespace {

std::int64_t
count_occurrences(const std::string& text, const std::string& what)
{
    std::int64_t count = 0;
    for (std::size_t pos = text.find(what); pos != std::string::npos;
         pos = text.find(what, pos + 1))
        ++count;
    return count;
}

TEST(QasmTest, HeaderAndRegisters)
{
    Circuit c(Mapping(2, 3));
    c.add_compute(0, 1);
    auto qasm = to_qasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_EQ(qasm.find("creg"), std::string::npos);
}

TEST(QasmTest, CxCountMatchesMetrics)
{
    // The emitted cx instructions must agree with the metrics' CX
    // count, including merging.
    auto device = arch::make_grid(3, 3);
    auto problem = problem::random_graph(9, 0.5, 3);
    auto compiled = core::compile(device, problem);
    auto qasm = to_qasm(compiled.circuit);
    auto metrics = compute_metrics(compiled.circuit);
    EXPECT_EQ(count_occurrences(qasm, "cx q["), metrics.cx_count);
}

TEST(QasmTest, UnmergedEmissionIsLarger)
{
    auto device = arch::make_grid(3, 3);
    auto problem = problem::random_graph(9, 0.5, 3);
    auto compiled = core::compile(device, problem);
    QasmOptions unmerged;
    unmerged.merge_pairs = false;
    auto plain = to_qasm(compiled.circuit, unmerged);
    auto merged = to_qasm(compiled.circuit);
    EXPECT_GE(count_occurrences(plain, "cx q["),
              count_occurrences(merged, "cx q["));
}

TEST(QasmTest, FullQaoaHasPreludeAndMeasurements)
{
    Circuit c(Mapping(3, 4));
    c.add_compute(0, 1);
    c.add_compute(1, 2);
    QasmOptions options;
    options.full_qaoa = true;
    auto qasm = to_qasm(c, options);
    EXPECT_EQ(count_occurrences(qasm, "h q["), 3);
    EXPECT_EQ(count_occurrences(qasm, "rx("), 3);
    EXPECT_EQ(count_occurrences(qasm, "measure "), 3);
    EXPECT_NE(qasm.find("creg c[3];"), std::string::npos);
}

/**
 * Interpret the emitted QASM with the statevector simulator (only the
 * gates we emit: h / cx / rz / rx / measure-ignored).
 */
void
run_qasm(const std::string& qasm, sim::Statevector& sv)
{
    std::istringstream in(qasm);
    std::string line;
    auto q_of = [](const std::string& s, std::size_t from) {
        std::size_t lb = s.find("q[", from);
        return std::stoi(s.substr(lb + 2));
    };
    while (std::getline(in, line)) {
        if (line.rfind("cx ", 0) == 0) {
            int a = q_of(line, 0);
            std::size_t comma = line.find(',');
            int b = q_of(line, comma);
            sv.apply_cx(a, b);
        } else if (line.rfind("rz(", 0) == 0) {
            double theta = std::stod(line.substr(3));
            sv.apply_rz(q_of(line, 0), theta);
        } else if (line.rfind("rx(", 0) == 0) {
            double theta = std::stod(line.substr(3));
            sv.apply_rx(q_of(line, 0), theta);
        } else if (line.rfind("h ", 0) == 0) {
            sv.apply_h(q_of(line, 0));
        }
    }
}

TEST(QasmTest, LoweredUnitaryMatchesAbstractSchedule)
{
    // Random small circuits: compare the lowered gate sequence with
    // direct RZZ/SWAP application on a random-ish input state.
    Xoshiro256 rng(9);
    for (int trial = 0; trial < 8; ++trial) {
        std::int32_t n = 4;
        Circuit circ(Mapping(n, n));
        for (int k = 0; k < 10; ++k) {
            auto p = static_cast<std::int32_t>(rng.next_below(n));
            auto q = static_cast<std::int32_t>(rng.next_below(n));
            if (p == q)
                continue;
            if (rng.next_below(2) == 0)
                circ.add_compute(p, q);
            else
                circ.add_swap(p, q);
        }
        QasmOptions options;
        options.gamma = 0.37;

        // Reference: apply the schedule directly. SWAP moves state;
        // compute is RZZ(2*gamma) on the positions.
        sim::Statevector want(n), got(n);
        for (std::int32_t q = 0; q < n; ++q) {
            want.apply_h(q);
            want.apply_rz(q, 0.3 + q); // break symmetry
            got.apply_h(q);
            got.apply_rz(q, 0.3 + q);
        }
        for (const auto& op : circ.ops()) {
            if (op.kind == OpKind::Compute) {
                // cx; rz(2g) target; cx  == RZZ up to global phase:
                // e^{-i g} diag(1, e^{2ig}, e^{2ig}, 1); reproduce the
                // exact lowered unitary for comparison.
                want.apply_cx(op.p, op.q);
                want.apply_rz(op.q, 2.0 * options.gamma);
                want.apply_cx(op.p, op.q);
            } else {
                want.apply_swap(op.p, op.q);
            }
        }
        run_qasm(to_qasm(circ, options), got);
        // Compare amplitudes up to global phase.
        std::complex<double> phase(0, 0);
        double err = 0.0;
        for (std::size_t i = 0; i < want.amplitudes().size(); ++i) {
            if (std::abs(want.amplitudes()[i]) > 1e-9 &&
                std::abs(phase) < 0.5)
                phase = got.amplitudes()[i] / want.amplitudes()[i];
        }
        ASSERT_GT(std::abs(phase), 0.5);
        for (std::size_t i = 0; i < want.amplitudes().size(); ++i)
            err += std::abs(got.amplitudes()[i] -
                            phase * want.amplitudes()[i]);
        EXPECT_LT(err, 1e-9) << "trial " << trial;
    }
}

// ------------------------------------------------------- frozen bytes

/** FNV-1a over the bytes of @p text. */
std::uint64_t
text_hash(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct QasmGoldenCase
{
    const char* name;
    arch::ArchKind kind;
    std::int32_t n;
    core::CompileTier tier;
    QasmOptions options;
    /** Compile as a region-sharded fabric (grid only). */
    bool sharded;
    std::uint64_t hash;
};

QasmOptions
qasm_options(double gamma, bool full_qaoa, double beta, bool merge_pairs)
{
    QasmOptions o;
    o.gamma = gamma;
    o.full_qaoa = full_qaoa;
    o.beta = beta;
    o.merge_pairs = merge_pairs;
    return o;
}

const QasmOptions kDefault{};

// Frozen from the ostream-based emitter: the lowering may change how
// it formats, never what it writes.
const QasmGoldenCase kQasmGolden[] = {
    {"grid-fast", arch::ArchKind::Grid, 64, core::CompileTier::Fast,
     kDefault, false,
     0x408cf601ff1879adull},
    {"grid-balanced", arch::ArchKind::Grid, 64,
     core::CompileTier::Balanced, kDefault, false,
     0xedd47b318820210cull},
    {"grid-best", arch::ArchKind::Grid, 64, core::CompileTier::Best,
     kDefault, false,
     0xedd47b318820210cull},
    {"heavyhex-fast", arch::ArchKind::HeavyHex, 64,
     core::CompileTier::Fast, kDefault, false,
     0x8541cd0e974f49c2ull},
    {"heavyhex-balanced", arch::ArchKind::HeavyHex, 64,
     core::CompileTier::Balanced, kDefault, false,
     0xd3cb990dd3f1841ull},
    {"heavyhex-best", arch::ArchKind::HeavyHex, 64,
     core::CompileTier::Best, kDefault, false,
     0xd3cb990dd3f1841ull},
    {"sycamore-fast", arch::ArchKind::Sycamore, 64,
     core::CompileTier::Fast, kDefault, false,
     0x1a284a77360f1d5bull},
    {"sycamore-balanced", arch::ArchKind::Sycamore, 64,
     core::CompileTier::Balanced, kDefault, false,
     0x4ab8f4139be7b49ull},
    {"sycamore-best", arch::ArchKind::Sycamore, 64,
     core::CompileTier::Best, kDefault, false,
     0x4ab8f4139be7b49ull},
    {"heavyhex-unmerged", arch::ArchKind::HeavyHex, 64,
     core::CompileTier::Balanced, qasm_options(0.5, false, 0.4, false),
     false,
     0xb7e58cb0794f1f57ull},
    {"grid-full-qaoa", arch::ArchKind::Grid, 64, core::CompileTier::Fast,
     qasm_options(0.5, true, 0.4, true), false,
     0xa0a6d482d4f259baull},
    {"angle-0.5", arch::ArchKind::Sycamore, 32, core::CompileTier::Fast,
     qasm_options(0.5, true, 0.5, true), false,
     0xc28fcc849376ad9dull},
    {"angle-0.123456789", arch::ArchKind::Sycamore, 32,
     core::CompileTier::Fast,
     qasm_options(0.123456789, true, 0.123456789, true), false,
     0x7d41f23f622b0c24ull},
    {"angle-1e-7", arch::ArchKind::Sycamore, 32, core::CompileTier::Fast,
     qasm_options(1e-7, true, 1e-7, true), false,
     0xaa6cbf4776a27a3ull},
    {"angle--0.3", arch::ArchKind::Sycamore, 32, core::CompileTier::Fast,
     qasm_options(-0.3, true, -0.3, false), false,
     0x8e56c71cacf0955bull},
    {"angle-1234.5678", arch::ArchKind::Sycamore, 32,
     core::CompileTier::Fast,
     qasm_options(1234.5678, true, 1234.5678, true), false,
     0x697e568b594c3a52ull},
    {"grid-sharded", arch::ArchKind::Grid, 64, core::CompileTier::Best,
     kDefault, true,
     0x73ad3af8025b0a2ull},
};

core::CompileResult
compile_golden(const QasmGoldenCase& c)
{
    core::CompilerOptions options;
    options.tier = c.tier;
    if (c.sharded) {
        options.shard_regions = 4;
        return core::compile(arch::make_grid(8, 8),
                             problem::fabric_local_graph(8, 8, 0.5, 2, 7),
                             options);
    }
    return core::compile(arch::smallest_arch(c.kind, c.n),
                         problem::random_graph(c.n, 0.3, 23), options);
}

TEST(QasmGoldenTest, TextMatchesFrozenHashes)
{
    for (const auto& c : kQasmGolden) {
        const auto compiled = compile_golden(c);
        const std::string text = to_qasm(compiled.circuit, c.options);
        EXPECT_EQ(text_hash(text), c.hash)
            << c.name << ": 0x" << std::hex << text_hash(text);
    }
}

TEST(QasmGoldenTest, StreamedChunkWithOffsetMatchesToQasm)
{
    // Lowering a fragment with an id offset must write exactly what
    // to_qasm writes for the same circuit built in shifted ids.
    const std::int32_t shift = 1000;
    auto device = arch::make_grid(5, 5);
    auto problem = problem::random_graph(20, 0.4, 5);
    core::CompilerOptions options;
    options.tier = core::CompileTier::Fast;
    const auto compiled = core::compile(device, problem, options);
    const Circuit& local = compiled.circuit;

    auto shifted_mapping = [&](const Mapping& m) {
        std::vector<PhysicalQubit> phys;
        for (std::int32_t l = 0; l < m.num_logical(); ++l)
            phys.push_back(m.physical_of(l) + shift);
        return Mapping(std::move(phys), m.num_physical() + shift);
    };
    Circuit shifted(shifted_mapping(local.initial_mapping()));
    for (const auto& op : local.ops()) {
        if (op.kind == OpKind::Compute)
            shifted.add_compute(op.p + shift, op.q + shift);
        else
            shifted.add_swap(op.p + shift, op.q + shift);
    }

    for (const auto& qasm : {kDefault, qasm_options(0.3, true, 0.2, true),
                             qasm_options(0.7, false, 0.4, false)}) {
        std::ostringstream streamed;
        QasmStreamWriter writer(streamed, qasm);
        writer.begin(shifted.initial_mapping());
        writer.chunk(local, shift);
        writer.finish(shifted.final_mapping());
        EXPECT_EQ(streamed.str(), to_qasm(shifted, qasm));
    }
}

TEST(QasmGoldenTest, CallerStreamPrecisionControlsAngles)
{
    Circuit c(Mapping(2, 2));
    c.add_compute(0, 1);
    const QasmOptions options = qasm_options(0.123456789, true, 0.1, true);

    std::ostringstream precise;
    precise << std::setprecision(12);
    QasmStreamWriter writer(precise, options);
    writer.begin(c.initial_mapping());
    writer.chunk(c);
    writer.finish(c.final_mapping());
    EXPECT_NE(precise.str().find("rz(0.246913578) q[1];"),
              std::string::npos)
        << precise.str();
    EXPECT_NE(precise.str().find("rx(0.2) q[0];"), std::string::npos);

    // A long angle text still fits the writer's line scratch.
    std::ostringstream wide;
    wide << std::fixed << std::setprecision(150);
    QasmStreamWriter wide_writer(wide, qasm_options(0.5, true, 0.1, true));
    wide_writer.begin(c.initial_mapping());
    wide_writer.chunk(c);
    wide_writer.finish(c.final_mapping());
    std::ostringstream rx_line;
    rx_line << std::fixed << std::setprecision(150) << "rx(" << 2.0 * 0.1
            << ") q[0];\n";
    EXPECT_GT(rx_line.str().size(), 150u);
    EXPECT_NE(wide.str().find(rx_line.str()), std::string::npos);

    // The default stream precision (6) is what to_qasm writes.
    EXPECT_NE(to_qasm(c, options).find("rz(0.246914) q[1];"),
              std::string::npos);
}

TEST(DiagramTest, ShowsOpsAtTheirCycles)
{
    Circuit c(Mapping(3, 3));
    c.add_compute(0, 1);
    c.add_swap(1, 2);
    auto diagram = to_diagram(c);
    // Three qubit lines, 2 cycles wide.
    EXPECT_EQ(count_occurrences(diagram, "\n"), 3);
    EXPECT_NE(diagram.find("-o-"), std::string::npos);
    EXPECT_NE(diagram.find("-x-"), std::string::npos);
    // Qubit 0 has the compute in cycle 0 and idles in cycle 1.
    EXPECT_NE(diagram.find("q0  -o----"), std::string::npos);
}

} // namespace
} // namespace permuq::circuit
