/**
 * @file
 * OpenQASM 2.0 export of compiled circuits, so PermuQ output can be
 * fed to external stacks (Qiskit, simulators, hardware queues).
 *
 * A compiled circuit is an abstract schedule of CPHASE/RZZ and SWAP
 * slots; export lowers it to the CX + single-qubit-rotation basis used
 * throughout the evaluation:
 *   - compute (ZZ-interaction, angle 2*gamma):
 *       cx a,b; rz(2*gamma) b; cx a,b
 *   - swap: cx a,b; cx b,a; cx a,b
 *   - compute immediately followed by swap on the same pair merges to
 *     three CX (the unification the metrics count):
 *       cx a,b; rz(2*gamma) b; cx b,a; cx a,b
 * Optionally a full QAOA program is emitted: initial Hadamards, the
 * phase separator (the compiled circuit), and the RX mixer.
 */
#ifndef PERMUQ_CIRCUIT_QASM_H
#define PERMUQ_CIRCUIT_QASM_H

#include <cstddef>
#include <ios>
#include <string>

#include "circuit/circuit.h"

namespace permuq::circuit {

/** Options controlling QASM emission. */
struct QasmOptions
{
    /** ZZ-interaction angle (QAOA gamma); every compute op uses it. */
    double gamma = 0.5;
    /** Emit the full QAOA layer: H column, phase separator, RX mixer
     *  with this beta, and measurements of the logical qubits. */
    bool full_qaoa = false;
    double beta = 0.4;
    /** Apply the CPHASE+SWAP merging when lowering. */
    bool merge_pairs = true;
};

/** Serialize @p circ as an OpenQASM 2.0 program. */
std::string to_qasm(const Circuit& circ, const QasmOptions& options = {});

/**
 * Incremental OpenQASM 2.0 emission: the program is written to an
 * ostream in chunks as parts of the compilation complete, so a
 * fabric-scale (100k-qubit) compile never materializes the whole
 * program text — or even the whole circuit — in memory. Text is
 * lowered into a fixed-size buffer (64 KiB) that is written to
 * the stream whenever it fills, so memory stays bounded within a chunk
 * too.
 *
 * The stream's format state at construction (precision, flags, locale)
 * governs the rz/rx angle text, exactly as if the angles were inserted
 * with operator<<; qubit ids are always plain decimal.
 *
 * Protocol: begin(global initial mapping), then chunk() once per
 * circuit fragment in program order, then finish(global final
 * mapping). CPHASE+SWAP pair merging is chunk-local (a merge never
 * spans a chunk boundary); the sharded compiler's canonical QASM is
 * defined as one chunk per region plus one stitch chunk, and a
 * single-chunk emission is byte-identical to to_qasm().
 */
class QasmStreamWriter
{
  public:
    /** @p out must outlive the writer. */
    explicit QasmStreamWriter(std::ostream& out,
                              const QasmOptions& options = {});

    /** Emit the header (and the |+> prelude when full_qaoa). */
    void begin(const Mapping& initial);

    /**
     * Lower and emit all ops of @p fragment, shifting every physical
     * qubit id by @p offset (region chunks are compiled in a local id
     * space; contiguous banding makes the translation a single add).
     */
    void chunk(const Circuit& fragment, std::int32_t offset = 0);

    /** Emit the RX mixer + measurements (full_qaoa) and flush. */
    void finish(const Mapping& final_mapping);

    const QasmOptions& options() const { return options_; }

  private:
    /** Buffered bytes that trigger a write to the stream. */
    static constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

    friend std::string to_qasm(const Circuit&, const QasmOptions&);

    /** @p out null: lower into buffer_ and never flush (to_qasm). */
    QasmStreamWriter(std::ostream* out, const std::ios& format,
                     const QasmOptions& options);

    /** Append op_scratch_ up to @p end; write the buffer to the
     *  stream once it holds kFlushBytes. */
    void emit(const char* end);

    std::ostream* out_;
    QasmOptions options_;
    /** "rz(<2 gamma>) q[" and "rx(<2 beta>) q[", formatted once. */
    std::string rz_prefix_;
    std::string rx_prefix_;
    /** Lowered text not yet written to out_ (all of it for to_qasm). */
    std::string buffer_;
    /** Room for the lines one op lowers to. */
    std::string op_scratch_;
    bool begun_ = false;
    bool finished_ = false;
};

/**
 * Render a fixed-width text diagram of the circuit, one line per
 * physical qubit, one column per cycle — the format used by the
 * pattern-explorer example and handy in tests/debugging.
 * Columns: "─●─" endpoints for computes, "─x─" for swaps.
 */
std::string to_diagram(const Circuit& circ);

} // namespace permuq::circuit

#endif // PERMUQ_CIRCUIT_QASM_H
