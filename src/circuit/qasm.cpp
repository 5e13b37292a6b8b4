#include "qasm.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "circuit/metrics.h"
#include "common/error.h"

namespace permuq::circuit {

namespace {

/** Widest decimal std::int32_t ("-2147483648"). */
constexpr std::size_t kMaxIdChars = 11;
/** Widest "cx q[a],q[b];\n" line. */
constexpr std::size_t kMaxCxLine = 5 + kMaxIdChars + 4 + kMaxIdChars + 3;

char*
put(char* p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

char*
put_id(char* p, std::int32_t id)
{
    return std::to_chars(p, p + kMaxIdChars, id).ptr;
}

/** "<prefix><id>];\n", e.g. prefix "h q[" or "rz(0.5) q[". */
char*
put_line(char* p, std::string_view prefix, std::int32_t id)
{
    return put(put_id(put(p, prefix), id), "];\n");
}

char*
put_cx(char* p, std::int32_t a, std::int32_t b)
{
    return put_line(put_id(put(p, "cx q["), a), "],q[", b);
}

/** "<name>(<2 angle>) q[" with @p angle inserted as by operator<<
 *  into a stream carrying @p format's precision, flags and locale. */
std::string
rotation_prefix(const char* name, double angle, const std::ios& format)
{
    std::ostringstream text;
    text.copyfmt(format);
    text.width(0);
    text << name << '(' << 2.0 * angle << ") q[";
    return text.str();
}

} // namespace

QasmStreamWriter::QasmStreamWriter(std::ostream& out,
                                   const QasmOptions& options)
    : QasmStreamWriter(&out, out, options)
{
}

QasmStreamWriter::QasmStreamWriter(std::ostream* out,
                                   const std::ios& format,
                                   const QasmOptions& options)
    : out_(out), options_(options),
      rz_prefix_(rotation_prefix("rz", options.gamma, format)),
      rx_prefix_(rotation_prefix("rx", options.beta, format))
{
    // One merged op lowers to three cx lines and one rz line; every
    // other line is shorter than that or is one rx line.
    op_scratch_.resize(3 * kMaxCxLine +
                       std::max(rz_prefix_.size(), rx_prefix_.size()) +
                       kMaxIdChars + 3);
    if (out_ != nullptr)
        buffer_.reserve(kFlushBytes + op_scratch_.size());
}

void
QasmStreamWriter::emit(const char* end)
{
    buffer_.append(std::as_const(op_scratch_).data(), end);
    if (out_ == nullptr || buffer_.size() < kFlushBytes)
        return;
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
QasmStreamWriter::begin(const Mapping& initial)
{
    fatal_unless(!begun_, "QasmStreamWriter::begin called twice");
    begun_ = true;
    char* const line = op_scratch_.data();
    emit(put_line(put(line, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"),
                  "qreg q[", initial.num_physical()));
    if (!options_.full_qaoa)
        return;
    emit(put_line(line, "creg c[", initial.num_logical()));
    // Initial |+> on every position holding a program qubit.
    for (std::int32_t l = 0; l < initial.num_logical(); ++l)
        emit(put_line(line, "h q[", initial.physical_of(l)));
}

void
QasmStreamWriter::chunk(const Circuit& fragment, std::int32_t offset)
{
    fatal_unless(begun_ && !finished_,
                 "QasmStreamWriter::chunk outside begin/finish");
    const auto& ops = fragment.ops();
    std::vector<std::int64_t> partner;
    if (options_.merge_pairs)
        partner = merge_partner(fragment);
    std::vector<bool> consumed(ops.size(), false);
    char* const start = op_scratch_.data();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (consumed[i])
            continue;
        const auto& op = ops[i];
        const std::int32_t p = op.p + offset;
        const std::int32_t q = op.q + offset;
        const std::int64_t pair = partner.empty() ? -1 : partner[i];
        char* end = put_cx(start, p, q);
        if (pair >= 0) {
            // Merged ZZ+SWAP (either order; the two commute):
            //   SWAP*RZZ(t) = CX(a,b) CX(b,a) RZ_b(t) CX(a,b),
            // i.e. in circuit order cx; rz; cx reversed; cx.
            consumed[static_cast<std::size_t>(pair)] = true;
            end = put_cx(put_line(end, rz_prefix_, q), q, p);
        } else if (op.kind == OpKind::Compute) {
            end = put_line(end, rz_prefix_, q);
        } else {
            end = put_cx(end, q, p);
        }
        emit(put_cx(end, p, q));
    }
}

void
QasmStreamWriter::finish(const Mapping& final_mapping)
{
    fatal_unless(begun_ && !finished_,
                 "QasmStreamWriter::finish outside begin");
    finished_ = true;
    if (options_.full_qaoa) {
        char* const line = op_scratch_.data();
        for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l)
            emit(put_line(line, rx_prefix_, final_mapping.physical_of(l)));
        for (std::int32_t l = 0; l < final_mapping.num_logical(); ++l)
            emit(put_line(put_id(put(line, "measure q["),
                                 final_mapping.physical_of(l)),
                          "] -> c[", l));
    }
    if (out_ == nullptr)
        return;
    out_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
    out_->flush();
}

std::string
to_qasm(const Circuit& circ, const QasmOptions& options)
{
    // A fresh stream's format state: what operator<< into a new
    // ostringstream would write.
    const std::ios default_format(nullptr);
    QasmStreamWriter writer(nullptr, default_format, options);
    writer.begin(circ.initial_mapping());
    writer.chunk(circ);
    writer.finish(circ.final_mapping());
    return std::move(writer.buffer_);
}

std::string
to_diagram(const Circuit& circ)
{
    std::int32_t n = circ.initial_mapping().num_physical();
    Cycle depth = circ.depth();
    fatal_unless(n <= 64 && depth <= 256,
                 "diagram limited to 64 qubits x 256 cycles");
    // grid[q][cycle] = 3-char cell.
    std::vector<std::vector<std::string>> grid(
        static_cast<std::size_t>(n),
        std::vector<std::string>(static_cast<std::size_t>(depth), "---"));
    for (const auto& op : circ.ops()) {
        const char* mark = op.kind == OpKind::Compute ? "-o-" : "-x-";
        grid[static_cast<std::size_t>(op.p)][static_cast<std::size_t>(
            op.cycle)] = mark;
        grid[static_cast<std::size_t>(op.q)][static_cast<std::size_t>(
            op.cycle)] = mark;
    }
    std::ostringstream out;
    for (std::int32_t q = 0; q < n; ++q) {
        out << "q" << q << (q < 10 ? " " : "") << " ";
        for (Cycle c = 0; c < depth; ++c)
            out << grid[static_cast<std::size_t>(q)][static_cast<
                std::size_t>(c)];
        out << "\n";
    }
    return out.str();
}

} // namespace permuq::circuit
