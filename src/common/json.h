/**
 * @file
 * The JSON string escaper shared by every JSON writer in the library:
 * the service protocol, structured log lines, Chrome trace export and
 * the compile report. (The flight recorder keeps its own, because it
 * must stay async-signal-safe and may not allocate.)
 */
#ifndef PERMUQ_COMMON_JSON_H
#define PERMUQ_COMMON_JSON_H

#include <string>
#include <string_view>

namespace permuq {

/** End of the run of bytes from @p p that a JSON string literal holds
 *  as-is: anything but the quote, the backslash and control bytes. */
inline const char*
json_plain_run_end(const char* p, const char* end)
{
    for (; p != end; ++p) {
        const auto c = static_cast<unsigned char>(*p);
        if (c < 0x20 || c == '"' || c == '\\')
            break;
    }
    return p;
}

/**
 * Append @p raw to @p out, escaped for the inside of a JSON string
 * literal. Plain runs are copied in bulk; the quote, the backslash,
 * \n, \r and \t get their short escapes and every other control byte
 * becomes \u00XX (lowercase hex). Bytes >= 0x80 pass through.
 */
void json_escape_into(std::string& out, std::string_view raw);

/** @p raw escaped as by json_escape_into. */
std::string json_escape(std::string_view raw);

} // namespace permuq

#endif // PERMUQ_COMMON_JSON_H
