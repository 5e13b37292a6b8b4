#include "common/json.h"

namespace permuq {

void
json_escape_into(std::string& out, std::string_view raw)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char* p = raw.data();
    const char* const end = p + raw.size();
    out.reserve(out.size() + raw.size() + raw.size() / 16);
    while (p != end) {
        const char* const run = json_plain_run_end(p, end);
        out.append(p, run);
        if (run == end)
            break;
        const auto c = static_cast<unsigned char>(*run);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            const char unicode[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                    kHex[c & 0xF]};
            out.append(unicode, sizeof unicode);
        }
        }
        p = run + 1;
    }
}

std::string
json_escape(std::string_view raw)
{
    std::string out;
    json_escape_into(out, raw);
    return out;
}

} // namespace permuq
