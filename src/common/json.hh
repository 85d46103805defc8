/**
 * @file
 * JSON text helpers shared by every report writer: bench `==JSON==`
 * blocks, sweep manifests and telemetry exports. Header-only in the
 * common layer so telemetry needs no dependency on the sim layer.
 */

#ifndef SL_COMMON_JSON_HH
#define SL_COMMON_JSON_HH

#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

namespace sl
{

/** JSON-escape the contents of @p s (no surrounding quotes). */
inline std::string
jsonEscape(const std::string& s)
{
    std::ostringstream os;
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(c)
                   << std::dec << std::setfill(' ');
            else
                os << c;
        }
    }
    return os.str();
}

/** Round-trippable double literal (max_digits10 precision). */
inline std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

} // namespace sl

#endif // SL_COMMON_JSON_HH
