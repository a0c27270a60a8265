// Strict environment-variable parsing for the library's integer knobs
// (today only IMSR_THREADS, the default thread-pool size):
//
//  * integers are parsed with full-token std::from_chars — "4x" or "abc"
//    never silently become 4 or 0 (the std::atoi failure modes);
//  * a malformed or out-of-range value warns once on stderr and falls
//    back to the caller's default, so a typo degrades loudly instead of
//    silently changing the setting.
//
// Unset variables return the default without a warning.
#ifndef IMSR_UTIL_ENV_H_
#define IMSR_UTIL_ENV_H_

#include <cstdint>
#include <string>

namespace imsr::util {

// Parsed state of one environment variable.
enum class EnvParse {
  kUnset,      // variable absent -> default applies
  kParsed,     // well-formed value
  kMalformed,  // garbage value -> default applies (warning emitted)
};

// Integer knob. Full-token parse; values below `min_value` count as
// malformed (e.g. IMSR_THREADS=0). Returns `default_value` when unset or
// malformed. `outcome` (nullable) reports which case applied.
int64_t EnvInt(const char* name, int64_t default_value,
               int64_t min_value = INT64_MIN, EnvParse* outcome = nullptr);

// Testing-only parsing core (no getenv, no warning): exposed so the
// rejection path has direct unit coverage.
EnvParse ParseEnvInt(const std::string& text, int64_t min_value,
                     int64_t* value);

}  // namespace imsr::util

#endif  // IMSR_UTIL_ENV_H_
