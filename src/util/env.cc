#include "util/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace imsr::util {
namespace {

void WarnMalformed(const char* name, const char* value) {
  std::fprintf(stderr,
               "imsr: ignoring malformed %s='%s' (expected an integer); "
               "using the default\n",
               name, value);
}

}  // namespace

EnvParse ParseEnvInt(const std::string& text, int64_t min_value,
                     int64_t* value) {
  if (text.empty()) return EnvParse::kMalformed;
  int64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min_value) {
    return EnvParse::kMalformed;
  }
  *value = parsed;
  return EnvParse::kParsed;
}

int64_t EnvInt(const char* name, int64_t default_value, int64_t min_value,
               EnvParse* outcome) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) {
    if (outcome != nullptr) *outcome = EnvParse::kUnset;
    return default_value;
  }
  int64_t value = default_value;
  const EnvParse parse = ParseEnvInt(raw, min_value, &value);
  if (outcome != nullptr) *outcome = parse;
  if (parse == EnvParse::kMalformed) {
    WarnMalformed(name, raw);
    return default_value;
  }
  return value;
}

}  // namespace imsr::util
