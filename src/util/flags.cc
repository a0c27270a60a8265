#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace imsr::util {
namespace {

// Splits "--name=value" / "--name" into (name, value), value "true" when
// omitted. Returns false (and leaves the outputs alone) for tokens that
// are not flag-shaped.
bool SplitFlagToken(const std::string& arg, std::string* name,
                    std::string* value) {
  if (arg.rfind("--", 0) != 0) return false;
  const std::string body = arg.substr(2);
  const size_t eq = body.find('=');
  if (eq == std::string::npos) {
    *name = body;
    *value = "true";
  } else {
    *name = body.substr(0, eq);
    *value = body.substr(eq + 1);
  }
  return true;
}

// Levenshtein distance with early exit once every entry in the current
// row exceeds `limit` (flag names are short, so the O(n*m) DP is cheap).
size_t EditDistance(const std::string& a, const std::string& b,
                    size_t limit) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    size_t best = row[0];
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t substitute = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
      best = std::min(best, row[j]);
    }
    if (best > limit) return limit + 1;
  }
  return row[b.size()];
}

// Full-token value parsers: trailing garbage is an error. On failure
// they fill `error` with the message the CLI tests assert on
// ("flag --name expects an integer, got '...'").
bool ParseFlagInt(const std::string& name, const std::string& text,
                  int64_t* out, std::string* error) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    if (error != nullptr) {
      *error =
          "flag --" + name + " expects an integer, got '" + text + "'";
    }
    return false;
  }
  *out = value;
  return true;
}

bool ParseFlagDouble(const std::string& name, const std::string& text,
                     double* out, std::string* error) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    if (error != nullptr) {
      *error = "flag --" + name + " expects a number, got '" + text + "'";
    }
    return false;
  }
  *out = value;
  return true;
}

bool ParseFlagBool(const std::string& name, const std::string& text,
                   bool* out, std::string* error) {
  if (text == "true" || text == "1") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0") {
    *out = false;
    return true;
  }
  if (error != nullptr) {
    *error = "flag --" + name + " expects a boolean (true/false), got '" +
             text + "'";
  }
  return false;
}

// Renders a number the way HelpText and the bound errors print it.
std::string NumberText(double value) {
  std::ostringstream text;
  text << value;
  return text.str();
}

}  // namespace

std::string SuggestFlagName(const std::string& name,
                            const std::vector<std::string>& known) {
  // Tolerate more typos in longer names, but never suggest something
  // less than half-right.
  const size_t limit = std::max<size_t>(1, name.size() / 3);
  std::string best;
  size_t best_distance = limit + 1;
  for (const std::string& candidate : known) {
    const size_t d = EditDistance(name, candidate, limit);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

FlagSet::FlagSet(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

FlagSet::Spec* FlagSet::Register(const std::string& name, Type type,
                                 const std::string& help) {
  IMSR_CHECK(index_.count(name) == 0)
      << "flag --" << name << " registered twice";
  index_[name] = specs_.size();
  Spec& spec = specs_.emplace_back();
  spec.name = name;
  spec.type = type;
  spec.help = help;
  return &spec;
}

void FlagSet::AddString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  Spec* spec = Register(name, Type::kString, help);
  spec->string_value = default_value;
  spec->default_text = default_value.empty() ? "\"\"" : default_value;
}

void FlagSet::AddInt(const std::string& name, int64_t default_value,
                     const std::string& help, std::optional<int64_t> min) {
  Spec* spec = Register(name, Type::kInt, help);
  spec->int_value = default_value;
  spec->default_text = std::to_string(default_value);
  spec->int_min = min;
  if (min) spec->min_text = std::to_string(*min);
}

void FlagSet::AddDouble(const std::string& name, double default_value,
                        const std::string& help, std::optional<double> min) {
  Spec* spec = Register(name, Type::kDouble, help);
  spec->double_value = default_value;
  spec->default_text = NumberText(default_value);
  spec->double_min = min;
  if (min) spec->min_text = NumberText(*min);
}

void FlagSet::AddBool(const std::string& name, bool default_value,
                      const std::string& help) {
  Spec* spec = Register(name, Type::kBool, help);
  spec->bool_value = default_value;
  spec->default_text = default_value ? "true" : "false";
}

bool FlagSet::Parse(int argc, char** argv, std::string* error) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    std::string name;
    std::string value;
    if (!SplitFlagToken(arg, &name, &value)) {
      if (error != nullptr) {
        *error = "expected --name=value argument, got '" + arg + "'";
      }
      return false;
    }
    auto it = index_.find(name);
    if (it == index_.end()) {
      if (error != nullptr) {
        std::vector<std::string> known;
        known.reserve(specs_.size());
        for (const Spec& spec : specs_) known.push_back(spec.name);
        const std::string suggestion = SuggestFlagName(name, known);
        *error = "unknown flag --" + name;
        if (!suggestion.empty()) {
          *error += " (did you mean --" + suggestion + "?)";
        }
      }
      return false;
    }
    Spec& spec = specs_[it->second];
    if (spec.set) {
      // Last-wins would silently mask the first value — in a shell
      // one-liner edited in place that is almost always a mistake.
      if (error != nullptr) {
        *error = "flag --" + name + " given more than once";
      }
      return false;
    }
    switch (spec.type) {
      case Type::kString:
        spec.string_value = value;
        break;
      case Type::kInt:
        if (!ParseFlagInt(name, value, &spec.int_value, error)) return false;
        break;
      case Type::kDouble:
        if (!ParseFlagDouble(name, value, &spec.double_value, error)) {
          return false;
        }
        break;
      case Type::kBool:
        if (!ParseFlagBool(name, value, &spec.bool_value, error)) {
          return false;
        }
        break;
    }
    const bool below =
        (spec.int_min && spec.int_value < *spec.int_min) ||
        (spec.double_min && !(spec.double_value >= *spec.double_min));
    if (below) {
      if (error != nullptr) {
        *error = "--" + name + " must be >= " + spec.min_text;
      }
      return false;
    }
    spec.set = true;
  }
  return true;
}

void FlagSet::ParseOrExit(int argc, char** argv) {
  std::string error;
  if (!Parse(argc, argv, &error)) {
    std::fprintf(stderr, "error: %s\nrun '%s --help' for the flag list\n",
                 error.c_str(), program_.c_str());
    std::exit(2);
  }
  if (help_requested_) {
    std::printf("%s", HelpText().c_str());
    std::exit(0);
  }
}

std::string FlagSet::HelpText() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [--flag=value ...]\n";
  if (!synopsis_.empty()) out << "  " << synopsis_ << "\n";
  if (!specs_.empty()) out << "\nflags:\n";
  size_t width = 0;
  std::vector<std::string> labels;
  labels.reserve(specs_.size());
  for (const Spec& spec : specs_) {
    labels.push_back("--" + spec.name);
    width = std::max(width, labels.back().size());
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    const Spec& spec = specs_[i];
    out << "  " << labels[i]
        << std::string(width - labels[i].size() + 2, ' ') << spec.help
        << " (default: " << spec.default_text;
    if (!spec.min_text.empty()) out << ", >= " << spec.min_text;
    out << ")\n";
  }
  return out.str();
}

const FlagSet::Spec* FlagSet::Find(const std::string& name) const {
  auto it = index_.find(name);
  IMSR_CHECK(it != index_.end())
      << "flag --" << name << " read but never registered";
  return &specs_[it->second];
}

bool FlagSet::Has(const std::string& name) const { return Find(name)->set; }

std::string FlagSet::GetString(const std::string& name) const {
  const Spec* spec = Find(name);
  IMSR_CHECK(spec->type == Type::kString)
      << "flag --" << name << " is not a string flag";
  return spec->string_value;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  const Spec* spec = Find(name);
  IMSR_CHECK(spec->type == Type::kInt)
      << "flag --" << name << " is not an integer flag";
  return spec->int_value;
}

double FlagSet::GetDouble(const std::string& name) const {
  const Spec* spec = Find(name);
  IMSR_CHECK(spec->type == Type::kDouble)
      << "flag --" << name << " is not a double flag";
  return spec->double_value;
}

bool FlagSet::GetBool(const std::string& name) const {
  const Spec* spec = Find(name);
  IMSR_CHECK(spec->type == Type::kBool)
      << "flag --" << name << " is not a boolean flag";
  return spec->bool_value;
}

}  // namespace imsr::util
