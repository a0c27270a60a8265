// Command-line flags: a declarative registry every binary parses through.
//
// A program registers each flag up front with a type, a default, a help
// line and, for numbers, an optional lower bound. ParseOrExit() is the
// one parse step of every main: full-token parsing where a malformed or
// out-of-range value, a repeated flag or an unknown name (with a
// nearest-name suggestion) is a usage error that exits 2, and --help / -h
// prints HelpText() and exits 0. Typed getters return the registered
// default when a flag was not given, so each default is written once, at
// registration; Has() tells a given flag from its default for the few
// flags whose default depends on other state. Reading an unregistered
// name is a programmer error (IMSR_CHECK).
#ifndef IMSR_UTIL_FLAGS_H_
#define IMSR_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace imsr::util {

// Nearest registered name within a small edit distance, or "" when
// nothing is close enough (powers "did you mean --x?" suggestions).
std::string SuggestFlagName(const std::string& name,
                            const std::vector<std::string>& known);

class FlagSet {
 public:
  // `program` and `synopsis` head the generated help text, e.g.
  // FlagSet("imsr_serve", "long-lived sharded recommendation server").
  FlagSet(std::string program, std::string synopsis);

  // Registration. Duplicate names abort (programmer error). The help
  // line should not repeat the default or the bound; HelpText() appends
  // them. A lower bound `min` is checked only when the flag is given, so
  // a default outside it can mean "unset" (--nprobe's 0 = index
  // default). A bounded double also rejects NaN.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddInt(const std::string& name, int64_t default_value,
              const std::string& help,
              std::optional<int64_t> min = std::nullopt);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help,
                 std::optional<double> min = std::nullopt);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  // Fallible full-token parse of argv[0..argc). On failure fills `error`
  // with one of:
  //   "expected --name=value argument, got '...'"   (positional token)
  //   "unknown flag --x (did you mean --y?)"        (typo)
  //   "flag --x given more than once"               (repeat)
  //   "flag --x expects an integer, got '...'"      (bad value)
  //   "--x must be >= N"                            (below the bound)
  // --help / -h sets help_requested() and keeps parsing (so
  // `tool --help` never errors on the flags it would reject otherwise).
  bool Parse(int argc, char** argv, std::string* error);

  // The parse step of every main, over argv[0..argc) like Parse: a usage
  // error prints "error: ..." and a pointer to --help on stderr and
  // exits 2; a help request prints HelpText() on stdout and exits 0.
  void ParseOrExit(int argc, char** argv);

  bool help_requested() const { return help_requested_; }
  // usage line + synopsis + one aligned row per registered flag.
  std::string HelpText() const;

  // Typed getters (valid after Parse). The flag must be registered with
  // the matching type; absent flags return the registered default.
  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };

  struct Spec {
    std::string name;
    Type type = Type::kString;
    std::string help;
    std::string default_text;  // rendered for HelpText at registration
    std::string min_text;      // "" when unbounded
    // Registered default and (when set) parsed value.
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::optional<int64_t> int_min;
    std::optional<double> double_min;
    bool set = false;
  };

  const Spec* Find(const std::string& name) const;
  Spec* Register(const std::string& name, Type type,
                 const std::string& help);

  std::string program_;
  std::string synopsis_;
  std::vector<Spec> specs_;               // registration order (help)
  std::map<std::string, size_t> index_;   // name -> specs_ slot
  bool help_requested_ = false;
};

}  // namespace imsr::util

#endif  // IMSR_UTIL_FLAGS_H_
