// Tiny command-line option parser for the examples and bench drivers.
//
// Supports the `--name value` and `--name=value` forms; every option
// takes a value. An option whose default is an integer (or a number)
// only accepts integers (numbers).
// Unknown options and malformed values raise an error, which
// parse_main() prints with the usage, so examples fail loudly instead of
// silently ignoring typos.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace lrt {

class CliParser {
 public:
  /// `description` is printed by help().
  explicit CliParser(std::string description);

  /// Registers an option with a default value; returns *this for chaining.
  /// The default's form sets the option's type: integer, number or text.
  CliParser& add(const std::string& name, const std::string& default_value,
                 const std::string& help);

  /// Parses argv. Throws lrt::Error on unknown or malformed options and
  /// on a value that is not of its option's type. Recognizes --help.
  void parse(int argc, const char* const* argv);

  /// parse() for a program's main(). Returns the exit status when the
  /// program should stop: 0 after printing the usage for --help, 2 after
  /// printing a malformed or unknown option's error and the usage to
  /// stderr. Returns nothing when the program should go on.
  std::optional<int> parse_main(int argc, const char* const* argv);

  /// Usage text.
  std::string help() const;

  std::string get(const std::string& name) const;
  Index get_index(const std::string& name) const;
  Real get_real(const std::string& name) const;

 private:
  enum class Kind { kInteger, kNumber, kText };
  struct Option {
    Kind kind;
    std::string default_value;
    std::string value;
    std::string help;
  };

  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Option> options_;
  bool help_requested_ = false;
};

}  // namespace lrt
