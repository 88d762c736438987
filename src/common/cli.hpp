// Tiny command-line option parser for the examples and bench drivers.
//
// Supports the `--name value` and `--name=value` forms; every option
// takes a value.
// Unknown options raise an error listing registered names, so examples
// fail loudly instead of silently ignoring typos.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace lrt {

class CliParser {
 public:
  /// `description` is printed by help().
  explicit CliParser(std::string description);

  /// Registers an option with a default value; returns *this for chaining.
  CliParser& add(const std::string& name, const std::string& default_value,
                 const std::string& help);

  /// Parses argv. Throws lrt::Error on unknown or malformed options.
  /// Recognizes --help and sets help_requested().
  void parse(int argc, const char* const* argv);

  bool help_requested() const { return help_requested_; }

  /// Usage text.
  std::string help() const;

  std::string get(const std::string& name) const;
  Index get_index(const std::string& name) const;
  Real get_real(const std::string& name) const;

 private:
  struct Option {
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
