#include "common/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace lrt {
namespace {

std::optional<long long> parse_integer(const std::string& value) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') return std::nullopt;
  return parsed;
}

std::optional<double> parse_number(const std::string& value) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0') return std::nullopt;
  return parsed;
}

}  // namespace

CliParser::CliParser(std::string description)
    : description_(std::move(description)) {}

CliParser& CliParser::add(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  LRT_CHECK(!options_.count(name), "duplicate option --" << name);
  const Kind kind = parse_integer(default_value)  ? Kind::kInteger
                    : parse_number(default_value) ? Kind::kNumber
                                                  : Kind::kText;
  options_[name] = Option{kind, default_value, default_value, help};
  order_.push_back(name);
  return *this;
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw Error("expected an option starting with --, got '" + arg + "'");
    }
    arg = arg.substr(2);

    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto it = options_.find(name);
    if (it == options_.end()) throw Error("unknown option --" + name);
    if (eq != std::string::npos) {
      it->second.value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      it->second.value = argv[++i];
    } else {
      throw Error("option --" + name + " expects a value");
    }
    const std::string& value = it->second.value;
    if (it->second.kind == Kind::kInteger && !parse_integer(value)) {
      throw Error("option --" + name + ": '" + value + "' is not an integer");
    }
    if (it->second.kind == Kind::kNumber && !parse_number(value)) {
      throw Error("option --" + name + ": '" + value + "' is not a number");
    }
  }
}

std::optional<int> CliParser::parse_main(int argc, const char* const* argv) {
  try {
    parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n\n" << help();
    return 2;
  }
  if (help_requested_) {
    std::cout << help();
    return 0;
  }
  return std::nullopt;
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name << " (default: " << opt.default_value << ")\n      "
       << opt.help << "\n";
  }
  return os.str();
}

std::string CliParser::get(const std::string& name) const {
  auto it = options_.find(name);
  LRT_CHECK(it != options_.end(), "option --" << name << " not registered");
  return it->second.value;
}

Index CliParser::get_index(const std::string& name) const {
  const std::string value = get(name);
  const std::optional<long long> parsed = parse_integer(value);
  LRT_CHECK(parsed,
            "option --" << name << ": '" << value << "' is not an integer");
  return static_cast<Index>(*parsed);
}

Real CliParser::get_real(const std::string& name) const {
  const std::string value = get(name);
  const std::optional<double> parsed = parse_number(value);
  LRT_CHECK(parsed,
            "option --" << name << ": '" << value << "' is not a number");
  return *parsed;
}

}  // namespace lrt
