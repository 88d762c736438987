#include "common/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace lrt {

CliParser::CliParser(std::string description)
    : description_(std::move(description)) {}

CliParser& CliParser::add(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  LRT_CHECK(!options_.count(name), "duplicate option --" << name);
  options_[name] = Option{default_value, default_value, help};
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
    LRT_CHECK(arg.rfind("--", 0) == 0,
              "expected option starting with --, got '" << arg << "'");
    arg = arg.substr(2);

    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      LRT_CHECK(i + 1 < argc, "option --" << name << " expects a value");
      value = argv[++i];
    }
    auto it = options_.find(name);
    LRT_CHECK(it != options_.end(), "unknown option --" << name << "\n"
                                                        << help());
    it->second.value = value;
  }
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
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  LRT_CHECK(end && *end == '\0',
            "option --" << name << ": '" << value << "' is not an integer");
  return static_cast<Index>(parsed);
}

Real CliParser::get_real(const std::string& name) const {
  const std::string value = get(name);
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  LRT_CHECK(end && *end == '\0',
            "option --" << name << ": '" << value << "' is not a number");
  return parsed;
}

}  // namespace lrt
