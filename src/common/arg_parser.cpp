#include "arg_parser.hpp"

#include <cstdlib>
#include <sstream>

#include "error.hpp"
#include "parse_num.hpp"

namespace amped {

void
ArgParser::addOption(const std::string &name,
                     const std::string &description,
                     const std::string &default_value)
{
    require(!name.empty(), "option name must not be empty");
    require(options_.find(name) == options_.end() &&
                flagDescriptions_.find(name) ==
                    flagDescriptions_.end(),
            "duplicate option --", name);
    options_[name] = Option{description, default_value};
}

void
ArgParser::addFlag(const std::string &name,
                   const std::string &description)
{
    require(!name.empty(), "flag name must not be empty");
    require(options_.find(name) == options_.end() &&
                flagDescriptions_.find(name) ==
                    flagDescriptions_.end(),
            "duplicate flag --", name);
    flagDescriptions_[name] = description;
}

void
ArgParser::parse(const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &token = args[i];
        require(token.rfind("--", 0) == 0,
                "expected an option starting with --, got '", token,
                "'");
        const std::string name = token.substr(2);
        if (flagDescriptions_.count(name)) {
            flagsSet_.insert(name);
            provided_.insert(name);
            continue;
        }
        const auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown option --", name, "\n", helpText());
        require(i + 1 < args.size(), "option --", name,
                " needs a value");
        values_[name] = args[++i];
        provided_.insert(name);
    }
}

std::string
ArgParser::get(const std::string &name) const
{
    const auto value = values_.find(name);
    if (value != values_.end())
        return value->second;
    const auto option = options_.find(name);
    require(option != options_.end(), "undeclared option --", name);
    return option->second.defaultValue;
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string text = get(name);
    double value = 0.0;
    require(tryParseDouble(text.c_str(), value), "option --", name,
            ": '", text, "' is not a number");
    return value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    const std::string text = get(name);
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    require(end != nullptr && *end == '\0' && !text.empty(),
            "option --", name, ": '", text, "' is not an integer");
    return static_cast<std::int64_t>(value);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    require(flagDescriptions_.count(name) > 0, "undeclared flag --",
            name);
    return flagsSet_.count(name) > 0;
}

bool
ArgParser::wasProvided(const std::string &name) const
{
    return provided_.count(name) > 0;
}

std::string
ArgParser::helpText() const
{
    std::ostringstream oss;
    oss << "options:\n";
    for (const auto &[name, option] : options_) {
        oss << "  --" << name << " <value>  " << option.description
            << " (default: " << option.defaultValue << ")\n";
    }
    for (const auto &[name, description] : flagDescriptions_)
        oss << "  --" << name << "  " << description << "\n";
    return oss.str();
}

} // namespace amped
