/**
 * @file
 * Tests for the command-line option parser.
 */

#include <gtest/gtest.h>

#include "common/arg_parser.hpp"
#include "common/error.hpp"

namespace amped {
namespace {

ArgParser
makeParser()
{
    ArgParser parser;
    parser.addOption("batch", "global batch size", "8192");
    parser.addOption("model", "model preset", "145b");
    parser.addFlag("csv", "emit csv");
    return parser;
}

TEST(ArgParserTest, DefaultsApplyWhenAbsent)
{
    auto parser = makeParser();
    parser.parse({});
    EXPECT_EQ(parser.get("batch"), "8192");
    EXPECT_DOUBLE_EQ(parser.getDouble("batch"), 8192.0);
    EXPECT_EQ(parser.getInt("batch"), 8192);
    EXPECT_FALSE(parser.getFlag("csv"));
    EXPECT_FALSE(parser.wasProvided("batch"));
}

TEST(ArgParserTest, ParsesOptionsAndFlags)
{
    auto parser = makeParser();
    parser.parse({"--batch", "1024", "--csv", "--model", "gpt3"});
    EXPECT_EQ(parser.getInt("batch"), 1024);
    EXPECT_EQ(parser.get("model"), "gpt3");
    EXPECT_TRUE(parser.getFlag("csv"));
    EXPECT_TRUE(parser.wasProvided("batch"));
    EXPECT_TRUE(parser.wasProvided("csv"));
}

TEST(ArgParserTest, ScientificNotationDoubles)
{
    auto parser = makeParser();
    parser.parse({"--batch", "3e2"});
    EXPECT_DOUBLE_EQ(parser.getDouble("batch"), 300.0);
    // But it is not an integer.
    EXPECT_THROW(parser.getInt("batch"), UserError);
}

TEST(ArgParserTest, RejectsUnknownAndMalformed)
{
    auto parser = makeParser();
    EXPECT_THROW(parser.parse({"--nope", "1"}), UserError);
    EXPECT_THROW(parser.parse({"positional"}), UserError);
    EXPECT_THROW(parser.parse({"--batch"}), UserError); // no value
}

TEST(ArgParserTest, RejectsNonNumericValues)
{
    auto parser = makeParser();
    parser.parse({"--batch", "abc"});
    EXPECT_THROW(parser.getDouble("batch"), UserError);
    EXPECT_THROW(parser.getInt("batch"), UserError);
    EXPECT_EQ(parser.get("batch"), "abc"); // string access still fine
}

TEST(ArgParserTest, RejectsDuplicateDeclarations)
{
    ArgParser parser;
    parser.addOption("x", "d", "1");
    EXPECT_THROW(parser.addOption("x", "dup", "2"), UserError);
    EXPECT_THROW(parser.addFlag("x", "dup"), UserError);
}

TEST(ArgParserTest, UndeclaredAccessIsAnError)
{
    auto parser = makeParser();
    parser.parse({});
    EXPECT_THROW(parser.get("missing"), UserError);
    EXPECT_THROW(parser.getFlag("missing"), UserError);
}

/** Runs @p fn, returning the UserError text it must throw. */
template <typename Fn>
std::string
diagnosticOf(Fn &&fn)
{
    try {
        fn();
    } catch (const UserError &error) {
        return error.what();
    }
    ADD_FAILURE() << "expected a UserError";
    return "";
}

TEST(ArgParserTest, DiagnosticsNameTheProblem)
{
    auto parser = makeParser();

    const auto unknown =
        diagnosticOf([&] { parser.parse({"--nope", "1"}); });
    EXPECT_NE(unknown.find("unknown option --nope"),
              std::string::npos)
        << unknown;
    // The unknown-option message embeds the help text so the user
    // sees what *is* accepted.  It is built only when the option is
    // unknown; pin the full text.
    EXPECT_NE(unknown.find("--batch"), std::string::npos) << unknown;
    EXPECT_EQ(unknown, "unknown option --nope\n" + parser.helpText());

    EXPECT_NE(diagnosticOf([&] { parser.parse({"--batch"}); })
                  .find("option --batch needs a value"),
              std::string::npos);

    EXPECT_NE(
        diagnosticOf([&] { parser.parse({"positional"}); })
            .find("expected an option starting with --, got "
                  "'positional'"),
        std::string::npos);

    parser.parse({"--batch", "abc"});
    EXPECT_NE(diagnosticOf([&] { parser.getDouble("batch"); })
                  .find("option --batch: 'abc' is not a number"),
              std::string::npos);

    parser.parse({"--batch", "3e2"});
    EXPECT_NE(diagnosticOf([&] { parser.getInt("batch"); })
                  .find("option --batch: '3e2' is not an integer"),
              std::string::npos);
}

TEST(ArgParserTest, HelpTextListsEverything)
{
    const auto parser = makeParser();
    const std::string help = parser.helpText();
    EXPECT_NE(help.find("--batch"), std::string::npos);
    EXPECT_NE(help.find("--model"), std::string::npos);
    EXPECT_NE(help.find("--csv"), std::string::npos);
    EXPECT_NE(help.find("default: 8192"), std::string::npos);
}

} // namespace
} // namespace amped
