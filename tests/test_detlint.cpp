/**
 * @file
 * detlint analyzer tests: every rule fires on its known-bad fixture
 * and stays silent on its known-good twin (tests/lint_fixtures/), the
 * suppression grammar works in both same-line and next-line form with
 * malformed markers demoted to DL000, the config parser accepts the
 * checked-in configs/detlint.toml subset and rejects garbage with line
 * numbers, and the JSON writer emits the shape CI archives.
 *
 * The directory-walk test drives the real fixture corpus on disk
 * (ARTMEM_LINT_FIXTURE_DIR, injected by tests/CMakeLists.txt); the
 * rule-precision tests lint in-memory snippets so a failure pinpoints
 * the exact construct.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace artmem::detlint {
namespace {

/** Config the fixture corpus is written against. */
Config
fixture_config()
{
    Config config;
    config.status_functions = {"try_load", ".emit"};
    return config;
}

std::vector<Finding>
lint_snippet(std::string_view text, const Config& config = Config())
{
    return lint_text("snippet.cpp", std::string(text), config);
}

/** All rule ids seen in @p findings. */
std::vector<std::string>
rules_of(const std::vector<Finding>& findings)
{
    std::vector<std::string> rules;
    for (const auto& f : findings)
        rules.push_back(f.rule);
    return rules;
}

TEST(Catalog, HasEveryRuleOnce)
{
    const auto& catalog = rule_catalog();
    ASSERT_EQ(catalog.size(), 8u);
    const char* expected[] = {"DL000", "DL001", "DL002", "DL003",
                              "DL004", "DL005", "DL006", "DL007"};
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        EXPECT_EQ(catalog[i].id, expected[i]);
        EXPECT_FALSE(catalog[i].title.empty());
        EXPECT_FALSE(catalog[i].rationale.empty());
        EXPECT_TRUE(known_rule(catalog[i].id));
    }
    EXPECT_FALSE(known_rule("DL999"));
    EXPECT_FALSE(known_rule(""));
}

// --------------------------------------------------------------- corpus

/**
 * The fixture corpus is the ground truth: dlNNN_bad.cpp must produce
 * at least one finding, every one of them rule DLNNN; dlNNN_good.cpp
 * (and suppression_good.cpp) must produce none.
 */
TEST(FixtureCorpus, EveryRuleFiresBothDirections)
{
    std::vector<std::string> errors;
    const auto findings = lint_paths({ARTMEM_LINT_FIXTURE_DIR},
                                     fixture_config(), errors);
    ASSERT_TRUE(errors.empty()) << errors.front();
    ASSERT_FALSE(findings.empty());

    std::map<std::string, std::vector<std::string>> by_file;
    for (const auto& f : findings) {
        const std::string name = f.path.substr(f.path.rfind('/') + 1);
        by_file[name].push_back(f.rule);
        EXPECT_GT(f.line, 0u) << f.path;
        EXPECT_FALSE(f.excerpt.empty()) << f.path;
    }

    const char* rules[] = {"DL000", "DL001", "DL002", "DL003",
                           "DL004", "DL005", "DL006", "DL007"};
    for (const char* rule : rules) {
        std::string stem = rule;
        std::transform(stem.begin(), stem.end(), stem.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(std::tolower(c));
                       });
        const std::string bad = stem + "_bad.cpp";
        ASSERT_TRUE(by_file.count(bad)) << bad << " produced no findings";
        for (const auto& seen : by_file[bad])
            EXPECT_EQ(seen, rule) << "stray finding in " << bad;
        EXPECT_FALSE(by_file.count(stem + "_good.cpp"))
            << stem << "_good.cpp must be clean";
    }
    EXPECT_FALSE(by_file.count("suppression_good.cpp"))
        << "valid suppressions must silence their findings";
    // Known-bad counts: each bad fixture exercises several constructs.
    EXPECT_GE(by_file["dl001_bad.cpp"].size(), 5u);
    EXPECT_GE(by_file["dl002_bad.cpp"].size(), 5u);
    EXPECT_GE(by_file["dl005_bad.cpp"].size(), 4u);
    EXPECT_GE(by_file["dl006_bad.cpp"].size(), 5u);
    EXPECT_EQ(by_file["dl000_bad.cpp"].size(), 3u);
}

// ------------------------------------------------------- rule precision

TEST(Rules, WallClockInStringOrCommentDoesNotFire)
{
    EXPECT_TRUE(lint_snippet("// std::chrono::steady_clock::now()\n"
                             "const char* s = \"time(nullptr)\";\n")
                    .empty());
    EXPECT_EQ(rules_of(lint_snippet(
                  "auto t = std::chrono::steady_clock::now();\n")),
              std::vector<std::string>{"DL001"});
}

TEST(Rules, BlockCommentSpansLines)
{
    EXPECT_TRUE(lint_snippet("/* std::random_device\n"
                             "   rand() */ int x = 0;\n")
                    .empty());
}

TEST(Rules, DigitSeparatorIsNotACharLiteral)
{
    // A naive char-literal scanner would swallow everything between
    // the separators and corrupt the rest of the line.
    const auto findings = lint_snippet(
        "machine.advance(1'000'000'000); std::random_device d;\n");
    EXPECT_EQ(rules_of(findings), std::vector<std::string>{"DL002"});
}

TEST(Rules, SeededEngineDoesNotFire)
{
    EXPECT_TRUE(lint_snippet("std::mt19937 rng(seed);\n").empty());
    EXPECT_EQ(rules_of(lint_snippet("std::mt19937 rng;\n")),
              std::vector<std::string>{"DL002"});
}

TEST(Rules, DiscardedStatusHonoursConsumers)
{
    Config config;
    config.status_functions = {"try_load", ".emit"};
    EXPECT_EQ(rules_of(lint_snippet("try_load(1);\n", config)),
              std::vector<std::string>{"DL004"});
    EXPECT_EQ(rules_of(lint_snippet("sink.emit(os);\n", config)),
              std::vector<std::string>{"DL004"});
    // Consumed, cast away, or free-function-vs-member: all silent.
    EXPECT_TRUE(lint_snippet("auto r = try_load(1);\n", config).empty());
    EXPECT_TRUE(lint_snippet("(void)try_load(1);\n", config).empty());
    EXPECT_TRUE(lint_snippet("return try_load(1);\n", config).empty());
    EXPECT_TRUE(lint_snippet("emit(sink, opt);\n", config).empty());
    // A continuation line consuming the value must not fire.
    EXPECT_TRUE(lint_snippet("total +=\n    try_load(1);\n", config)
                    .empty());
}

TEST(Rules, MutableStaticNeedsDataNotFunctions)
{
    EXPECT_EQ(rules_of(lint_snippet("static int counter = 0;\n")),
              std::vector<std::string>{"DL006"});
    EXPECT_TRUE(lint_snippet("static const int kLimit = 8;\n").empty());
    EXPECT_TRUE(lint_snippet("static constexpr int kBins = 17;\n").empty());
    EXPECT_TRUE(lint_snippet("static int helper(int value);\n").empty());
}

TEST(Rules, FloatAccumulateFiresIntegerDoesNot)
{
    EXPECT_EQ(rules_of(lint_snippet(
                  "auto s = std::accumulate(b, e, 0.0);\n")),
              std::vector<std::string>{"DL007"});
    EXPECT_TRUE(
        lint_snippet("auto s = std::accumulate(b, e, 0);\n").empty());
}

// ---------------------------------------------------------- suppression

TEST(Suppression, SameLineWithReasonSilences)
{
    EXPECT_TRUE(lint_snippet("std::unordered_map<int, int> m;  "
                             "// lint:allow(DL003) sorted before use\n")
                    .empty());
}

TEST(Suppression, NextLineCommentCoversFollowingCode)
{
    EXPECT_TRUE(lint_snippet("// lint:allow(DL003) sorted before use\n"
                             "std::unordered_map<int, int> m;\n")
                    .empty());
    // ... but not the line after that.
    const auto findings =
        lint_snippet("// lint:allow(DL003) sorted before use\n"
                     "int x = 0;\n"
                     "std::unordered_map<int, int> m;\n");
    EXPECT_EQ(rules_of(findings), std::vector<std::string>{"DL003"});
}

TEST(Suppression, MissingReasonIsDL000AndDoesNotSuppress)
{
    const auto findings = lint_snippet(
        "std::unordered_map<int, int> m;  // lint:allow(DL003)\n");
    const auto rules = rules_of(findings);
    EXPECT_EQ(std::count(rules.begin(), rules.end(), "DL000"), 1);
    EXPECT_EQ(std::count(rules.begin(), rules.end(), "DL003"), 1);
}

TEST(Suppression, UnknownRuleIsDL000)
{
    const auto findings =
        lint_snippet("int x = 0;  // lint:allow(DL123) because\n");
    EXPECT_EQ(rules_of(findings), std::vector<std::string>{"DL000"});
}

TEST(Suppression, WrongRuleDoesNotSilenceOthers)
{
    const auto findings = lint_snippet(
        "std::unordered_map<int, int> m;  // lint:allow(DL001) nope\n");
    EXPECT_EQ(rules_of(findings), std::vector<std::string>{"DL003"});
}

TEST(Suppression, MarkerInsideStringLiteralIsInert)
{
    // detlint's own sources embed the marker in string literals; only
    // real comment text may suppress (or malform).
    EXPECT_TRUE(lint_snippet("const char* kNeedle = "
                             "\"lint:allow(\";\n")
                    .empty());
}

// --------------------------------------------------------------- config

TEST(ConfigParse, AcceptsCheckedInSubset)
{
    std::istringstream is(
        "# comment\n"
        "[lint]\n"
        "extensions = [\".cpp\", \".hpp\"]\n"
        "exclude = [\"tests/lint_fixtures\"]\n"
        "[rules.DL001]\n"
        "allow = [\"src/telemetry/phase_timer.cpp\"]\n"
        "[rules.DL004]\n"
        "functions = [\"try_load\", \".emit\"]\n");
    Config config;
    std::string error;
    ASSERT_TRUE(parse_config(is, config, error)) << error;
    EXPECT_EQ(config.extensions,
              (std::vector<std::string>{".cpp", ".hpp"}));
    EXPECT_EQ(config.exclude,
              (std::vector<std::string>{"tests/lint_fixtures"}));
    EXPECT_EQ(config.allow.at("DL001"),
              (std::vector<std::string>{"src/telemetry/phase_timer.cpp"}));
    EXPECT_EQ(config.status_functions,
              (std::vector<std::string>{"try_load", ".emit"}));
}

TEST(ConfigParse, RejectsUnknownRuleSectionWithLineNumber)
{
    std::istringstream is("[rules.DL999]\nallow = [\"src\"]\n");
    Config config;
    std::string error;
    EXPECT_FALSE(parse_config(is, config, error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ConfigParse, RejectsKeyOutsideSection)
{
    std::istringstream is("allow = [\"src\"]\n");
    Config config;
    std::string error;
    EXPECT_FALSE(parse_config(is, config, error));
}

TEST(ConfigAllow, PathPrefixMatchesRepoRelativeAndAbsolute)
{
    Config config;
    config.allow["DL001"] = {"src/telemetry/phase_timer.cpp"};
    const std::string code =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(
        lint_text("src/telemetry/phase_timer.cpp", code, config).empty());
    EXPECT_TRUE(lint_text("/root/repo/src/telemetry/phase_timer.cpp",
                          code, config)
                    .empty());
    // A different file, and a same-suffix-but-different-component path,
    // still fire.
    EXPECT_FALSE(
        lint_text("src/telemetry/trace.cpp", code, config).empty());
    EXPECT_FALSE(lint_text("src/telemetry/phase_timer.cpp2", code, config)
                     .empty());
}

// --------------------------------------------------------------- output

TEST(Output, JsonShapeAndEscaping)
{
    std::vector<Finding> findings;
    findings.push_back({"DL003", "src/a.cpp", 7,
                        "unordered-container iteration order",
                        "std::unordered_map<std::string, int> m; // \"x\""});
    std::ostringstream os;
    write_json(os, findings);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"tool\": \"detlint\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"DL003\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
    EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);

    std::ostringstream empty;
    write_json(empty, {});
    EXPECT_NE(empty.str().find("\"count\": 0"), std::string::npos);
}

TEST(Output, TextReportSummarizes)
{
    std::ostringstream os;
    write_text(os, {});
    EXPECT_EQ(os.str(), "detlint: clean\n");
}

}  // namespace
}  // namespace artmem::detlint
