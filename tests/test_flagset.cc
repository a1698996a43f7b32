/**
 * @file
 * bench::FlagSet: the declared-flags CLI parser the harnesses share.
 *
 * The consolidation contract: flags are declared once, --help is
 * generated from the declarations, an unknown flag or a malformed or
 * out-of-range value is fatal() *naming the offending flag* — list
 * items and hex values included — and querying a key that was never
 * declared is a programming error (panic).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.hh"

using dvfs::bench::FlagSet;
using dvfs::bench::workersFromArgs;

namespace {

/** argv builder (parse takes char**, tests hold the storage). */
struct Argv {
    explicit Argv(std::vector<std::string> args) : _args(std::move(args))
    {
        _ptrs.push_back(const_cast<char *>("prog"));
        for (const auto &a : _args)
            _ptrs.push_back(const_cast<char *>(a.c_str()));
        _ptrs.push_back(nullptr);
    }

    int argc() const { return static_cast<int>(_ptrs.size()) - 1; }
    char **argv() { return _ptrs.data(); }

  private:
    std::vector<std::string> _args;
    std::vector<char *> _ptrs;
};

FlagSet
sampleFlags()
{
    FlagSet flags("prog", "test fixture");
    flags.add("count", "N", "how many (default 1)")
        .add("ratio", "X", "scale factor (default 1.0)")
        .add("name", "S", "a label")
        .add("gaps", "CSV", "integer list (default 980)")
        .add("thresholds", "X,...", "number list (default 0.05,0.10)")
        .add("fp", "0x...", "a 64-bit digest")
        .addBool("verbose", "say more")
        .addWorkers();
    return flags;
}

} // namespace

TEST(FlagSet, ParsesDeclaredFlagsWithTypedAccess)
{
    auto flags = sampleFlags();
    Argv argv({"--count=42", "--ratio=2.5", "--name=abc", "--verbose"});
    flags.parse(argv.argc(), argv.argv());

    EXPECT_EQ(flags.getInt("count", 1), 42);
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 1.0), 2.5);
    EXPECT_EQ(flags.get("name"), "abc");
    EXPECT_TRUE(flags.has("verbose"));
    // Declared but not passed: defaults apply, has() is false.
    EXPECT_FALSE(flags.has("workers"));
    EXPECT_EQ(flags.getInt("workers", 0), 0);
}

TEST(FlagSet, ParsesListsHexAndWorkers)
{
    auto flags = sampleFlags();
    Argv argv({"--gaps=10,-20,30", "--fp=0xB806f47ff81388e0",
               "--workers=3"});
    flags.parse(argv.argc(), argv.argv());

    EXPECT_EQ(flags.getIntList("gaps", "980"),
              (std::vector<long>{10, -20, 30}));
    EXPECT_EQ(flags.getHex("fp", 0), 0xb806f47ff81388e0ull);
    EXPECT_EQ(workersFromArgs(flags), 3u);
    // Not passed: the default, spelled as on the command line.
    EXPECT_EQ(flags.getDoubleList("thresholds", "0.05,0.10"),
              (std::vector<double>{0.05, 0.10}));

    FlagSet bare = sampleFlags();
    Argv none({"--fp=ff"});
    bare.parse(none.argc(), none.argv());
    EXPECT_EQ(bare.getHex("fp", 0), 0xffull);
    EXPECT_EQ(workersFromArgs(bare), dvfs::exp::sweep::defaultWorkers());
}

TEST(FlagSet, BoundedIntAcceptsItsRangeAndSkipsTheDefault)
{
    auto flags = sampleFlags();
    Argv argv({"--count=65535"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EQ(flags.getInt("count", 1, 0, 65535), 65535);

    // Not passed: the default is returned as is, even outside the range.
    FlagSet bare = sampleFlags();
    Argv none({});
    bare.parse(none.argc(), none.argv());
    EXPECT_EQ(bare.getInt("count", 0, 1), 0);
}

TEST(FlagSet, HelpListsEveryDeclaredFlag)
{
    const std::string help = sampleFlags().help();
    EXPECT_NE(help.find("prog: test fixture"), std::string::npos);
    EXPECT_NE(help.find("--count=N"), std::string::npos);
    EXPECT_NE(help.find("--ratio=X"), std::string::npos);
    EXPECT_NE(help.find("--verbose"), std::string::npos);
    // Canned declarations carry the shared spelling and help line.
    EXPECT_NE(help.find("--workers=N"), std::string::npos);
    EXPECT_NE(help.find("sweep pool width"), std::string::npos);
    // Boolean flags show no =HINT.
    EXPECT_EQ(help.find("--verbose="), std::string::npos);
}

TEST(FlagSetDeathTest, UnknownFlagIsFatalNamingTheFlag)
{
    auto flags = sampleFlags();
    Argv argv({"--bogus=1"});
    EXPECT_EXIT(flags.parse(argv.argc(), argv.argv()),
                testing::ExitedWithCode(1),
                "unknown flag '--bogus=1'");
}

TEST(FlagSetDeathTest, MalformedValueIsFatalNamingTheFlag)
{
    auto flags = sampleFlags();
    Argv argv({"--count=abc", "--ratio=x2"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getInt("count", 1),
                testing::ExitedWithCode(1),
                "--count: expected an integer, got 'abc'");
    EXPECT_EXIT((void)flags.getDouble("ratio", 1.0),
                testing::ExitedWithCode(1),
                "--ratio: expected a number, got 'x2'");
}

TEST(FlagSetDeathTest, BadListItemIsFatalNamingTheFlag)
{
    auto flags = sampleFlags();
    Argv argv({"--gaps=980,x", "--thresholds=0.05,,0.10"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getIntList("gaps", "980"),
                testing::ExitedWithCode(1),
                "--gaps: expected an integer, got 'x'");
    EXPECT_EXIT((void)flags.getDoubleList("thresholds", "0.05,0.10"),
                testing::ExitedWithCode(1),
                "--thresholds: expected a number, got ''");
}

TEST(FlagSetDeathTest, ListItemWithTrailingGarbageIsFatal)
{
    auto flags = sampleFlags();
    Argv argv({"--gaps=9x0", "--thresholds=0.05,0.1o"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getIntList("gaps", "980"),
                testing::ExitedWithCode(1),
                "--gaps: expected an integer, got '9x0'");
    EXPECT_EXIT((void)flags.getDoubleList("thresholds", "0.05,0.10"),
                testing::ExitedWithCode(1),
                "--thresholds: expected a number, got '0.1o'");
}

TEST(FlagSetDeathTest, MalformedHexIsFatalNamingTheFlag)
{
    for (const char *bad : {"zz", "0x", "-1", " 12", "0x1g",
                            "0x11112222333344445"}) {
        auto flags = sampleFlags();
        Argv argv({std::string("--fp=") + bad});
        flags.parse(argv.argc(), argv.argv());
        EXPECT_EXIT((void)flags.getHex("fp", 0),
                    testing::ExitedWithCode(1),
                    "--fp: expected a 64-bit hex value")
            << bad;
    }
}

TEST(FlagSetDeathTest, HexWithTrailingGarbageIsFatal)
{
    auto flags = sampleFlags();
    Argv argv({"--fp=0xb806f47ff81388e0zz"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_EXIT((void)flags.getHex("fp", 0), testing::ExitedWithCode(1),
                "--fp: expected a 64-bit hex value, got "
                "'0xb806f47ff81388e0zz'");
}

TEST(FlagSetDeathTest, OutOfRangeIntIsFatalNamingFlagAndRange)
{
    auto withCount = [](const std::string &value) {
        auto flags = sampleFlags();
        Argv argv({"--count=" + value});
        flags.parse(argv.argc(), argv.argv());
        return flags;
    };
    EXPECT_EXIT((void)withCount("-1").getInt("count", 1, 1),
                testing::ExitedWithCode(1),
                "--count: expected an integer of at least 1, got -1");
    EXPECT_EXIT((void)withCount("70000").getInt("count", 0, 0, 65535),
                testing::ExitedWithCode(1),
                "--count: expected an integer in \\[0, 65535\\], got 70000");
    // Beyond long: rejected, not saturated into range.
    EXPECT_EXIT((void)withCount("99999999999999999999").getInt("count", 1, 1),
                testing::ExitedWithCode(1),
                "--count: expected an integer, got '99999999999999999999'");
}

TEST(FlagSetDeathTest, WorkersBelowOneIsFatal)
{
    for (const char *bad : {"0", "-2"}) {
        auto flags = sampleFlags();
        Argv argv({std::string("--workers=") + bad});
        flags.parse(argv.argc(), argv.argv());
        EXPECT_EXIT((void)workersFromArgs(flags),
                    testing::ExitedWithCode(1),
                    "--workers: expected a pool width of at least 1")
            << bad;
    }
}

TEST(FlagSetDeathTest, HelpPrintsListingAndExitsCleanly)
{
    auto flags = sampleFlags();
    Argv argv({"--help"});
    EXPECT_EXIT(flags.parse(argv.argc(), argv.argv()),
                testing::ExitedWithCode(0), "");
}

TEST(FlagSetDeathTest, QueryingUndeclaredFlagIsAProgrammingError)
{
    auto flags = sampleFlags();
    Argv argv({"--count=1"});
    flags.parse(argv.argc(), argv.argv());
    EXPECT_DEATH((void)flags.get("undeclared"),
                 "queried undeclared flag --undeclared");
}
