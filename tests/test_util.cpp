#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <string>
#include <stdexcept>
#include <vector>

#include "util/cli.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace mlck::util {
namespace {

TEST(Table, AlignsColumnsAndFormatsNumbers) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 2)});
  t.add_row({"beta-longer", Table::num(-12.126, 2)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("-12.13"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(Table::pct(0.123456), "12.3%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
  EXPECT_EQ(Table::pct(0.005, 2), "0.50%");
}

TEST(Table, NumericCellsRightAligned) {
  Table t({"label", "v"});
  t.add_row({"x", "1.0"});
  t.add_row({"y", "100.0"});
  const std::string s = t.to_string();
  // "1.0" must be padded on the left to align with "100.0".
  EXPECT_NE(s.find("  1.0"), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b,c", "d"});
  EXPECT_EQ(os.str(), "a,\"b,c\",d\n");
}

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "input.txt", "--trials=50", "--ratio=2.5",
                        "--verbose"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("trials", 0), 50);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(Cli, SpaceSeparatedValuesAttachToTheBareOption) {
  // "--key value" is the same as "--key=value"; a bare "--flag" stays a
  // flag when followed by another option or nothing.
  const char* argv[] = {"prog", "--cases", "200", "--seed", "42",
                        "--verbose", "--out=x.json"};
  Cli cli(7, argv);
  EXPECT_EQ(cli.get_int("cases", 0), 200);
  EXPECT_EQ(cli.get_int("seed", 0), 42);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_string("out", ""), "x.json");
  EXPECT_TRUE(cli.positional().empty());
  EXPECT_TRUE(cli.unrecognized().empty());
}

TEST(Cli, ReportsUnrecognizedOptions) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  Cli cli(3, argv);
  (void)cli.get_int("known", 0);
  const auto unknown = cli.unrecognized();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Cli, BoolValues) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=true", "--d"};
  Cli cli(5, argv);
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_TRUE(cli.get_bool("d", false));
  EXPECT_TRUE(cli.get_bool("absent", true));
}

const std::vector<Option> kTable = {{"trials", Option::kInt, "200", 1},
                                    {"seed", Option::kU64},
                                    {"ratio", Option::kNumber, "0.5"},
                                    {"out", Option::kPath},
                                    {"metrics", Option::kOptionalPath},
                                    {"verbose", Option::kFlag}};

/// The UsageError message of a strict parse of @p args, or "" if none.
std::string usage_error(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  try {
    Cli(static_cast<int>(args.size()), args.data(), kTable);
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, StrictParseTakesValuesFromTheTable) {
  const char* argv[] = {"prog", "--trials", "50", "--seed=5000000000",
                        "--verbose", "--metrics", "--out", "x.json"};
  const Cli cli(8, argv, kTable);
  EXPECT_EQ(cli.get_int("trials"), 50);
  EXPECT_EQ(cli.get_u64("seed"), 5000000000u);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.5);  // the declared default
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.value("metrics"), "");
  EXPECT_EQ(cli.get_string("out"), "x.json");
  // Reading an undeclared option is a programming error, not a default.
  EXPECT_THROW((void)cli.has("typo"), std::logic_error);
}

TEST(Cli, StrictParseRejectsEveryMalformedInvocation) {
  EXPECT_EQ(usage_error({"--trials=5"}), "");
  EXPECT_EQ(usage_error({"--trails=5"}), "--trails: unknown option");
  EXPECT_EQ(usage_error({"input.txt"}), "input.txt: unexpected argument");
  // A flag never takes the next token, so "yes" is a stray argument.
  EXPECT_EQ(usage_error({"--verbose", "yes"}), "yes: unexpected argument");
  EXPECT_EQ(usage_error({"--verbose=1"}),
            "--verbose is a flag and takes no value");
  EXPECT_EQ(usage_error({"--metrics", "m.json"}),
            "m.json: unexpected argument");
  EXPECT_EQ(usage_error({"--trials=5x"}),
            "--trials=5x: expected an integer >= 1");
  EXPECT_EQ(usage_error({"--trials", "0"}),
            "--trials=0: expected an integer >= 1");
  EXPECT_EQ(usage_error({"--trials=1e3"}),
            "--trials=1e3: expected an integer >= 1");
  EXPECT_EQ(usage_error({"--trials=99999999999"}),
            "--trials=99999999999: expected an integer >= 1");
  EXPECT_EQ(usage_error({"--trials"}), "--trials requires a value");
  EXPECT_EQ(usage_error({"--trials", "--verbose"}),
            "--trials requires a value");
  EXPECT_EQ(usage_error({"--out="}), "--out requires a file path");
  EXPECT_EQ(usage_error({"--ratio=abc"}), "--ratio=abc: expected a number");
  EXPECT_EQ(usage_error({"--ratio=inf"}), "--ratio=inf: expected a number");
  EXPECT_EQ(usage_error({"--ratio=\t5"}), "--ratio=\t5: expected a number");
  EXPECT_EQ(usage_error({"--seed=-1"}),
            "--seed=-1: expected an unsigned 64-bit integer");
  EXPECT_EQ(usage_error({"--trials=5", "--trials=6"}),
            "--trials given more than once");
}

TEST(Cli, SynopsisIsGeneratedFromTheTable) {
  EXPECT_EQ(Cli::synopsis("prog", kTable),
            "usage: prog [--trials=200] [--seed=<u64>] [--ratio=0.5] "
            "[--out=<path>]\n"
            "            [--metrics[=<path>]] [--verbose]\n");
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, TaskExceptionSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&completed] { completed.fetch_add(1); });
  }
  // The first exception is rethrown; the remaining tasks still drained.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(completed.load(), 50);

  // The exception was cleared: the pool is reusable afterwards.
  pool.submit([&completed] { completed.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(completed.load(), 51);
}

TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  ThreadPool pool(1);  // single worker => deterministic execution order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  pool.wait_idle();  // later exceptions are dropped; pool idle and clean
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  parallel_for(&pool, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SequentialFallbackMatchesPool) {
  std::vector<int> serial(257, 0), pooled(257, 0);
  parallel_for(nullptr, serial.size(),
               [&](std::size_t i) { serial[i] = static_cast<int>(i * i); });
  ThreadPool pool(4);
  parallel_for(&pool, pooled.size(),
               [&](std::size_t i) { pooled[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, pooled);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(&pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, DeterministicAcrossPoolSizes) {
  // Each index writes only its own slot, so the result must be
  // bit-identical no matter how the chunked schedule carves the range.
  const auto run = [](std::size_t workers) {
    std::vector<double> out(1237, 0.0);
    const auto body = [&out](std::size_t i) {
      const double x = static_cast<double>(i);
      out[i] = x * x + 0.5 * x;
    };
    if (workers == 0) {
      parallel_for(nullptr, out.size(), body);
    } else {
      ThreadPool pool(workers);
      parallel_for(&pool, out.size(), body);
    }
    return out;
  };
  const std::vector<double> sequential = run(0);
  EXPECT_EQ(run(1), sequential);
  EXPECT_EQ(run(2), sequential);
  EXPECT_EQ(run(8), sequential);
}

TEST(ParallelFor, BodyExceptionPropagatesAndFillsOtherSlots) {
  ThreadPool pool(4);
  std::vector<int> out(500, 0);
  EXPECT_THROW(parallel_for(&pool, out.size(),
                            [&out](std::size_t i) {
                              if (i == 250) throw std::runtime_error("boom");
                              out[i] = 1;
                            }),
               std::runtime_error);
  // The other chunks still ran; only the throwing chunk's tail is lost
  // (4 workers * 4 chunks each => chunks of ~31 indices).
  EXPECT_EQ(out[250], 0);
  EXPECT_EQ(out.front(), 1);
  EXPECT_EQ(out.back(), 1);
  EXPECT_GE(std::accumulate(out.begin(), out.end(), 0),
            static_cast<int>(out.size()) - 32);
  pool.wait_idle();  // pool stays usable, no stored exception remains
}

}  // namespace
}  // namespace mlck::util
