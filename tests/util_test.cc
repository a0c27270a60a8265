// Tests for src/util: rng, math helpers, csv/table, flags, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "util/csv.h"
#include "util/flags.h"
#include "util/lru_cache.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/shutdown.h"

namespace imsr::util {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  const int n = 20000;
  double sum = 0.0;
  double ss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    ss += v * v;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NextBelowIsUnbiasedAcrossRange) {
  Rng rng(5);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[rng.NextBelow(10)];
  }
  for (int count : counts) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, IntInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.IntInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(1);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextUint64(), forked.NextUint64());
}

TEST(MathTest, LogSumExpMatchesNaive) {
  const std::vector<double> values = {0.5, -1.0, 2.0, 0.0};
  double naive = 0.0;
  for (double v : values) naive += std::exp(v);
  EXPECT_NEAR(LogSumExp(values), std::log(naive), 1e-12);
}

TEST(MathTest, LogSumExpStableForLargeInputs) {
  const std::vector<double> values = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(values), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathTest, SoftmaxSumsToOne) {
  std::vector<double> values = {1.0, 2.0, 3.0};
  SoftmaxInPlace(values);
  EXPECT_NEAR(values[0] + values[1] + values[2], 1.0, 1e-12);
  EXPECT_LT(values[0], values[1]);
  EXPECT_LT(values[1], values[2]);
}

TEST(MathTest, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> z = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(MathTest, PearsonZeroVarianceReturnsZero) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(MathTest, CosineSimilarityBasics) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-12);
  EXPECT_EQ(CosineSimilarity({0, 0}, {1, 1}), 0.0);
}

TEST(MathTest, Mean) {
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(Mean(values), 5.0, 1e-12);
}

TEST(TableTest, PrettyAndCsvRendering) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b,eta", "2"});
  const std::string pretty = table.ToPrettyString();
  EXPECT_NE(pretty.find("| alpha"), std::string::npos);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"b,eta\",2"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table table({"x"});
  table.AddRow({"42"});
  const std::string path = "/tmp/imsr_util_test_table.csv";
  ASSERT_TRUE(table.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[64] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_EQ(std::string(buffer), "x\n");
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(FormatTest, Doubles) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.1234, 2), "12.34");
}

TEST(FlagsTest, ParsesTypes) {
  const char* argv[] = {"prog", "--name=abc", "--count=42",
                        "--rate=0.5", "--verbose"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
}

TEST(FlagsTest, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--threads=abc", "--rate=0.5x",
                        "--big=99999999999999999999"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_DEATH(flags.GetInt("threads", 0), "expects an integer");
  EXPECT_DEATH(flags.GetDouble("rate", 0.0), "expects a number");
  EXPECT_DEATH(flags.GetInt("big", 0), "expects an integer");
}

TEST(FlagsTest, AcceptsNegativeAndBoundaryValues) {
  const char* argv[] = {"prog", "--delta=-12", "--zero=0",
                        "--exp=-1.5e3"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("delta", 0), -12);
  EXPECT_EQ(flags.GetInt("zero", 7), 0);
  EXPECT_DOUBLE_EQ(flags.GetDouble("exp", 0.0), -1500.0);
}

TEST(FlagsTest, TryParseReportsPositionalTokens) {
  const char* argv[] = {"--ok=1", "stray"};
  Flags flags;
  std::string error;
  EXPECT_FALSE(Flags::TryParse(2, const_cast<char**>(argv), &flags, &error));
  EXPECT_EQ(error, "expected --name=value argument, got 'stray'");

  const char* good[] = {"--ok=1"};
  ASSERT_TRUE(Flags::TryParse(1, const_cast<char**>(good), &flags, &error));
  EXPECT_EQ(flags.GetInt("ok", 0), 1);
}

FlagSet MakeTestFlagSet() {
  FlagSet set("tool", "unit-test flag set");
  set.AddString("out", "results.json", "output path");
  set.AddInt("shards", 4, "worker shard count");
  set.AddDouble("rate", 0.5, "target rate");
  set.AddBool("verbose", false, "chatty logging");
  return set;
}

TEST(FlagSetTest, DefaultsAndParsedValues) {
  FlagSet set = MakeTestFlagSet();
  const char* argv[] = {"--shards=8", "--verbose"};
  std::string error;
  ASSERT_TRUE(set.Parse(2, const_cast<char**>(argv), &error)) << error;
  EXPECT_EQ(set.GetInt("shards"), 8);
  EXPECT_TRUE(set.GetBool("verbose"));
  EXPECT_EQ(set.GetString("out"), "results.json");
  EXPECT_DOUBLE_EQ(set.GetDouble("rate"), 0.5);
  EXPECT_TRUE(set.Has("shards"));
  EXPECT_FALSE(set.Has("out"));
  EXPECT_FALSE(set.help_requested());
}

TEST(FlagSetTest, FullTokenValueValidation) {
  std::string error;
  {
    FlagSet set = MakeTestFlagSet();
    const char* argv[] = {"--shards=8x"};
    EXPECT_FALSE(set.Parse(1, const_cast<char**>(argv), &error));
    EXPECT_EQ(error, "flag --shards expects an integer, got '8x'");
  }
  {
    FlagSet set = MakeTestFlagSet();
    const char* argv[] = {"--rate=fast"};
    EXPECT_FALSE(set.Parse(1, const_cast<char**>(argv), &error));
    EXPECT_EQ(error, "flag --rate expects a number, got 'fast'");
  }
  {
    FlagSet set = MakeTestFlagSet();
    const char* argv[] = {"--verbose=maybe"};
    EXPECT_FALSE(set.Parse(1, const_cast<char**>(argv), &error));
    EXPECT_EQ(error,
              "flag --verbose expects a boolean (true/false), got 'maybe'");
  }
  {
    FlagSet set = MakeTestFlagSet();
    const char* argv[] = {"positional"};
    EXPECT_FALSE(set.Parse(1, const_cast<char**>(argv), &error));
    EXPECT_EQ(error, "expected --name=value argument, got 'positional'");
  }
}

TEST(FlagSetTest, UnknownFlagSuggestsNearestName) {
  FlagSet set = MakeTestFlagSet();
  const char* argv[] = {"--shrads=8"};
  std::string error;
  EXPECT_FALSE(set.Parse(1, const_cast<char**>(argv), &error));
  EXPECT_EQ(error, "unknown flag --shrads (did you mean --shards?)");

  FlagSet other = MakeTestFlagSet();
  const char* far[] = {"--zzzzzzzz=1"};
  EXPECT_FALSE(other.Parse(1, const_cast<char**>(far), &error));
  EXPECT_EQ(error, "unknown flag --zzzzzzzz");
}

TEST(FlagSetTest, HelpRequestSkipsValidation) {
  FlagSet set = MakeTestFlagSet();
  const char* argv[] = {"--help", "--shards=16"};
  std::string error;
  ASSERT_TRUE(set.Parse(2, const_cast<char**>(argv), &error)) << error;
  EXPECT_TRUE(set.help_requested());
  EXPECT_EQ(set.GetInt("shards"), 16);

  const std::string help = set.HelpText();
  EXPECT_NE(help.find("usage: tool"), std::string::npos);
  EXPECT_NE(help.find("unit-test flag set"), std::string::npos);
  EXPECT_NE(help.find("--shards"), std::string::npos);
  EXPECT_NE(help.find("worker shard count (default: 4)"), std::string::npos);
  EXPECT_NE(help.find("(default: results.json)"), std::string::npos);
}

TEST(FlagSetTest, FlagsViewBridgesLegacyHelpers) {
  FlagSet set = MakeTestFlagSet();
  const char* argv[] = {"--shards=2", "--out=x.csv"};
  std::string error;
  ASSERT_TRUE(set.Parse(2, const_cast<char**>(argv), &error)) << error;
  const Flags& view = set.flags();
  EXPECT_EQ(view.GetInt("shards", 0), 2);
  EXPECT_EQ(view.GetString("out", ""), "x.csv");
  EXPECT_FALSE(view.Has("rate"));
}

TEST(FlagSetTest, RejectsDuplicateCommandLineOccurrence) {
  // Last-wins would silently mask the first value; the parse must fail
  // and name the flag.
  FlagSet set = MakeTestFlagSet();
  const char* argv[] = {"--shards=2", "--out=x.csv", "--shards=8"};
  std::string error;
  EXPECT_FALSE(set.Parse(3, const_cast<char**>(argv), &error));
  EXPECT_EQ(error, "flag --shards given more than once");
}

TEST(LruCacheTest, GetMissThenHitAfterPut) {
  LruCache<int, std::string> cache(1024);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, "one", 100);
  const std::string* hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "one");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.bytes(), 100u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(LruCacheTest, EvictsColdestWhenOverByteBudget) {
  LruCache<int, int> cache(300);
  cache.Put(1, 10, 100);
  cache.Put(2, 20, 100);
  cache.Put(3, 30, 100);  // exactly at budget: nothing evicted
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);
  ASSERT_NE(cache.Get(1), nullptr);  // warm 1; coldest is now 2
  cache.Put(4, 40, 100);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(2), nullptr);  // the cold entry went
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_LE(cache.bytes(), cache.budget());
}

TEST(LruCacheTest, ReplacingAKeyUpdatesValueAndBytes) {
  LruCache<int, std::string> cache(1000);
  cache.Put(7, "old", 200);
  cache.Put(7, "new", 300);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 300u);
  const std::string* hit = cache.Get(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
}

TEST(LruCacheTest, SingleOverBudgetEntryStaysResidentUntilNextInsert) {
  // The cache never rejects an insert: an entry bigger than the whole
  // budget becomes the sole resident, then goes first when anything
  // else arrives.
  LruCache<int, int> cache(100);
  cache.Put(1, 10, 500);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(2, 20, 50);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_LE(cache.bytes(), cache.budget());
}

TEST(LruCacheTest, ManyInsertsStayWithinBudget) {
  LruCache<int, int> cache(1000);
  for (int i = 0; i < 200; ++i) cache.Put(i, i, 90);
  EXPECT_LE(cache.bytes(), 1000u);
  EXPECT_EQ(cache.entries(), 11u);  // floor(1000 / 90)
  EXPECT_EQ(cache.evictions(), 189u);
  // The warm tail survived, the cold head did not.
  EXPECT_NE(cache.Get(199), nullptr);
  EXPECT_EQ(cache.Get(0), nullptr);
}

TEST(FlagSetTest, SuggestFlagNameRespectsDistanceBudget) {
  const std::vector<std::string> known = {"publish_every", "top_n", "seed"};
  EXPECT_EQ(SuggestFlagName("publish_evry", known), "publish_every");
  EXPECT_EQ(SuggestFlagName("topn", known), "top_n");
  EXPECT_EQ(SuggestFlagName("q", known), "");
}

TEST(ShutdownTest, FlagRoundTrip) {
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
  EXPECT_FALSE(ShutdownFlag()->load());
  RequestShutdown();
  EXPECT_TRUE(ShutdownRequested());
  EXPECT_TRUE(ShutdownFlag()->load());
  ResetShutdownForTest();
  EXPECT_FALSE(ShutdownRequested());
  // Installing the handlers is idempotent and must not flip the flag.
  InstallShutdownHandlers();
  InstallShutdownHandlers();
  EXPECT_FALSE(ShutdownRequested());
}

TEST(SerializationTest, RoundTrip) {
  BinaryWriter writer;
  writer.WriteInt64(-5);
  writer.WriteFloat(1.5f);
  writer.WriteString("hello");
  const float values[3] = {1.0f, 2.0f, 3.0f};
  writer.WriteFloatArray(values, 3);

  BinaryReader reader(writer.buffer());
  int64_t i = 0;
  float f = 0.0f;
  std::string s;
  float out[3] = {};
  ASSERT_TRUE(reader.TryReadInt64(&i));
  ASSERT_TRUE(reader.TryReadFloat(&f));
  ASSERT_TRUE(reader.TryReadString(&s));
  ASSERT_TRUE(reader.TryReadFloatArray(out, 3));
  EXPECT_EQ(i, -5);
  EXPECT_FLOAT_EQ(f, 1.5f);
  EXPECT_EQ(s, "hello");
  EXPECT_FLOAT_EQ(out[2], 3.0f);
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializationTest, TryReadsFailOnTruncationAndStickError) {
  BinaryWriter writer;
  writer.WriteInt64(42);
  BinaryReader reader(writer.buffer());
  int64_t value = 0;
  ASSERT_TRUE(reader.TryReadInt64(&value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(reader.ok());
  EXPECT_FALSE(reader.TryReadInt64(&value));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("truncated"), std::string::npos);
  // Sticky: even a read that would fit keeps failing.
  float f = 0.0f;
  EXPECT_FALSE(reader.TryReadFloat(&f));
}

TEST(SerializationTest, TryReadStringRejectsGarbageLengths) {
  {
    BinaryWriter writer;
    writer.WriteInt64(-1);
    BinaryReader reader(writer.buffer());
    std::string out;
    EXPECT_FALSE(reader.TryReadString(&out));
    EXPECT_NE(reader.error().find("corrupt string length"),
              std::string::npos);
  }
  {
    // A length near SIZE_MAX used to wrap the `position_ + size` bounds
    // check and memcpy out of bounds; it must fail before allocating.
    BinaryWriter writer;
    writer.WriteInt64(INT64_MAX - 7);
    writer.WriteInt64(0);
    BinaryReader reader(writer.buffer());
    std::string out;
    EXPECT_FALSE(reader.TryReadString(&out));
    EXPECT_TRUE(out.empty());
  }
}

TEST(SerializationTest, TryReadFloatArrayRejectsCountMismatch) {
  BinaryWriter writer;
  const float values[2] = {1.0f, 2.0f};
  writer.WriteFloatArray(values, 2);
  BinaryReader reader(writer.buffer());
  float out[3] = {};
  EXPECT_FALSE(reader.TryReadFloatArray(out, 3));
  EXPECT_NE(reader.error().find("size mismatch"), std::string::npos);
}

TEST(SerializationTest, TryReadFloatArrayRejectsTruncatedPayload) {
  BinaryWriter writer;
  writer.WriteInt64(1'000'000);  // claims a million floats, provides none
  BinaryReader reader(writer.buffer());
  std::vector<float> out(1'000'000);
  EXPECT_FALSE(reader.TryReadFloatArray(out.data(), out.size()));
  EXPECT_NE(reader.error().find("truncated"), std::string::npos);
}

TEST(SerializationTest, ReadFromFileRejectsDirectories) {
  // tellg() returns -1 for a directory; this used to become a
  // near-SIZE_MAX allocation.
  BinaryReader reader({});
  EXPECT_FALSE(BinaryReader::ReadFromFile("/tmp", &reader));
  EXPECT_FALSE(BinaryReader::ReadFromFile("/nonexistent/blob", &reader));
}

TEST(SerializationTest, AtomicWriteRoundTripAndFailure) {
  BinaryWriter writer;
  writer.WriteString("durable");
  const std::string path = "/tmp/imsr_util_test_atomic.bin";
  std::string error;
  ASSERT_TRUE(writer.WriteToFileAtomic(path, &error)) << error;
  // No tmp file survives a successful save.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr);
  BinaryReader reader({});
  ASSERT_TRUE(BinaryReader::ReadFromFile(path, &reader));
  std::string payload;
  ASSERT_TRUE(reader.TryReadString(&payload));
  EXPECT_EQ(payload, "durable");
  std::remove(path.c_str());

  EXPECT_FALSE(writer.WriteToFileAtomic("/nonexistent-dir/blob", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace imsr::util
