#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_table.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mqd {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad lambda");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad lambda");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad lambda");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto f = [](bool fail) -> Status {
    MQD_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(f(false).ok());
  EXPECT_EQ(f(true).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturn) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("x");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    int v = 0;
    MQD_ASSIGN_OR_RETURN(v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_FALSE(outer(true).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(7);
  for (double mean : {0.5, 5.0, 200.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(8);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ZipfTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(100, 1.0);
  double sum = 0.0;
  for (size_t i = 0; i < 100; ++i) {
    sum += zipf.Pmf(i);
    if (i > 0) {
      EXPECT_LE(zipf.Pmf(i), zipf.Pmf(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t i = 0; i < 10; ++i) EXPECT_NEAR(zipf.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfSampler zipf(5, 1.2);
  Rng rng(10);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), zipf.Pmf(i), 0.01);
  }
}

TEST(StringTableTest, InsertFindAndGrow) {
  StringTable<int> table;
  EXPECT_EQ(table.Find("a"), nullptr);
  EXPECT_EQ(table.Find(""), nullptr);
  // Keys of every hashed width, the empty key and a key with a NUL.
  const std::vector<std::string> keys = {
      "", "a", "ab", "abc", "abcd", "abcdefg", "abcdefgh",
      "abcdefghi", "abcdefghijklmnop", "abcdefghXijklmnop",
      "abcdefghYijklmnop", std::string("a\0b", 3)};
  for (size_t i = 0; i < keys.size(); ++i) {
    table[keys[i]] = static_cast<int>(i) + 1;
  }
  // Enough keys to grow the table past its first capacities.
  for (int i = 0; i < 200; ++i) table["key" + std::to_string(i)] = -i;
  for (size_t i = 0; i < keys.size(); ++i) {
    const int* value = table.Find(keys[i]);
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, static_cast<int>(i) + 1) << i;
  }
  for (int i = 0; i < 200; ++i) {
    const int* value = table.Find("key" + std::to_string(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, -i);
  }
  // operator[] on a present key returns its value, not a new entry.
  table["abc"] += 10;
  EXPECT_EQ(*table.Find("abc"), 14);
  const std::vector<std::string> missing = {
      "b", "abd", "abcdefgj", "abcdefghZijklmnop", "key200",
      std::string("a\0c", 3)};
  for (const std::string& key : missing) {
    EXPECT_EQ(table.Find(key), nullptr) << key;
  }
}

TEST(StringTableTest, FilterNeighboursAgreeWithUnorderedMap) {
  // The miss filter keys on (size mod 8, first byte mod 64, last byte
  // mod 64). Every absent key below shares all three with a present
  // one: sizes 0, 8 and 16 fold together, and a byte with bit 6 or 7
  // flipped folds onto the original (0xE1 onto 'a', 0xE3 onto '#'),
  // which covers bytes >= 0x80. Each query is checked against
  // std::unordered_map as the table grows through rehashes.
  const auto byte = [](int b) { return std::string(1, static_cast<char>(b)); };
  std::vector<std::string> keys = {"a", "ab", "ax", "abcdefgh", "#tag",
                                   "zzzzzzzzzzzzzzzzzzzz", "@@@@@@@@"};
  std::vector<std::string> probes = keys;
  for (const std::string& key : keys) {
    const std::string middle(key.size() > 2 ? key.size() - 2 : 0, 'q');
    const std::string ends = key.size() > 1 ? key.substr(key.size() - 1) : "";
    // Same size, first and last byte; different middle.
    probes.push_back(key.front() + middle + ends);
    // Same first and last byte, size + 8 and + 16.
    probes.push_back(key.front() + middle + std::string(8, 'm') + ends);
    probes.push_back(key.front() + middle + std::string(16, 'm') + ends);
    // First or last byte with bit 7, bit 6 or both flipped.
    const int first = static_cast<uint8_t>(key.front());
    probes.push_back(byte(first ^ 0x80) + key.substr(1));
    probes.push_back(byte(first ^ 0x40) + key.substr(1));
    const int last = static_cast<uint8_t>(key.back());
    probes.push_back(key.substr(0, key.size() - 1) + byte(last ^ 0x80));
    probes.push_back(key.substr(0, key.size() - 1) + byte(last ^ 0xC0));
  }
  // The empty key reads as first and last byte 0, the filter bit of
  // "@@@@@@@@" ('@' & 63 == 0), and so do these.
  probes.push_back("");
  probes.push_back(std::string(16, '\0'));
  probes.push_back(std::string(8, static_cast<char>(0xC0)));
  probes.push_back(byte(0xE3) + "tag");  // 0xE3 & 63 == '#' & 63
  probes.push_back(byte(0xE1));          // size 1, folds onto "a"
  Rng rng(23);
  for (int i = 0; i < 600; ++i) {
    std::string key(1 + rng.Uniform(20), 'a');
    for (char& c : key) c = static_cast<char>(rng.Uniform(256));
    (i % 2 == 0 ? keys : probes).push_back(std::move(key));
  }
  keys.push_back("");  // absent through every rehash, present at the end

  StringTable<int> table;
  std::unordered_map<std::string, int> want;
  auto check_all = [&](const std::string& where) {
    for (const auto* list : {&keys, &probes}) {
      for (const std::string& key : *list) {
        const int* got = table.Find(key);
        const auto it = want.find(key);
        ASSERT_EQ(got != nullptr, it != want.end()) << where << " " << key;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << where;
        }
      }
    }
  };
  check_all("empty table");
  for (size_t i = 0; i < keys.size(); ++i) {
    table[keys[i]] = static_cast<int>(i) + 1;
    want[keys[i]] = static_cast<int>(i) + 1;
    // Check after 1, 2, 4, 8, ... keys, so every capacity the table
    // grows through is checked.
    if ((i & (i + 1)) == 0) check_all("after " + std::to_string(i + 1));
  }
  check_all("full table");
  EXPECT_NE(table.Find(""), nullptr);
}

TEST(StringTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,b,,c", ',', /*keep_empty=*/true),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_TRUE(Split("", ',').empty());
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringTest, ToLowerTrim) {
  EXPECT_EQ(ToLower("HeLLo #World"), "hello #world");
  EXPECT_EQ(Trim("  abc\t\n"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("scan+", "scan"));
  EXPECT_FALSE(StartsWith("sc", "scan"));
  EXPECT_TRUE(EndsWith("greedy_sc", "_sc"));
  EXPECT_FALSE(EndsWith("sc", "_sc"));
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d posts, %.2f rate", 12, 1.5),
            "12 posts, 1.50 rate");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.25), "1.25");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.5, 1), "0.5");
  EXPECT_EQ(FormatDouble(2.0 / 3.0, 2), "0.67");
}

TEST(StringTest, FormatDurationSeconds) {
  EXPECT_EQ(FormatDurationSeconds(45.0), "45s");
  EXPECT_EQ(FormatDurationSeconds(600.0), "10m");
  EXPECT_EQ(FormatDurationSeconds(7200.0), "2h");
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GT(sw.ElapsedMicros(), 0.0);
}

TEST(TimerTest, AccumulatorMeans) {
  TimeAccumulator acc;
  EXPECT_EQ(acc.mean_seconds(), 0.0);
  acc.Add(1.0);
  acc.Add(3.0);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.total_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean_seconds(), 2.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
}

TEST(DeadlineTest, UnboundedNeverExpires) {
  const Deadline deadline = Deadline::Unbounded();
  EXPECT_TRUE(deadline.unbounded());
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.Check("op").ok());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  for (double budget : {0.0, -1.0}) {
    const Deadline deadline = Deadline::AfterSeconds(budget);
    EXPECT_FALSE(deadline.unbounded()) << budget;
    EXPECT_TRUE(deadline.expired()) << budget;
    const Status status = deadline.Check("solve");
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << budget;
    EXPECT_NE(status.ToString().find("solve"), std::string::npos);
  }
  // NaN budgets mean "no budget", not "no time".
  EXPECT_TRUE(Deadline::AfterSeconds(std::nan("")).unbounded());
}

TEST(DeadlineTest, GenerousBudgetIsLive) {
  const Deadline deadline = Deadline::AfterSeconds(3600.0);
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.Check("op").ok());
}

TEST(DeadlineCheckerTest, StrideAmortizesAndTripsSticky) {
  const Deadline expired = Deadline::AfterSeconds(-1.0);
  DeadlineChecker checker(expired, /*stride=*/4);
  // The first three polls ride the stride without a clock read.
  EXPECT_FALSE(checker.Expired());
  EXPECT_FALSE(checker.Expired());
  EXPECT_FALSE(checker.Expired());
  EXPECT_TRUE(checker.Expired());   // 4th poll reads the clock
  EXPECT_TRUE(checker.Expired());   // sticky from now on
  EXPECT_EQ(checker.Check("loop").code(), StatusCode::kDeadlineExceeded);

  DeadlineChecker unbounded(Deadline::Unbounded(), /*stride=*/1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(unbounded.Expired());
}

TEST(FaultInjectionTest, DisarmedSiteIsFree) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.MaybeInject("io.read_instance").ok());
}

TEST(FaultInjectionTest, FiringIsDeterministicInSeedSiteAndHit) {
  FaultInjector& injector = FaultInjector::Global();
  auto fire_pattern = [&](uint64_t seed) {
    EXPECT_TRUE(injector.ArmFromSpec("x.site:0.5", seed).ok());
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += injector.MaybeInject("x.site").ok() ? '.' : 'F';
    }
    injector.Disarm();
    EXPECT_NE(pattern.find('F'), std::string::npos);
    EXPECT_NE(pattern.find('.'), std::string::npos);
    return pattern;
  };
  const std::string a1 = fire_pattern(1);
  const std::string a2 = fire_pattern(1);
  const std::string b = fire_pattern(2);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(FaultInjectionTest, ProbabilityEdgesAndCounters) {
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("always:1,never:0", 9).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.MaybeInject("always").ok());
    EXPECT_TRUE(injector.MaybeInject("never").ok());
    EXPECT_TRUE(injector.MaybeInject("unconfigured").ok());
  }
  EXPECT_EQ(injector.Hits("always"), 10u);
  EXPECT_EQ(injector.Fires("always"), 10u);
  EXPECT_EQ(injector.Hits("never"), 10u);
  EXPECT_EQ(injector.Fires("never"), 0u);
  injector.Disarm();
}

TEST(FaultInjectionTest, ThrowSpecThrows) {
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.ArmFromSpec("bad.dep:1:0:throw", 3).ok());
  EXPECT_THROW((void)injector.MaybeInject("bad.dep"), std::runtime_error);
  injector.Disarm();
}

TEST(FaultInjectionTest, MalformedSpecsRejected) {
  FaultInjector& injector = FaultInjector::Global();
  const std::vector<std::string> bad = {
      "siteonly",          // missing probability
      ":0.5",              // empty site
      "s:nope",            // non-numeric probability
      "s:1.5",             // probability out of range
      "s:-0.1",            // probability out of range
      "s:0.5:xyz",         // bad latency
      "s:0.5:1:throw:extra",
      "s:0.5:1:banana",
  };
  for (const std::string& spec : bad) {
    EXPECT_FALSE(injector.ArmFromSpec(spec, 0).ok()) << spec;
  }
  injector.Disarm();
}

TEST(FaultInjectionTest, NonFiniteAndPartialNumbersFailClosed) {
  // strtod happily parses "nan", "inf", "1e400" (ERANGE) and stops at
  // the first bad char of "0.5junk"; a fault schedule must accept none
  // of them — an armed NaN probability would make ShouldFire's compare
  // silently always-false while the test believes chaos is on.
  FaultInjector& injector = FaultInjector::Global();
  injector.Disarm();
  const std::vector<std::string> bad = {
      "s:nan",      "s:inf",      "s:-inf",     "s:1e400",
      "s:0.5junk",  "s:+",        "s:.",        "s:0x1p2",
      "s:0.5:nan",  "s:0.5:inf",  "s:0.5:1e400", "s:0.5:5junk",
      "s:0.5:-1",
  };
  for (const std::string& spec : bad) {
    EXPECT_FALSE(injector.ArmFromSpec(spec, 0).ok()) << spec;
    EXPECT_FALSE(injector.armed()) << spec;
    EXPECT_TRUE(injector.MaybeInject("s").ok()) << spec;
  }
}

TEST(FaultInjectionTest, MalformedEntryNeverArmsPartialSpec) {
  FaultInjector& injector = FaultInjector::Global();
  // A valid leading entry followed by garbage must not arm the leader.
  EXPECT_FALSE(injector.ArmFromSpec("good.site:1,later:", 0).ok());
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.MaybeInject("good.site").ok());
  EXPECT_EQ(injector.Hits("good.site"), 0u);

  // A malformed re-arm also drops the previously armed schedule: a
  // half-swapped chaos config is worse than none.
  ASSERT_TRUE(injector.ArmFromSpec("good.site:1", 0).ok());
  EXPECT_FALSE(injector.MaybeInject("good.site").ok());
  EXPECT_FALSE(injector.ArmFromSpec("good.site:1,oops:nan", 0).ok());
  EXPECT_FALSE(injector.armed());
  EXPECT_TRUE(injector.MaybeInject("good.site").ok());
}

TEST(FaultInjectionTest, SpecMutationFuzzArmsFullyOrNotAtAll) {
  // Single-character mutations of a valid schedule: whatever the
  // parser decides, the registry must end up either fully armed
  // (status ok) or fully disarmed (status !ok) — never in between.
  FaultInjector& injector = FaultInjector::Global();
  const std::string valid =
      "io.read_instance:0.5:2,pool.task:1:0:throw,serve.worker:0.25";
  Rng rng(20240809);
  const std::string alphabet = "abz019.,:+-enif xX\t";
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = valid;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = alphabet[rng.Uniform(alphabet.size())];
    const Status status = injector.ArmFromSpec(mutated, 7);
    EXPECT_EQ(status.ok(), injector.armed()) << mutated;
    injector.Disarm();
  }
  // The unmutated spec itself arms (guards against a vacuous fuzz).
  EXPECT_TRUE(injector.ArmFromSpec(valid, 7).ok());
  EXPECT_TRUE(injector.armed());
  injector.Disarm();
}

}  // namespace
}  // namespace mqd
