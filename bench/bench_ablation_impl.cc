// Ablations of the implementation choices DESIGN.md calls out:
//  (a) Scan+ label processing order (by id / smallest list first /
//      largest list first) — the paper notes the optimization's
//      effectiveness "depends on the ordering of the labels";
//  (b) SimHash dedup on/off in the end-to-end pipeline.
#include <iostream>

#include "bench_common.h"
#include "core/scan.h"
#include "gen/instance_gen.h"
#include "gen/tweet_gen.h"
#include "pipeline/diversifier.h"
#include "util/logging.h"

namespace mqd {
namespace {

void ScanPlusOrderAblation() {
  bench::PrintSection("(a) Scan+ label-order policies (solution size)");
  TablePrinter table({"seed", "scan", "byId", "sizeAsc", "sizeDesc"});
  ScanSolver scan;
  for (uint64_t seed = 0; seed < bench::Scaled(6, 3); ++seed) {
    InstanceGenConfig cfg;
    cfg.num_labels = 6;
    cfg.duration = 3600.0;
    cfg.posts_per_minute = bench::ScaledRate(40.0);
    cfg.overlap_rate = 1.8;
    cfg.popularity_skew = 1.0;
    cfg.seed = 600 + seed;
    auto inst = GenerateInstance(cfg);
    MQD_CHECK(inst.ok());
    UniformLambda model(60.0);
    std::vector<double> row{static_cast<double>(seed),
                            static_cast<double>(
                                scan.Solve(*inst, model)->size())};
    for (LabelOrder order : {LabelOrder::kById, LabelOrder::kSizeAsc,
                             LabelOrder::kSizeDesc}) {
      ScanPlusSolver solver(order);
      row.push_back(
          static_cast<double>(solver.Solve(*inst, model)->size()));
    }
    table.AddNumericRow(row, 0);
  }
  table.Print(std::cout);
}

void DedupAblation() {
  bench::PrintSection("(b) SimHash dedup on/off in the pipeline");
  TweetGenConfig gen;
  gen.duration_seconds = bench::Scaled(2, 1) * 3600.0;
  gen.base_rate_per_minute = 120.0;
  gen.duplicate_prob = 0.15;
  gen.seed = 31;
  auto tweets = GenerateTweetStream(gen);
  MQD_CHECK(tweets.ok());

  Topic sports;
  sports.name = "sports";
  sports.keywords = {"golf", "nfl", "football", "nba", "basketball",
                     "championship"};
  Topic finance;
  finance.name = "finance";
  finance.keywords = {"stocks", "market", "nasdaq", "earnings",
                      "trading"};

  TablePrinter table({"dedup", "matched", "dups removed", "posts",
                      "selected"});
  for (bool dedup : {false, true}) {
    auto matcher = TopicMatcher::Create({sports, finance});
    MQD_CHECK(matcher.ok());
    PipelineConfig config;
    config.lambda = 300.0;
    config.dedup = dedup;
    config.solver = SolverKind::kScanPlus;
    Diversifier diversifier(*std::move(matcher), config);
    auto result = diversifier.Run(*tweets);
    MQD_CHECK(result.ok());
    table.AddRow({dedup ? "on" : "off",
                  FormatDouble(static_cast<double>(result->matched), 0),
                  FormatDouble(
                      static_cast<double>(result->duplicates_removed), 0),
                  FormatDouble(static_cast<double>(
                                   result->instance.num_posts()),
                               0),
                  FormatDouble(
                      static_cast<double>(result->selection.size()), 0)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace mqd

int main() {
  mqd::bench::PrintHeader(
      "Implementation ablations",
      "Scan+ label order, pipeline dedup",
      "Scan+ order matters; dedup shrinks the instance without "
      "hurting coverage");
  mqd::ScanPlusOrderAblation();
  mqd::DedupAblation();
  return 0;
}
