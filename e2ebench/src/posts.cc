// The post path: posts enter the Figure 1 pipeline and leave as
// per-tenant emissions of the multi-tenant stream engine.
//
//  posts_text    tweets -> Tokenizer::Tokenize -> TopicMatcher::MatchTokens
//                -> SimHash + NearDuplicateDetector -> InstanceBuilder
//                -> MultiTenantStream (StreamScan, shared per-label tier)
//                -> TenantEmissions for every tenant.
//  posts_fanout  label-mask posts from GenerateInstance -> InstanceBuilder
//                -> MultiTenantStream (StreamScan+, cluster tier, with
//                mid-stream joins and unsubscribes) -> TenantEmissions.
//
// One pass is the whole path, from the first input post to the last
// tenant's emissions; a run repeats passes until its time is used.
// Live ingestion is not a library entry point yet, so the path is
// measured as replay throughput.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/coverage.h"
#include "core/instance.h"
#include "gen/instance_gen.h"
#include "gen/news_gen.h"
#include "gen/profile_gen.h"
#include "gen/tweet_gen.h"
#include "pipeline/matcher.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "stream/delay_stats.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "stream/replay.h"
#include "text/tokenizer.h"
#include "topics/topic_model.h"
#include "trace.h"
#include "util/rng.h"

namespace mqd::e2e {
namespace {

// The daemon's stream defaults (ServeConfig).
constexpr double kLambda = 60.0;
constexpr double kTau = 10.0;
// Posts per RunUntil window (one cluster sweep each) and per staged
// front-end batch.
constexpr PostId kWindowPosts = 256;
// Tenants whose emissions are checked against a private replay on
// every pass.
constexpr size_t kSampleTenants = 16;

// posts_text: six hours of tweets at ~600/min (a whole day would leave
// too few passes in a run for a steady median); 40 keyword topics made
// by splitting each of the 10 built-in broad topics into 4; 10k tenants
// with 3-label profiles, all subscribed before the first post.
constexpr double kTextSeconds = 6 * 3600.0;
constexpr double kTextRatePerMinute = 600.0;
constexpr int kTopicsPerBroad = 4;
constexpr size_t kTextTenants = 10000;
constexpr size_t kTextProfileLabels = 3;

// posts_fanout: 6-label profiles over 40 labels are mostly distinct, so
// each keeps its own StreamScan+ cluster representative live. Half the
// tenants subscribe before the first post, the rest join at evenly
// spaced cursors, and every tenth early tenant unsubscribes mid-stream.
constexpr int kFanoutLabels = 40;
constexpr double kFanoutSeconds = 3600.0;
constexpr double kFanoutRatePerMinute = 300.0;
constexpr size_t kFanoutTenants = 2000;
constexpr size_t kFanoutProfileLabels = 6;
constexpr int kFanoutJoinPoints = 8;

constexpr PostId kStays = static_cast<PostId>(-1);

struct RawPost {
  DimValue time;
  LabelMask labels;
  uint64_t id;
};

// One subscription of the run's churn schedule: subscribed when the
// engine cursor reaches `join` (0 = before the first post), dropped
// when it reaches `leave`.
struct TenantPlan {
  LabelMask mask = 0;
  PostId join = 0;
  PostId leave = kStays;
};

struct ChurnEvent {
  PostId cursor;
  std::vector<size_t> joins;
  std::vector<size_t> leaves;
};

// Inputs and reference answers of one posts workload, all made in
// set-up from the seed.
struct PostsWorkload {
  bool text = false;
  StreamKind kind = StreamKind::kStreamScan;
  int num_labels = 0;
  std::vector<Tweet> tweets;            // posts_text
  std::optional<TopicMatcher> matcher;  // posts_text
  std::vector<RawPost> raw;             // posts_fanout
  std::vector<TenantPlan> tenants;
  std::vector<ChurnEvent> churn;  // mid-stream events, ascending cursor

  // The stream the engine must see, and the emissions of the sample
  // tenants (global PostIds) from private replays of their views.
  Instance reference;
  uint64_t ref_matched = 0;
  uint64_t ref_duplicates = 0;
  std::vector<size_t> sample;
  std::vector<std::vector<Emission>> sample_emissions;

  size_t input_posts() const { return text ? tweets.size() : raw.size(); }
};

// What one pass measured.
struct PassOutput {
  double seconds = 0.0;
  std::vector<double> query_seconds;   // one per TenantEmissions call
  std::vector<double> window_seconds;  // one per RunUntil window
  uint64_t queries = 0;
  uint64_t query_failures = 0;
  uint64_t subscribes = 0;
  uint64_t matched = 0;
  uint64_t duplicates = 0;
  size_t engine_posts = 0;
  size_t clusters = 0;
  double amplification = 0.0;
  double shared_hit_rate = 0.0;
};

std::vector<Topic> SplitBroadTopics() {
  std::vector<Topic> topics;
  const std::vector<BroadTopicSpec>& broad = BuiltinBroadTopics();
  for (size_t g = 0; g < broad.size(); ++g) {
    const std::vector<std::string>& words = broad[g].keywords;
    const size_t chunk = (words.size() + kTopicsPerBroad - 1) / kTopicsPerBroad;
    for (int k = 0; k < kTopicsPerBroad; ++k) {
      Topic topic;
      topic.name = broad[g].name + "." + std::to_string(k);
      topic.group = static_cast<int>(g);
      const size_t begin = std::min(words.size(), k * chunk);
      const size_t end = std::min(words.size(), begin + chunk);
      topic.keywords.assign(words.begin() + begin, words.begin() + end);
      topic.weights.assign(topic.keywords.size(), 1.0);
      topics.push_back(std::move(topic));
    }
  }
  return topics;
}

// The private replay a tenant's emissions must equal: a fresh processor
// of the engine's kind over the tenant's view, checked against the
// StreamMQDP contract (lambda-cover, tau deadline, monotone emit times).
Result<std::vector<Emission>> PrivateReplay(const Instance& inst,
                                            StreamKind kind,
                                            const TenantPlan& plan) {
  const UniformLambda model(kLambda);
  MQD_ASSIGN_OR_RETURN(TenantView view,
                       BuildTenantView(inst, model, plan.mask, plan.join));
  std::unique_ptr<StreamProcessor> processor =
      CreateStreamProcessor(kind, view.sub, *view.model, kTau);
  MQD_RETURN_NOT_OK(RunStream(view.sub, processor.get()).status());
  MQD_RETURN_NOT_OK(ValidateStreamOutput(view.sub, *view.model,
                                         processor->emissions(), kTau));
  std::vector<Emission> global;
  global.reserve(processor->emissions().size());
  for (const Emission& e : processor->emissions()) {
    global.push_back(Emission{view.global_of_local[e.post], e.emit_time});
  }
  return global;
}

// Reference answers: the sample tenants' private replays over the
// reference stream.
Status ComputeReferences(PostsWorkload* w) {
  std::vector<size_t> staying;
  for (size_t i = 0; i < w->tenants.size(); ++i) {
    if (w->tenants[i].leave == kStays) staying.push_back(i);
  }
  const size_t count = std::min(kSampleTenants, staying.size());
  for (size_t k = 0; k < count; ++k) {
    const size_t plan = staying[k * staying.size() / count];
    MQD_ASSIGN_OR_RETURN(std::vector<Emission> emissions,
                         PrivateReplay(w->reference, w->kind, w->tenants[plan]));
    w->sample.push_back(plan);
    w->sample_emissions.push_back(std::move(emissions));
  }
  return Status::OK();
}

Result<std::unique_ptr<PostsWorkload>> SetupText(const Options& options) {
  auto w = std::make_unique<PostsWorkload>();
  w->text = true;
  w->kind = StreamKind::kStreamScan;
  TweetGenConfig config;
  config.duration_seconds = kTextSeconds * options.scale;
  config.base_rate_per_minute = kTextRatePerMinute;
  config.seed = options.seed;
  MQD_ASSIGN_OR_RETURN(w->tweets, GenerateTweetStream(config));
  std::vector<Topic> topics = SplitBroadTopics();
  w->num_labels = static_cast<int>(topics.size());
  MQD_ASSIGN_OR_RETURN(TopicMatcher matcher,
                       TopicMatcher::Create(std::move(topics)));
  w->matcher.emplace(std::move(matcher));

  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  const size_t tenants = std::max<size_t>(
      kSampleTenants, static_cast<size_t>(kTextTenants * options.scale));
  MQD_ASSIGN_OR_RETURN(std::vector<LabelMask> masks,
                       GenerateLabelMaskProfiles(w->num_labels,
                                                 kTextProfileLabels, tenants,
                                                 &rng));
  for (LabelMask mask : masks) w->tenants.push_back(TenantPlan{mask});

  // Reference front end: the plain per-post loop the staged pass must
  // reproduce post for post.
  const Tokenizer tokenizer;
  NearDuplicateDetector dedup;
  InstanceBuilder builder(w->num_labels);
  for (const Tweet& tweet : w->tweets) {
    const std::vector<std::string> tokens = tokenizer.Tokenize(tweet.text);
    const LabelMask mask = w->matcher->MatchTokens(tokens);
    if (mask == 0) continue;
    ++w->ref_matched;
    if (dedup.IsDuplicate(SimHash(tokens))) {
      ++w->ref_duplicates;
      continue;
    }
    builder.Add(tweet.time, mask, tweet.id);
  }
  MQD_ASSIGN_OR_RETURN(w->reference, builder.Build());
  MQD_RETURN_NOT_OK(ComputeReferences(w.get()));
  return w;
}

Result<std::unique_ptr<PostsWorkload>> SetupFanout(const Options& options) {
  auto w = std::make_unique<PostsWorkload>();
  w->kind = StreamKind::kStreamScanPlus;
  w->num_labels = kFanoutLabels;
  InstanceGenConfig config;
  config.num_labels = kFanoutLabels;
  config.duration = kFanoutSeconds * options.scale;
  config.posts_per_minute = kFanoutRatePerMinute;
  config.seed = options.seed;
  MQD_ASSIGN_OR_RETURN(Instance generated, GenerateInstance(config));
  for (const Post& post : generated.posts()) {
    w->raw.push_back(RawPost{post.value, post.labels, post.external_id});
  }
  InstanceBuilder builder(w->num_labels);
  for (const RawPost& post : w->raw) builder.Add(post.time, post.labels, post.id);
  MQD_ASSIGN_OR_RETURN(w->reference, builder.Build());

  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 2);
  const size_t tenants = std::max<size_t>(
      2 * kSampleTenants, static_cast<size_t>(kFanoutTenants * options.scale));
  MQD_ASSIGN_OR_RETURN(std::vector<LabelMask> masks,
                       GenerateLabelMaskProfiles(w->num_labels,
                                                 kFanoutProfileLabels, tenants,
                                                 &rng));
  // Churn cursors sit on window boundaries strictly inside the stream.
  const PostId windows = static_cast<PostId>(
      w->reference.num_posts() / kWindowPosts);
  auto cursor_at = [&](size_t k, size_t of) {
    return static_cast<PostId>(std::max<size_t>(1, (k + 1) * windows / (of + 1)) *
                               kWindowPosts);
  };
  const size_t early = tenants / 2;
  w->churn.resize(kFanoutJoinPoints);
  for (int k = 0; k < kFanoutJoinPoints; ++k) {
    w->churn[k].cursor = cursor_at(static_cast<size_t>(k), kFanoutJoinPoints);
  }
  for (size_t i = 0; i < tenants; ++i) {
    TenantPlan plan{masks[i]};
    if (i >= early) {
      const size_t k = (i - early) % kFanoutJoinPoints;
      plan.join = w->churn[k].cursor;
      w->churn[k].joins.push_back(i);
    } else if (i % 10 == 9) {
      const size_t k = (i / 10) % kFanoutJoinPoints;
      plan.leave = w->churn[k].cursor;
      w->churn[k].leaves.push_back(i);
    }
    w->tenants.push_back(plan);
  }
  MQD_RETURN_NOT_OK(ComputeReferences(w.get()));
  return w;
}

// The staged front end of posts_text: each 256-tweet batch goes through
// one layer at a time, so each layer's time is one span per batch.
Result<Instance> TextFrontEnd(const PostsWorkload& w, Tracer* tracer,
                              int32_t parent, PassOutput* out) {
  const Tokenizer tokenizer;
  NearDuplicateDetector dedup;
  InstanceBuilder builder(w.num_labels);
  std::vector<std::vector<std::string>> tokens(kWindowPosts);
  std::vector<LabelMask> masks(kWindowPosts);
  for (size_t begin = 0; begin < w.tweets.size(); begin += kWindowPosts) {
    const size_t count = std::min<size_t>(kWindowPosts, w.tweets.size() - begin);
    {
      ScopedSpan span(tracer, "text.tokenize", parent);
      for (size_t i = 0; i < count; ++i) {
        tokens[i] = tokenizer.Tokenize(w.tweets[begin + i].text);
      }
    }
    {
      ScopedSpan span(tracer, "pipeline.match", parent);
      for (size_t i = 0; i < count; ++i) {
        masks[i] = w.matcher->MatchTokens(tokens[i]);
      }
    }
    {
      ScopedSpan span(tracer, "simhash.dedup", parent);
      for (size_t i = 0; i < count; ++i) {
        if (masks[i] == 0) continue;
        ++out->matched;
        if (dedup.IsDuplicate(SimHash(tokens[i]))) {
          ++out->duplicates;
          masks[i] = 0;
        }
      }
    }
    {
      ScopedSpan span(tracer, "core.build", parent);
      for (size_t i = 0; i < count; ++i) {
        if (masks[i] == 0) continue;
        const Tweet& tweet = w.tweets[begin + i];
        builder.Add(tweet.time, masks[i], tweet.id);
      }
    }
  }
  ScopedSpan span(tracer, "core.build", parent);
  return builder.Build();
}

// One pass of the whole post path. Correctness failures go to `result`.
PassOutput RunPass(const PostsWorkload& w, Tracer* tracer, RunResult* result) {
  PassOutput out;
  const UniformLambda model(kLambda);
  std::vector<std::vector<Emission>> sample_emissions(w.sample.size());
  // Declared outside the timed block: tearing the engine down is not
  // part of the path.
  std::optional<Instance> inst;
  std::unique_ptr<MultiTenantStream> engine;
  const int64_t start = NowNs();
  {
    ScopedSpan root(tracer, "posts.pass");
    const int32_t parent = root.index();

    Result<Instance> built = [&]() -> Result<Instance> {
      if (w.text) return TextFrontEnd(w, tracer, parent, &out);
      ScopedSpan span(tracer, "core.build", parent);
      InstanceBuilder builder(w.num_labels);
      for (const RawPost& post : w.raw) {
        builder.Add(post.time, post.labels, post.id);
      }
      return builder.Build();
    }();
    if (!built.ok()) {
      result->Fail("instance build: " + built.status().ToString());
      return out;
    }
    inst.emplace(std::move(built).value());
    out.engine_posts = inst->num_posts();

    std::vector<TenantId> ids(w.tenants.size(), kInvalidTenant);
    auto subscribe = [&](size_t plan) {
      Result<TenantId> id = engine->Subscribe(w.tenants[plan].mask);
      if (!id.ok()) {
        result->Fail("subscribe: " + id.status().ToString());
        return;
      }
      ids[plan] = *id;
      ++out.subscribes;
    };
    {
      ScopedSpan span(tracer, "stream.subscribe", parent);
      Result<std::unique_ptr<MultiTenantStream>> created =
          MultiTenantStream::Create(*inst, model, w.kind, kTau);
      if (!created.ok()) {
        result->Fail("engine: " + created.status().ToString());
        return out;
      }
      engine = std::move(created).value();
      for (size_t i = 0; i < w.tenants.size(); ++i) {
        if (w.tenants[i].join == 0) subscribe(i);
      }
    }

    const PostId num_posts = static_cast<PostId>(inst->num_posts());
    size_t next_event = 0;
    for (PostId cursor = 0; cursor < num_posts;) {
      while (next_event < w.churn.size() && w.churn[next_event].cursor == cursor) {
        ScopedSpan span(tracer, "stream.subscribe", parent);
        const ChurnEvent& event = w.churn[next_event++];
        for (size_t plan : event.joins) subscribe(plan);
        for (size_t plan : event.leaves) {
          Status status = engine->Unsubscribe(ids[plan]);
          if (!status.ok()) result->Fail("unsubscribe: " + status.ToString());
          ids[plan] = kInvalidTenant;
        }
      }
      const PostId end = std::min<PostId>(num_posts, cursor + kWindowPosts);
      const int64_t window_start = NowNs();
      {
        ScopedSpan span(tracer, "stream.run", parent);
        Status status = engine->RunUntil(end);
        if (!status.ok()) result->Fail("run: " + status.ToString());
      }
      out.window_seconds.push_back(static_cast<double>(NowNs() - window_start) *
                                   1e-9);
      cursor = end;
    }
    if (next_event != w.churn.size()) {
      result->Fail("churn schedule past the end of the stream");
    }
    {
      ScopedSpan span(tracer, "stream.run", parent);
      engine->Finish();
    }
    out.clusters = engine->num_clusters();
    out.amplification = engine->fanout_amplification();
    out.shared_hit_rate = engine->shared_hit_rate();

    ScopedSpan span(tracer, "stream.derive", parent);
    size_t next_sample = 0;
    out.query_seconds.reserve(ids.size());
    for (size_t plan = 0; plan < ids.size(); ++plan) {
      if (ids[plan] == kInvalidTenant) continue;
      const int64_t query_start = NowNs();
      Result<std::vector<Emission>> emissions = engine->TenantEmissions(ids[plan]);
      out.query_seconds.push_back(static_cast<double>(NowNs() - query_start) *
                                  1e-9);
      ++out.queries;
      if (!emissions.ok()) {
        ++out.query_failures;
        continue;
      }
      if (next_sample < w.sample.size() && w.sample[next_sample] == plan) {
        sample_emissions[next_sample++] = std::move(emissions).value();
      }
    }
  }
  out.seconds = static_cast<double>(NowNs() - start) * 1e-9;

  if (out.engine_posts != w.reference.num_posts()) {
    result->Fail("pass stream has " + std::to_string(out.engine_posts) +
                 " posts, reference " + std::to_string(w.reference.num_posts()));
  }
  if (w.text && (out.matched != w.ref_matched ||
                 out.duplicates != w.ref_duplicates)) {
    result->Fail("front end matched/duplicate counts differ from reference");
  }
  for (size_t k = 0; k < w.sample.size(); ++k) {
    if (sample_emissions[k] != w.sample_emissions[k]) {
      result->Fail("tenant plan " + std::to_string(w.sample[k]) +
                   ": emissions differ from its private replay");
    }
  }
  return out;
}

RunResult RunPosts(const Options& options, bool text) {
  RunResult result;
  std::unique_ptr<PostsWorkload> w;
  double setup_s = 0.0;
  Status setup = RepeatSetup(
      [&] { return text ? SetupText(options) : SetupFanout(options); }, &w,
      &setup_s);
  if (!setup.ok()) {
    result.Fail("set-up: " + setup.ToString());
    return result;
  }

  // Untraced runs time every pass; traced runs alternate untraced and
  // traced passes, so the tracing overhead is measured in the same run.
  Tracer tracer;
  std::vector<double> untraced_seconds, traced_seconds, throughput;
  std::vector<double> query_seconds, window_seconds;
  PassOutput last;
  uint64_t subscribes = 0, queries = 0, engine_posts = 0;
  const int min_passes = options.trace ? 4 : 3;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int pass = 0; pass < min_passes || NowNs() < deadline; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    PassOutput out = RunPass(*w, traced ? &tracer : nullptr, &result);
    result.attempted += out.queries;
    result.failed += out.query_failures;
    if (traced) {
      traced_seconds.push_back(out.seconds);
      subscribes += out.subscribes;
      queries += out.queries;
      engine_posts += out.engine_posts;
    } else {
      untraced_seconds.push_back(out.seconds);
      throughput.push_back(static_cast<double>(w->input_posts()) / out.seconds);
      query_seconds.insert(query_seconds.end(), out.query_seconds.begin(),
                           out.query_seconds.end());
      window_seconds.insert(window_seconds.end(), out.window_seconds.begin(),
                            out.window_seconds.end());
    }
    last = std::move(out);
    if (!result.correct) break;
  }
  if (result.failed > 0) result.Fail("TenantEmissions calls failed");

  result.end_to_end = {
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
      {"throughput_per_s", Median(throughput)},
      {"query_ms_p50", Quantile(query_seconds, 0.50) * 1e3},
      {"ok_share", result.attempted == 0
                       ? 0.0
                       : static_cast<double>(result.attempted - result.failed) /
                             static_cast<double>(result.attempted)},
  };
  std::printf("posts: %zu input posts, %zu engine posts, %zu tenants, "
              "%zu passes, median pass %.3f s\n",
              w->input_posts(), w->reference.num_posts(), w->tenants.size(),
              untraced_seconds.size() + traced_seconds.size(),
              Median(untraced_seconds));
  if (!options.trace) return result;

  // Per-layer self times over the traced passes.
  const double passes = static_cast<double>(traced_seconds.size());
  const double input = static_cast<double>(w->input_posts()) * passes;
  const auto self = tracer.SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double matched = static_cast<double>(w->ref_matched) * passes;
  auto per = [](double seconds, double units, double scale) {
    return units > 0.0 ? seconds * scale / units : 0.0;
  };
  result.per_layer = {
      {"latency.query_ms_p99", Quantile(query_seconds, 0.99) * 1e3},
      {"latency.stream_ms_p50", Quantile(window_seconds, 0.50) * 1e3},
      {"latency.stream_ms_p99", Quantile(window_seconds, 0.99) * 1e3},
      {"text.tokenize_ns_per_post", per(self_of("text.tokenize"), input, 1e9)},
      {"pipeline.match_ns_per_post", per(self_of("pipeline.match"), input, 1e9)},
      {"pipeline.matched_ratio",
       text ? static_cast<double>(w->ref_matched) /
                  static_cast<double>(w->input_posts())
            : 0.0},
      {"simhash.dedup_ns_per_matched",
       per(self_of("simhash.dedup"), matched, 1e9)},
      {"simhash.duplicate_ratio",
       w->ref_matched > 0 ? static_cast<double>(w->ref_duplicates) /
                                static_cast<double>(w->ref_matched)
                          : 0.0},
      {"core.build_ns_per_post", per(self_of("core.build"), input, 1e9)},
      {"stream.subscribe_us_per_tenant",
       per(self_of("stream.subscribe"), static_cast<double>(subscribes), 1e6)},
      {"stream.run_ns_per_post",
       per(self_of("stream.run"), static_cast<double>(engine_posts), 1e9)},
      {"stream.clusters", static_cast<double>(last.clusters)},
      {"stream.fanout_amplification", last.amplification},
      {"stream.shared_hit_rate", last.shared_hit_rate},
      {"stream.derive_us_per_tenant",
       per(self_of("stream.derive"), static_cast<double>(queries), 1e6)},
      {"posts.remainder_ns_per_post", per(self_of("posts.pass"), input, 1e9)},
      {"trace.overhead_pct",
       100.0 * (Median(traced_seconds) / Median(untraced_seconds) - 1.0)},
  };

  std::vector<LayerRow> rows;
  double total = 0.0;
  for (const char* layer : {"text.tokenize", "pipeline.match", "simhash.dedup",
                            "core.build", "stream.subscribe", "stream.run",
                            "stream.derive"}) {
    rows.push_back(LayerRow{layer, self_of(layer)});
  }
  rows.push_back(LayerRow{"remainder", self_of("posts.pass")});
  for (double s : traced_seconds) total += s;
  PrintLayerTable(std::string(text ? "posts_text" : "posts_fanout") +
                      " per-layer self time over " +
                      std::to_string(traced_seconds.size()) + " traced passes",
                  rows, total, input, 1e9, "ns/input post");
  std::printf("tracing overhead: median traced pass %.4f s vs untraced %.4f s\n",
              Median(traced_seconds), Median(untraced_seconds));
  return result;
}

}  // namespace

RunResult RunPostsText(const Options& options) { return RunPosts(options, true); }

RunResult RunPostsFanout(const Options& options) {
  return RunPosts(options, false);
}

}  // namespace mqd::e2e
