// mqd — command-line front end to libmqd.
//
// Commands:
//   generate     synthesize an MQDP instance and write it to a file
//   solve        run a solver on an instance file, print/save the cover
//   solve-batch  solve many (instance, lambda) jobs on several threads
//   stream       replay an instance through a StreamMQDP processor
//   serve-stream replay once for many tenant label-set profiles
//   serve        long-running daemon: bounded queues + admission control
//   stats        describe an instance / a cover
//
// Examples:
//   mqd generate --labels 3 --minutes 10 --rate 30 --out inst.mqdp
//   mqd solve inst.mqdp --algorithm greedy --lambda 5 --out cover.txt
//   mqd solve-batch a.mqdp b.mqdp --algorithm scan+ --lambdas 5,15 --threads 8
//   mqd stream inst.mqdp --algorithm stream-scan --lambda 10 --tau 5
//   mqd serve-stream inst.mqdp --profiles 1000 --algorithm stream-scan
//   echo "1 ping" | mqd serve inst.mqdp --workers 2
//   mqd serve inst.mqdp --port 0            # TCP, ephemeral port
//   mqd stats inst.mqdp --cover cover.txt --lambda 5
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_bound.h"
#include "core/cover_stats.h"
#include "core/degrade.h"
#include "core/io.h"
#include "core/solver.h"
#include "core/verifier.h"
#include "eval/table.h"
#include "gen/instance_gen.h"
#include "gen/profile_gen.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/batch_solver.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "stream/delay_stats.h"
#include "stream/factory.h"
#include "stream/multi_tenant.h"
#include "stream/replay.h"
#include "util/deadline.h"
#include "util/fault_injection.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mqd {
namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

Result<SolverKind> ParseSolverKind(const std::string& name) {
  if (name == "scan") return SolverKind::kScan;
  if (name == "scan+") return SolverKind::kScanPlus;
  if (name == "greedy") return SolverKind::kGreedySC;
  if (name == "opt") return SolverKind::kOpt;
  if (name == "bnb") return SolverKind::kBranchAndBound;
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (scan, scan+, greedy, opt, bnb)");
}

Result<StreamKind> ParseStreamKind(const std::string& name) {
  if (name == "stream-scan") return StreamKind::kStreamScan;
  if (name == "stream-scan+") return StreamKind::kStreamScanPlus;
  if (name == "stream-greedy") return StreamKind::kStreamGreedy;
  if (name == "stream-greedy+") return StreamKind::kStreamGreedyPlus;
  if (name == "instant") return StreamKind::kInstant;
  return Status::InvalidArgument(
      "unknown algorithm '" + name +
      "' (stream-scan, stream-scan+, stream-greedy, stream-greedy+, "
      "instant)");
}

/// Validated numeric flag accessors. FlagParser::GetDouble is a bare
/// strtod, which happily accepts "nan", "inf" and negatives — for
/// time-budget-shaped flags and coverage thresholds all three are
/// operator errors that must die at the flag, not surface later as an
/// unbounded deadline or an aborted solve.
Result<double> GetFiniteNonNegative(const FlagParser& flags,
                                    const std::string& name) {
  auto value = flags.GetDouble(name);
  if (!value.ok()) return value.status();
  if (!std::isfinite(*value) || *value < 0.0) {
    return Status::InvalidArgument(
        "--" + name + " must be a finite number >= 0, got '" +
        flags.GetString(name) + "'");
  }
  return *value;
}

/// Thread-count flags: an integer in [0, 4096] (0 = all cores).
/// GetInt already rejects non-numeric and trailing garbage.
Result<int> GetThreadCount(const FlagParser& flags,
                           const std::string& name) {
  auto value = flags.GetInt(name);
  if (!value.ok()) return value.status();
  if (*value < 0 || *value > 4096) {
    return Status::InvalidArgument(
        "--" + name + " must be in [0, 4096], got '" +
        flags.GetString(name) + "'");
  }
  return static_cast<int>(*value);
}

/// Observability flags shared by solve / solve-batch / stream.
void DefineMetricsFlags(FlagParser* flags) {
  flags->Define("metrics-json", "",
                "write a metrics snapshot as JSON to this file "
                "('-' = stdout)");
  flags->DefineBool("metrics-dump", false,
                    "print a Prometheus-text metrics snapshot to stderr");
  flags->DefineBool("trace", false,
                    "record per-stage trace spans, printed to stderr");
}

/// Call right after Parse so spans cover the whole command body.
void MaybeEnableTrace(const FlagParser& flags) {
  if (flags.GetBool("trace")) obs::Tracer::Global().Enable();
}

/// Fault-injection flags shared by solve / solve-batch / stream: chaos
/// drills against a real binary, same registry the tests fuzz.
void DefineFaultFlags(FlagParser* flags) {
  flags->Define("faults", "",
                "arm fault injection, comma-separated "
                "site:prob[:latency_ms][:throw] entries (sites: "
                "io.read_instance, io.write_checkpoint, stream.replay, "
                "pool.task, tenant.fanout, tenant.evict, serve.accept, "
                "serve.queue, serve.worker)");
  flags->Define("fault-seed", "0",
                "seed of the deterministic fault schedule");
}

Status MaybeArmFaults(const FlagParser& flags) {
  const std::string spec = flags.GetString("faults");
  if (spec.empty()) return Status::OK();
  auto seed = flags.GetInt("fault-seed");
  if (!seed.ok()) return seed.status();
  return FaultInjector::Global().ArmFromSpec(
      spec, static_cast<uint64_t>(*seed));
}

/// Emits whatever --metrics-json / --metrics-dump / --trace asked for.
/// Returns non-zero (after printing the error) when the JSON file
/// cannot be written.
int EmitObservability(const FlagParser& flags) {
  const std::string json_path = flags.GetString("metrics-json");
  const bool dump = flags.GetBool("metrics-dump");
  if (!json_path.empty() || dump) {
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::Global().Snapshot();
    if (!json_path.empty()) {
      if (Status s = obs::WriteJsonFile(snapshot, json_path); !s.ok()) {
        return Fail(s);
      }
    }
    if (dump) std::cerr << obs::ToPrometheusText(snapshot);
  }
  if (flags.GetBool("trace")) {
    std::cerr << obs::TraceEventsToText(obs::Tracer::Global().Drain());
  }
  return 0;
}

int CmdGenerate(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("labels", "2", "number of query labels |L|");
  flags.Define("minutes", "10", "interval length in minutes");
  flags.Define("rate", "30", "matching posts per minute");
  flags.Define("overlap", "1.3", "target post overlap rate");
  flags.Define("burst-fraction", "0", "fraction of posts in bursts");
  flags.Define("seed", "42", "random seed");
  flags.Define("out", "-", "output file ('-' = stdout)");
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);

  InstanceGenConfig config;
  auto labels = flags.GetInt("labels");
  auto minutes = flags.GetDouble("minutes");
  auto rate = flags.GetDouble("rate");
  auto overlap = flags.GetDouble("overlap");
  auto burst = flags.GetDouble("burst-fraction");
  auto seed = flags.GetInt("seed");
  for (const Status& s :
       {labels.status(), minutes.status(), rate.status(),
        overlap.status(), burst.status(), seed.status()}) {
    if (!s.ok()) return Fail(s);
  }
  config.num_labels = static_cast<int>(*labels);
  config.duration = *minutes * 60.0;
  config.posts_per_minute = *rate;
  config.overlap_rate = *overlap;
  config.burst_fraction = *burst;
  config.seed = static_cast<uint64_t>(*seed);

  auto instance = GenerateInstance(config);
  if (!instance.ok()) return Fail(instance.status());

  const std::string out = flags.GetString("out");
  Status write = out == "-" ? WriteInstance(*instance, std::cout)
                            : WriteInstanceToFile(*instance, out);
  if (!write.ok()) return Fail(write);
  std::cerr << "generated " << instance->num_posts() << " posts, |L|="
            << instance->num_labels() << ", overlap "
            << FormatDouble(instance->overlap_rate(), 3) << "\n";
  return 0;
}

int CmdSolve(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("algorithm", "greedy",
               "scan | scan+ | greedy | opt | bnb");
  flags.Define("lambda", "60", "coverage threshold (dimension units)");
  flags.Define("out", "-", "cover output file ('-' = stdout)");
  flags.Define("budget-ms", "0",
               "wall-clock budget in milliseconds; > 0 runs the "
               "degradation ladder (greedy -> scan+ -> scan -> trivial) "
               "instead of --algorithm and reports the rung taken");
  flags.DefineBool("certify-gap", false,
                   "solve with the certified branch-and-bound tier and "
                   "report lower_bound <= |OPT| <= |cover| plus the gap; "
                   "honors --budget-ms and --max-nodes (anytime: a "
                   "truncated search still returns a sound certificate)");
  flags.Define("max-nodes", "50000000",
               "branch-and-bound node budget for --certify-gap");
  DefineMetricsFlags(&flags);
  DefineFaultFlags(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: mqd solve <instance-file> [flags]\n";
    return 1;
  }
  MaybeEnableTrace(flags);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s);
  auto instance = ReadInstanceFromFile(flags.positional()[0]);
  if (!instance.ok()) return Fail(instance.status());
  auto lambda = GetFiniteNonNegative(flags, "lambda");
  if (!lambda.ok()) return Fail(lambda.status());
  auto kind = ParseSolverKind(flags.GetString("algorithm"));
  if (!kind.ok()) return Fail(kind.status());
  auto budget_ms = GetFiniteNonNegative(flags, "budget-ms");
  if (!budget_ms.ok()) return Fail(budget_ms.status());

  UniformLambda model(*lambda);
  std::vector<PostId> cover;
  if (flags.GetBool("certify-gap")) {
    auto max_nodes = flags.GetInt("max-nodes");
    if (!max_nodes.ok()) return Fail(max_nodes.status());
    if (*max_nodes <= 0) {
      return Fail(Status::InvalidArgument("--max-nodes must be > 0"));
    }
    const BranchAndBoundSolver solver(
        BranchBoundConfig{.max_nodes = static_cast<uint64_t>(*max_nodes)});
    const Deadline deadline = *budget_ms > 0.0
                                  ? Deadline::AfterSeconds(*budget_ms / 1000.0)
                                  : Deadline::Unbounded();
    Stopwatch watch;
    auto certified_or = solver.SolveCertified(*instance, model, deadline);
    if (!certified_or.ok()) return Fail(certified_or.status());
    const CertifiedCover& c = *certified_or;
    std::cerr << "BnB certified: " << c.cover.size()
              << " representatives for " << instance->num_posts()
              << " posts in " << FormatDouble(watch.ElapsedSeconds() * 1e3, 3)
              << " ms; valid cover: "
              << (IsCover(*instance, model, c.cover) ? "yes" : "NO") << "\n"
              << "  lower_bound=" << c.lower_bound
              << " upper_bound=" << c.upper_bound << " gap=" << c.gap
              << (c.proven_optimal ? " (proven optimal)" : " (not proven)")
              << "\n"
              << "  root bounds: nonempty=" << c.root_bounds.nonempty
              << " label_flood=" << c.root_bounds.label_flood
              << " lp_dual=" << c.root_bounds.lp_dual << "\n"
              << "  search: nodes=" << c.stats.nodes
              << " pruned=" << c.stats.pruned_by_bound
              << " incumbents=" << c.stats.incumbent_updates
              << " max_depth=" << c.stats.max_depth
              << (c.stats.node_budget_exhausted ? " (node budget hit)" : "")
              << (c.stats.interrupted ? " (deadline hit)" : "") << "\n";
    cover = c.cover;
  } else if (*budget_ms > 0.0) {
    const DegradingSolver ladder;
    const DegradeOutcome outcome = ladder.SolveDegrading(
        *instance, model, Deadline::AfterSeconds(*budget_ms / 1000.0));
    for (const Status& failure : outcome.failures) {
      std::cerr << "rung failed: " << failure << "\n";
    }
    std::cerr << "Degrading[" << outcome.rung << "]"
              << (outcome.degraded ? " (degraded)" : "") << ": "
              << outcome.cover.size() << " representatives for "
              << instance->num_posts() << " posts in "
              << FormatDouble(outcome.elapsed_seconds * 1e3, 3)
              << " ms; valid cover: "
              << (IsCover(*instance, model, outcome.cover) ? "yes" : "NO")
              << "\n";
    cover = outcome.cover;
  } else {
    auto solver = CreateSolver(*kind);
    auto cover_or = solver->Solve(*instance, model);
    if (!cover_or.ok()) return Fail(cover_or.status());
    std::cerr << solver->name() << ": " << cover_or->size()
              << " representatives for " << instance->num_posts()
              << " posts; valid cover: "
              << (IsCover(*instance, model, *cover_or) ? "yes" : "NO")
              << "\n";
    cover = std::move(cover_or).value();
  }
  const std::string out = flags.GetString("out");
  if (out == "-") {
    if (Status s = WriteSelection(cover, std::cout); !s.ok()) {
      return Fail(s);
    }
  } else {
    std::ofstream file(out);
    if (!file) return Fail(Status::NotFound("cannot open " + out));
    if (Status s = WriteSelection(cover, file); !s.ok()) return Fail(s);
  }
  return EmitObservability(flags);
}

int CmdSolveBatch(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("algorithm", "scan+",
               "scan | scan+ | greedy | opt | bnb");
  flags.Define("lambdas", "60",
               "comma-separated coverage thresholds; every instance is "
               "solved at every lambda");
  flags.Define("threads", "0",
               "total threads for the batch (0 = all cores)");
  DefineMetricsFlags(&flags);
  DefineFaultFlags(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().empty()) {
    std::cerr << "usage: mqd solve-batch <instance-file>... [flags]\n";
    return 1;
  }
  MaybeEnableTrace(flags);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s);
  auto kind = ParseSolverKind(flags.GetString("algorithm"));
  if (!kind.ok()) return Fail(kind.status());
  auto threads = GetThreadCount(flags, "threads");
  if (!threads.ok()) return Fail(threads.status());

  std::vector<double> lambdas;
  for (const std::string& part : Split(flags.GetString("lambdas"), ',')) {
    char* end = nullptr;
    const double v = std::strtod(part.c_str(), &end);
    if (end == part.c_str() || *end != '\0' || !std::isfinite(v) ||
        v < 0.0) {
      return Fail(Status::InvalidArgument("bad lambda '" + part + "'"));
    }
    lambdas.push_back(v);
  }
  if (lambdas.empty()) {
    return Fail(Status::InvalidArgument("--lambdas must name at least one"));
  }

  // Load every instance once; jobs reference them.
  std::vector<Instance> instances;
  instances.reserve(flags.positional().size());
  for (const std::string& path : flags.positional()) {
    auto instance = ReadInstanceFromFile(path);
    if (!instance.ok()) return Fail(instance.status());
    instances.push_back(std::move(instance).value());
  }

  std::vector<BatchJob> jobs;
  jobs.reserve(instances.size() * lambdas.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    for (double lambda : lambdas) {
      jobs.push_back(BatchJob{.instance = &instances[i],
                              .kind = *kind,
                              .lambda = lambda});
    }
  }

  BatchSolver batch(*threads);
  const std::vector<BatchJobResult> results = batch.SolveAll(jobs);

  TablePrinter table(
      {"instance", "lambda", "posts", "cover", "valid", "ms", "status"});
  bool all_ok = true;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const size_t file_idx = j / lambdas.size();
    const BatchJobResult& r = results[j];
    std::string valid = "-";
    if (r.status.ok()) {
      UniformLambda model(jobs[j].lambda);
      valid = IsCover(*jobs[j].instance, model, r.cover) ? "yes" : "NO";
      if (valid == "NO") all_ok = false;
    } else {
      all_ok = false;
    }
    table.AddRow({flags.positional()[file_idx],
                  FormatDouble(jobs[j].lambda, 3),
                  std::to_string(jobs[j].instance->num_posts()),
                  r.status.ok() ? std::to_string(r.cover.size()) : "-",
                  valid, FormatDouble(r.elapsed_seconds * 1e3, 3),
                  r.status.ok() ? "OK" : r.status.ToString()});
  }
  table.Print(std::cout);
  std::cerr << jobs.size() << " jobs ("
            << instances.size() << " instances x " << lambdas.size()
            << " lambdas), algorithm " << SolverKindName(*kind)
            << ", threads " << ResolveNumThreads(static_cast<int>(*threads))
            << "\n";
  if (int rc = EmitObservability(flags); rc != 0) return rc;
  return all_ok ? 0 : 1;
}

int CmdStream(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("algorithm", "stream-scan",
               "stream-scan | stream-scan+ | stream-greedy | "
               "stream-greedy+ | instant");
  flags.Define("lambda", "60", "coverage threshold");
  flags.Define("tau", "10", "max reporting delay");
  DefineMetricsFlags(&flags);
  DefineFaultFlags(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: mqd stream <instance-file> [flags]\n";
    return 1;
  }
  MaybeEnableTrace(flags);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s);
  auto instance = ReadInstanceFromFile(flags.positional()[0]);
  if (!instance.ok()) return Fail(instance.status());
  auto lambda = GetFiniteNonNegative(flags, "lambda");
  auto tau = flags.GetDouble("tau");
  if (!lambda.ok()) return Fail(lambda.status());
  if (!tau.ok()) return Fail(tau.status());
  auto kind = ParseStreamKind(flags.GetString("algorithm"));
  if (!kind.ok()) return Fail(kind.status());

  UniformLambda model(*lambda);
  auto processor_or = CreateStreamProcessorChecked(*kind, *instance, model, *tau);
  if (!processor_or.ok()) return Fail(processor_or.status());
  auto processor = std::move(processor_or).value();
  auto stats = RunStream(*instance, processor.get());
  if (!stats.ok()) return Fail(stats.status());
  const double effective_tau =
      *kind == StreamKind::kInstant ? 0.0 : *tau;
  const Status valid = ValidateStreamOutput(
      *instance, model, processor->emissions(), effective_tau);
  std::cout << processor->name() << ": emitted " << stats->num_emitted
            << " of " << stats->num_posts << " posts, max delay "
            << FormatDouble(stats->max_delay, 3) << ", mean delay "
            << FormatDouble(stats->mean_delay, 3) << ", contract "
            << (valid.ok() ? "ok" : valid.ToString()) << "\n";
  if (int rc = EmitObservability(flags); rc != 0) return rc;
  return valid.ok() ? 0 : 1;
}

/// serve-stream: one replay of the instance fanned out to many tenant
/// label-set profiles through the MultiTenantStream engine — the
/// multi-tenant counterpart of `stream` (DESIGN.md §14).
int CmdServeStream(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("profiles", "100",
               "number of tenant label-set profiles to subscribe");
  flags.Define("profile-labels", "3", "labels per profile");
  flags.Define("algorithm", "stream-scan",
               "stream-scan | stream-scan+ | stream-greedy | "
               "stream-greedy+");
  flags.Define("lambda", "60", "coverage threshold");
  flags.Define("tau", "10", "max reporting delay");
  flags.Define("seed", "1", "profile-generator seed");
  DefineMetricsFlags(&flags);
  DefineFaultFlags(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: mqd serve-stream <instance-file> [flags]\n";
    return 1;
  }
  MaybeEnableTrace(flags);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s);
  auto instance = ReadInstanceFromFile(flags.positional()[0]);
  if (!instance.ok()) return Fail(instance.status());
  auto num_profiles = flags.GetInt("profiles");
  auto profile_labels = flags.GetInt("profile-labels");
  auto lambda = GetFiniteNonNegative(flags, "lambda");
  auto tau = flags.GetDouble("tau");
  auto seed = flags.GetInt("seed");
  for (const Status& s :
       {num_profiles.status(), profile_labels.status(), lambda.status(),
        tau.status(), seed.status()}) {
    if (!s.ok()) return Fail(s);
  }
  auto kind = ParseStreamKind(flags.GetString("algorithm"));
  if (!kind.ok()) return Fail(kind.status());
  if (*num_profiles <= 0) {
    return Fail(Status::InvalidArgument("--profiles must be positive"));
  }

  Rng rng(static_cast<uint64_t>(*seed));
  auto profiles = GenerateLabelMaskProfiles(
      instance->num_labels(), static_cast<size_t>(*profile_labels),
      static_cast<size_t>(*num_profiles), &rng);
  if (!profiles.ok()) return Fail(profiles.status());

  UniformLambda model(*lambda);
  auto engine_or =
      MultiTenantStream::Create(*instance, model, *kind, *tau);
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();
  std::vector<TenantId> ids;
  ids.reserve(profiles->size());
  for (LabelMask mask : *profiles) {
    auto id = engine->Subscribe(mask);
    if (!id.ok()) return Fail(id.status());
    ids.push_back(*id);
  }
  Stopwatch replay;
  if (Status s = engine->RunToEnd(); !s.ok()) return Fail(s);
  const double replay_s = replay.ElapsedSeconds();

  // Per-tenant derived output: a fanout-quarantined tenant's query
  // returns its fault; report the degradation instead of failing the
  // run (the contract is per-tenant blast radius).
  size_t emitted = 0, degraded = 0;
  for (TenantId id : ids) {
    auto emissions = engine->TenantEmissions(id);
    if (emissions.ok()) {
      emitted += emissions->size();
    } else {
      ++degraded;
    }
  }
  std::cout << StreamKindName(*kind) << ": " << engine->active_tenants()
            << " tenants over " << instance->num_posts() << " posts in "
            << FormatDouble(replay_s * 1e3, 3) << " ms ("
            << FormatDouble(replay_s * 1e6 /
                                static_cast<double>(instance->num_posts()),
                            3)
            << " us/post), " << engine->num_clusters()
            << " clusters, fan-out amplification "
            << FormatDouble(engine->fanout_amplification(), 2)
            << ", shared-tier hit rate "
            << FormatDouble(engine->shared_hit_rate(), 3) << "\n"
            << "tenant emissions: " << emitted << " total across "
            << (ids.size() - degraded) << " healthy tenants, " << degraded
            << " degraded\n";
  if (int rc = EmitObservability(flags); rc != 0) return rc;
  return 0;
}

/// serve: the long-running daemon (DESIGN.md §17). Wraps the solvers
/// and the stream engine behind a bounded two-lane queue with
/// admission control and overload shedding; speaks the line protocol
/// of serve/protocol.h over stdio (default) or TCP (--port).
int CmdServe(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("algorithm", "stream-scan+",
               "stream engine for feed/finish: stream-scan | "
               "stream-scan+ | stream-greedy | stream-greedy+ | instant");
  flags.Define("lambda", "60", "coverage threshold");
  flags.Define("tau", "10", "max reporting delay");
  flags.Define("workers", "2", "worker threads draining the queue");
  flags.Define("queue-cap", "32", "batch-lane queue capacity");
  flags.Define("stream-queue-cap", "4096", "stream-lane queue capacity");
  flags.Define("budget-ms", "0",
               "default per-request deadline budget when the client "
               "sends none (0 = unbounded)");
  flags.Define("service-floor-ms", "0",
               "deliberate minimum batch service time; load-drill knob "
               "that makes overload reproducible on any machine");
  flags.DefineBool("tenant-mode", false,
                   "serve a MultiTenantStream: subscribe/unsubscribe/"
                   "emissions manage per-tenant label-mask profiles");
  flags.Define("max-tenants", "0",
               "tenant admission cap for subscribe (0 = unlimited)");
  flags.Define("checkpoint", "",
               "single-stream mode: drain checkpoints replay state to "
               "this file and startup restores from it if it exists");
  flags.Define("port", "-1",
               "listen on 127.0.0.1:<port> instead of stdio "
               "(0 = ephemeral, announced on stderr; -1 = stdio)");
  DefineMetricsFlags(&flags);
  DefineFaultFlags(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: mqd serve <instance-file> [flags]\n";
    return 1;
  }
  MaybeEnableTrace(flags);
  if (Status s = MaybeArmFaults(flags); !s.ok()) return Fail(s);
  auto kind = ParseStreamKind(flags.GetString("algorithm"));
  if (!kind.ok()) return Fail(kind.status());
  auto lambda = flags.GetDouble("lambda");
  if (!lambda.ok()) return Fail(lambda.status());
  if (!std::isfinite(*lambda) || *lambda <= 0.0) {
    return Fail(Status::InvalidArgument(
        "--lambda must be a finite number > 0"));
  }
  auto tau = GetFiniteNonNegative(flags, "tau");
  auto budget_ms = GetFiniteNonNegative(flags, "budget-ms");
  auto floor_ms = GetFiniteNonNegative(flags, "service-floor-ms");
  auto workers = flags.GetInt("workers");
  auto queue_cap = flags.GetInt("queue-cap");
  auto stream_cap = flags.GetInt("stream-queue-cap");
  auto max_tenants = flags.GetInt("max-tenants");
  auto port = flags.GetInt("port");
  for (const Status& s :
       {tau.status(), budget_ms.status(), floor_ms.status(),
        workers.status(), queue_cap.status(), stream_cap.status(),
        max_tenants.status(), port.status()}) {
    if (!s.ok()) return Fail(s);
  }
  if (*workers < 1 || *workers > 512) {
    return Fail(Status::InvalidArgument("--workers must be in [1, 512]"));
  }
  if (*queue_cap < 1 || *stream_cap < 1) {
    return Fail(Status::InvalidArgument("queue capacities must be >= 1"));
  }
  if (*max_tenants < 0) {
    return Fail(Status::InvalidArgument("--max-tenants must be >= 0"));
  }
  if (*port < -1 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [-1, 65535]"));
  }
  auto instance = ReadInstanceFromFile(flags.positional()[0]);
  if (!instance.ok()) return Fail(instance.status());

  ServeConfig config;
  config.stream_kind = *kind;
  config.lambda = *lambda;
  config.tau = *tau;
  config.workers = static_cast<int>(*workers);
  config.service_floor_ms = *floor_ms;
  config.tenant_mode = flags.GetBool("tenant-mode");
  config.checkpoint_path = flags.GetString("checkpoint");
  config.admission.batch_capacity = static_cast<size_t>(*queue_cap);
  config.admission.stream_capacity = static_cast<size_t>(*stream_cap);
  config.admission.default_budget_ms = *budget_ms;
  config.admission.max_tenants = static_cast<size_t>(*max_tenants);
  auto server_or = Server::Create(*instance, config);
  if (!server_or.ok()) return Fail(server_or.status());
  auto server = std::move(server_or).value();
  if (server->restored_from_checkpoint()) {
    std::cerr << "restored replay cursor " << server->cursor()
              << " from checkpoint " << config.checkpoint_path << "\n";
  }

  Status served = *port >= 0
                      ? ServeTcp(server.get(), static_cast<int>(*port),
                                 std::cerr)
                      : ServeStdio(server.get(), std::cin, std::cout);
  if (!served.ok()) return Fail(served);

  const ServeStatsSnapshot stats = server->Stats();
  std::cerr << "serve done: stream "
            << stats.completed[static_cast<int>(ServeLane::kStream)]
            << " completed / "
            << stats.shed[static_cast<int>(ServeLane::kStream)]
            << " shed, batch "
            << stats.completed[static_cast<int>(ServeLane::kBatch)]
            << " completed / "
            << stats.shed[static_cast<int>(ServeLane::kBatch)]
            << " shed (" << stats.pre_degraded << " pre-degraded), "
            << stats.drain_shed << " drain-shed, cursor " << stats.cursor
            << "\n";
  return EmitObservability(flags);
}

int CmdStats(const std::vector<std::string>& args) {
  FlagParser flags;
  flags.Define("cover", "", "optional cover file to describe");
  flags.Define("lambda", "60", "coverage threshold for validity");
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    std::cerr << "usage: mqd stats <instance-file> [flags]\n";
    return 1;
  }
  auto instance = ReadInstanceFromFile(flags.positional()[0]);
  if (!instance.ok()) return Fail(instance.status());

  std::cout << "posts:       " << instance->num_posts() << "\n"
            << "labels:      " << instance->num_labels() << "\n"
            << "pairs:       " << instance->num_pairs() << "\n"
            << "overlap:     "
            << FormatDouble(instance->overlap_rate(), 3) << "\n"
            << "value range: [" << FormatDouble(instance->min_value(), 3)
            << ", " << FormatDouble(instance->max_value(), 3) << "]\n";

  const std::string cover_path = flags.GetString("cover");
  if (cover_path.empty()) return 0;
  std::ifstream file(cover_path);
  if (!file) return Fail(Status::NotFound("cannot open " + cover_path));
  auto cover = ReadSelection(file);
  if (!cover.ok()) return Fail(cover.status());
  auto lambda = GetFiniteNonNegative(flags, "lambda");
  if (!lambda.ok()) return Fail(lambda.status());

  UniformLambda model(*lambda);
  const CoverStats stats = ComputeCoverStats(*instance, *cover);
  std::cout << "cover size:  " << stats.selected_posts << " ("
            << FormatDouble(stats.compression * 100.0, 2) << "% of feed)\n"
            << "valid:       "
            << (IsCover(*instance, model, *cover) ? "yes" : "NO") << "\n"
            << "mean dist to representative: "
            << FormatDouble(stats.mean_distance_to_representative, 3)
            << "\n"
            << "max dist to representative:  "
            << FormatDouble(stats.max_distance_to_representative, 3)
            << "\n"
            << "label distribution L1:       "
            << FormatDouble(stats.label_distribution_l1, 3) << "\n";
  return 0;
}

int Usage() {
  std::cerr
      << "mqd — Multi-Query Diversification toolkit (EDBT 2014 repro)\n"
         "usage: mqd <command> [flags]\n\n"
         "commands:\n"
         "  generate     synthesize an MQDP instance\n"
         "  solve        run a static solver on an instance file\n"
         "  solve-batch  solve many (instance, lambda) jobs in parallel\n"
         "  stream       replay an instance through a streaming solver\n"
         "  serve-stream replay once for many tenant label-set profiles\n"
         "  serve        run the serving daemon (bounded queues, "
         "admission\n"
         "               control, overload shedding) over stdio or TCP\n"
         "  stats        describe an instance and optionally a cover\n";
  return 2;
}

}  // namespace
}  // namespace mqd

int main(int argc, char** argv) {
  // MQD_FAULTS / MQD_FAULT_SEED arm the same registry --faults does;
  // the env form covers subcommands with no fault flags of their own.
  if (mqd::Status s = mqd::FaultInjector::Global().ArmFromEnv(); !s.ok()) {
    return mqd::Fail(s);
  }
  if (argc < 2) return mqd::Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "generate") return mqd::CmdGenerate(args);
  if (command == "solve") return mqd::CmdSolve(args);
  if (command == "solve-batch") return mqd::CmdSolveBatch(args);
  if (command == "stream") return mqd::CmdStream(args);
  if (command == "serve-stream") return mqd::CmdServeStream(args);
  if (command == "serve") return mqd::CmdServe(args);
  if (command == "stats") return mqd::CmdStats(args);
  return mqd::Usage();
}
