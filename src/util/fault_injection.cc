#include "util/fault_injection.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/string_util.h"

namespace mqd {

namespace {

/// SplitMix64 finalizer: decorrelates (seed, site, hit) into uniform
/// 64-bit noise. Deterministic across platforms.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashSite(std::string_view site) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// True iff hit `hit` of `site` fires under `seed` with probability p.
bool ShouldFire(uint64_t seed, std::string_view site, uint64_t hit, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const uint64_t noise = Mix(seed ^ Mix(HashSite(site) + hit));
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(noise >> 11) * (1.0 / 9007199254740992.0);
  return u < p;
}

void BusyWait(double seconds) {
  if (seconds <= 0.0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* const injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (Site* site : sites_) {
    site->hits.store(0, std::memory_order_relaxed);
    site->fires.store(0, std::memory_order_relaxed);
  }
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  for (Site* site : sites_) delete site;
  sites_.clear();
}

void FaultInjector::SetFault(std::string_view site, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Site* existing = Find(site)) {
    existing->spec = spec;
    existing->hits.store(0, std::memory_order_relaxed);
    existing->fires.store(0, std::memory_order_relaxed);
    return;
  }
  Site* fresh = new Site();
  fresh->name = std::string(site);
  fresh->spec = spec;
  sites_.push_back(fresh);
}

namespace {

// Full-consumption finite strtod: "0.5junk", "nan", "inf" and "1e999"
// are all rejected, not partially accepted.
bool ParseFiniteDouble(std::string_view text, double* out) {
  const std::string buf(text);
  if (buf.empty()) return false;
  errno = 0;
  char* parse_end = nullptr;
  const double value = std::strtod(buf.c_str(), &parse_end);
  if (parse_end != buf.c_str() + buf.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

Status FaultInjector::ArmFromSpec(std::string_view spec, uint64_t seed) {
  // Fail closed: parse the whole spec first and apply it only if every
  // entry is valid. A mid-spec error must never leave earlier entries
  // armed (a partial chaos schedule is worse than none — tests would
  // silently exercise the wrong blast radius), so any previously armed
  // configuration is also dropped before reporting the error.
  Disarm();
  std::vector<std::pair<std::string, FaultSpec>> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    // site:prob[:latency_ms][:throw]
    std::vector<std::string_view> parts;
    size_t p = 0;
    while (p <= entry.size()) {
      size_t colon = entry.find(':', p);
      if (colon == std::string_view::npos) colon = entry.size();
      parts.push_back(entry.substr(p, colon - p));
      p = colon + 1;
    }
    if (parts.size() < 2 || parts[0].empty()) {
      return Status::InvalidArgument(
          StrFormat("fault spec entry '%.*s': want site:prob[:latency_ms]"
                    "[:throw]",
                    static_cast<int>(entry.size()), entry.data()));
    }
    FaultSpec fault;
    if (!ParseFiniteDouble(parts[1], &fault.probability) ||
        fault.probability < 0.0 || fault.probability > 1.0) {
      return Status::InvalidArgument(
          StrFormat("fault spec '%.*s': probability must be a finite number "
                    "in [0,1]",
                    static_cast<int>(parts[1].size()), parts[1].data()));
    }
    size_t next = 2;
    if (next < parts.size() && parts[next] != "throw") {
      double latency_ms = 0.0;
      if (!ParseFiniteDouble(parts[next], &latency_ms) || latency_ms < 0.0) {
        return Status::InvalidArgument(
            StrFormat("fault spec '%.*s': bad latency_ms",
                      static_cast<int>(parts[next].size()),
                      parts[next].data()));
      }
      fault.latency_seconds = latency_ms / 1000.0;
      ++next;
    }
    if (next < parts.size()) {
      if (parts[next] != "throw") {
        return Status::InvalidArgument(StrFormat(
            "fault spec: unexpected trailing field '%.*s'",
            static_cast<int>(parts[next].size()), parts[next].data()));
      }
      fault.throw_exception = true;
      ++next;
    }
    if (next != parts.size()) {
      return Status::InvalidArgument("fault spec: too many fields");
    }
    parsed.emplace_back(std::string(parts[0]), fault);
  }
  for (const auto& [site, fault] : parsed) {
    SetFault(site, fault);
  }
  Arm(seed);
  return Status::OK();
}

Status FaultInjector::ArmFromEnv() {
  const char* spec = std::getenv("MQD_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  uint64_t seed = 0;
  if (const char* seed_env = std::getenv("MQD_FAULT_SEED")) {
    seed = std::strtoull(seed_env, nullptr, 10);
  }
  return ArmFromSpec(spec, seed);
}

Status FaultInjector::MaybeInject(std::string_view site) {
  if (!armed()) return Status::OK();
  // Copy the spec out under the lock, then fire outside it: the busy
  // wait can be milliseconds, and a concurrent Disarm may delete the
  // Site the moment the lock drops.
  FaultSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A Disarm may have raced the armed() fast check above (e.g. a
    // batch helper thread probing pool.task while another thread
    // re-arms the schedule).
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    Site* entry = Find(site);
    if (entry == nullptr) return Status::OK();
    const uint64_t hit = entry->hits.fetch_add(1, std::memory_order_relaxed);
    if (!ShouldFire(seed_, site, hit, entry->spec.probability)) {
      return Status::OK();
    }
    entry->fires.fetch_add(1, std::memory_order_relaxed);
    spec = entry->spec;
  }
  BusyWait(spec.latency_seconds);
  const std::string what = "injected fault at " + std::string(site);
  if (spec.throw_exception) throw std::runtime_error(what);
  if (spec.code == StatusCode::kOk) return Status::OK();
  return Status(spec.code, what);
}

uint64_t FaultInjector::Hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Site* entry = Find(site);
  return entry == nullptr ? 0
                          : entry->hits.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::Fires(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Site* entry = Find(site);
  return entry == nullptr ? 0
                          : entry->fires.load(std::memory_order_relaxed);
}

FaultInjector::Site* FaultInjector::Find(std::string_view site) {
  for (Site* entry : sites_) {
    if (entry->name == site) return entry;
  }
  return nullptr;
}

const FaultInjector::Site* FaultInjector::Find(std::string_view site) const {
  for (const Site* entry : sites_) {
    if (entry->name == site) return entry;
  }
  return nullptr;
}

}  // namespace mqd
