#include "core/opt_dp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/deadline.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

namespace {

// Augmented post index: 0 is the virtual initial post P0 carrying all
// labels, placed more than lambda before the first real post; real
// post with PostId p has augmented index p + 1.
using AugId = uint32_t;

constexpr AugId kInherit = std::numeric_limits<AugId>::max();

// An end-pattern: for each label, the augmented index of the latest
// selected post carrying it.
using Pattern = std::vector<AugId>;

struct PatternHash {
  size_t operator()(const Pattern& p) const {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (AugId x : p) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

struct Node {
  Pattern pattern;
  uint32_t card;
  uint32_t parent;  // index into the previous level's node vector
};

class OptDp {
 public:
  OptDp(const Instance& inst, DimValue lambda, const OptConfig& config)
      : inst_(inst), lambda_(lambda), config_(config) {
    const int num_labels = inst.num_labels();
    n_ = inst.num_posts();
    values_.resize(n_ + 1);
    labels_.resize(n_ + 1);
    values_[0] = inst.min_value() - 2.0 * lambda - 1.0;
    labels_[0] = num_labels == kMaxLabels ? ~LabelMask{0}
                                          : (LabelMask{1} << num_labels) - 1;
    for (size_t i = 0; i < n_; ++i) {
      values_[i + 1] = inst.value(static_cast<PostId>(i));
      labels_[i + 1] = inst.labels(static_cast<PostId>(i));
    }
    // f[j]: largest augmented index whose value is <= v[j] + lambda.
    f_.resize(n_ + 1);
    for (size_t j = 0; j <= n_; ++j) {
      auto it = std::upper_bound(values_.begin(), values_.end(),
                                 values_[j] + lambda);
      f_[j] = static_cast<AugId>((it - values_.begin()) - 1);
    }
    // Per-label posting lists over augmented indices (excluding the
    // virtual post, which is never a candidate), and last_le[a][j] =
    // largest augmented a-post index <= j (0 when only P0 qualifies).
    lp_.assign(static_cast<size_t>(num_labels), {});
    last_le_.assign(static_cast<size_t>(num_labels),
                    std::vector<AugId>(n_ + 1, 0));
    for (int a = 0; a < num_labels; ++a) {
      AugId last = 0;
      for (size_t j = 1; j <= n_; ++j) {
        if (MaskHas(labels_[j], static_cast<LabelId>(a))) {
          lp_[static_cast<size_t>(a)].push_back(static_cast<AugId>(j));
          last = static_cast<AugId>(j);
        }
        last_le_[static_cast<size_t>(a)][j] = last;
      }
    }
  }

  Result<std::vector<PostId>> Run(const Deadline& deadline) {
    if (n_ == 0) return std::vector<PostId>{};
    const size_t num_labels = static_cast<size_t>(inst_.num_labels());
    // Inner checker shared across Steps: ~one clock read per 8192
    // examined transitions (candidate x predecessor pairs, the true
    // unit of work) keeps polling invisible while bounding the budget
    // overshoot to one stride of transitions.
    DeadlineChecker budget(deadline, /*stride=*/8192);

    levels_.clear();
    levels_.reserve(n_ + 1);
    levels_.push_back(
        {Node{Pattern(num_labels, 0), /*card=*/1, /*parent=*/0}});

    for (size_t j = 1; j <= n_; ++j) {
      MQD_RETURN_NOT_OK(deadline.Check("OPT"));
      MQD_RETURN_NOT_OK(Step(j, budget));
      if (levels_.back().empty()) {
        return Status::Internal(
            StrFormat("OPT: no feasible end-pattern at position %zu", j));
      }
    }

    // Best final pattern; backtrack collecting the posts added at each
    // step (the distinct pattern entries beyond f(j-1)).
    const std::vector<Node>& last = levels_.back();
    size_t best = 0;
    for (size_t k = 1; k < last.size(); ++k) {
      if (last[k].card < last[best].card) best = k;
    }
    std::vector<PostId> out;
    size_t node_idx = best;
    for (size_t j = n_; j >= 1; --j) {
      const Node& node = levels_[j][node_idx];
      const AugId boundary = f_[j - 1];
      for (AugId x : node.pattern) {
        if (x > boundary) out.push_back(static_cast<PostId>(x - 1));
      }
      node_idx = node.parent;
    }
    internal::CanonicalizeSelection(&out);
    MQD_CHECK(out.size() + 1 == last[best].card)
        << "OPT reconstruction mismatch: " << out.size() + 1
        << " vs " << last[best].card;
    return out;
  }

 private:
  Status Step(size_t j, DeadlineChecker& budget) {
    const size_t num_labels = static_cast<size_t>(inst_.num_labels());
    const LabelMask lj = labels_[j];

    // Candidate entries per label: every a-post within the
    // [v_j - lambda, v_j + lambda] window, plus "inherit from the
    // previous pattern" when a is not in label(P_j).
    std::vector<std::vector<AugId>> ppl(num_labels);
    size_t product = 1;
    for (size_t a = 0; a < num_labels; ++a) {
      const std::vector<AugId>& list = lp_[a];
      auto first = std::lower_bound(
          list.begin(), list.end(), values_[j] - lambda_,
          [this](AugId id, DimValue x) { return values_[id] < x; });
      for (auto it = first;
           it != list.end() && values_[*it] <= values_[j] + lambda_; ++it) {
        ppl[a].push_back(*it);
      }
      if (!MaskHas(lj, static_cast<LabelId>(a))) ppl[a].push_back(kInherit);
      if (ppl[a].empty()) {
        return Status::Internal("OPT: empty candidate list");
      }
      product *= ppl[a].size();
      if (product > config_.max_candidates_per_step) {
        return Status::ResourceExhausted(StrFormat(
            "OPT: candidate product exceeds %zu at position %zu "
            "(reduce lambda, |L| or the interval)",
            config_.max_candidates_per_step, j));
      }
    }

    const std::vector<Node>& prev = levels_[j - 1];
    const AugId boundary = f_[j - 1];

    // The true per-position cost is candidates x predecessors; charge
    // it against the global work budget before doing it.
    transitions_ += static_cast<uint64_t>(product) * prev.size();
    if (transitions_ > config_.max_transitions) {
      return Status::ResourceExhausted(StrFormat(
          "OPT: transition budget %llu exceeded at position %zu",
          static_cast<unsigned long long>(config_.max_transitions), j));
    }

    std::unordered_map<Pattern, uint32_t, PatternHash> index;
    std::vector<Node> level;

    Pattern cand(num_labels, 0);
    Pattern resolved(num_labels, 0);
    std::vector<AugId> fresh;

    // Depth-first enumeration of the candidate product.
    std::vector<size_t> cursor(num_labels, 0);
    while (true) {
      for (size_t a = 0; a < num_labels; ++a) cand[a] = ppl[a][cursor[a]];

      for (uint32_t ei = 0; ei < prev.size(); ++ei) {
        // Poll per *transition*, not per candidate: with few candidates
        // but millions of predecessor states a per-candidate poll can
        // overshoot the budget by a whole position's work (seconds).
        MQD_RETURN_NOT_OK(budget.Check("OPT"));
        const Node& eta = prev[ei];
        // Resolve inherits and check consistency (eta "agrees with"
        // cand on every concrete entry at or before the boundary).
        bool consistent = true;
        for (size_t a = 0; a < num_labels; ++a) {
          if (cand[a] == kInherit) {
            resolved[a] = eta.pattern[a];
          } else {
            if (cand[a] <= boundary && cand[a] != eta.pattern[a]) {
              consistent = false;
              break;
            }
            resolved[a] = cand[a];
          }
        }
        if (!consistent) continue;
        if (!IsValidPattern(resolved, j)) continue;

        fresh.clear();
        for (size_t a = 0; a < num_labels; ++a) {
          if (resolved[a] > boundary) fresh.push_back(resolved[a]);
        }
        std::sort(fresh.begin(), fresh.end());
        fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
        const uint32_t card =
            eta.card + static_cast<uint32_t>(fresh.size());

        auto it = index.find(resolved);
        if (it == index.end()) {
          if (level.size() >= config_.max_states_per_level) {
            return Status::ResourceExhausted(StrFormat(
                "OPT: more than %zu end-patterns at position %zu",
                config_.max_states_per_level, j));
          }
          index.emplace(resolved, static_cast<uint32_t>(level.size()));
          level.push_back(Node{resolved, card, ei});
        } else if (card < level[it->second].card) {
          level[it->second].card = card;
          level[it->second].parent = ei;
        }
      }

      // Advance the product cursor.
      size_t a = 0;
      while (a < num_labels && ++cursor[a] == ppl[a].size()) {
        cursor[a] = 0;
        ++a;
      }
      if (a == num_labels) break;
    }

    levels_.push_back(std::move(level));
    return Status::OK();
  }

  /// j-end-pattern validity (paper conditions (i) and (ii)).
  bool IsValidPattern(const Pattern& xi, size_t j) const {
    const size_t num_labels = xi.size();
    for (size_t b = 0; b < num_labels; ++b) {
      // (i) every label carried by the pattern post xi(b) must have
      // its own end at or after xi(b).
      const LabelMask mask = labels_[xi[b]];
      bool ok = true;
      ForEachLabel(mask, [&](LabelId a) {
        if (a < num_labels && xi[a] < xi[b]) ok = false;
      });
      if (!ok) return false;
      // (ii) no b-post in (v[xi(b)] + lambda, v[j]]: equivalently the
      // last b-post at or before j must be within reach of xi(b).
      const AugId last = last_le_[b][j];
      if (last != 0 && values_[last] > values_[xi[b]] + lambda_) {
        return false;
      }
    }
    return true;
  }

  const Instance& inst_;
  DimValue lambda_;
  OptConfig config_;

  size_t n_ = 0;
  std::vector<DimValue> values_;   // augmented, index 0 = virtual post
  std::vector<LabelMask> labels_;  // augmented
  uint64_t transitions_ = 0;
  std::vector<AugId> f_;
  std::vector<std::vector<AugId>> lp_;
  std::vector<std::vector<AugId>> last_le_;
  std::vector<std::vector<Node>> levels_;
};

}  // namespace

Result<std::vector<PostId>> OptDpSolver::SolveWithBudget(
    const Instance& inst, const CoverageModel& model,
    const Deadline& deadline) const {
  if (!model.IsUniform()) {
    return Status::Unimplemented(
        "OPT requires a uniform lambda; use BranchAndBound for "
        "variable-lambda exact references");
  }
  OptDp dp(inst, model.MaxReach(), config_);
  return dp.Run(deadline);
}

}  // namespace mqd
