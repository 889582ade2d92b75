#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

double Instance::overlap_rate() const {
  if (posts_.empty()) return 0.0;
  return static_cast<double>(num_pairs()) /
         static_cast<double>(posts_.size());
}

PostId Instance::LowerBound(DimValue v) const {
  auto it = std::lower_bound(
      posts_.begin(), posts_.end(), v,
      [](const Post& p, DimValue x) { return p.value < x; });
  return static_cast<PostId>(it - posts_.begin());
}

PostId Instance::UpperBound(DimValue v) const {
  auto it = std::upper_bound(
      posts_.begin(), posts_.end(), v,
      [](DimValue x, const Post& p) { return x < p.value; });
  return static_cast<PostId>(it - posts_.begin());
}

Instance::IndexRange Instance::LabelRangeBounds(LabelId a, DimValue lo,
                                                DimValue hi) const {
  const std::span<const DimValue> values = label_values(a);
  auto first = std::lower_bound(values.begin(), values.end(), lo);
  auto last = std::upper_bound(first, values.end(), hi);
  return {static_cast<size_t>(first - values.begin()),
          static_cast<size_t>(last - values.begin())};
}

Instance Instance::Restrict(std::span<const LabelId> labels,
                            PostId from_post,
                            std::vector<PostId>* global_of_local) const {
  MQD_CHECK(!labels.empty()) << "Restrict needs at least one label";
  MQD_CHECK(from_post <= posts_.size())
      << "from_post " << from_post << " past the " << posts_.size()
      << "-post instance";
  for (size_t i = 0; i < labels.size(); ++i) {
    MQD_CHECK(labels[i] < static_cast<LabelId>(num_labels_) &&
              (i == 0 || labels[i - 1] < labels[i]))
        << "Restrict labels must be ascending inside the universe";
  }
  const size_t k = labels.size();

  // Mark: every id of each LP(labels[i]) suffix as one bit over
  // [from_post, num_posts). LP(a) is ascending in PostId, so the
  // suffix starts at a lower bound.
  std::vector<size_t> begin(k);
  std::vector<uint64_t> bits((posts_.size() - from_post + 63) / 64, 0);
  for (size_t i = 0; i < k; ++i) {
    const std::span<const PostId> lp = label_posts(labels[i]);
    begin[i] = static_cast<size_t>(
        std::lower_bound(lp.begin(), lp.end(), from_post) - lp.begin());
    for (size_t j = begin[i]; j < lp.size(); ++j) {
      const PostId d = lp[j] - from_post;
      bits[d >> 6] |= uint64_t{1} << (d & 63);
    }
  }

  // Rank: rank[w] marked ids below word w, so the local id of offset d
  // is rank[d / 64] + (marked bits below d inside its word).
  std::vector<PostId> rank(bits.size() + 1, 0);
  for (size_t w = 0; w < bits.size(); ++w) {
    rank[w + 1] = rank[w] + static_cast<PostId>(BitCount(bits[w]));
  }

  Instance out;
  out.num_labels_ = static_cast<int>(k);
  out.posts_.resize(rank.back());
  global_of_local->resize(rank.back());
  out.label_offsets_.resize(k + 1);
  for (size_t i = 0; i < k; ++i) {
    out.label_offsets_[i + 1] = out.label_offsets_[i] +
                                label_posts(labels[i]).size() - begin[i];
  }
  out.label_ids_.resize(out.label_offsets_[k]);
  out.label_values_.resize(out.label_offsets_[k]);

  // Fill: one more walk of each suffix. A post reached through several
  // labels gets the same value and id each time and ORs in its bit, so
  // the loop has no data-dependent branch.
  for (size_t i = 0; i < k; ++i) {
    const std::span<const PostId> lp = label_posts(labels[i]);
    const std::span<const DimValue> values = label_values(labels[i]);
    const LabelMask bit = MaskOf(static_cast<LabelId>(i));
    size_t at = out.label_offsets_[i];
    for (size_t j = begin[i]; j < lp.size(); ++j, ++at) {
      const PostId global = lp[j];
      const PostId d = global - from_post;
      const uint64_t below = bits[d >> 6] & ((uint64_t{1} << (d & 63)) - 1);
      const PostId local =
          rank[d >> 6] + static_cast<PostId>(BitCount(below));
      Post& post = out.posts_[local];
      post.value = values[j];
      post.labels |= bit;
      post.external_id = global;
      (*global_of_local)[local] = global;
      out.label_ids_[at] = local;
      out.label_values_[at] = values[j];
    }
  }
  for (const Post& p : out.posts_) {
    out.max_labels_per_post_ =
        std::max(out.max_labels_per_post_, MaskCount(p.labels));
  }
  return out;
}

InstanceBuilder::InstanceBuilder(int num_labels) : num_labels_(num_labels) {
  MQD_CHECK(num_labels >= 1 && num_labels <= kMaxLabels)
      << "num_labels must be in [1, " << kMaxLabels << "], got "
      << num_labels;
}

InstanceBuilder& InstanceBuilder::Add(DimValue value, LabelMask labels,
                                      uint64_t external_id) {
  posts_.push_back(Post{value, labels, external_id});
  return *this;
}

Result<Instance> InstanceBuilder::Build() {
  // Validate the "dense labels, non-empty mask" invariants up front
  // with proper Statuses (not just debug checks): every mask non-empty
  // and inside the dense [0, num_labels) universe.
  if (num_labels_ < 1 || num_labels_ > kMaxLabels) {
    return Status::InvalidArgument(
        StrFormat("num_labels must be in [1, %d], got %d", kMaxLabels,
                  num_labels_));
  }
  const LabelMask universe =
      num_labels_ == kMaxLabels ? ~LabelMask{0}
                                : (LabelMask{1} << num_labels_) - 1;
  for (size_t i = 0; i < posts_.size(); ++i) {
    if (!std::isfinite(posts_[i].value)) {
      // NaN values would poison the sorted-by-value CSR layout (NaN
      // breaks strict weak ordering) and every +-reach window query.
      return Status::InvalidArgument(
          StrFormat("post %zu has a non-finite value", i));
    }
    if (posts_[i].labels == 0) {
      return Status::InvalidArgument(
          StrFormat("post %zu has an empty label set", i));
    }
    if ((posts_[i].labels & ~universe) != 0) {
      return Status::InvalidArgument(
          StrFormat("post %zu has labels outside the %d-label universe", i,
                    num_labels_));
    }
  }

  // Stable sort keeps insertion order among equal values, giving a
  // deterministic total order that refines the dimension order (OPT's
  // "distinct timestamps" assumption is handled by this total order).
  std::stable_sort(
      posts_.begin(), posts_.end(),
      [](const Post& a, const Post& b) { return a.value < b.value; });

  Instance inst;
  inst.posts_ = std::move(posts_);
  posts_.clear();
  inst.posts_.shrink_to_fit();
  inst.num_labels_ = num_labels_;

  // CSR build as a counting sort: one pass to size every LP(a)
  // exactly, prefix-sum into offsets, one pass to fill. No posting
  // list ever reallocates.
  const size_t num_labels = static_cast<size_t>(num_labels_);
  inst.label_offsets_.assign(num_labels + 1, 0);
  for (const Post& p : inst.posts_) {
    ForEachLabel(p.labels,
                 [&](LabelId a) { ++inst.label_offsets_[a + 1]; });
    inst.max_labels_per_post_ =
        std::max(inst.max_labels_per_post_, MaskCount(p.labels));
  }
  for (size_t a = 0; a < num_labels; ++a) {
    inst.label_offsets_[a + 1] += inst.label_offsets_[a];
  }
  const size_t num_pairs = inst.label_offsets_[num_labels];
  inst.label_ids_.resize(num_pairs);
  inst.label_values_.resize(num_pairs);
  std::vector<size_t> cursor(inst.label_offsets_.begin(),
                             inst.label_offsets_.end() - 1);
  for (PostId i = 0; i < inst.posts_.size(); ++i) {
    const Post& p = inst.posts_[i];
    ForEachLabel(p.labels, [&](LabelId a) {
      const size_t at = cursor[a]++;
      inst.label_ids_[at] = i;
      inst.label_values_[at] = p.value;
    });
  }
  return inst;
}

}  // namespace mqd
