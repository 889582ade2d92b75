#ifndef MQD_CORE_INSTANCE_H_
#define MQD_CORE_INSTANCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/result.h"
#include "util/status.h"

namespace mqd {

/// An immutable MQDP problem instance <P, lambda-model>: the post list
/// sorted ascending by diversity-dimension value, plus the per-label
/// posting lists LP(a) the algorithms scan. Build one through
/// InstanceBuilder.
///
/// Storage is CSR (compressed sparse row): all posting lists live in
/// one flat PostId array indexed by per-label offsets, with a parallel
/// flat DimValue array mirroring the posts' values, so range queries
/// binary-search contiguous doubles instead of chasing
/// posts_[id].value through the id indirection. A position inside
/// LP(a) — as returned by LabelRangeBounds — is therefore a stable
/// dense index the solvers can key per-label auxiliary state on (see
/// GreedyState's incremental gain maintenance).
///
/// Invariants:
///  * posts are sorted by (value, insertion order); PostId i is the
///    position in this order;
///  * every post has a non-empty label mask (posts matching no query
///    are not part of P by definition);
///  * label ids are dense in [0, num_labels).
class Instance {
 public:
  size_t num_posts() const { return posts_.size(); }
  int num_labels() const { return num_labels_; }

  const Post& post(PostId id) const { return posts_[id]; }
  DimValue value(PostId id) const { return posts_[id].value; }
  LabelMask labels(PostId id) const { return posts_[id].labels; }

  const std::vector<Post>& posts() const { return posts_; }

  /// LP(a): ids of posts relevant to label a, ascending by value.
  std::span<const PostId> label_posts(LabelId a) const {
    return {label_ids_.data() + label_offsets_[a],
            label_offsets_[a + 1] - label_offsets_[a]};
  }

  /// Values of LP(a), parallel to label_posts(a): label_values(a)[i]
  /// == value(label_posts(a)[i]).
  std::span<const DimValue> label_values(LabelId a) const {
    return {label_values_.data() + label_offsets_[a],
            label_offsets_[a + 1] - label_offsets_[a]};
  }

  /// Start of LP(a) inside the flat CSR arrays; label_offset(a) +
  /// (position within LP(a)) is a dense global index in
  /// [0, num_pairs).
  size_t label_offset(LabelId a) const { return label_offsets_[a]; }

  /// Maximum number of labels any single post carries (the paper's
  /// `s`, which bounds Scan's approximation ratio).
  int max_labels_per_post() const { return max_labels_per_post_; }

  /// Average number of labels per post (the paper's "post overlap
  /// rate", Section 7.2). 1.0 means no post matches several queries.
  double overlap_rate() const;

  /// Total number of (post, label) pairs: sum_a |LP(a)|.
  size_t num_pairs() const { return label_ids_.size(); }

  /// Value span [min, max] of the posts; {0, 0} when empty.
  DimValue min_value() const {
    return posts_.empty() ? 0.0 : posts_.front().value;
  }
  DimValue max_value() const {
    return posts_.empty() ? 0.0 : posts_.back().value;
  }

  /// First post index with value >= v (lower bound on the sorted post
  /// order). O(log n).
  PostId LowerBound(DimValue v) const;
  /// First post index with value > v.
  PostId UpperBound(DimValue v) const;

  /// Half-open position range [begin, end) within LP(a) of the posts
  /// with value in [lo, hi]. O(log |LP(a)|) over the contiguous value
  /// array.
  struct IndexRange {
    size_t begin;
    size_t end;
    size_t size() const { return end - begin; }
  };
  IndexRange LabelRangeBounds(LabelId a, DimValue lo, DimValue hi) const;

  /// Restricts posts of label `a` to those with value in [lo, hi],
  /// returned as a subrange of label_posts(a). O(log |LP(a)|).
  std::span<const PostId> LabelPostsInRange(LabelId a, DimValue lo,
                                            DimValue hi) const {
    const IndexRange r = LabelRangeBounds(a, lo, hi);
    return {label_ids_.data() + label_offsets_[a] + r.begin, r.size()};
  }

  /// The sub-instance of posts with id >= `from_post` that carry at
  /// least one of `labels`, with each mask intersected and renumbered
  /// densely: local label i is global label labels[i]. Local post ids
  /// keep the parent's (value, tie) order, `external_id` of local post
  /// j is its global PostId, and `*global_of_local` (resized) maps
  /// local ids to global ones. Equal, field by field, to feeding those
  /// posts through InstanceBuilder in global order.
  ///
  /// Built straight from the suffixes of LP(labels[i]) without
  /// re-validating or sorting: mark the suffix ids in a bitmap over
  /// [from_post, num_posts), rank them by prefix popcount, then walk
  /// each suffix once more to fill posts and CSR arrays. Cost
  /// O(sum_i |suffix of LP(labels[i])| + (num_posts - from_post) / 64).
  ///
  /// Requires `labels` non-empty, strictly ascending, inside
  /// [0, num_labels), and from_post <= num_posts (checked).
  Instance Restrict(std::span<const LabelId> labels, PostId from_post,
                    std::vector<PostId>* global_of_local) const;

 private:
  friend class InstanceBuilder;

  std::vector<Post> posts_;
  // CSR posting lists: label_offsets_ has num_labels + 1 entries;
  // LP(a) = label_ids_[label_offsets_[a] .. label_offsets_[a+1]).
  std::vector<size_t> label_offsets_ = {0};
  std::vector<PostId> label_ids_;
  std::vector<DimValue> label_values_;
  int num_labels_ = 0;
  int max_labels_per_post_ = 0;
};

/// Accumulates posts and produces a canonical Instance.
class InstanceBuilder {
 public:
  /// `num_labels` fixes the dense label universe size (1..kMaxLabels).
  explicit InstanceBuilder(int num_labels);

  /// Adds a post; `labels` must be a non-empty subset of the universe.
  InstanceBuilder& Add(DimValue value, LabelMask labels,
                       uint64_t external_id = 0);

  /// Number of posts added so far.
  size_t size() const { return posts_.size(); }

  /// Validates, sorts, builds the CSR label lists (exact-sized, no
  /// incremental growth). The builder is left empty.
  Result<Instance> Build();

 private:
  int num_labels_;
  std::vector<Post> posts_;
};

}  // namespace mqd

#endif  // MQD_CORE_INSTANCE_H_
