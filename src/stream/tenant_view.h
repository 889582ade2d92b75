#ifndef MQD_STREAM_TENANT_VIEW_H_
#define MQD_STREAM_TENANT_VIEW_H_

#include <memory>
#include <vector>

#include "core/coverage.h"
#include "core/instance.h"
#include "core/types.h"
#include "util/result.h"

namespace mqd {

/// A tenant's restricted view of the shared stream: the sub-instance
/// of posts relevant to its label subscription (masks intersected,
/// labels densely renumbered), arriving from its join point onward.
/// `external_id` of each sub-post is the global PostId, and
/// `global_of_local` maps back the other way. Post order — and
/// therefore tie order among equal values — is inherited from the
/// global value-sorted table, so local PostIds are monotone in global
/// ones.
///
/// This is the independent reference a tenant's output is checked
/// against (e2ebench's private replays, the tenant tests), not the
/// engine's representation: MultiTenantStream runs its cluster
/// representatives over the shared post table through their label
/// mask and never builds a view.
struct TenantView {
  Instance sub;
  /// Global PostId of each local post (the same ids as the sub-posts'
  /// `external_id`, kept contiguous for callers that walk them).
  std::vector<PostId> global_of_local;
  /// Coverage restricted to the view: forwards Reach/MaxReach/
  /// IsUniform to the parent model under the local→global mappings,
  /// so every radius is the identical double the tenant would see
  /// running alone on the full model. It reads the global post from
  /// the queried instance's `external_id`, so query it only with this
  /// view's `sub`.
  std::unique_ptr<CoverageModel> model;
};

/// Builds the restricted view of `mask`-relevant posts with global ids
/// in [from_post, num_posts) through Instance::Restrict, straight from
/// the suffixes of the mask's posting lists: cost O(view pairs +
/// (num_posts - from_post) / 64), no scan of other posts, no sort.
/// InvalidArgument for an empty mask, a label outside the universe or
/// from_post > num_posts; from_post == num_posts gives an empty view.
/// `model` and `inst` must outlive the returned view (its coverage
/// wrapper references both).
Result<TenantView> BuildTenantView(const Instance& inst,
                                   const CoverageModel& model,
                                   LabelMask mask, PostId from_post);

}  // namespace mqd

#endif  // MQD_STREAM_TENANT_VIEW_H_
