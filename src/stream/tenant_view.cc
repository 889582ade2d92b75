#include "stream/tenant_view.h"

#include <utility>

#include "util/string_util.h"

namespace mqd {

namespace {

/// CoverageModel of a TenantView: every query is answered by the
/// parent model under the local→global post/label mappings, so the
/// restricted run computes with the identical doubles (and the same
/// IsUniform fast-path choice) as a run on the full model. The global
/// post is read from the queried instance's `external_id`, so the
/// model must be queried with its own view's `sub` and no other
/// instance.
class RestrictedCoverage final : public CoverageModel {
 public:
  RestrictedCoverage(const Instance& parent_inst, const CoverageModel& parent,
                     std::vector<LabelId> global_label)
      : parent_inst_(parent_inst),
        parent_(parent),
        global_label_(std::move(global_label)) {}

  DimValue Reach(const Instance& sub, PostId coverer,
                 LabelId a) const override {
    return parent_.Reach(parent_inst_,
                         static_cast<PostId>(sub.post(coverer).external_id),
                         global_label_[a]);
  }
  DimValue MaxReach() const override { return parent_.MaxReach(); }
  bool IsUniform() const override { return parent_.IsUniform(); }

 private:
  const Instance& parent_inst_;
  const CoverageModel& parent_;
  std::vector<LabelId> global_label_;
};

}  // namespace

Result<TenantView> BuildTenantView(const Instance& inst,
                                   const CoverageModel& model,
                                   LabelMask mask, PostId from_post) {
  if (mask == 0) {
    return Status::InvalidArgument("tenant label mask is empty");
  }
  const std::vector<LabelId> global_labels = MaskToLabels(mask);
  if (!global_labels.empty() &&
      global_labels.back() >= static_cast<LabelId>(inst.num_labels())) {
    return Status::InvalidArgument(
        StrFormat("tenant mask uses label %u outside the %d-label universe",
                  global_labels.back(), inst.num_labels()));
  }
  if (from_post > inst.num_posts()) {
    return Status::InvalidArgument(
        StrFormat("tenant join point %u is past the %zu-post stream",
                  from_post, inst.num_posts()));
  }

  // Local label i is global_labels[i]: the mapping is monotone, which
  // preserves the (deadline, label) tie order.
  TenantView view;
  view.sub = inst.Restrict(global_labels, from_post, &view.global_of_local);
  view.model = std::make_unique<RestrictedCoverage>(inst, model,
                                                    global_labels);
  return view;
}

}  // namespace mqd
