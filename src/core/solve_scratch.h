#ifndef MQD_CORE_SOLVE_SCRATCH_H_
#define MQD_CORE_SOLVE_SCRATCH_H_

#include "util/arena.h"
#include "util/logging.h"

namespace mqd {

/// Per-thread reusable solve-lifetime storage. Every transient
/// structure of one solver run — GreedyState's covered/gain/block-max/
/// delta arrays, the selection buffer —
/// bump-allocates out of one thread-local Arena that a Session rewinds
/// when the solve starts. After the first solve of a given size the
/// arena has reached its high-water mark and a steady-state workload
/// (BatchSolver jobs, degradation rungs re-solving the same instance)
/// performs zero heap allocations per solve.
///
/// One Session may be open per thread at a time; solver code must not
/// re-enter SolveWithBudget from inside a live Session's solve (the
/// rewind would free the outer solve's state under it). Solvers that
/// *call* other solvers (BranchAndBound's greedy incumbent, the
/// degradation ladder's rungs) are fine: the inner solve opens its
/// Session after the outer one closed, or never touches the scratch.
class SolveScratch {
 public:
  static SolveScratch& ThreadLocal() {
    static thread_local SolveScratch scratch;
    return scratch;
  }

  /// Scoped solve cycle: rewinds the arena on entry, marks the scratch
  /// free again on exit. Allocations made through arena() stay valid
  /// until the *next* Session begins.
  class Session {
   public:
    explicit Session(SolveScratch& scratch) : scratch_(scratch) {
      MQD_DCHECK(!scratch_.in_solve_);
      scratch_.in_solve_ = true;
      scratch_.arena_.Reset();
    }
    ~Session() { scratch_.in_solve_ = false; }

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    Arena& arena() { return scratch_.arena_; }

   private:
    SolveScratch& scratch_;
  };

  const Arena::Stats& stats() const { return arena_.stats(); }

 private:
  SolveScratch() = default;

  Arena arena_;
  bool in_solve_ = false;
};

}  // namespace mqd

#endif  // MQD_CORE_SOLVE_SCRATCH_H_
