#ifndef MQD_INDEX_SEARCHER_H_
#define MQD_INDEX_SEARCHER_H_

#include <string>
#include <vector>

#include "index/inverted_index.h"

namespace mqd {

/// One ranked hit.
struct SearchHit {
  DocId doc;
  /// Coordination score: number of query terms the document contains,
  /// a term given twice counting twice (ties broken toward recency).
  int score;
};

/// Minimal multi-keyword searcher over an InvertedIndex. MQDP's
/// offline mode issues a user's queries against the index and feeds
/// the matched posts to the diversifier; scores are only used to cap
/// very large result sets.
class Searcher {
 public:
  explicit Searcher(const InvertedIndex* index) : index_(index) {}

  /// Documents matching >= 1 term, scored by coordination, most
  /// relevant (then most recent) first. `limit` = 0 means unlimited.
  std::vector<SearchHit> Search(const std::vector<std::string>& terms,
                                size_t limit = 0) const;

  /// Same, restricted to timestamps in [t_begin, t_end].
  std::vector<SearchHit> SearchInRange(const std::vector<std::string>& terms,
                                       double t_begin, double t_end,
                                       size_t limit = 0) const;

 private:
  std::vector<SearchHit> Rank(const std::vector<std::string>& terms,
                              std::vector<DocId> candidates,
                              size_t limit) const;

  const InvertedIndex* index_;
};

}  // namespace mqd

#endif  // MQD_INDEX_SEARCHER_H_
