#ifndef MQD_INDEX_INVERTED_INDEX_H_
#define MQD_INDEX_INVERTED_INDEX_H_

#include <string>
#include <string_view>
#include <vector>

#include "index/postings.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/result.h"

namespace mqd {

/// The "tweets inverted index" box of the paper's Figure 1 (their
/// implementation used Apache Lucene; indexing itself is out of the
/// paper's scope, so this provides the same contract: keyword ->
/// time-ordered matching posts).
///
/// Documents are ingested in non-decreasing timestamp order; internal
/// DocIds therefore follow time order, and every posting list is
/// simultaneously sorted by id and by timestamp.
class InvertedIndex {
 public:
  explicit InvertedIndex(TokenizerOptions tokenizer_options = {});

  /// Ingests a document. Fails when `timestamp` is not finite or
  /// precedes the previous document (microblog streams are
  /// time-ordered).
  Result<DocId> AddDocument(uint64_t external_id, double timestamp,
                            std::string_view text);

  size_t num_documents() const { return timestamps_.size(); }
  size_t num_terms() const { return vocab_.size(); }

  double timestamp(DocId doc) const { return timestamps_[doc]; }
  uint64_t external_id(DocId doc) const { return external_ids_[doc]; }

  /// Posting list for a term (nullptr when the term is unseen). The
  /// term is normalized with the same tokenizer as documents.
  const PostingList* Postings(std::string_view term) const;

  /// Documents containing at least one of `terms`, ascending by
  /// DocId/time (a k-way posting-list union).
  std::vector<DocId> MatchAny(const std::vector<std::string>& terms) const;

  /// MatchAny restricted to timestamps in [t_begin, t_end].
  std::vector<DocId> MatchAnyInRange(const std::vector<std::string>& terms,
                                     double t_begin, double t_end) const;

  /// Total compressed postings bytes (diagnostics).
  size_t postings_byte_size() const;

 private:
  Tokenizer tokenizer_;
  Vocabulary vocab_;
  std::vector<PostingList> postings_;
  std::vector<double> timestamps_;
  std::vector<uint64_t> external_ids_;
};

}  // namespace mqd

#endif  // MQD_INDEX_INVERTED_INDEX_H_
