#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/string_util.h"

namespace mqd {

InvertedIndex::InvertedIndex(TokenizerOptions tokenizer_options)
    : tokenizer_(tokenizer_options) {}

Result<DocId> InvertedIndex::AddDocument(uint64_t external_id,
                                         double timestamp,
                                         std::string_view text) {
  // NaN compares false against everything, so it would slip past the
  // ordering check below and unsort the timestamp column.
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument(
        StrFormat("non-finite document timestamp %f", timestamp));
  }
  if (!timestamps_.empty() && timestamp < timestamps_.back()) {
    return Status::InvalidArgument(StrFormat(
        "document timestamps must be non-decreasing (%.3f after %.3f)",
        timestamp, timestamps_.back()));
  }
  const DocId doc = static_cast<DocId>(timestamps_.size());
  timestamps_.push_back(timestamp);
  external_ids_.push_back(external_id);

  std::vector<std::string> tokens = tokenizer_.Tokenize(text);
  // Deduplicate within the document: one posting per (term, doc).
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  for (const std::string& token : tokens) {
    const TermId term = vocab_.Intern(token);
    if (term >= postings_.size()) postings_.resize(term + 1);
    postings_[term].Add(doc);
  }
  return doc;
}

const PostingList* InvertedIndex::Postings(std::string_view term) const {
  const std::vector<std::string> tokens =
      tokenizer_.Tokenize(std::string(term));
  if (tokens.size() != 1) return nullptr;
  const TermId id = vocab_.Find(tokens[0]);
  if (id == kInvalidTerm) return nullptr;
  return &postings_[id];
}

std::vector<DocId> InvertedIndex::MatchAny(
    const std::vector<std::string>& terms) const {
  // K-way merge of the posting iterators via a min-heap.
  std::vector<PostingList::Iterator> iters;
  for (const std::string& term : terms) {
    const PostingList* list = Postings(term);
    if (list != nullptr && !list->empty()) {
      iters.push_back(list->NewIterator());
    }
  }
  using HeapItem = std::pair<DocId, size_t>;  // (doc, iterator idx)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (size_t i = 0; i < iters.size(); ++i) {
    heap.emplace(iters[i].Doc(), i);
  }
  std::vector<DocId> out;
  while (!heap.empty()) {
    const auto [doc, idx] = heap.top();
    heap.pop();
    if (out.empty() || out.back() != doc) out.push_back(doc);
    iters[idx].Next();
    if (iters[idx].Valid()) heap.emplace(iters[idx].Doc(), idx);
  }
  return out;
}

std::vector<DocId> InvertedIndex::MatchAnyInRange(
    const std::vector<std::string>& terms, double t_begin,
    double t_end) const {
  // DocIds follow time order, so the range is an id interval found by
  // binary search over timestamps.
  const auto lo = std::lower_bound(timestamps_.begin(), timestamps_.end(),
                                   t_begin);
  const auto hi =
      std::upper_bound(timestamps_.begin(), timestamps_.end(), t_end);
  const DocId first = static_cast<DocId>(lo - timestamps_.begin());
  const DocId last = static_cast<DocId>(hi - timestamps_.begin());

  std::vector<DocId> out;
  for (const std::string& term : terms) {
    const PostingList* list = Postings(term);
    if (list == nullptr) continue;
    PostingList::Iterator it = list->NewIterator();
    it.SeekTo(first);
    for (; it.Valid() && it.Doc() < last; it.Next()) {
      out.push_back(it.Doc());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t InvertedIndex::postings_byte_size() const {
  size_t total = 0;
  for (const PostingList& list : postings_) total += list.byte_size();
  return total;
}

}  // namespace mqd
