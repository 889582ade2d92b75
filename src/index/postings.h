#ifndef MQD_INDEX_POSTINGS_H_
#define MQD_INDEX_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mqd {

/// Dense internal document number within one InvertedIndex, assigned
/// in ingestion (= timestamp) order, so posting lists are sorted by
/// time for free — the property the MQDP pipeline relies on.
using DocId = uint32_t;

/// An append-only, varint-delta-compressed posting list (the standard
/// IR encoding: store the gap to the previous document as a LEB128
/// varint). Documents must be appended in strictly increasing order.
class PostingList {
 public:
  /// Appends a document; `doc` must exceed the last appended id.
  void Add(DocId doc);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Compressed footprint in bytes (exposed for stats/tests).
  size_t byte_size() const { return data_.size(); }

  /// Forward iterator with galloping Seek support.
  class Iterator {
   public:
    explicit Iterator(const PostingList* list);

    bool Valid() const { return valid_; }
    DocId Doc() const { return current_; }
    void Next();
    /// Advances to the first document >= target (no-op when already
    /// there).
    void SeekTo(DocId target);

   private:
    const PostingList* list_;
    size_t offset_ = 0;
    DocId current_ = 0;
    bool valid_ = false;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Decodes the whole list (tests and small queries).
  std::vector<DocId> ToVector() const;

 private:
  friend class Iterator;
  std::vector<uint8_t> data_;
  DocId last_doc_ = 0;
  size_t count_ = 0;
};

}  // namespace mqd

#endif  // MQD_INDEX_POSTINGS_H_
