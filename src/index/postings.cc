#include "index/postings.h"

#include "util/logging.h"

namespace mqd {

namespace {

void AppendVarint(std::vector<uint8_t>* out, uint32_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

uint32_t ReadVarint(const std::vector<uint8_t>& data, size_t* offset) {
  uint32_t value = 0;
  int shift = 0;
  while (true) {
    const uint8_t byte = data[*offset];
    ++*offset;
    value |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

}  // namespace

void PostingList::Add(DocId doc) {
  if (count_ == 0) {
    AppendVarint(&data_, doc);
  } else {
    MQD_CHECK(doc > last_doc_)
        << "postings must be appended in increasing doc order";
    AppendVarint(&data_, doc - last_doc_);
  }
  last_doc_ = doc;
  ++count_;
}

PostingList::Iterator::Iterator(const PostingList* list) : list_(list) {
  if (list_->count_ > 0) {
    current_ = ReadVarint(list_->data_, &offset_);
    valid_ = true;
  }
}

void PostingList::Iterator::Next() {
  if (!valid_) return;
  if (offset_ >= list_->data_.size()) {
    valid_ = false;
    return;
  }
  current_ += ReadVarint(list_->data_, &offset_);
}

void PostingList::Iterator::SeekTo(DocId target) {
  while (valid_ && current_ < target) Next();
}

std::vector<DocId> PostingList::ToVector() const {
  std::vector<DocId> out;
  out.reserve(count_);
  for (Iterator it = NewIterator(); it.Valid(); it.Next()) {
    out.push_back(it.Doc());
  }
  return out;
}

}  // namespace mqd
