#include "text/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "text/stopwords.h"

namespace mqd {

namespace {

enum class ByteClass : uint8_t {
  kSeparator,   // ends the current token
  kSpace,       // a separator that also ends a skipped URL chunk
  kWord,        // 0-9 a-z A-Z _, appended lowercased
  kTag,         // '#' / '$': a prefix at the start of a token
  kApostrophe,  // dropped, so contractions collapse ("don't" -> "dont")
  kUrlMark,     // ':' / '.': a separator that may open a URL chunk
};

struct ByteInfo {
  ByteClass cls = ByteClass::kSeparator;
  char lower = 0;
};

/// Class and lowercase form of every byte, from explicit ASCII ranges
/// so tokens do not depend on the process locale. Bytes >= 0x80 are
/// separators, as they are for <cctype> in the C locale.
constexpr std::array<ByteInfo, 256> MakeByteTable() {
  std::array<ByteInfo, 256> table{};
  for (int c = '0'; c <= '9'; ++c) {
    table[c] = {ByteClass::kWord, static_cast<char>(c)};
  }
  for (int c = 'a'; c <= 'z'; ++c) {
    table[c] = {ByteClass::kWord, static_cast<char>(c)};
    table[c - 'a' + 'A'] = {ByteClass::kWord, static_cast<char>(c)};
  }
  table['_'] = {ByteClass::kWord, '_'};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)].cls = ByteClass::kSpace;
  }
  table['#'].cls = ByteClass::kTag;
  table['$'].cls = ByteClass::kTag;
  table['\''].cls = ByteClass::kApostrophe;
  table[':'].cls = ByteClass::kUrlMark;
  table['.'].cls = ByteClass::kUrlMark;
  return table;
}

constexpr std::array<ByteInfo, 256> kBytes = MakeByteTable();

constexpr const ByteInfo& InfoOf(char c) {
  return kBytes[static_cast<unsigned char>(c)];
}

/// The token being read, lowercased into a stack buffer so only kept
/// tokens allocate a std::string. A token that outgrows the buffer
/// moves to a heap string for the rest of its bytes; clear() returns
/// to the stack buffer (the heap string keeps its capacity).
class TokenBuffer {
 public:
  TokenBuffer() = default;
  TokenBuffer(const TokenBuffer&) = delete;
  TokenBuffer& operator=(const TokenBuffer&) = delete;

  std::string_view view() const { return {data_, size_}; }
  bool empty() const { return size_ == 0; }
  void clear() {
    data_ = stack_;
    size_ = 0;
  }

  /// Grows the token by `n` bytes and returns where they go.
  char* Extend(size_t n) {
    if (size_ + n > capacity()) MoveToHeap(size_ + n);
    char* out = data_ + size_;
    size_ += n;
    return out;
  }

 private:
  static constexpr size_t kStackBytes = 64;

  size_t capacity() const {
    return data_ == stack_ ? kStackBytes : heap_.size();
  }

  void MoveToHeap(size_t need) {
    if (data_ == stack_) heap_.assign(stack_, size_);
    heap_.resize(std::max(need, 2 * capacity()));
    data_ = heap_.data();
  }

  char stack_[kStackBytes] = {};
  std::string heap_;
  char* data_ = stack_;
  size_t size_ = 0;
};

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  // A generated tweet stream (seed 17, 1 h at 600 tweets/min) averages
  // 6.9 bytes per kept token, so one slot per 4 bytes rarely regrows;
  // every caller drops the vector after use.
  tokens.reserve(text.size() / 4 + 1);
  TokenBuffer current;
  auto flush = [&] {
    // clear() leaves the bytes in place, so `token` stays valid until
    // the next Extend.
    const std::string_view token = current.view();
    current.clear();
    if (token.empty()) return;
    // Drop URLs. A token holds no '.', so "www." chunks never get here.
    if (token.starts_with("http")) return;
    // A bare '#'/'$' is noise.
    const bool tagged = token[0] == '#' || token[0] == '$';
    const std::string_view body = tagged ? token.substr(1) : token;
    if (body.size() >= options_.min_token_length &&
        !(options_.remove_stopwords && IsStopword(body))) {
      tokens.emplace_back(token);
    }
  };

  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const char raw = *p;
    switch (InfoOf(raw).cls) {
      case ByteClass::kWord: {
        // Append the whole run of word bytes at once, lowercased.
        const char* run = p;
        do {
          ++p;
        } while (p != end && InfoOf(*p).cls == ByteClass::kWord);
        for (char* out = current.Extend(static_cast<size_t>(p - run));
             run != p; ++run, ++out) {
          *out = InfoOf(*run).lower;
        }
        continue;
      }
      case ByteClass::kTag:
        if (current.empty() && options_.keep_tag_prefixes) {
          *current.Extend(1) = raw;
        } else {
          flush();
        }
        break;
      case ByteClass::kApostrophe:
        break;
      case ByteClass::kUrlMark:
        // Entering a URL chunk ("http://...", "www.example.com"): drop
        // it wholesale rather than emitting its fragments, up to the
        // whitespace byte that ends it.
        if (raw == ':'
                ? (current.view() == "http" || current.view() == "https")
                : current.view() == "www") {
          current.clear();
          do {
            ++p;
          } while (p != end && InfoOf(*p).cls != ByteClass::kSpace);
          continue;
        }
        flush();
        break;
      case ByteClass::kSeparator:
      case ByteClass::kSpace:
        flush();
        break;
    }
    ++p;
  }
  flush();
  return tokens;
}

}  // namespace mqd
