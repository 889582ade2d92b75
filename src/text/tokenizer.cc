#include "text/tokenizer.h"

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

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  // A generated tweet stream (seed 17, 1 h at 600 tweets/min) averages
  // 6.9 bytes per kept token, so one slot per 4 bytes rarely regrows;
  // every caller drops the vector after use.
  tokens.reserve(text.size() / 4 + 1);
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    // Drop URLs. A token holds no '.', so "www." chunks never get here.
    if (current.size() >= 4 && current.compare(0, 4, "http") == 0) {
      current.clear();
      return;
    }
    // A bare '#'/'$' is noise.
    const bool tagged = current[0] == '#' || current[0] == '$';
    const std::string_view body =
        tagged ? std::string_view(current).substr(1) : current;
    if (body.size() >= options_.min_token_length &&
        !(options_.remove_stopwords && IsStopword(body))) {
      tokens.push_back(current);
    }
    current.clear();
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
        const size_t old_size = current.size();
        current.resize(old_size + static_cast<size_t>(p - run));
        for (char* out = current.data() + old_size; run != p; ++run, ++out) {
          *out = InfoOf(*run).lower;
        }
        continue;
      }
      case ByteClass::kTag:
        if (current.empty() && options_.keep_tag_prefixes) {
          current.push_back(raw);
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
        if (raw == ':' ? (current == "http" || current == "https")
                       : current == "www") {
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
