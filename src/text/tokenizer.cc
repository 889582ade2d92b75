#include "text/tokenizer.h"

#include <array>
#include <cstdint>

#include "text/stopwords.h"
#include "util/string_util.h"

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
    if (StartsWith(current, "http")) {
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

  bool skip_chunk = false;  // inside a URL: ignore until whitespace
  for (const char raw : text) {
    const ByteInfo info = kBytes[static_cast<unsigned char>(raw)];
    if (skip_chunk) {
      if (info.cls == ByteClass::kSpace) skip_chunk = false;
      continue;
    }
    switch (info.cls) {
      case ByteClass::kWord:
        current.push_back(info.lower);
        break;
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
        // it wholesale rather than emitting its fragments.
        if (raw == ':' ? (current == "http" || current == "https")
                       : current == "www") {
          current.clear();
          skip_chunk = true;
        } else {
          flush();
        }
        break;
      case ByteClass::kSeparator:
      case ByteClass::kSpace:
        flush();
        break;
    }
  }
  flush();
  return tokens;
}

}  // namespace mqd
