#ifndef MQD_TESTS_TEXT_ORACLE_H_
#define MQD_TESTS_TEXT_ORACLE_H_

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"
#include "topics/topic_model.h"
#include "util/string_util.h"

namespace mqd::testing {

/// The text front end as it was before the table-driven tokenizer,
/// byte-sliced SimHash and flat dedup tables: the plain
/// bodies, kept verbatim as the differential oracle for the library.
/// Nothing here is tuned; every function does the obvious thing.

/// The stopword list as a std::string-keyed set.
inline const std::unordered_set<std::string>& OracleStopwords() {
  static const std::unordered_set<std::string>* const kSet =
      new std::unordered_set<std::string>{
          "a",       "about",  "above",   "after",  "again",  "against",
          "all",     "am",     "an",      "and",    "any",    "are",
          "as",      "at",     "be",      "because", "been",  "before",
          "being",   "below",  "between", "both",   "but",    "by",
          "can",     "cannot", "could",   "did",    "do",     "does",
          "doing",   "down",   "during",  "each",   "few",    "for",
          "from",    "further", "had",    "has",    "have",   "having",
          "he",      "her",    "here",    "hers",   "herself", "him",
          "himself", "his",    "how",     "i",      "if",     "in",
          "into",    "is",     "it",      "its",    "itself", "just",
          "me",      "more",   "most",    "my",     "myself", "no",
          "nor",     "not",    "now",     "of",     "off",    "on",
          "once",    "only",   "or",      "other",  "our",    "ours",
          "ourselves", "out",  "over",    "own",    "rt",     "same",
          "she",     "should", "so",      "some",   "such",   "than",
          "that",    "the",    "their",   "theirs", "them",   "themselves",
          "then",    "there",  "these",   "they",   "this",   "those",
          "through", "to",     "too",     "under",  "until",  "up",
          "very",    "was",    "we",      "were",   "what",   "when",
          "where",   "which",  "while",   "who",    "whom",   "why",
          "will",    "with",   "would",   "you",    "your",   "yours",
          "yourself", "yourselves"};
  return *kSet;
}

/// Stopword test through the std::string-keyed set (one std::string
/// per lookup).
inline bool OracleIsStopword(std::string_view word) {
  return OracleStopwords().contains(std::string(word));
}

/// Tokenizer over <cctype> (std::isalnum / std::tolower / std::isspace
/// in the C locale), comparing `current` against the URL schemes on
/// every byte.
inline std::vector<std::string> OracleTokenize(std::string_view text,
                                               const TokenizerOptions& options_) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.empty()) return;
    std::string token = std::move(current);
    current.clear();
    // Drop URLs.
    if (StartsWith(token, "http") || StartsWith(token, "www.")) return;
    // A bare '#'/'$' is noise.
    const bool tagged = token[0] == '#' || token[0] == '$';
    const size_t body_len = tagged ? token.size() - 1 : token.size();
    if (body_len < options_.min_token_length) return;
    if (options_.remove_stopwords &&
        OracleIsStopword(tagged ? std::string_view(token).substr(1) : token)) {
      return;
    }
    tokens.push_back(std::move(token));
  };

  bool skip_chunk = false;  // inside a URL: ignore until whitespace
  for (size_t i = 0; i < text.size(); ++i) {
    const char raw = text[i];
    const unsigned char c = static_cast<unsigned char>(raw);
    if (skip_chunk) {
      if (std::isspace(c)) skip_chunk = false;
      continue;
    }
    // Entering a URL chunk ("http://...", "www.example.com"): drop it
    // wholesale rather than emitting its fragments.
    if (current == "http" || current == "https") {
      if (raw == ':') {
        current.clear();
        skip_chunk = true;
        continue;
      }
    } else if (current == "www" && raw == '.') {
      current.clear();
      skip_chunk = true;
      continue;
    }
    if (std::isalnum(c) || raw == '_') {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if ((raw == '#' || raw == '$') && current.empty() &&
               options_.keep_tag_prefixes) {
      current.push_back(raw);
    } else if (raw == '\'') {
      // Collapse contractions ("don't" -> "dont").
      continue;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

/// TopicMatcher's keyword table keyed by std::string (one std::string
/// per hashtag lookup), keywords normalized through OracleTokenize.
class OracleMatcher {
 public:
  OracleMatcher(const std::vector<Topic>& topics, TokenizerOptions options) {
    for (size_t i = 0; i < topics.size(); ++i) {
      const LabelMask bit = MaskOf(static_cast<LabelId>(i));
      for (const std::string& raw : topics[i].keywords) {
        for (const std::string& token : OracleTokenize(raw, options)) {
          keyword_labels_[token] |= bit;
        }
      }
    }
  }

  LabelMask MatchTokens(const std::vector<std::string>& tokens) const {
    LabelMask mask = 0;
    for (const std::string& token : tokens) {
      auto it = keyword_labels_.find(token);
      if (it != keyword_labels_.end()) mask |= it->second;
      // A hashtag also matches its bare keyword ("#obama" ~ "obama").
      if (!token.empty() && (token[0] == '#' || token[0] == '$')) {
        auto bare = keyword_labels_.find(token.substr(1));
        if (bare != keyword_labels_.end()) mask |= bare->second;
      }
    }
    return mask;
  }

 private:
  std::unordered_map<std::string, LabelMask> keyword_labels_;
};

/// SimHash with 64 +1/-1 votes per token.
inline uint64_t OracleSimHash(const std::vector<std::string>& tokens) {
  std::array<int32_t, 64> votes{};
  for (const std::string& token : tokens) {
    const uint64_t h = HashToken(token);
    for (int bit = 0; bit < 64; ++bit) {
      votes[static_cast<size_t>(bit)] += ((h >> bit) & 1) ? 1 : -1;
    }
  }
  uint64_t fingerprint = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (votes[static_cast<size_t>(bit)] > 0) {
      fingerprint |= uint64_t{1} << bit;
    }
  }
  return fingerprint;
}

/// Near-duplicate detector over four hash maps keyed by 16-bit block,
/// skipping expired entries on lookup and remove_if-ing each touched
/// bucket on every insert.
class OracleNearDuplicateDetector {
 public:
  OracleNearDuplicateDetector(int max_distance, uint64_t window)
      : max_distance_(max_distance), window_(window) {}

  bool IsDuplicate(uint64_t fingerprint) {
    const uint64_t oldest_live = seq_ < window_ ? 0 : seq_ - window_;
    bool duplicate = false;
    for (int block = 0; block < 4 && !duplicate; ++block) {
      const uint16_t key =
          static_cast<uint16_t>(fingerprint >> (16 * block));
      auto it = tables_[static_cast<size_t>(block)].find(key);
      if (it == tables_[static_cast<size_t>(block)].end()) continue;
      for (const Entry& entry : it->second) {
        if (entry.seq < oldest_live) continue;
        if (HammingDistance(entry.fingerprint, fingerprint) <=
            max_distance_) {
          duplicate = true;
          break;
        }
      }
    }
    if (duplicate) return true;

    for (int block = 0; block < 4; ++block) {
      const uint16_t key =
          static_cast<uint16_t>(fingerprint >> (16 * block));
      std::vector<Entry>& bucket =
          tables_[static_cast<size_t>(block)][key];
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [oldest_live](const Entry& e) {
                                    return e.seq < oldest_live;
                                  }),
                   bucket.end());
      bucket.push_back(Entry{fingerprint, seq_});
    }
    ++seq_;
    return false;
  }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t seq;
  };

  int max_distance_;
  uint64_t window_;
  uint64_t seq_ = 0;
  std::array<std::unordered_map<uint16_t, std::vector<Entry>>, 4> tables_;
};

}  // namespace mqd::testing

#endif  // MQD_TESTS_TEXT_ORACLE_H_
