#include "text/stopwords.h"

#include "util/string_table.h"

namespace mqd {

namespace {

const StringTable<bool>& StopwordSet() {
  static const StringTable<bool>* const kSet = [] {
    auto* table = new StringTable<bool>;
    for (const char* word : {
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
          "yourself", "yourselves"}) {
      (*table)[word] = true;
    }
    return table;
  }();
  return *kSet;
}

}  // namespace

bool IsStopword(std::string_view word) {
  return StopwordSet().Find(word) != nullptr;
}

}  // namespace mqd
