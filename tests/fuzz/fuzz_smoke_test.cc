// Copyright 2026 The Microbrowse Authors
//
// Seeded random-input smoke fuzzing for the hand-written parsers: the
// newline-JSON serve protocol codec, the RFC 4180 CSV record codec and the
// serving snippet parse (with its per-line token cap).
// Two properties per codec:
//   round-trip  — serialize(parse(serialize(x))) is a fixpoint, and the
//                 parsed fields equal the originals byte for byte;
//   robustness  — arbitrary byte soup never crashes the parser; it either
//                 parses or returns InvalidArgument.
// Deterministic seeds, a few thousand cases per property: this is the
// tier-1-friendly smoke tier (label fuzz-smoke), not a coverage-guided
// fuzzer.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "serve/protocol.h"
#include "text/snippet.h"

namespace microbrowse {
namespace {

/// Random byte string, biased toward JSON/CSV metacharacters so the
/// interesting parser branches actually fire.
std::string RandomBytes(Rng& rng, size_t max_len) {
  static constexpr char kSpicy[] = "\"\\,{}[]:\n\r\t '|";
  const size_t len = rng.NextIndex(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    switch (rng.NextIndex(4)) {
      case 0:
        out.push_back(kSpicy[rng.NextIndex(sizeof(kSpicy) - 1)]);
        break;
      case 1:
        out.push_back(static_cast<char>(rng.NextIndex(256)));
        break;
      default:
        out.push_back(static_cast<char>('a' + rng.NextIndex(26)));
        break;
    }
  }
  return out;
}

std::string RandomKey(Rng& rng) {
  const size_t len = 1 + rng.NextIndex(8);
  std::string out;
  for (size_t i = 0; i < len; ++i) out.push_back(static_cast<char>('a' + rng.NextIndex(26)));
  return out;
}

std::string SerializeSorted(const std::map<std::string, std::string>& fields) {
  serve::JsonWriter writer;
  for (const auto& [key, value] : fields) writer.String(key, value);
  return writer.Finish();
}

TEST(FuzzSmokeTest, ProtocolRoundTripIsFixpoint) {
  Rng rng(2026);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::map<std::string, std::string> fields;
    const size_t n_fields = rng.NextIndex(6);
    for (size_t f = 0; f < n_fields; ++f) {
      fields[RandomKey(rng)] = RandomBytes(rng, 40);
    }
    const std::string line = SerializeSorted(fields);
    auto parsed = serve::ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << parsed.status().ToString();
    std::map<std::string, std::string> round_trip;
    for (const auto& [key, value] : parsed->fields) {
      round_trip[std::string(key)] = std::string(value);
    }
    ASSERT_EQ(round_trip, fields) << line;
    // Parse-then-serialize fixpoint (fields are emitted in sorted order on
    // both sides, so the bytes must match exactly).
    EXPECT_EQ(SerializeSorted(round_trip), line);
  }
}

TEST(FuzzSmokeTest, ProtocolNumberAndBoolValuesSurviveRoundTrip) {
  Rng rng(7);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const double number = rng.Gaussian(0.0, 1e6);
    const bool flag = rng.Bernoulli(0.5);
    const int64_t integer =
        static_cast<int64_t>(rng.NextIndex(1u << 30)) * (flag ? 1 : -1);
    serve::JsonWriter writer;
    writer.Number("x", number).Bool("flag", flag).Int("n", integer);
    auto parsed = serve::ParseRequest(writer.Finish());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    // Literal text is preserved, so re-parsing gives back the exact value.
    EXPECT_EQ(std::stod(std::string(parsed->Get("x"))), number);
    EXPECT_EQ(parsed->Get("flag"), flag ? "true" : "false");
    EXPECT_EQ(std::stoll(std::string(parsed->Get("n"))), integer);
  }
}

TEST(FuzzSmokeTest, ProtocolParserNeverCrashesOnByteSoup) {
  Rng rng(99);
  int parsed_ok = 0;
  for (int iteration = 0; iteration < 5000; ++iteration) {
    std::string line = RandomBytes(rng, 64);
    // Half the time, wrap in braces so the object-body paths get deeper.
    if (rng.Bernoulli(0.5)) line = "{" + line + "}";
    auto parsed = serve::ParseRequest(line);
    if (parsed.ok()) ++parsed_ok;  // Either outcome is fine; crashing is not.
  }
  // Sanity: the generator is hostile enough that most inputs are invalid.
  EXPECT_LT(parsed_ok, 1000);
}

TEST(FuzzSmokeTest, ProtocolMutatedValidLinesNeverCrash) {
  Rng rng(41);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    serve::JsonWriter writer;
    writer.String("type", "score_pair").String("a", RandomBytes(rng, 20)).Number("x", 1.5);
    std::string line = writer.Finish();
    // Flip, insert or delete a couple of bytes.
    for (int mutation = 0; mutation < 2 && !line.empty(); ++mutation) {
      const size_t pos = rng.NextIndex(line.size());
      switch (rng.NextIndex(3)) {
        case 0: line[pos] = static_cast<char>(rng.NextIndex(256)); break;
        case 1: line.insert(pos, 1, static_cast<char>(rng.NextIndex(256))); break;
        default: line.erase(pos, 1); break;
      }
    }
    (void)serve::ParseRequest(line);  // Must return, never crash.
  }
}

std::string JoinCsv(const std::vector<std::string>& fields) {
  std::string record;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) record.push_back(',');
    record += CsvEscape(fields[i]);
  }
  return record;
}

TEST(FuzzSmokeTest, CsvRoundTripRecoversFields) {
  Rng rng(1234);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::vector<std::string> fields;
    const size_t n_fields = 1 + rng.NextIndex(6);
    for (size_t f = 0; f < n_fields; ++f) fields.push_back(RandomBytes(rng, 30));
    const std::string record = JoinCsv(fields);
    auto parsed = ParseCsvRecord(record);
    ASSERT_TRUE(parsed.ok()) << record << " -> " << parsed.status().ToString();
    ASSERT_EQ(*parsed, fields) << record;
    // Escape-then-parse fixpoint on the serialized form too.
    EXPECT_EQ(JoinCsv(*parsed), record);
  }
}

TEST(FuzzSmokeTest, CsvParserNeverCrashesOnByteSoup) {
  Rng rng(555);
  for (int iteration = 0; iteration < 5000; ++iteration) {
    (void)ParseCsvRecord(RandomBytes(rng, 64));  // Must return, never crash.
  }
}

TEST(FuzzSmokeTest, CsvMalformedInputsAreRejectedNotMangled) {
  // Hand-picked invalids: the fuzz loops above rarely hit these exact
  // shapes, and each must produce InvalidArgument, not a wrong parse.
  for (const char* record : {"\"unterminated", "\"a\"b", "a\"b", "\"a\"\"", "say \"hi\""}) {
    auto parsed = ParseCsvRecord(record);
    EXPECT_FALSE(parsed.ok()) << record;
  }
  // And edge-case valids.
  auto empty = ParseCsvRecord("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, std::vector<std::string>{""});
  auto trailing = ParseCsvRecord("a,");
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(*trailing, (std::vector<std::string>{"a", ""}));
  auto quoted_newline = ParseCsvRecord("\"a\nb\",c");
  ASSERT_TRUE(quoted_newline.ok());
  EXPECT_EQ(*quoted_newline, (std::vector<std::string>{"a\nb", "c"}));
}

TEST(FuzzSmokeTest, SnippetParseEqualsSplitThenTokenizeOrRefusesOverTheCap) {
  // Byte soup and fields with a line of 1,020-1,030 words, parsed into one
  // reused snippet: a field parses exactly when no '|' piece tokenizes to
  // more than kMaxLineTokens tokens, and then holds what FromLines(Split())
  // builds; otherwise the refusal is InvalidArgument.
  Rng rng(777);
  Snippet reused;
  int refused = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string field = RandomBytes(rng, 48);
    if (iteration % 50 == 0) {
      const size_t words = kMaxLineTokens - 4 + rng.NextIndex(11);
      for (size_t w = 0; w < words; ++w) field += (w == 0 ? "|" : " ") + RandomKey(rng);
      field += RandomBytes(rng, 8);
    }
    const std::vector<std::string> pieces = Split(field, '|');
    bool fits = true;
    for (const std::string& piece : pieces) {
      fits &= Tokenizer().Tokenize(piece).size() <= kMaxLineTokens;
    }
    const Status parsed = Snippet::Parse(field, '|', &reused);
    ASSERT_EQ(parsed.ok(), fits) << parsed.ToString();
    if (fits) {
      EXPECT_EQ(reused, Snippet::FromLines(pieces)) << field;
    } else {
      EXPECT_EQ(parsed.code(), StatusCode::kInvalidArgument);
      ++refused;
    }
  }
  EXPECT_GT(refused, 10);  // Both sides of the cap were reached.
  EXPECT_LT(refused, 50);
}

}  // namespace
}  // namespace microbrowse
