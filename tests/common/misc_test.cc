// Copyright 2026 The Microbrowse Authors
//
// Tests for the smaller common utilities: hashing, CSV output, the table
// printer, timers and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/csv.h"
#include "common/hash.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace microbrowse {
namespace {

// --- hash.h

TEST(HashTest, Fnv1aIsDeterministicAndSpreads) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(HashTest, Mix64ChangesInput) {
  std::set<uint64_t> outputs;
  for (uint64_t x = 0; x < 100; ++x) outputs.insert(Mix64(x));
  EXPECT_EQ(outputs.size(), 100u);
}

TEST(HashTest, HashCombineOrderMatters) {
  const uint64_t ab = HashCombine(HashCombine(0, std::string_view("a")), std::string_view("b"));
  const uint64_t ba = HashCombine(HashCombine(0, std::string_view("b")), std::string_view("a"));
  EXPECT_NE(ab, ba);
}

TEST(HashTest, HashCombineIntegers) {
  EXPECT_NE(HashCombine(1, uint64_t{2}), HashCombine(2, uint64_t{1}));
  EXPECT_EQ(HashCombine(7, uint64_t{9}), HashCombine(7, uint64_t{9}));
}

// --- csv.h

TEST(CsvEscapeTest, PlainFieldUntouched) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscapeTest, QuotesSpecialCharacters) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriterTest, WritesRowsToFile) {
  const std::string path = ::testing::TempDir() + "/csv_writer_test.csv";
  CsvWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteRow({"model", "f1"}).ok());
  ASSERT_TRUE(writer.WriteRow({"M1", "0.570"}).ok());
  ASSERT_TRUE(writer.WriteRow({"with,comma", "x"}).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "model,f1");
  std::getline(in, line);
  EXPECT_EQ(line, "M1,0.570");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",x");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, WriteWithoutOpenFails) {
  CsvWriter writer;
  EXPECT_EQ(writer.WriteRow({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(CsvWriterTest, DoubleOpenFails) {
  const std::string path = ::testing::TempDir() + "/csv_double_open.csv";
  CsvWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  EXPECT_EQ(writer.Open(path).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(writer.Close().ok());
  std::remove(path.c_str());
}

TEST(CsvWriterTest, CloseWithoutOpenIsOk) {
  CsvWriter writer;
  EXPECT_TRUE(writer.Close().ok());
}

// --- table_printer.h

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table;
  table.SetHeader({"Feature", "F"});
  table.AddRow({"M1", "0.570"});
  table.AddRow({"M6: everything", "0.712"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Feature"), std::string::npos);
  EXPECT_NE(out.find("M6: everything"), std::string::npos);
  // Right-aligned metric column: every data line ends with the value.
  EXPECT_NE(out.find("0.570"), std::string::npos);
}

TEST(TablePrinterTest, TitleIsPrinted) {
  TablePrinter table("My Title");
  table.SetHeader({"A"});
  table.AddRow({"x"});
  EXPECT_EQ(table.ToString().rfind("My Title", 0), 0u);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table;
  table.SetHeader({"A", "B", "C"});
  table.AddRow({"only-one"});
  EXPECT_NE(table.ToString().find("only-one"), std::string::npos);
}

// --- timer.h

TEST(WallTimerTest, ElapsedIsMonotone) {
  WallTimer timer;
  const double first = timer.ElapsedSeconds();
  const double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  EXPECT_GE(timer.ElapsedMillis(), second * 1e3);
}

TEST(WallTimerTest, ResetRestarts) {
  WallTimer timer;
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

// --- thread_pool.h

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.SubmitFallible([&counter] {
      counter.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_TRUE(pool.ParallelForFallible(64, [&hits](size_t i) {
                    hits[i].fetch_add(1);
                    return Status::OK();
                  }).ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.SubmitFallible([&counter] {
    counter.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // Must not deadlock.
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 10; ++i) {
      pool.SubmitFallible([&counter] {
        counter.fetch_add(1);
        return Status::OK();
      });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace microbrowse
