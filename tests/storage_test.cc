// Unit tests for the in-memory partitioned row store.

#include "storage/table.h"

#include <gtest/gtest.h>

namespace ecdb {
namespace {

TEST(TableTest, InsertAndGet) {
  Table t(0, "t", 4);
  ASSERT_TRUE(t.Insert(10).ok());
  auto row = t.Get(10);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(t.Columns(row.value()).size(), 4u);
  for (uint64_t column : t.Columns(row.value())) EXPECT_EQ(column, 0u);
  EXPECT_EQ(row.value()->version, 0u);
}

TEST(TableTest, DuplicateInsertFails) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(1).ok());
  EXPECT_EQ(t.Insert(1).code(), Code::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TableTest, RejectedDuplicateConsumesNoCells) {
  Table t(0, "t", 3);
  ASSERT_TRUE(t.Insert(1).ok());
  for (uint64_t& column : t.Columns(t.GetMutable(1).value())) column = 7;
  ASSERT_EQ(t.Insert(1).code(), Code::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
  // The next row takes the arena cells right after row 1's: had the
  // rejected insert claimed cells, this row would sit one stride later.
  ASSERT_TRUE(t.Insert(2).ok());
  EXPECT_EQ(t.size(), 2u);
  const Row* first = t.Get(1).value();
  const Row* second = t.Get(2).value();
  EXPECT_EQ(second - first, 1);
  EXPECT_EQ(t.Columns(second).data() - t.Columns(first).data(), 3);
  for (uint64_t column : t.Columns(first)) EXPECT_EQ(column, 7u);
  for (uint64_t column : t.Columns(second)) EXPECT_EQ(column, 0u);
}

TEST(TableTest, InsertsPastReserveKeepEarlierRows) {
  // Growing the row vector and the column arena moves them; every row
  // must still read back its own columns and version afterwards.
  Table t(0, "t", 3);
  t.Reserve(4);
  constexpr Key kRows = 1000;
  for (Key k = 0; k < kRows; ++k) {
    ASSERT_TRUE(t.Insert(k).ok());
    auto row = t.GetMutable(k);
    ASSERT_TRUE(row.ok());
    row.value()->version = k + 1;
    auto columns = t.Columns(row.value());
    for (uint32_t c = 0; c < columns.size(); ++c) columns[c] = k * 10 + c;
  }
  EXPECT_EQ(t.size(), kRows);
  for (Key k = 0; k < kRows; ++k) {
    auto row = t.Get(k);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row.value()->version, k + 1);
    auto columns = t.Columns(row.value());
    ASSERT_EQ(columns.size(), 3u);
    for (uint32_t c = 0; c < columns.size(); ++c) {
      EXPECT_EQ(columns[c], k * 10 + c) << "key " << k << " column " << c;
    }
  }
}

TEST(TableTest, GetMissingIsNotFound) {
  Table t(0, "t", 2);
  EXPECT_TRUE(t.Get(99).status().IsNotFound());
}

TEST(TableTest, MutableUpdatePersists) {
  Table t(0, "t", 2);
  ASSERT_TRUE(t.Insert(3).ok());
  auto row = t.GetMutable(3);
  ASSERT_TRUE(row.ok());
  t.Columns(row.value())[0] = 42;
  row.value()->version++;
  const Table& cref = t;
  EXPECT_EQ(cref.Columns(cref.Get(3).value())[0], 42u);
  EXPECT_EQ(t.Get(3).value()->version, 1u);
}

TEST(TableTest, Metadata) {
  Table t(9, "usertable", 10);
  EXPECT_EQ(t.id(), 9u);
  EXPECT_EQ(t.name(), "usertable");
  EXPECT_EQ(t.num_columns(), 10u);
}

TEST(PartitionStoreTest, CreateAndGetTable) {
  PartitionStore store(3);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  ASSERT_TRUE(store.CreateTable(1, "b", 3).ok());
  EXPECT_EQ(store.id(), 3u);
  EXPECT_EQ(store.num_tables(), 2u);
  ASSERT_NE(store.GetTable(1), nullptr);
  EXPECT_EQ(store.GetTable(1)->name(), "b");
  EXPECT_EQ(store.GetTable(7), nullptr);
}

TEST(PartitionStoreTest, TablesOfDifferentWidthsNeverAlias) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "narrow", 2).ok());
  ASSERT_TRUE(store.CreateTable(1, "wide", 5).ok());
  constexpr Key kRows = 100;
  for (Key k = 0; k < kRows; ++k) {
    ASSERT_TRUE(store.GetTable(0)->Insert(k).ok());
    ASSERT_TRUE(store.GetTable(1)->Insert(k).ok());
  }
  // Fill the same keys of both tables with distinct patterns, then check
  // that neither table's writes show through in the other.
  for (TableId id : {TableId{0}, TableId{1}}) {
    Table* table = store.GetTable(id);
    for (Key k = 0; k < kRows; ++k) {
      Row* row = table->GetMutable(k).value();
      row->version = id * 1000 + k;
      for (uint64_t& column : table->Columns(row)) column = id * 1000 + k;
    }
  }
  for (TableId id : {TableId{0}, TableId{1}}) {
    const Table* table = store.GetTable(id);
    for (Key k = 0; k < kRows; ++k) {
      const Row* row = table->Get(k).value();
      EXPECT_EQ(row->version, id * 1000 + k);
      EXPECT_EQ(table->Columns(row).size(), id == 0 ? 2u : 5u);
      for (uint64_t column : table->Columns(row)) {
        EXPECT_EQ(column, id * 1000 + k) << "table " << id << " key " << k;
      }
    }
  }
}

TEST(PartitionStoreTest, DuplicateTableIdFails) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  EXPECT_EQ(store.CreateTable(0, "b", 2).code(), Code::kAlreadyExists);
}

TEST(PartitionStoreTest, ConstAccess) {
  PartitionStore store(0);
  ASSERT_TRUE(store.CreateTable(0, "a", 2).ok());
  const PartitionStore& cref = store;
  EXPECT_NE(cref.GetTable(0), nullptr);
  EXPECT_EQ(cref.GetTable(1), nullptr);
}

TEST(KeyPartitionerTest, ModuloRouting) {
  KeyPartitioner p(8);
  EXPECT_EQ(p.num_partitions(), 8u);
  EXPECT_EQ(p.PartitionOf(0), 0u);
  EXPECT_EQ(p.PartitionOf(7), 7u);
  EXPECT_EQ(p.PartitionOf(8), 0u);
  EXPECT_EQ(p.PartitionOf(8001), 1u);
}

TEST(KeyPartitionerTest, SinglePartition) {
  KeyPartitioner p(1);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(p.PartitionOf(k), 0u);
}

}  // namespace
}  // namespace ecdb
