#ifndef ECDB_STORAGE_TABLE_H_
#define ECDB_STORAGE_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/operation.h"
#include "common/status.h"
#include "common/types.h"

namespace ecdb {

/// A row's header. The evaluation workloads never inspect payload bytes, so
/// columns are modeled as 64-bit words (a YCSB row of 10 x 100B fields is
/// simulated with a configurable column count). They do not live in the
/// row: each table keeps every row's columns in one column arena,
/// `num_columns()` words per row, and `Table::Columns` hands them out.
/// Rows are dense in insertion order, so a row's position in the table's
/// row vector is also its position in the arena.
struct Row {
  /// Bumped on every committed write; lets tests verify atomicity (all of a
  /// transaction's writes applied or none).
  uint64_t version = 0;
};

/// Hash-indexed in-memory table, single-partition. Not thread-safe: in both
/// runtimes a partition is touched only by its owning node (shared-nothing),
/// and the threaded runtime serializes access through the node's event loop.
/// The key index is an open-addressing FlatMap from key to row position, so
/// the per-operation row lookup (the innermost step of every transaction) is
/// a mix + mask + short probe with no bucket chain to chase. Rows and their
/// columns are two flat arrays with no per-row heap block.
class Table {
 public:
  /// Empty placeholder table (needed by FlatMap slot storage); only tables
  /// made through the value constructor are ever reachable via GetTable.
  Table() = default;

  /// Creates a table whose rows have `num_columns` columns.
  Table(TableId id, std::string name, uint32_t num_columns);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint32_t num_columns() const { return num_columns_; }
  size_t size() const { return rows_.size(); }

  /// Pre-sizes the key index, the rows and the column arena for `n` rows so
  /// a bulk load performs no rehash or regrowth mid-fill (the workload
  /// loaders call this before inserting).
  void Reserve(size_t n);

  /// Inserts a row with version and all columns zero. Fails with
  /// AlreadyExists, and then uses no row or arena space.
  Status Insert(Key key);

  /// Returns the row or NotFound. The pointer is valid only until the next
  /// Insert or Reserve: either can rehash the key index and grow the row
  /// vector and the column arena, which moves rows and columns in memory.
  Result<const Row*> Get(Key key) const;

  /// Mutable access for the execution engine. Returns NotFound if absent.
  /// Same validity contract as Get.
  Result<Row*> GetMutable(Key key);

  /// The `num_columns()` columns of `row`, which must come from this
  /// table's Get/GetMutable. Same validity contract as Get.
  std::span<const uint64_t> Columns(const Row* row) const;
  std::span<uint64_t> Columns(Row* row);

 private:
  size_t PositionOf(const Row* row) const;

  TableId id_ = 0;
  std::string name_;
  uint32_t num_columns_ = 0;
  FlatMap<Key, uint32_t> index_;   // key -> position in rows_
  std::vector<Row> rows_;          // dense, insertion order
  std::vector<uint64_t> columns_;  // row i's columns at [i * num_columns_]
};

/// All tables owned by one partition. A node hosts exactly one partition in
/// the paper's deployment (partition-per-server), which we mirror.
class PartitionStore {
 public:
  explicit PartitionStore(PartitionId id) : id_(id) {}

  PartitionId id() const { return id_; }

  /// Creates a table; the same (id, schema) must be created on every
  /// partition that stores a slice of it. Fails with AlreadyExists.
  Status CreateTable(TableId id, const std::string& name,
                     uint32_t num_columns);

  /// Returns the table or nullptr. The pointer is valid until the next
  /// CreateTable (which may rehash the table index).
  Table* GetTable(TableId id);
  const Table* GetTable(TableId id) const;

  size_t num_tables() const { return tables_.size(); }

 private:
  PartitionId id_;
  FlatMap<TableId, Table> tables_;
};

/// Maps a key to the partition that owns it. The paper's ExpoDB hashes keys
/// to partitions; YCSB uses key % partitions and TPC-C partitions by
/// warehouse. A `KeyPartitioner` captures that policy.
class KeyPartitioner {
 public:
  explicit KeyPartitioner(uint32_t num_partitions)
      : num_partitions_(num_partitions) {}

  uint32_t num_partitions() const { return num_partitions_; }

  /// Default policy: modulo. Workloads that encode the partition into the
  /// key (TPC-C warehouse id) arrange their key encoding so this is exact.
  PartitionId PartitionOf(Key key) const {
    return static_cast<PartitionId>(key % num_partitions_);
  }

 private:
  uint32_t num_partitions_;
};

}  // namespace ecdb

#endif  // ECDB_STORAGE_TABLE_H_
