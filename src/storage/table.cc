#include "storage/table.h"

#include <cassert>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace ecdb {

Table::Table(TableId id, std::string name, uint32_t num_columns)
    : id_(id), name_(std::move(name)), num_columns_(num_columns) {}

void Table::Reserve(size_t n) {
  index_.Reserve(n);
  rows_.reserve(n);
  columns_.reserve(n * num_columns_);
}

Status Table::Insert(Key key) {
  ECDB_CHECK(rows_.size() < std::numeric_limits<uint32_t>::max());
  if (!index_.Emplace(key, static_cast<uint32_t>(rows_.size())).second) {
    return Status::AlreadyExists("key already in table " + name_);
  }
  rows_.emplace_back();
  columns_.resize(columns_.size() + num_columns_, 0);
  return Status::OK();
}

Result<const Row*> Table::Get(Key key) const {
  const uint32_t* position = index_.Find(key);
  if (position == nullptr) return Status::NotFound();
  return &rows_[*position];
}

Result<Row*> Table::GetMutable(Key key) {
  const uint32_t* position = index_.Find(key);
  if (position == nullptr) return Status::NotFound();
  return &rows_[*position];
}

size_t Table::PositionOf(const Row* row) const {
  assert(row >= rows_.data() && row < rows_.data() + rows_.size());
  return static_cast<size_t>(row - rows_.data());
}

std::span<const uint64_t> Table::Columns(const Row* row) const {
  return {columns_.data() + PositionOf(row) * num_columns_, num_columns_};
}

std::span<uint64_t> Table::Columns(Row* row) {
  return {columns_.data() + PositionOf(row) * num_columns_, num_columns_};
}

Status PartitionStore::CreateTable(TableId id, const std::string& name,
                                   uint32_t num_columns) {
  auto [slot, inserted] = tables_.Emplace(id, Table(id, name, num_columns));
  (void)slot;
  if (!inserted) return Status::AlreadyExists("table id in use");
  return Status::OK();
}

Table* PartitionStore::GetTable(TableId id) { return tables_.Find(id); }

const Table* PartitionStore::GetTable(TableId id) const {
  return tables_.Find(id);
}

}  // namespace ecdb
