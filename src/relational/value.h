#ifndef PDX_RELATIONAL_VALUE_H_
#define PDX_RELATIONAL_VALUE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/logging.h"

namespace pdx {

// A database value: either an interned *constant* or a *labeled null*.
//
// The paper's instances range over constants (Const) and labeled nulls
// introduced by the chase. Packing both into one word keeps tuples flat and
// hashable and removes all string handling from the rewriting hot paths;
// constant spellings live in a SymbolTable on the side.
class Value {
 public:
  // A default-constructed Value is constant #0; avoid relying on this.
  Value() : bits_(0) {}

  static Value Constant(uint32_t id) { return Value(uint64_t{id}); }
  static Value Null(uint32_t id) { return Value(kNullBit | uint64_t{id}); }

  bool is_null() const { return (bits_ & kNullBit) != 0; }
  bool is_constant() const { return !is_null(); }

  // The id within the value's kind (constant ids and null ids are separate
  // spaces).
  uint32_t id() const { return static_cast<uint32_t>(bits_ & 0xffffffffu); }

  // Raw packed representation, usable as a hash-map key.
  uint64_t packed() const { return bits_; }
  static Value FromPacked(uint64_t bits) { return Value(bits); }

  bool operator==(const Value& other) const { return bits_ == other.bits_; }
  bool operator!=(const Value& other) const { return bits_ != other.bits_; }
  bool operator<(const Value& other) const { return bits_ < other.bits_; }

 private:
  static constexpr uint64_t kNullBit = uint64_t{1} << 63;

  explicit Value(uint64_t bits) : bits_(bits) {}

  uint64_t bits_;
};

struct ValueHash {
  size_t operator()(const Value& v) const {
    // splitmix64-style finalizer: good dispersion for sequential ids.
    uint64_t x = v.packed();
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

// Interns constant spellings and allocates fresh labeled nulls.
//
// One SymbolTable represents one "universe" of values; all instances,
// dependencies and queries that interact must share a SymbolTable.
class SymbolTable {
 public:
  SymbolTable() = default;

  // Not copyable: ids would silently diverge between copies.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&& other) noexcept
      : ids_(std::move(other.ids_)),
        names_(std::move(other.names_)),
        next_null_id_(
            other.next_null_id_.load(std::memory_order_relaxed)) {}
  SymbolTable& operator=(SymbolTable&& other) noexcept {
    ids_ = std::move(other.ids_);
    names_ = std::move(other.names_);
    next_null_id_.store(other.next_null_id_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  // Returns the constant for `name`, interning it on first use.
  Value InternConstant(std::string_view name);

  // Returns the constant for `name` if interned, or a negative result.
  // `found` may be null.
  Value LookupConstant(std::string_view name, bool* found) const;

  // Allocates a labeled null never seen before in this universe. Safe to
  // call from any thread: the id counter is a single relaxed fetch_add.
  Value FreshNull() {
    return Value::Null(next_null_id_.fetch_add(1, std::memory_order_relaxed));
  }

  // Upper bound on null ids handed out so far.
  uint32_t null_count() const {
    return next_null_id_.load(std::memory_order_relaxed);
  }

  // Renders a value: the constant's spelling, or "_N<k>" for nulls.
  std::string ValueToString(Value v) const;

  size_t constant_count() const { return names_.size(); }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
  std::atomic<uint32_t> next_null_id_{0};
};

}  // namespace pdx

#endif  // PDX_RELATIONAL_VALUE_H_
