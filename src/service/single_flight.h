#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/assert.h"

/// Keyed mutual exclusion for request coalescing.
///
/// The plan store deliberately has no per-key compile lock: two workers
/// racing the same key both compile and install identical plans, which is
/// harmless inside one batch run.  A *service* is different -- a load
/// spike of identical cold requests would burn a core per duplicate
/// compile while later requests wait for admission.  KeyedMutex serializes the
/// compile per fingerprint: the first requester compiles, the rest block
/// briefly and then hit the memory tier, so the store's `compiles`
/// counter moves by exactly one per distinct key no matter how many
/// clients race it (the acceptance test for the warm path).
///
/// Entries are created on first lock and dropped when the last holder
/// releases, so the map stays proportional to *in-flight* keys, not to
/// every key ever seen.
namespace wsn {

class KeyedMutex {
  struct Entry {
    std::mutex lock;
    std::size_t refs = 0;
  };

 public:
  /// Holds the per-key lock for its lifetime; move-only.
  class Guard {
   public:
    Guard(Guard&& other) noexcept
        : owner_(other.owner_), entry_(other.entry_), key_(std::move(other.key_)) {
      other.owner_ = nullptr;
      other.entry_ = nullptr;
    }
    Guard& operator=(Guard&&) = delete;
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }

   private:
    friend class KeyedMutex;
    Guard(KeyedMutex* owner, Entry* entry, std::string key)
        : owner_(owner), entry_(entry), key_(std::move(key)) {}

    void release() noexcept {
      if (owner_ == nullptr) return;
      entry_->lock.unlock();
      {
        const std::lock_guard<std::mutex> map_lock(owner_->mutex_);
        const auto it = owner_->entries_.find(key_);
        WSN_ASSERT(it != owner_->entries_.end());
        if (--it->second->refs == 0) owner_->entries_.erase(it);
      }
      owner_ = nullptr;
      entry_ = nullptr;
    }

    KeyedMutex* owner_;
    Entry* entry_;
    std::string key_;
  };

  /// Blocks until `key`'s lock is free, then holds it until the Guard
  /// dies.  Different keys never contend (beyond the map lookup).
  [[nodiscard]] Guard lock(const std::string& key) {
    Entry* entry = nullptr;
    {
      const std::lock_guard<std::mutex> map_lock(mutex_);
      std::unique_ptr<Entry>& slot = entries_[key];
      if (!slot) slot = std::make_unique<Entry>();
      slot->refs++;
      entry = slot.get();
    }
    // Entry stays alive while refs > 0, so locking outside the map lock
    // is safe -- and required, or a long compile would serialize every
    // other key behind it.
    entry->lock.lock();
    return Guard(this, entry, key);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace wsn
