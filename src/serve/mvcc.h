#ifndef MDE_SERVE_MVCC_H_
#define MDE_SERVE_MVCC_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "simsql/simsql.h"

/// MVCC snapshot layer for the serving milestone: many concurrent reader
/// sessions query one database-valued Markov chain (simsql) while a writer
/// keeps advancing it. Readers pin an immutable version of the whole
/// database (a SimSQL DatabaseState) and compute against it for as long as
/// they like; the writer installs new versions without ever blocking or
/// perturbing a pinned reader. This is snapshot isolation in its simplest
/// honest form — the state is copy-on-write at table granularity (Tables
/// share immutable columnar blocks), a version is never mutated after
/// install, and a pinned read is therefore bit-identical no matter what the
/// writer does concurrently.
///
/// Reclamation is epoch-based with per-version pin counts as ground truth:
/// every install advances the global epoch and retires the previous head;
/// a retired version is reclaimed once (a) its pin count is zero and (b) at
/// least `min_retain` newer versions exist (a grace window for readers that
/// looked up the head version number but have not pinned yet — Pin and
/// Install serialize on the chain mutex, so the window only needs to cover
/// versions, not instructions).
/// The head number is also published in an atomic: a serving head request
/// keys on head_version() and pins only when a replication runs (so a hit
/// never pins), retrying on the new head if Pin finds it reclaimed.
namespace mde::serve {

/// One installed, immutable database version.
struct Version {
  uint64_t number = 0;         // 0, 1, 2, ... (the chain's step index)
  uint64_t install_epoch = 0;  // global epoch at install time
  simsql::DatabaseState state;
};

class VersionChain;

/// Move-only RAII pin on one Version. While any SnapshotRef for a version
/// is alive the VersionChain will not reclaim it; `state()` is valid and
/// immutable for the ref's whole lifetime (and stays valid even if the
/// chain object itself is destroyed first — the ref shares ownership).
class SnapshotRef {
 public:
  SnapshotRef() = default;
  ~SnapshotRef() { Release(); }

  SnapshotRef(SnapshotRef&& other) noexcept : node_(std::move(other.node_)) {
    other.node_.reset();
  }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept {
    if (this != &other) {
      Release();
      node_ = std::move(other.node_);
      other.node_.reset();
    }
    return *this;
  }
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  bool valid() const { return node_ != nullptr; }
  uint64_t version() const;
  const simsql::DatabaseState& state() const;

  /// Drops the pin early (valid() becomes false). Idempotent.
  void Release();

 private:
  friend class VersionChain;
  struct Node;
  explicit SnapshotRef(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  std::shared_ptr<Node> node_;
};

/// The version sequence plus its reclamation machinery. Thread-safe:
/// Install / Pin / counters may be called concurrently from any
/// thread (installs of DIFFERENT states may interleave arbitrarily with
/// pins; the caller is responsible for the order of its own installs).
class VersionChain {
 public:
  /// `min_retain` >= 1: number of most-recent versions exempt from
  /// reclamation even when unpinned.
  explicit VersionChain(size_t min_retain = 1);

  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  /// Installs `state` as the next version (numbers are consecutive from 0),
  /// retires the previous head, reclaims what the epoch + pin rules allow,
  /// and returns the new version number.
  uint64_t Install(simsql::DatabaseState state);

  /// Pins version `number`; invalid ref if it was never installed or has
  /// been reclaimed.
  SnapshotRef Pin(uint64_t number);

  /// Number of the newest installed version; kNone before any install.
  /// Lock-free: Install publishes it with release ordering.
  static constexpr uint64_t kNone = ~0ull;
  uint64_t head_version() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Currently resident (installed, not yet reclaimed) versions.
  size_t live_versions() const;
  /// Versions reclaimed so far.
  uint64_t reclaimed() const { return reclaimed_.load(std::memory_order_relaxed); }
  /// Current global epoch (== number of installs).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  void ReclaimLocked();

  const size_t min_retain_;
  mutable std::mutex mu_;
  /// Oldest first; guarded by mu_. shared_ptr so a pinned node outlives
  /// its removal from the deque (and the chain itself).
  std::deque<std::shared_ptr<SnapshotRef::Node>> nodes_;
  std::atomic<uint64_t> head_{kNone};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> reclaimed_{0};
  uint64_t next_number_ = 0;  // guarded by mu_
};

}  // namespace mde::serve

#endif  // MDE_SERVE_MVCC_H_
