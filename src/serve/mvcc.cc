#include "serve/mvcc.h"

#include <utility>

#include "obs/metrics.h"

namespace mde::serve {

/// Shared between the chain's deque and every SnapshotRef pinning the
/// version. `pins` is the reclamation ground truth: incremented only under
/// the chain mutex (Pin), decremented lock-free by SnapshotRef::Release —
/// so a zero observed under the mutex can only stay zero or be re-raised by
/// a later Pin, never concurrently resurrected.
struct SnapshotRef::Node {
  explicit Node(Version v) : version(std::move(v)) {}
  const Version version;
  std::atomic<uint64_t> pins{0};
  uint64_t retire_epoch = kLive;  // guarded by the chain mutex
  static constexpr uint64_t kLive = ~0ull;
};

uint64_t SnapshotRef::version() const { return node_->version.number; }

const simsql::DatabaseState& SnapshotRef::state() const {
  return node_->version.state;
}

void SnapshotRef::Release() {
  if (node_ != nullptr) {
    node_->pins.fetch_sub(1, std::memory_order_release);
    node_.reset();
  }
}

VersionChain::VersionChain(size_t min_retain)
    : min_retain_(min_retain == 0 ? 1 : min_retain) {}

uint64_t VersionChain::Install(simsql::DatabaseState state) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  Version v;
  v.number = next_number_++;
  v.install_epoch = epoch;
  v.state = std::move(state);
  if (!nodes_.empty()) nodes_.back()->retire_epoch = epoch;
  nodes_.push_back(std::make_shared<SnapshotRef::Node>(std::move(v)));
  head_.store(next_number_ - 1, std::memory_order_release);
  ReclaimLocked();
  MDE_OBS_GAUGE_SET("serve.mvcc.live_versions",
                    static_cast<double>(nodes_.size()));
  return next_number_ - 1;
}

SnapshotRef VersionChain::Pin(uint64_t number) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& node : nodes_) {
    if (node->version.number == number) {
      node->pins.fetch_add(1, std::memory_order_relaxed);
      return SnapshotRef(node);
    }
  }
  return SnapshotRef();
}

size_t VersionChain::live_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

void VersionChain::ReclaimLocked() {
  // A version is reclaimable iff it is retired, unpinned, and older than
  // the min_retain_ newest versions. The acquire fence pairs with the
  // release decrement in SnapshotRef::Release: once we observe pins == 0
  // here, every read the releasing session made through its snapshot
  // happened-before the state is destroyed.
  uint64_t freed = 0;
  for (auto it = nodes_.begin();
       it != nodes_.end() && nodes_.size() > min_retain_;) {
    SnapshotRef::Node& node = **it;
    if (node.retire_epoch != SnapshotRef::Node::kLive &&
        node.pins.load(std::memory_order_acquire) == 0) {
      it = nodes_.erase(it);
      ++freed;
    } else {
      ++it;
    }
  }
  if (freed > 0) {
    reclaimed_.fetch_add(freed, std::memory_order_relaxed);
    MDE_OBS_COUNT("serve.mvcc.reclaimed", freed);
  }
}

}  // namespace mde::serve
