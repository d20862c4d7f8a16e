// Node reservation ("lease") tracking for multi-tenant scheduling.
//
// A LeaseBook partitions a fixed pool of worker nodes among concurrently
// running jobs: a job acquires an exclusive lease on the nodes it will run
// its actors on, and releases them all when it completes. Free nodes are
// handed out in ascending id order, so a schedule is a pure function of the
// submission stream — the same determinism contract the rest of the
// simulator keeps.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "cluster/node.h"

namespace rif::cluster {

using LeaseOwner = std::int64_t;
inline constexpr LeaseOwner kNoOwner = -1;

/// Predicate restricting which free nodes may be granted (typically "the
/// node is alive"). An empty filter accepts every node.
using NodeFilter = std::function<bool(NodeId)>;

class LeaseBook {
 public:
  /// The pool of leasable nodes (typically the worker nodes of a cluster;
  /// the head/sensor node is kept out of the pool).
  explicit LeaseBook(std::vector<NodeId> pool);

  [[nodiscard]] int free_nodes() const { return static_cast<int>(free_.size()); }
  [[nodiscard]] bool fits(int n) const { return n >= 0 && n <= free_nodes(); }

  /// Free nodes passing `eligible` (e.g. alive nodes only).
  [[nodiscard]] int free_nodes(const NodeFilter& eligible) const;

  /// Grow the pool with one more leasable node (a remote worker that just
  /// completed its handshake). The node starts free.
  void add_node(NodeId node);

  /// Lease `n` nodes exclusively to `owner`; returns the leased node ids in
  /// ascending order, or an empty vector when fewer than `n` free nodes
  /// pass `eligible`. An owner may hold at most one lease at a time.
  std::vector<NodeId> acquire(LeaseOwner owner, int n,
                              const NodeFilter& eligible = {});

  /// Return every node held by `owner` to the free pool. No-op for an
  /// unknown owner.
  void release(LeaseOwner owner);

  /// Owner currently holding `node`, or kNoOwner.
  [[nodiscard]] LeaseOwner owner_of(NodeId node) const;

 private:
  std::set<NodeId> free_;                            ///< ascending id order
  std::map<LeaseOwner, std::vector<NodeId>> leases_;
};

}  // namespace rif::cluster
