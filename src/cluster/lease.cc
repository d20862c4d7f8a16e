#include "cluster/lease.h"

#include "support/check.h"

namespace rif::cluster {

LeaseBook::LeaseBook(std::vector<NodeId> pool) {
  for (const NodeId n : pool) {
    RIF_CHECK_MSG(n != kNoNode, "invalid node in lease pool");
    const bool inserted = free_.insert(n).second;
    RIF_CHECK_MSG(inserted, "duplicate node in lease pool");
  }
}

void LeaseBook::add_node(NodeId node) {
  RIF_CHECK_MSG(node != kNoNode, "invalid node in lease pool");
  const bool inserted = free_.insert(node).second;
  RIF_CHECK_MSG(inserted, "node already in lease pool");
}

int LeaseBook::free_nodes(const NodeFilter& eligible) const {
  if (!eligible) return free_nodes();
  int n = 0;
  for (const NodeId node : free_) {
    if (eligible(node)) ++n;
  }
  return n;
}

std::vector<NodeId> LeaseBook::acquire(LeaseOwner owner, int n,
                                       const NodeFilter& eligible) {
  RIF_CHECK(n >= 1);
  RIF_CHECK_MSG(!leases_.contains(owner), "owner already holds a lease");
  std::vector<NodeId> granted;
  granted.reserve(static_cast<std::size_t>(n));
  for (const NodeId node : free_) {
    if (eligible && !eligible(node)) continue;
    granted.push_back(node);
    if (static_cast<int>(granted.size()) == n) break;
  }
  if (static_cast<int>(granted.size()) < n) return {};
  for (const NodeId node : granted) free_.erase(node);
  leases_.emplace(owner, granted);
  return granted;
}

void LeaseBook::release(LeaseOwner owner) {
  auto it = leases_.find(owner);
  if (it == leases_.end()) return;
  for (const NodeId n : it->second) free_.insert(n);
  leases_.erase(it);
}

LeaseOwner LeaseBook::owner_of(NodeId node) const {
  for (const auto& [owner, nodes] : leases_) {
    for (const NodeId n : nodes) {
      if (n == node) return owner;
    }
  }
  return kNoOwner;
}

}  // namespace rif::cluster
