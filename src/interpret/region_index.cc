#include "interpret/region_index.h"

#include <algorithm>

#include "util/check.h"

namespace openapi::interpret {
namespace {

constexpr int32_t kNoNode = -1;

/// Asks for the cache lines of [p, p + bytes), at most eight of them: a
/// whole box up to d = 28; a wider box's tail is fetched on demand.
void PrefetchRange(const void* p, size_t bytes) {
  constexpr uintptr_t kLine = 64;
  uintptr_t line = reinterpret_cast<uintptr_t>(p) & ~(kLine - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(p) + bytes;
  for (int n = 0; n < 8 && line < end; ++n, line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

}  // namespace

RegionIndex::RegionIndex(size_t dim, size_t leaf_capacity)
    : dim_(dim), leaf_capacity_(leaf_capacity) {
  OPENAPI_CHECK_GT(dim_, 0u);
  OPENAPI_CHECK_GT(leaf_capacity_, 0u);
}

bool RegionIndex::BoxContains(const double* lo, const double* hi,
                              const Vec& x) const {
  for (size_t j = 0; j < dim_; ++j) {
    if (x[j] < lo[j] || x[j] > hi[j]) return false;
  }
  return true;
}

void RegionIndex::ExpandBox(double* lo, double* hi, const double* add_lo,
                            const double* add_hi) const {
  for (size_t j = 0; j < dim_; ++j) {
    lo[j] = std::min(lo[j], add_lo[j]);
    hi[j] = std::max(hi[j], add_hi[j]);
  }
}

void RegionIndex::Insert(size_t slot, const Vec& lo, const Vec& hi) {
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  OPENAPI_CHECK_EQ(hi.size(), dim_);
  OPENAPI_CHECK(!contains(slot));
  if (slot >= entries_.size()) {
    entries_.resize(slot + 1);
    entry_bounds_.resize((slot + 1) * 2 * dim_);
  }
  Entry& entry = entries_[slot];
  std::copy(lo.begin(), lo.end(), EntryLo(slot));
  std::copy(hi.begin(), hi.end(), EntryHi(slot));
  entry.locations.clear();
  entry.present = true;
  ++live_;
}

void RegionIndex::File(size_t slot, size_t bucket) {
  OPENAPI_CHECK(contains(slot));
  Entry& entry = entries_[slot];
  for (const Location& loc : entry.locations) {
    if (loc.bucket == bucket) return;  // idempotent
  }
  InsertIntoForest(bucket, slot);
}

void RegionIndex::Remove(size_t slot) {
  OPENAPI_CHECK(contains(slot));
  Entry& entry = entries_[slot];
  // Detach from every leaf first; rebuilds below re-derive locations for
  // OTHER slots, so this entry must already be gone from the trees.
  std::vector<Location> locations = std::move(entry.locations);
  entry.locations.clear();
  entry.present = false;
  --live_;
  for (const Location& loc : locations) {
    Tree* tree = loc.tree;
    Node& leaf = tree->nodes[loc.node];
    auto it = std::find(leaf.slots.begin(), leaf.slots.end(),
                        static_cast<uint32_t>(slot));
    OPENAPI_CHECK(it != leaf.slots.end());
    leaf.slots.erase(it);
    --tree->live;
    Forest& forest = forests_[loc.bucket];
    auto owner = std::find_if(
        forest.begin(), forest.end(),
        [tree](const std::unique_ptr<Tree>& t) { return t.get() == tree; });
    OPENAPI_CHECK(owner != forest.end());
    if (tree->live == 0) {
      forest.erase(owner);
    } else if (tree->live * 2 < tree->built) {
      // Over half the built slots are gone: rebuild compactly so stale
      // bounds and empty leaves cannot accumulate (amortized O(log n)
      // per removal — a slot is rebuilt only after as many removals).
      std::vector<uint32_t> survivors;
      AppendLiveSlots(*tree, &survivors);
      *owner = BuildTree(loc.bucket, std::move(survivors));
    }
    if (forest.empty()) forests_.erase(loc.bucket);
  }
}

void RegionIndex::Expand(size_t slot, const Vec& x) { Expand(slot, x, x); }

void RegionIndex::Expand(size_t slot, const Vec& lo, const Vec& hi) {
  OPENAPI_CHECK(contains(slot));
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  Entry& entry = entries_[slot];
  ExpandBox(EntryLo(slot), EntryHi(slot), lo.data(), hi.data());
  for (const Location& loc : entry.locations) {
    RefitUp(loc.tree, loc.node, EntryLo(slot), EntryHi(slot));
  }
}

void RegionIndex::Clear() {
  entries_.clear();
  entry_bounds_.clear();
  forests_.clear();
  live_ = 0;
}

void RegionIndex::AppendLiveSlots(const Tree& tree,
                                  std::vector<uint32_t>* out) {
  for (const Node& node : tree.nodes) {
    out->insert(out->end(), node.slots.begin(), node.slots.end());
  }
}

void RegionIndex::InsertIntoForest(size_t bucket, size_t slot) {
  Forest& forest = forests_[bucket];
  forest.push_back(BuildTree(bucket, {static_cast<uint32_t>(slot)}));
  // Binary-counter merge: combining trees of comparable size keeps every
  // slot's lifetime rebuild count logarithmic and the forest at O(log n)
  // trees, independent of insertion order.
  while (forest.size() >= 2 &&
         forest[forest.size() - 2]->live <= forest.back()->live) {
    std::vector<uint32_t> merged;
    AppendLiveSlots(*forest[forest.size() - 2], &merged);
    AppendLiveSlots(*forest.back(), &merged);
    forest.pop_back();
    forest.pop_back();
    forest.push_back(BuildTree(bucket, std::move(merged)));
  }
}

std::unique_ptr<RegionIndex::Tree> RegionIndex::BuildTree(
    size_t bucket, std::vector<uint32_t> slots) {
  OPENAPI_CHECK(!slots.empty());
  auto tree = std::make_unique<Tree>();
  tree->live = tree->built = slots.size();
  // Worst-case node count of the median split: one leaf per
  // ceil(n / leaf_capacity) plus internals — reserve so node pointers
  // handed to BuildNode's recursion stay valid (indices are used, but
  // reserving avoids reallocation churn).
  const size_t cap = 2 * (slots.size() / leaf_capacity_ + 2);
  tree->nodes.reserve(cap);
  tree->bounds.reserve(cap * 2 * dim_);
  BuildNode(tree.get(), bucket, slots.data(), slots.size(), kNoNode);
  return tree;
}

int32_t RegionIndex::BuildNode(Tree* tree, size_t bucket, uint32_t* slots,
                               size_t count, int32_t parent) {
  const int32_t id = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes[id].parent = parent;
  tree->bounds.resize((static_cast<size_t>(id) + 1) * 2 * dim_);
  {
    // Bound of everything below this node (expand-only afterwards).
    double* lo = NodeLo(tree, id, dim_);
    double* hi = lo + dim_;
    std::copy(EntryLo(slots[0]), EntryLo(slots[0]) + dim_, lo);
    std::copy(EntryHi(slots[0]), EntryHi(slots[0]) + dim_, hi);
    for (size_t i = 1; i < count; ++i) {
      ExpandBox(lo, hi, EntryLo(slots[i]), EntryHi(slots[i]));
    }
  }
  if (count <= leaf_capacity_) {
    Node& node = tree->nodes[id];
    node.slots.assign(slots, slots + count);
    for (size_t i = 0; i < count; ++i) {
      // A merge or rebuild re-files slots that already carry a location
      // for this bucket (pointing at the tree being replaced): overwrite
      // it in place rather than appending a duplicate.
      std::vector<Location>& locations = entries_[slots[i]].locations;
      auto it = std::find_if(
          locations.begin(), locations.end(),
          [bucket](const Location& loc) { return loc.bucket == bucket; });
      if (it != locations.end()) {
        it->tree = tree;
        it->node = id;
      } else {
        locations.push_back(Location{bucket, tree, id});
      }
    }
    return id;
  }
  // Median split on the dimension with the widest spread of box centers:
  // the classic balanced k-d construction, O(n log n) total.
  size_t split_dim = 0;
  double best_spread = -1.0;
  for (size_t j = 0; j < dim_; ++j) {
    double lo = EntryLo(slots[0])[j] + EntryHi(slots[0])[j];
    double hi = lo;
    for (size_t i = 1; i < count; ++i) {
      const double center2 = EntryLo(slots[i])[j] + EntryHi(slots[i])[j];
      lo = std::min(lo, center2);
      hi = std::max(hi, center2);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      split_dim = j;
    }
  }
  const size_t mid = count / 2;
  std::nth_element(slots, slots + mid, slots + count,
                   [this, split_dim](uint32_t a, uint32_t b) {
                     const double ca =
                         EntryLo(a)[split_dim] + EntryHi(a)[split_dim];
                     const double cb =
                         EntryLo(b)[split_dim] + EntryHi(b)[split_dim];
                     if (ca != cb) return ca < cb;
                     return a < b;  // deterministic tie-break
                   });
  const int32_t left = BuildNode(tree, bucket, slots, mid, id);
  const int32_t right =
      BuildNode(tree, bucket, slots + mid, count - mid, id);
  Node& node = tree->nodes[id];
  node.left = left;
  node.right = right;
  return id;
}

void RegionIndex::RefitUp(Tree* tree, int32_t node, const double* lo,
                          const double* hi) const {
  while (node != kNoNode) {
    double* nlo = NodeLo(tree, node, dim_);
    double* nhi = nlo + dim_;
    bool covered = true;
    for (size_t j = 0; j < dim_; ++j) {
      if (lo[j] < nlo[j]) {
        nlo[j] = lo[j];
        covered = false;
      }
      if (hi[j] > nhi[j]) {
        nhi[j] = hi[j];
        covered = false;
      }
    }
    // Parent bounds always cover child bounds, so the first ancestor that
    // already covers the expansion ends the walk.
    if (covered) return;
    node = tree->nodes[node].parent;
  }
}

void RegionIndex::Stab(const Vec& x, size_t bucket, bool other_buckets,
                       std::vector<size_t>* out) const {
  OPENAPI_CHECK_EQ(x.size(), dim_);
  // Per-thread scratch, reused: a stab allocates nothing in steady state.
  struct Pending {
    const Tree* tree;
    int32_t node;
  };
  thread_local std::vector<Pending> queue;
  thread_local std::vector<const Node*> leaves;
  queue.clear();
  leaves.clear();
  // Queuing a node prefetches both lines a test of it reads: its bounds
  // and the Node itself (the child links, or the leaf's payload pointer).
  auto enqueue = [this](const Tree* tree, int32_t id) {
    PrefetchRange(tree->bounds.data() + static_cast<size_t>(id) * 2 * dim_,
                  2 * dim_ * sizeof(double));
    PrefetchRange(&tree->nodes[id], sizeof(Node));
    queue.push_back(Pending{tree, id});
  };
  if (other_buckets) {
    for (const auto& [filed, forest] : forests_) {
      if (filed == bucket) continue;
      for (const auto& tree : forest) enqueue(tree.get(), 0);
    }
  } else if (auto it = forests_.find(bucket); it != forests_.end()) {
    for (const auto& tree : it->second) enqueue(tree.get(), 0);
  }
  // Breadth-first over every queued tree at once: the queue holds a whole
  // level of every tree before the next, so the prefetches for one tree's
  // children are in flight while the other trees' nodes are tested. A
  // depth-first walk of one tree at a time waits on each node's cache
  // miss before it can even name the next one.
  for (size_t head = 0; head < queue.size(); ++head) {
    const auto [tree, id] = queue[head];
    const double* nlo =
        tree->bounds.data() + static_cast<size_t>(id) * 2 * dim_;
    if (!BoxContains(nlo, nlo + dim_, x)) continue;
    const Node& node = tree->nodes[id];
    if (node.left == kNoNode) {
      if (!node.slots.empty()) {
        PrefetchRange(node.slots.data(), node.slots.size() * sizeof(uint32_t));
        leaves.push_back(&node);
      }
      continue;
    }
    enqueue(tree, node.left);
    enqueue(tree, node.right);
  }
  // Leaf payloads in two passes for the same reason: fetch every reached
  // slot's box, then test them.
  for (const Node* leaf : leaves) {
    for (uint32_t slot : leaf->slots) {
      PrefetchRange(EntryLo(slot), 2 * dim_ * sizeof(double));
    }
  }
  const size_t begin = out->size();
  for (const Node* leaf : leaves) {
    for (uint32_t slot : leaf->slots) {
      if (BoxContains(EntryLo(slot), EntryHi(slot), x)) out->push_back(slot);
    }
  }
  // One phase's candidates in ascending slot order, each once (a
  // boundary-spanning region is filed under several forests) and none
  // already returned by an earlier phase: the caller validates in this
  // order, so the lowest validating slot serves, whatever the trees'
  // shapes or the walk order.
  const auto first = out->begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, out->end());
  auto last = std::unique(first, out->end());
  last = std::remove_if(first, last, [out, first](size_t slot) {
    return std::find(out->begin(), first, slot) != first;
  });
  out->erase(last, out->end());
}

void RegionIndex::Collect(const Vec& x, size_t first_bucket,
                          std::vector<size_t>* out) const {
  CollectBucket(x, first_bucket, out);
  CollectRest(x, first_bucket, out);
}

void RegionIndex::CollectBucket(const Vec& x, size_t bucket,
                                std::vector<size_t>* out) const {
  Stab(x, bucket, /*other_buckets=*/false, out);
}

void RegionIndex::CollectRest(const Vec& x, size_t exclude_bucket,
                              std::vector<size_t>* out) const {
  Stab(x, exclude_bucket, /*other_buckets=*/true, out);
}

size_t RegionIndex::tree_count() const {
  size_t count = 0;
  for (const auto& [bucket, forest] : forests_) count += forest.size();
  return count;
}

size_t RegionIndex::node_count() const {
  size_t count = 0;
  for (const auto& [bucket, forest] : forests_) {
    for (const auto& tree : forest) count += tree->nodes.size();
  }
  return count;
}

void RegionIndex::CheckConsistent() const {
  // Every present entry is reachable exactly once per filed bucket, and
  // its location points at the leaf actually holding it.
  size_t present = 0;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& entry = entries_[slot];
    if (!entry.present) {
      OPENAPI_CHECK(entry.locations.empty());
      continue;
    }
    ++present;
    for (const Location& loc : entry.locations) {
      const Node& leaf = loc.tree->nodes[loc.node];
      OPENAPI_CHECK(leaf.left == kNoNode);
      OPENAPI_CHECK(std::count(leaf.slots.begin(), leaf.slots.end(),
                               static_cast<uint32_t>(slot)) == 1);
      // No duplicate bucket filings.
      OPENAPI_CHECK(std::count_if(entry.locations.begin(),
                                  entry.locations.end(),
                                  [&loc](const Location& other) {
                                    return other.bucket == loc.bucket;
                                  }) == 1);
    }
  }
  OPENAPI_CHECK_EQ(present, live_);
  for (const auto& [bucket, forest] : forests_) {
    OPENAPI_CHECK(!forest.empty());
    for (const auto& tree : forest) {
      size_t stored = 0;
      OPENAPI_CHECK_EQ(tree->bounds.size(), tree->nodes.size() * 2 * dim_);
      for (size_t id = 0; id < tree->nodes.size(); ++id) {
        const Node& node = tree->nodes[id];
        const double* nlo = tree->bounds.data() + id * 2 * dim_;
        const double* nhi = nlo + dim_;
        if (node.left == kNoNode) {
          OPENAPI_CHECK(node.right == kNoNode);
          stored += node.slots.size();
          for (uint32_t slot : node.slots) {
            const Entry& entry = entries_[slot];
            OPENAPI_CHECK(entry.present);
            // Node bounds cover their payload (stab soundness).
            for (size_t j = 0; j < dim_; ++j) {
              OPENAPI_CHECK_LE(nlo[j], EntryLo(slot)[j]);
              OPENAPI_CHECK_GE(nhi[j], EntryHi(slot)[j]);
            }
            const bool located = std::any_of(
                entry.locations.begin(), entry.locations.end(),
                [&](const Location& loc) {
                  return loc.bucket == bucket && loc.tree == tree.get() &&
                         loc.node == static_cast<int32_t>(id);
                });
            OPENAPI_CHECK(located);
          }
        } else {
          for (int32_t child : {node.left, node.right}) {
            const Node& c = tree->nodes[child];
            const double* clo =
                tree->bounds.data() + static_cast<size_t>(child) * 2 * dim_;
            OPENAPI_CHECK_EQ(c.parent, static_cast<int32_t>(id));
            for (size_t j = 0; j < dim_; ++j) {
              OPENAPI_CHECK_LE(nlo[j], clo[j]);
              OPENAPI_CHECK_GE(nhi[j], clo[dim_ + j]);
            }
          }
        }
      }
      OPENAPI_CHECK_EQ(stored, tree->live);
      OPENAPI_CHECK_LE(tree->live, tree->built);
    }
  }
}

}  // namespace openapi::interpret
