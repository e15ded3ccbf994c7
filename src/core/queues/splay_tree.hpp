// Bottom-up splay tree keyed by (time, seq) — amortized O(log n) with strong
// locality: repeated near-minimum access (the DES common case) is nearly O(1)
// because pops splay the successor to the root.
//
// Splay trees were the structure of choice in several classic simulation
// kernels (e.g. the Sleator/Tarjan queue used by early versions of ns).
#pragma once

#include <cstddef>

#include "core/event_queue.hpp"

namespace lsds::core {

class SplayTreeQueue final : public EventQueue {
 public:
  SplayTreeQueue() = default;
  ~SplayTreeQueue() override;

  SplayTreeQueue(const SplayTreeQueue&) = delete;
  SplayTreeQueue& operator=(const SplayTreeQueue&) = delete;

  void push(EventRecord ev) override;
  EventRecord pop() override;
  SimTime min_time() override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "splay-tree"; }

 private:
  struct Node {
    EventRecord ev;
    Node* left = nullptr;
    Node* right = nullptr;
    Node* parent = nullptr;
  };

  void rotate(Node* x);
  void splay(Node* x);
  Node* leftmost(Node* n) const;
  void free_subtree(Node* n);

  Node* root_ = nullptr;
  Node* min_ = nullptr;  // cached leftmost node for O(1) min_time
  std::size_t size_ = 0;
};

}  // namespace lsds::core
