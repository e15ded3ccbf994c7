#include "core/queues/splay_tree.hpp"

namespace lsds::core {

SplayTreeQueue::~SplayTreeQueue() { free_subtree(root_); }

void SplayTreeQueue::free_subtree(Node* n) {
  // Iterative teardown: recursion could overflow on degenerate trees.
  Node* cur = n;
  while (cur) {
    if (cur->left) {
      cur = cur->left;
    } else if (cur->right) {
      cur = cur->right;
    } else {
      Node* parent = cur->parent;
      if (parent) {
        if (parent->left == cur)
          parent->left = nullptr;
        else
          parent->right = nullptr;
      }
      delete cur;
      cur = parent;
    }
  }
}

void SplayTreeQueue::rotate(Node* x) {
  Node* p = x->parent;
  Node* g = p->parent;
  if (p->left == x) {
    p->left = x->right;
    if (x->right) x->right->parent = p;
    x->right = p;
  } else {
    p->right = x->left;
    if (x->left) x->left->parent = p;
    x->left = p;
  }
  p->parent = x;
  x->parent = g;
  if (g) {
    if (g->left == p)
      g->left = x;
    else
      g->right = x;
  } else {
    root_ = x;
  }
}

void SplayTreeQueue::splay(Node* x) {
  while (x->parent) {
    Node* p = x->parent;
    Node* g = p->parent;
    if (g) {
      // zig-zig vs zig-zag
      const bool x_left = (p->left == x);
      const bool p_left = (g->left == p);
      if (x_left == p_left) {
        rotate(p);  // zig-zig: rotate parent first
        rotate(x);
      } else {
        rotate(x);  // zig-zag: rotate x twice
        rotate(x);
      }
    } else {
      rotate(x);  // zig
    }
  }
}

SplayTreeQueue::Node* SplayTreeQueue::leftmost(Node* n) const {
  while (n && n->left) n = n->left;
  return n;
}

void SplayTreeQueue::push(EventRecord ev) {
  Node* node = new Node{ev};
  if (!root_) {
    root_ = min_ = node;
    size_ = 1;
    return;
  }
  Node* cur = root_;
  for (;;) {
    if (node->ev < cur->ev) {
      if (!cur->left) {
        cur->left = node;
        node->parent = cur;
        break;
      }
      cur = cur->left;
    } else {
      if (!cur->right) {
        cur->right = node;
        node->parent = cur;
        break;
      }
      cur = cur->right;
    }
  }
  if (node->ev < min_->ev) min_ = node;
  splay(node);
  ++size_;
}

EventRecord SplayTreeQueue::pop() {
  Node* m = min_;
  const EventRecord ev = m->ev;
  splay(m);  // bring the minimum to the root; it has no left child there
  Node* right = m->right;
  if (right) right->parent = nullptr;
  root_ = right;
  delete m;
  --size_;
  min_ = leftmost(root_);
  return ev;
}

SimTime SplayTreeQueue::min_time() { return min_ ? min_->ev.time : kInfTime; }

}  // namespace lsds::core
