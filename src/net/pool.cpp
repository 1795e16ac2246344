#include "net/pool.hpp"

#include <array>

#include "net/message.hpp"
#include "util/lane.hpp"

namespace deep::net {

namespace detail {
// A parked Message, linked into its home pool's free list while unused.
struct MessageSlot {
  Message msg;
  MessageSlot* next_free = nullptr;
  MessagePool* home = nullptr;
};
}  // namespace detail

// The pools are intentionally leaked (never-destroyed heap singletons):
// pooled Message slots hold Payloads, so tearing the pools down in static
// destruction order would have one pool's destructor call into the other's
// already-destroyed instance.  LeakSanitizer treats memory reachable from a
// static as "still reachable", not a leak.
//
// One pool per (session, lane) shard.  The lane discipline (one thread
// drives a lane at a time — util/lane.hpp) makes each pool's free list
// effectively single-threaded within a session, and distinct sessions
// resolve to disjoint shards, so concurrent in-process simulations never
// share a free list (docs/service.md).  The CAS below only guards first-use
// creation so that even a caller violating the discipline cannot corrupt
// the slot table.

namespace {

template <typename PoolT>
PoolT& lane_pool() {
  static std::array<std::atomic<PoolT*>,
                    util::kMaxSessions * util::kMaxLanes>
      slots{};
  std::atomic<PoolT*>& slot = slots[util::pool_shard()];
  PoolT* pool = slot.load(std::memory_order_acquire);
  if (pool == nullptr) {
    auto* fresh = new PoolT();
    if (slot.compare_exchange_strong(pool, fresh, std::memory_order_acq_rel))
      return *fresh;
    delete fresh;  // lost a (contract-violating) race; use the winner
  }
  return *pool;
}

}  // namespace

BufferPool& BufferPool::instance() { return lane_pool<BufferPool>(); }

detail::Buffer* BufferPool::acquire(std::size_t size) {
  detail::Buffer*& head = size > kSmallCapacity ? large_free_ : small_free_;
  // Adopt what foreign lanes returned before growing the pool.
  if (head == nullptr)
    returned_.drain([this](detail::Buffer* b) { push_free(b); });
  detail::Buffer* buf = head;
  if (buf != nullptr) {
    head = buf->next_free;
    buf->next_free = nullptr;
    --free_count_;
  } else {
    all_.push_back(std::make_unique<detail::Buffer>());
    buf = all_.back().get();
    buf->home = this;
  }
  // Growing is the only allocation a warm pool ever performs; clearing
  // first makes the new capacity exactly `size`, so a small buffer never
  // grows past kSmallCapacity.
  if (buf->bytes.capacity() < size) buf->bytes.clear();
  buf->bytes.resize(size);
  buf->refs.store(1, std::memory_order_relaxed);
  return buf;
}

void BufferPool::release(detail::Buffer* buffer) {
  if (buffer->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (buffer->home == this)
    push_free(buffer);
  else
    buffer->home->returned_.push(buffer);
}

void BufferPool::push_free(detail::Buffer* buffer) {
  detail::Buffer*& head =
      buffer->bytes.capacity() > kSmallCapacity ? large_free_ : small_free_;
  buffer->next_free = head;
  head = buffer;
  ++free_count_;
}

std::size_t BufferPool::total_capacity() const {
  std::size_t bytes = 0;
  for (const auto& b : all_) bytes += b->bytes.capacity();
  return bytes;
}

MessagePool& MessagePool::instance() { return lane_pool<MessagePool>(); }

detail::MessageSlot* MessagePool::acquire() {
  if (free_head_ == nullptr)
    returned_.drain([this](detail::MessageSlot* s) { push_free(s); });
  detail::MessageSlot* slot = free_head_;
  if (slot != nullptr) {
    free_head_ = slot->next_free;
    slot->next_free = nullptr;
    --free_count_;
    return slot;
  }
  all_.push_back(std::make_unique<detail::MessageSlot>());
  slot = all_.back().get();
  slot->home = this;
  return slot;
}

void MessagePool::release(detail::MessageSlot* slot) {
  slot->msg.header.emplace<std::monostate>();
  slot->msg.payload.reset();  // return the buffer now, not at next reuse
  if (slot->home == this)
    push_free(slot);
  else
    slot->home->returned_.push(slot);
}

void MessagePool::push_free(detail::MessageSlot* slot) {
  slot->next_free = free_head_;
  free_head_ = slot;
  ++free_count_;
}

PooledMessage::PooledMessage(Message&& msg)
    : slot_(MessagePool::instance().acquire()) {
  slot_->msg = std::move(msg);
}

Message&& PooledMessage::take() { return static_cast<Message&&>(slot_->msg); }

void PooledMessage::reset() {
  if (slot_ != nullptr) {
    MessagePool::instance().release(slot_);
    slot_ = nullptr;
  }
}

}  // namespace deep::net
