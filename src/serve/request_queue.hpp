// BoundedQueue — a small bounded MPMC queue for the serving engine.
//
// The queue is the overload boundary of the worker-pool serving engine
// (serve/serve_engine.hpp): producers either shed on a full queue
// (try_push, the daemon posture — the caller answers the request with the
// rejected_overload floor instead of letting latency grow without bound)
// or block for space (push, the batch-replay posture, where backpressure
// beats shedding because the producer is a file, not a tenant).
//
// close() is the drain protocol: producers are refused from that point on,
// consumers keep draining until the queue is empty and only then observe
// end-of-stream (pop() -> nullopt). That ordering is what makes engine
// shutdown graceful — every request that made it into the queue is served.
//
// Plain mutex + two condition variables, deliberately: even a memoised
// store hit behind this queue fingerprints a multi-hundred-kernel program
// and copies its plan (tens of microseconds), so queue transfer cost is
// noise and the simple, obviously-correct structure wins (it is also what
// ThreadSanitizer can reason about precisely — this file is on the
// tsan-serve CI wall).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

namespace kf {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Non-blocking enqueue: false when the queue is full or closed, in which
  /// case `item` is left untouched (the caller still owns it and typically
  /// answers it with the overload floor).
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      peak_ = std::max(peak_, items_.size());
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking enqueue: waits for space. False only when the queue was
  /// closed (item left untouched) — the producer's signal to stop.
  bool push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
      peak_ = std::max(peak_, items_.size());
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue: an item, or nullopt once the queue is closed AND
  /// drained. Closing never drops queued work.
  std::optional<T> pop() {
    std::optional<T> out;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;  // closed and drained
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Refuse new producers; wake everyone so consumers can drain to
  /// end-of-stream and blocked producers can give up. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// High-water mark of queued items over the queue's lifetime.
  std::size_t peak_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t peak_ = 0;
  bool closed_ = false;
};

}  // namespace kf
