#pragma once

/// \file parallel.hpp
/// Minimal dynamically chunked parallel-for over an index range.
///
/// The per-node stages (local MDS + unit-ball test) are embarrassingly
/// parallel and read-only over shared state, but their per-index cost is
/// skewed and clustered: the ball test walks nodes in spatial order
/// (`net::Network::spatial_order`), where the expensive boundary nodes sit
/// in runs of cells along the surface, and in sampling id order the
/// surface nodes come first. Workers therefore claim small fixed-size
/// chunks from one atomic counter instead of owning a contiguous quarter
/// each — no pools, no per-worker queues.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ballfit {

/// Indices per chunk `parallel_for` hands out: about 16 chunks per worker,
/// at most 64 indices each, at least 1. A pure function of its arguments,
/// so the chunk boundaries never depend on timing.
inline std::size_t parallel_chunk_size(std::size_t count, unsigned threads) {
  const std::size_t per = count / (16 * static_cast<std::size_t>(threads));
  return std::clamp<std::size_t>(per, 1, 64);
}

/// Invokes `fn(i)` for every i in [0, count). With `threads <= 1` (or a
/// range under two indices per thread) runs inline. Otherwise the range is
/// cut into chunks of `parallel_chunk_size(count, threads)` indices and
/// min(threads, #chunks) workers are spawned: worker t first runs chunk t,
/// then claims the next unclaimed chunk from a shared counter until none
/// is left. Every spawned worker thus runs at least one chunk, and an
/// expensive stretch of indices is spread over all workers instead of
/// landing in one worker's block. `fn` must be safe to call concurrently on
/// distinct indices; which worker runs an index is timing-dependent, so
/// `fn` should write only per-index outputs.
///
/// Exception-safe: if `fn` throws on a worker, the first exception is
/// captured and rethrown on the joining thread (a throw that escaped a
/// worker would call std::terminate). The remaining workers stop at their
/// next index and claim no further chunks, so not every index is
/// necessarily visited after a failure.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, unsigned threads) {
  if (threads <= 1 || count < 2 * static_cast<std::size_t>(threads)) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const std::size_t chunk = parallel_chunk_size(count, threads);
  const std::size_t chunks = (count + chunk - 1) / chunk;
  const auto spawned =
      static_cast<unsigned>(std::min<std::size_t>(threads, chunks));
  std::atomic<std::size_t> next_chunk{spawned};  // chunks [0, spawned) seeded
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(spawned);
  for (unsigned t = 0; t < spawned; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t c = t; c < chunks;
             c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
          const std::size_t end = std::min(count, (c + 1) * chunk);
          for (std::size_t i = c * chunk; i < end; ++i) {
            if (failed.load(std::memory_order_relaxed)) return;
            fn(i);
          }
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error == nullptr) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

/// The default worker count: hardware concurrency, at least 1.
unsigned default_threads();

}  // namespace ballfit
