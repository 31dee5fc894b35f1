#include "util/threading.hpp"

#include <vector>

#include "util/assert.hpp"

namespace duo::util {

std::size_t resolve_threads(std::size_t requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  DUO_EXPECTS(n > 0);
  SpinBarrier barrier(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      barrier.arrive_and_wait();
      body(i);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace duo::util
