// tca_analyze fixture: the canonical CAS idioms — dual orders, the
// retry loop reuses the updated expected value (the in-tree exemplar is
// runtime/fault.cpp consume()).
// NOT compiled by CMake.
#include <atomic>

std::atomic<unsigned long> word{0};

void merge(unsigned long bits) {
  unsigned long cur = word.load(std::memory_order_relaxed);
  while (!word.compare_exchange_weak(cur, cur | bits,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

bool consume_one() {
  unsigned long left = word.load(std::memory_order_relaxed);
  for (;;) {
    if (left == 0) return false;
    const unsigned long next = left - 1;
    if (word.compare_exchange_weak(left, next, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return next == 0;
    }
  }
}
