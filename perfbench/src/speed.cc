#include "speed.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <queue>
#include <random>
#include <thread>
#include <unordered_map>

#include "spans.h"

namespace perfbench {
namespace {

constexpr int kPasses = 3;
constexpr std::size_t kTableWords = 1 << 16;  // 256 KiB: L2-sized

// Where the kernel's checksums go, so that its work cannot be dropped.
std::atomic<std::uint64_t> checksum_sink{0};

/// A random cycle through the table's slots, the same on every call.
const std::vector<std::uint32_t>& Cycle() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> order(kTableWords);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin() + 1, order.end(), std::mt19937(7));
    std::vector<std::uint32_t> cycle(kTableWords);
    for (std::size_t i = 0; i < kTableWords; ++i) cycle[order[i]] = order[(i + 1) % kTableWords];
    return cycle;
  }();
  return next;
}

/// One pass of the kernel; returns a checksum.  Three parts, because
/// no one of them slows down like the program does when the host does:
/// a scatter over the table, a binary heap and decimal formatting and
/// parsing (throughput-bound); a chase of dependent loads around the
/// cycle with a data-dependent branch (latency-bound); and node-based
/// ordered and hashed maps (allocation and pointer chasing).
std::uint64_t KernelPass(std::vector<std::uint32_t>& table) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum = 0;
  std::priority_queue<std::uint64_t> heap;
  char text[32];
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (kTableWords - 1)] += static_cast<std::uint32_t>(x >> 32);
    sum += table[(x >> 20) & (kTableWords - 1)];
    heap.push(x >> 8);
    if (heap.size() > 256) heap.pop();
    if ((i & 3) == 0) {
      const int len =
          std::snprintf(text, sizeof(text), "%llu", static_cast<unsigned long long>(x >> 24));
      sum += std::strtoull(text, nullptr, 10) + static_cast<std::uint64_t>(len);
    }
  }
  sum += heap.top();

  const std::vector<std::uint32_t>& next = Cycle();
  std::uint32_t at = 0;
  for (int i = 0; i < 60000; ++i) {
    at = next[at];
    if (at & 1) {
      sum += at;
    } else {
      sum ^= static_cast<std::uint64_t>(at) << 1;
    }
  }

  std::map<std::uint32_t, std::uint32_t> ordered;
  std::unordered_map<std::uint32_t, std::uint32_t> hashed;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ordered[static_cast<std::uint32_t>(x) & 0xfff] += 1;
    hashed[static_cast<std::uint32_t>(x >> 12) & 0x3fff] += 2;
    const auto it = ordered.lower_bound(static_cast<std::uint32_t>(x >> 40) & 0xfff);
    if (it != ordered.end()) sum += it->second;
    sum += hashed.count(static_cast<std::uint32_t>(x >> 30) & 0x3fff);
  }
  return sum + ordered.size() + hashed.size();
}

/// The median pass time in ms on the calling thread, after moving it to
/// `cpu` (-1: stay).
double ProbeHere(int cpu) {
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  std::vector<std::uint32_t> table(kTableWords);
  std::vector<double> ms;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::int64_t start = SpanRecorder::NowNs();
    checksum_sink.fetch_add(KernelPass(table), std::memory_order_relaxed);
    ms.push_back(static_cast<double>(SpanRecorder::NowNs() - start) / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[kPasses / 2];
}

}  // namespace

double ProbeMs(const std::vector<int>& cpus) {
  Cycle();  // built once, outside every timed pass
  const std::vector<int> where = cpus.empty() ? std::vector<int>{-1} : cpus;
  std::vector<double> ms(where.size(), 0.0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < where.size(); ++k) {
    threads.emplace_back([&ms, &where, k] { ms[k] = ProbeHere(where[k]); });
  }
  for (std::thread& thread : threads) thread.join();
  double total = 0.0;
  for (const double value : ms) total += value;
  return total / static_cast<double>(ms.size());
}

}  // namespace perfbench
