#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Keeps the probe's result alive, so the compiler cannot drop its work.
volatile uint64_t probe_sink = 0;

int64_t TimeProbeOnce() {
  constexpr size_t kKeys = 8192;
  // Room for every node, bucket array and string the probe makes (about
  // 0.57 MB).
  alignas(64) static std::byte arena[1 << 20];
  const auto start = std::chrono::steady_clock::now();
  std::pmr::monotonic_buffer_resource pool(arena, sizeof(arena),
                                           std::pmr::null_memory_resource());
  uint64_t state = 42;
  std::pmr::vector<uint64_t> keys(kKeys, &pool);
  for (uint64_t& k : keys) k = SplitMix(&state);
  std::pmr::unordered_map<uint64_t, uint32_t> map(&pool);
  for (size_t i = 0; i < kKeys; ++i) {
    map.emplace(keys[i], static_cast<uint32_t>(i));
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < 2 * kKeys; ++i) {
    auto it = map.find(keys[(i * 7919) % kKeys] ^ (i & 1));
    if (it != map.end()) sum += it->second;
  }
  std::sort(keys.begin(), keys.end());
  std::pmr::vector<std::pmr::string> words(&pool);
  words.reserve(kKeys / 4);
  char buf[48];
  for (size_t i = 0; i < kKeys / 4; ++i) {
    std::snprintf(buf, sizeof(buf), "<http://x/%llu>",
                  static_cast<unsigned long long>(keys[i]));
    words.emplace_back(buf);
  }
  std::sort(words.begin(), words.end());
  for (const std::pmr::string& w : words) {
    sum += std::hash<std::string_view>()(w);
  }
  probe_sink = sum + keys[kKeys / 2];
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int64_t ProbeHost() {
  (void)TimeProbeOnce();
  return TimeProbeOnce();
}

double HostSpeed::ScaleAt(const std::vector<int64_t>& probe_ns,
                          size_t every, size_t i) {
  if (probe_ns.empty()) return 1.0;
  const size_t gap = i / std::max<size_t>(every, 1);  // probes gap, gap + 1
  const size_t lo = std::min(gap + 1 >= kWindow ? gap + 1 - kWindow : 0,
                             probe_ns.size() - 1);
  const size_t hi = std::min(probe_ns.size(), gap + 1 + kWindow);
  return ScaleFor(std::vector<int64_t>(
      probe_ns.begin() + static_cast<long>(lo),
      probe_ns.begin() + static_cast<long>(hi)));
}

double ScaleFor(std::vector<int64_t> probe_ns) {
  if (probe_ns.empty()) return 1.0;
  std::sort(probe_ns.begin(), probe_ns.end());
  const size_t n = probe_ns.size();
  const double median =
      n % 2 == 1
          ? static_cast<double>(probe_ns[n / 2])
          : 0.5 * static_cast<double>(probe_ns[n / 2 - 1] + probe_ns[n / 2]);
  return kProbeReferenceNs / median;
}

}  // namespace perfbench
