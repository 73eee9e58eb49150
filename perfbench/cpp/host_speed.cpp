#include "host_speed.hpp"

#include <algorithm>
#include <memory>
#include <memory_resource>
#include <string>
#include <unordered_map>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// A random cyclic permutation of 2^15 slots (128 KiB, cache-resident once
/// warm), walked for load latency; built once.
const std::vector<u32>& ring() {
  static const std::vector<u32> slots = [] {
    std::vector<u32> v(1u << 15);
    for (u32 i = 0; i < v.size(); ++i) v[i] = i;
    u64 state = 7;
    for (u32 i = static_cast<u32>(v.size()) - 1; i > 0; --i) {
      std::swap(v[i], v[vgbl::splitmix64(state) % i]);
    }
    return v;
  }();
  return slots;
}

volatile u64 g_sink = 0;

/// One pass of the reference work; returns its wall time in ms. Every
/// allocation comes from a fixed buffer, so the program's heap state
/// cannot change the reference's speed.
f64 reference_pass() {
  const std::vector<u32>& slots = ring();
  // About 0.6 MiB is used; pages past that are never touched.
  constexpr size_t kArenaBytes = size_t{2} << 20;
  static const std::unique_ptr<std::byte[]> arena(new std::byte[kArenaBytes]);
  std::pmr::monotonic_buffer_resource pool(arena.get(), kArenaBytes,
                                           std::pmr::null_memory_resource());
  const i64 t0 = now_us();
  u64 state = 12345;
  u64 acc = 0;
  // Hash-map inserts and lookups (allocation, hashing).
  std::pmr::unordered_map<u64, u64> map(&pool);
  for (int i = 0; i < 8000; ++i) map[vgbl::splitmix64(state) & 0x3FFF] += i;
  for (int i = 0; i < 60000; ++i) {
    auto it = map.find(vgbl::splitmix64(state) & 0x3FFF);
    if (it != map.end()) acc += it->second;
  }
  // Small strings built and sorted (allocation, branchy compares).
  std::pmr::vector<std::pmr::string> words(&pool);
  words.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    words.emplace_back("student-" + std::to_string(vgbl::splitmix64(state) % 100000000));
  }
  std::sort(words.begin(), words.end());
  acc += words[17].size();
  // Dependent loads around the ring (load latency).
  u32 p = 0;
  for (int i = 0; i < 200000; ++i) p = slots[p];
  acc += p;
  // Integer multiply-accumulate over an 8x8 block (arithmetic).
  i64 block[64];
  for (i64& v : block) v = static_cast<i64>(vgbl::splitmix64(state) & 255);
  for (int r = 0; r < 6000; ++r) {
    for (int u = 0; u < 8; ++u) {
      i64 a = 0;
      for (int x = 0; x < 8; ++x) a += block[u * 8 + x] * ((x * u + r) & 15);
      block[u * 8 + (r & 7)] = a >> 4;
    }
    acc += static_cast<u64>(block[r & 63]);
  }
  g_sink = acc;
  return static_cast<f64>(now_us() - t0) / 1000.0;
}

}  // namespace

HostSpeed::HostSpeed() { sample(); }

void HostSpeed::sample() {
  // One untimed pass brings the ring and the arena back into cache after a
  // rep; the sample is the mean of the timed passes.
  constexpr int kPasses = 4;
  (void)reference_pass();
  f64 total = 0;
  for (int i = 0; i < kPasses; ++i) total += reference_pass();
  ms_.push_back(total / kPasses);
}

f64 HostSpeed::reference_ms() const { return median(ms_); }

f64 HostSpeed::slowdown_of(const std::vector<f64>& reference_ms) {
  const f64 ms = median(reference_ms);
  return ms > 0 ? ms / kReferenceMs : 1.0;
}

std::string HostSpeed::note() const {
  const auto [lo, hi] = std::minmax_element(ms_.begin(), ms_.end());
  return "host reference: median " + fixed(reference_ms(), 3) + " ms (" +
         fixed(*lo, 3) + "-" + fixed(*hi, 3) + ", " + std::to_string(ms_.size()) +
         " samples between reps) against " + fixed(kReferenceMs, 1) +
         " ms at the reference speed: slowdown " + fixed(slowdown(), 3);
}

}  // namespace perfbench
