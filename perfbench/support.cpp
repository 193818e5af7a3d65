#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ctime>

namespace perfbench {

namespace {

/// The percentile rule on `n` sorted samples: the highest percentile not
/// above `want` with at least 10 samples beyond its nearest rank. Sets
/// tail.percentile and returns the 1-based rank, or 0 when no percentile
/// qualifies.
std::size_t honoured_rank(std::size_t n, double want, Tail& tail) {
  tail.count = n;
  const auto rank_of = [n](double p) {
    return static_cast<std::size_t>(std::max(1.0, std::ceil(p * static_cast<double>(n) - 1e-9)));
  };
  if (n >= 10 && n - rank_of(want) >= 10) {
    tail.percentile = want;
    return rank_of(want);
  }
  for (const double p : kFallbackPercentiles) {
    if (p < want && n >= 10 && n - rank_of(p) >= 10) {
      tail.percentile = p;
      return rank_of(p);
    }
  }
  return 0;
}

}  // namespace

Tail tail_percentile(std::vector<double> samples, double want) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = honoured_rank(samples.size(), want, tail);
  tail.value = rank > 0 ? samples[rank - 1] : samples.back();  // too few: the largest
  return tail;
}

std::size_t Histogram::bucket(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  if (v < (1ull << kSubBits)) return static_cast<std::size_t>(v);
  const unsigned shift = 63u - static_cast<unsigned>(__builtin_clzll(v)) - kSubBits;
  const std::size_t b = ((shift + 1) << kSubBits) + static_cast<std::size_t>(v >> shift) -
                        (std::size_t{1} << kSubBits);
  return std::min(b, kBuckets - 1);
}

std::uint64_t Histogram::low_ns(std::size_t b) {
  if (b < (std::size_t{1} << kSubBits)) return b;
  const std::uint64_t mantissa =
      (b & ((std::size_t{1} << kSubBits) - 1)) | (std::size_t{1} << kSubBits);
  return mantissa << ((b >> kSubBits) - 1);
}

std::uint64_t Histogram::width_ns(std::size_t b) {
  return b < (std::size_t{1} << kSubBits) ? 1 : std::uint64_t{1} << ((b >> kSubBits) - 1);
}

void Histogram::add(std::int64_t ns) {
  ++counts_[bucket(ns)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  count_ = 0;
}

Tail Histogram::percentile_us(double want) const {
  Tail tail;
  if (count_ == 0) return tail;
  std::size_t rank = honoured_rank(count_, want, tail);
  if (rank == 0) rank = count_;  // too few: the largest
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (below + counts_[b] >= rank) {
      const double within = (static_cast<double>(rank - below) - 0.5) / counts_[b];
      tail.value =
          (static_cast<double>(low_ns(b)) + within * static_cast<double>(width_ns(b))) / 1e3;
      break;
    }
    below += counts_[b];
  }
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()) - 1e-9)));
  return values[std::min(rank, values.size()) - 1];
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + a + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> list;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return list;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) list.push_back(cpu);
    return list;
  }();
  return cpus;
}

int pin_current_thread(std::size_t slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return -1;
  const int cpu = cpus[slot % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0 ? cpu : -1;
}

ScopedPin::ScopedPin(std::size_t slot) {
  CPU_ZERO(&saved_);
  restore_ = pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) == 0;
  pin_current_thread(slot);
}

ScopedPin::~ScopedPin() {
  if (restore_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

namespace {
double clock_seconds(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_seconds(pthread_t thread) {
  clockid_t id;
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  return clock_seconds(id);
}

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void store_be(std::byte* at, std::uint64_t value, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    at[i] = static_cast<std::byte>((value >> (8 * (bytes - 1 - i))) & 0xff);
}

std::uint64_t load_be(const std::byte* at, std::size_t bytes) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < bytes; ++i) value = (value << 8) | std::to_integer<std::uint64_t>(at[i]);
  return value;
}

std::int64_t load_be_signed(const std::byte* at, std::size_t bytes) {
  const std::uint64_t raw = load_be(at, bytes);
  if (bytes == 8) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign = 1ull << (8 * bytes - 1);
  return static_cast<std::int64_t>((raw ^ sign) - sign);
}

}  // namespace perfbench
