// Shared pieces of the repository benchmark: options, the result line,
// percentile and seeded-hash helpers, CPU pinning and process/thread
// resource readings. Nothing here touches the system under test.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One named number of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload run hands back to main(): the metrics of the mode it
/// ran in plus the correctness ledger.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  // operations checked (frames due, cluster runs)
  std::uint64_t failed = 0;     // of those, failed (see README: failure kinds)
  std::vector<std::string> errors;  // failed correctness checks; any entry fails the run
  std::vector<Metric> notes;  // printed with the metrics, not part of the result line

  void note(std::string name, std::string unit, double value) {
    notes.push_back({std::move(name), std::move(unit), value});
  }

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void error(std::string what) { errors.push_back(std::move(what)); }
};

/// Percentile reporting rule: the highest percentile not above the one
/// asked for that still has at least 10 samples beyond it, with the
/// sample count. Nearest-rank on a sorted copy.
struct Tail {
  double percentile = 0.0;  // the percentile actually reported, in (0, 1)
  double value = 0.0;
  std::size_t count = 0;
};
/// The percentiles tried, highest first, when `want` cannot be honoured.
inline constexpr double kFallbackPercentiles[] = {0.999, 0.99, 0.9, 0.5};
Tail tail_percentile(std::vector<double> samples, double want);

/// Log-linear histogram of non-negative nanosecond values: exact below
/// 2^kSubBits ns, then 2^kSubBits buckets per power of two (under 0.8 %
/// relative width), saturating at about 8.6 s. Fixed size, so recording
/// costs no memory that grows with the run. percentile_us() applies the
/// same rule as tail_percentile() and places the rank linearly inside its
/// bucket, in us.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& other);
  void clear();
  std::uint64_t count() const { return count_; }
  Tail percentile_us(double want) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kBuckets = (34 - kSubBits) << kSubBits;
  static std::size_t bucket(std::int64_t ns);
  static std::uint64_t low_ns(std::size_t bucket);
  static std::uint64_t width_ns(std::size_t bucket);

  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
};

double median(std::vector<double> values);
/// Nearest-rank `q`-quantile of `values`, 0 < q <= 1; 0 when empty.
double quantile(std::vector<double> values, double q);

/// splitmix64 finaliser over (seed, a): the benchmark's only source of
/// seeded variation, pure so the generator and the egress checker agree.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a);

/// CPUs this process may run on, in order, as of the first call.
const std::vector<int>& allowed_cpus();
/// Pin the calling thread to allowed_cpus()[slot % size]. Returns the
/// CPU id, or -1 when pinning failed (the run continues unpinned).
int pin_current_thread(std::size_t slot);

/// Pins the calling thread to allowed_cpus()[slot % size] while it
/// lives and gives the thread its previous CPUs back after. Repeated
/// timings rotate over the CPUs with it: on a shared host one virtual CPU
/// can run a third slower than another for seconds at a time.
class ScopedPin {
 public:
  explicit ScopedPin(std::size_t slot);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// CPU seconds consumed so far by `thread` (any thread of this process).
double thread_cpu_seconds(pthread_t thread);
/// CPU seconds consumed so far by the whole process.
double process_cpu_seconds();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Big-endian field access at a byte offset (the wire codec's order).
void store_be(std::byte* at, std::uint64_t value, std::size_t bytes);
std::uint64_t load_be(const std::byte* at, std::size_t bytes);
std::int64_t load_be_signed(const std::byte* at, std::size_t bytes);

}  // namespace perfbench
