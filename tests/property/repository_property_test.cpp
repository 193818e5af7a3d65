// Repository invariants under random operation sequences:
//  * event elements: fetched + queued + overflowed == stored (exactly-once,
//    nothing invented, nothing lost silently);
//  * event FIFO order preserved;
//  * state elements: fetch returns the most recent store, and only while
//    temporally accurate;
//  * horizon is exactly t_update + d_acc - now for a single element.
#include <gtest/gtest.h>

#include "core/repository.hpp"
#include "util/rng.hpp"

namespace decos::core {
namespace {

using namespace decos::literals;

class RepositoryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepositoryProperty, EventAccounting) {
  Rng rng{GetParam()};
  Repository repo;
  const std::size_t capacity = static_cast<std::size_t>(rng.uniform_int(1, 8));
  repo.declare(ElementDecl{"e", spec::InfoSemantics::kEvent, 50_ms, capacity});

  std::uint64_t stored_ok = 0;
  std::uint64_t fetched = 0;
  std::int64_t next_expected = 0;  // FIFO check
  std::int64_t next_value = 0;
  Instant now = Instant::origin();

  for (int op = 0; op < 2000; ++op) {
    now += Duration::microseconds(rng.uniform_int(1, 100));
    if (rng.bernoulli(0.55)) {
      ElementInstance inst;
      inst.set_field("seq", ta::Value{next_value++});
      if (repo.store("e", std::move(inst), now)) ++stored_ok;
    } else if (auto fetched_inst = repo.fetch("e", now)) {
      ++fetched;
      const std::int64_t seq = fetched_inst->field("seq")->as_int();
      EXPECT_GE(seq, next_expected);  // order preserved, drops only at tail
      next_expected = seq + 1;
    }
    ASSERT_LE(repo.queue_depth("e"), capacity);
  }
  EXPECT_EQ(fetched + repo.queue_depth("e"), stored_ok);
  EXPECT_EQ(stored_ok + repo.overflows(), static_cast<std::uint64_t>(next_value));
}

TEST_P(RepositoryProperty, StateFreshnessAndAccuracy) {
  Rng rng{GetParam() + 1000};
  Repository repo;
  const Duration d_acc = Duration::milliseconds(rng.uniform_int(5, 100));
  repo.declare(ElementDecl{"s", spec::InfoSemantics::kState, d_acc, 1});

  Instant now = Instant::origin();
  Instant last_store = Instant::origin() - 1_s;
  std::int64_t last_value = -1;

  for (int op = 0; op < 2000; ++op) {
    now += Duration::microseconds(rng.uniform_int(10, 20000));
    if (rng.bernoulli(0.4)) {
      ElementInstance inst;
      inst.set_field("v", ta::Value{op});
      repo.store("s", std::move(inst), now);
      last_store = now;
      last_value = op;
    } else {
      const bool accurate = last_value >= 0 && now < last_store + d_acc;
      EXPECT_EQ(repo.temporally_accurate("s", now), accurate);
      EXPECT_EQ(repo.available("s", now), accurate);
      auto fetched = repo.fetch("s", now);
      EXPECT_EQ(fetched.has_value(), accurate);
      if (fetched) {
        EXPECT_EQ(fetched->field("v")->as_int(), last_value);
      }
      if (last_value >= 0) {
        const std::string names[] = {"s"};
        EXPECT_EQ(repo.horizon(names, now), (last_store + d_acc) - now);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepositoryProperty, ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace decos::core
