// Concurrency stress for SymbolTable (S25 memory model): 8 threads
// hammer one table with overlapping interns, lookups of racing names,
// and spelling resolution while the open-addressing index grows and
// retires several times (initial capacity 1024, growth at 70% load, and
// the test interns ~4x that). Run under ThreadSanitizer in CI; the
// assertions here pin the semantic guarantees (same spelling -> same
// id, published pairs stable), TSan pins the absence of data races.
#include "util/symbol.hpp"

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace decos {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kSharedNames = 2048;   // every thread interns all of these
constexpr std::size_t kPrivateNames = 256;   // per-thread unique spellings

std::string shared_name(std::size_t i) { return "shared/" + std::to_string(i); }
std::string private_name(std::size_t thread, std::size_t i) {
  return "t" + std::to_string(thread) + "/" + std::to_string(i);
}

TEST(SymbolStressTest, EightThreadsInternLookupResolve) {
  SymbolTable table;
  std::atomic<bool> go{false};
  // ids[t][i]: the id thread t observed for shared_name(i).
  std::vector<std::vector<Symbol>> ids(kThreads, std::vector<Symbol>(kSharedNames));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);

  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::size_t i = 0; i < kSharedNames; ++i) {
        // Interleave walk direction per thread so first-intern races hit
        // different regions of the index at the same time.
        const std::size_t at = (t % 2 == 0) ? i : kSharedNames - 1 - i;
        const std::string name = shared_name(at);
        const Symbol s = table.intern(name);
        ASSERT_TRUE(s.valid());
        ids[t][at] = s;

        // A published pair must be immediately resolvable and stable,
        // even while other threads grow/retire the index.
        ASSERT_EQ(table.name(s), name);
        const auto found = table.lookup(name);
        ASSERT_TRUE(found.has_value());
        ASSERT_EQ(*found, s);

        // Probing names that another thread may be interning right now:
        // either absent or consistent, never torn.
        const std::string racing = shared_name(kSharedNames - 1 - at);
        if (const auto hit = table.lookup(racing)) {
          ASSERT_EQ(table.name(*hit), racing);
        }

        if (i % 8 == 0) {
          const std::string priv = private_name(t, i / 8);
          const Symbol p = table.intern(priv);
          ASSERT_EQ(table.name(p), priv);
          ASSERT_EQ(p, table.intern(priv));  // idempotent
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  // Every thread resolved every shared spelling to the same id.
  for (std::size_t i = 0; i < kSharedNames; ++i)
    for (std::size_t t = 1; t < kThreads; ++t) ASSERT_EQ(ids[t][i], ids[0][i]);

  // Exactly the distinct spellings were interned, despite 8x duplicate
  // traffic: kSharedNames + kThreads * ceil(kSharedNames / 8) privates.
  const std::size_t privates = kThreads * ((kSharedNames + 7) / 8);
  EXPECT_EQ(table.size(), kSharedNames + privates);

  // Ids are dense 1..size and every one resolves back to a spelling
  // that round-trips through lookup.
  for (std::uint32_t id = 1; id <= table.size(); ++id) {
    const std::string& spelling = table.name(Symbol{id});
    ASSERT_FALSE(spelling.empty());
    const auto found = table.lookup(spelling);
    ASSERT_TRUE(found.has_value());
    ASSERT_EQ(found->id(), id);
  }
}

TEST(SymbolStressTest, GlobalTableConcurrentIntern) {
  // The process-wide table is what concurrent experiment cells actually
  // share; hammer it too (with a distinct namespace so reruns within one
  // process stay idempotent).
  std::atomic<bool> go{false};
  std::vector<Symbol> first(kPrivateNames);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::size_t i = 0; i < kPrivateNames; ++i) {
        const std::string name = "stress-global/" + std::to_string(i);
        const Symbol s = intern_symbol(name);
        ASSERT_EQ(symbol_name(s), name);
        if (t == 0) first[i] = s;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < kPrivateNames; ++i)
    EXPECT_EQ(first[i], *SymbolTable::global().lookup("stress-global/" + std::to_string(i)));
}

}  // namespace
}  // namespace decos
