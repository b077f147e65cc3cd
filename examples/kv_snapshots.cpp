//===- examples/kv_snapshots.cpp - Consistent reads over a live store -----===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `lfsmr::kv` store in its natural habitat: writers stream price
/// updates for a set of instruments while readers take *snapshots* —
/// consistent, repeatable views of the whole store — and audit them, all
/// lock-free and with every version's memory reclaimed through the
/// scheme of your choice.
///
/// What to look for in the output:
///
///  - audits never see a torn or drifting value: within one snapshot the
///    same key always reads the same version, no matter how hard the
///    writers churn;
///  - with no snapshot open, version chains trim to length 1 — the
///    writers themselves retire obsolete versions (no background GC
///    thread exists);
///  - the same code runs under a robust scheme (`hyaline_s`) and under
///    hazard pointers — the store lays every node out the same way for
///    every scheme, so swap the template argument and nothing else
///    changes.
///
/// Build & run:  ./examples/kv_snapshots [--secs 2] [--writers 3]
///               [--readers 2] [--keys 4096]
///
//===----------------------------------------------------------------------===//

#include <lfsmr/kv.h>
#include <lfsmr/schemes.h>

#include "example_util.h"

#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

int main(int argc, char **argv) {
  const unsigned Writers =
      (unsigned)lfsmr_examples::flagValue(argc, argv, "--writers", 3, 1, 64);
  const unsigned Readers =
      (unsigned)lfsmr_examples::flagValue(argc, argv, "--readers", 2, 1, 64);
  const uint64_t Keys =
      (uint64_t)lfsmr_examples::flagValue(argc, argv, "--keys", 4096, 16);
  const double Secs =
      lfsmr_examples::flagValueF(argc, argv, "--secs", 2.0);

  lfsmr::kv::options Opt;
  Opt.Reclaim.MaxThreads = Writers + Readers + 1;
  Opt.Shards = 8;
  Opt.BucketsPerShard = 1024;
  lfsmr::kv::store<lfsmr::schemes::hyaline_s> Db(Opt);

  // Seed every instrument with a consistent (key * 100) price.
  for (uint64_t K = 0; K < Keys; ++K)
    Db.put(0, K, K * 100);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Updates{0}, Audits{0}, Violations{0};

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      // Writers bump prices in whole multiples so any consistent read of
      // key K satisfies value % 100 == 0 and value / 100 >= K.
      uint64_t X = W + 1;
      while (!Stop.load(std::memory_order_relaxed)) {
        X = X * 6364136223846793005ULL + 1;
        const uint64_t K = (X >> 33) % Keys;
        Db.put(1 + W, K, (K + (X & 0xff)) * 100);
        Updates.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (unsigned R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      const unsigned Tid = 1 + Writers + R;
      uint64_t X = 0x5eed + R;
      while (!Stop.load(std::memory_order_relaxed)) {
        // One audit = one snapshot: every read inside it must be stable
        // and well-formed, however fast the writers move underneath.
        lfsmr::kv::snapshot Snap = Db.open_snapshot();
        for (int I = 0; I < 256; ++I) {
          X = X * 6364136223846793005ULL + 1;
          const uint64_t K = (X >> 33) % Keys;
          const std::optional<uint64_t> A = Db.get(Tid, K, Snap);
          const std::optional<uint64_t> B = Db.get(Tid, K, Snap);
          if (A != B || (A && (*A % 100 != 0 || *A / 100 < K)))
            Violations.fetch_add(1, std::memory_order_relaxed);
        }
        Audits.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::this_thread::sleep_for(std::chrono::duration<double>(Secs));
  Stop.store(true);
  for (auto &T : Threads)
    T.join();

  // Quiescent: chains trim back to a single version on the next write.
  Db.put(0, 0, 0);
  const lfsmr::memory_stats MS = Db.stats();
  std::printf("kv_snapshots: %llu updates, %llu audits, %llu violations\n",
              (unsigned long long)Updates.load(),
              (unsigned long long)Audits.load(),
              (unsigned long long)Violations.load());
  std::printf("  store version clock:  %llu\n",
              (unsigned long long)Db.version());
  std::printf("  versions allocated:   %lld\n", (long long)MS.allocated);
  std::printf("  versions retired:     %lld\n", (long long)MS.retired);
  std::printf("  key 0 chain length:   %zu (no snapshot open)\n",
              Db.version_count(0, 0));
  if (Violations.load() != 0) {
    std::fprintf(stderr, "FAIL: snapshot audits saw inconsistent reads\n");
    return 1;
  }
  std::printf("all snapshot audits consistent\n");
  return 0;
}
