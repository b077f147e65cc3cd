//===- lfsmr/kv_async.h - Async batched KV write path ------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::kv` async surface — the batched write path for the versioned
/// store. Client threads enqueue writes on per-shard submission rings as
/// single-allocation request records; a flat-combining applier drains a
/// ring and applies the whole batch under ONE guard acquisition and ONE
/// stamp window (one clock tick via the transaction commit machinery),
/// so snapshot reads and scans observe each batch atomically. The same
/// amortization bet Hyaline makes with `MinBatch`, applied one layer up.
///
/// \code
///   #include <lfsmr/kv.h>
///   #include <lfsmr/kv_async.h>
///
///   lfsmr::kv::store<lfsmr::schemes::hyaline_s> db;
///   lfsmr::kv::submitter<lfsmr::schemes::hyaline_s> sub(db);
///
///   // Closed-loop: keep a window of writes in flight, then wait.
///   auto f1 = sub.put(tid, 42, 1);
///   auto f2 = sub.put(tid, 43, 2);
///   auto f3 = sub.erase(tid, 44);
///   f1.get(tid);                 // waiting threads self-serve: the
///   f2.get(tid);                 // first waiter combines the batch
///   bool was_live = f3.get(tid);
///
///   // Fire-and-forget: drop the future; the applier frees the record.
///   sub.put(tid, 45, 9);
///   sub.flush(tid);              // drain everything now (optional —
///                                // the destructor drains too, under
///                                // thread id 0)
/// \endcode
///
/// Guarantees (see `kv/submit.h` for the mechanics):
///
///  - **Completion exactly once.** Every submitted op is applied and its
///    future completes exactly once — through a combiner, a waiting
///    client serving itself, the sync fallback when a ring is full, or
///    the submitter's destructor drain. Dropping a future never loses
///    or leaks the op (a packed single-word control block arbitrates
///    the free between applier and client).
///  - **Batch atomicity.** All ops drained into one batch settle at one
///    stamp: a snapshot scan sees all of them or none of them.
///  - **Same-key ordering.** Ops on the same key apply in submission
///    order; ops on different keys drained together are concurrent.
///  - **No mandatory combiner.** Backpressure is a bounded ring with a
///    fallback-to-sync path, and waiters combine for themselves, so the
///    async path never deadlocks when no combiner thread runs.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_ASYNC_H
#define LFSMR_KV_ASYNC_H

#include "kv/store.h"
#include "kv/submit.h"

#include <cstdint>

namespace lfsmr::kv {

/// Construction-time knobs for `submitter`: per-shard ring capacity
/// (bounds memory and backpressure; rounded up to a power of two) and
/// the waiters' help budget before parking (`WaitSpins`).
/// `submitter::options()` returns the values actually applied.
using async_options = AsyncOptions;

/// Async write front end over one `kv::store`: `put` / `erase` /
/// `compare_and_set` / `merge` return a `kv::future` instead of
/// applying inline. Construct after the store, destroy before it (the
/// destructor drains every ring under thread id 0, so client threads
/// must have quiesced). Each concurrently submitting or
/// waiting thread needs its own scheme `thread_id`, same as the store.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
using submitter = Submitter<Scheme, K, V>;

/// Move-only completion handle for one async op. `get(tid)` waits
/// (spin-then-yield, helping to combine) and returns the op's result —
/// the same boolean the sync API returns. Dropping it without `get` is
/// fire-and-forget: the op still applies, the record is freed by
/// whoever finishes second.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
using future = Future<Scheme, K, V>;

} // namespace lfsmr::kv

#endif // LFSMR_KV_ASYNC_H
