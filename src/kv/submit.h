//===- kv/submit.h - Async batched write path --------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store's async batched write path: per-shard MPSC submission rings
/// plus a flat-combining applier. Hyaline's core bet is amortization —
/// `MinBatch` collapses per-op reclamation cost by retiring in batches;
/// this layer applies the same bet one level up, collapsing per-op
/// *write* cost (guard entry, hot-shard CAS traffic, stamp resolution)
/// by submitting in batches:
///
///   client ── put/erase/cas/merge ──> AsyncRequest (one allocation)
///                 │ enqueue                         ▲ completion word
///                 ▼                                 │ (one release RMW)
///   shard ring [MPSC, bounded] ──> combiner ── Store::applyAsyncBatch
///                                  (one guard + one stamp window)
///
///  - **Submission** allocates one `AsyncRequest` carrying the op, the
///    payload, and a packed `[state|result]` completion word, and
///    enqueues it on the ring of the key's shard (the same shard the
///    store's index uses, so one batch never spans combiner domains).
///  - **Combining**: the first thread to CAS a shard's combiner lock
///    drains the ring and hands the whole batch to the store, which
///    applies it under ONE guard acquisition and — for multi-key
///    batches — ONE commit record resolved with ONE clock tick (the
///    transaction machinery), so snapshot reads and scans observe the
///    batch all-or-nothing. There is no combiner thread: waiting
///    clients self-serve (`Future::get` keeps trying the lock), and
///    fire-and-forget ops nobody waits for are drained by the next
///    waiter, an explicit `flush`, or the destructor.
///  - **Completion** is one release-RMW per record on the completion
///    word. The word is the atomsnap single-word control-block idiom:
///    state bits and the op result share one atomic, so a waiter
///    observes "done" and reads the result with a single load, and the
///    same word arbitrates who frees the record — the applier's
///    completing RMW and the client's detach RMW each see the other's
///    bit, and the second one frees. A dropped future (fire-and-forget)
///    therefore never leaks and never double-frees.
///  - **Backpressure**: the ring is bounded; a submit that finds it full
///    applies the op synchronously through the same batch engine
///    (batch of one) instead of blocking — the store never deadlocks
///    when no combiner runs.
///
/// Ordering contract: ops on the SAME key drained into one batch apply
/// in submission order (the drain preserves ring order per key, and the
/// batch engine folds same-key requests in that order into one
/// version). Batches from one shard apply one combiner at a time, so
/// the same-key order also holds across batches — with ONE exception:
/// a sync fallback (full ring) applies immediately and may overtake
/// same-key ops still queued behind it. Submitters that need strict
/// same-key order must wait out their window before overflowing the
/// ring (the closed-loop shape does this naturally). Ops on different
/// keys have no order — they settle at the same stamp when drained
/// together. Cross-shard batches do not exist; two ops on different
/// shards are independent writes.
///
/// Thread contract: like the store, each concurrently submitting or
/// waiting thread needs its own `thread_id` (combining enters the
/// store's domain under the caller's id). Destroy the submitter after
/// its client threads quiesce and before the store; destruction drains
/// every ring under thread id 0 so fire-and-forget ops are never lost.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_SUBMIT_H
#define LFSMR_KV_SUBMIT_H

#include "kv/store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace lfsmr::kv {

/// The write operations a submission ring carries.
enum class AsyncOp : unsigned char { Put, Erase, CompareAndSet, Merge };

/// Construction-time knobs for `Submitter`.
struct AsyncOptions {
  /// Per-shard submission-ring capacity; rounded up to a power of two
  /// (the applied value is visible via `Submitter::options()`). A full
  /// ring makes submits fall back to synchronous application, so this
  /// bounds both memory and completion backlog.
  std::size_t RingCapacity = 1024;

  /// Help rounds a pending `Future::get` yield-spins through before it
  /// parks on the shard's batch epoch (spin-then-park). Low values bias
  /// toward sleeping — right when threads outnumber cores; the default
  /// keeps waiters hot on dedicated cores.
  unsigned WaitSpins = 64;
};

template <typename Scheme, typename K, typename V> class Future;

/// One submitted operation: a single heap allocation jointly owned by
/// the submitting client (through its `Future`) and the applier. The
/// packed completion word `Ctl` is the atomsnap single-word
/// control-block idiom: completion state, detach state, and the op
/// result live in ONE atomic, so publication is one release-RMW,
/// observing completion + result is one load, and the free is
/// arbitrated without any second word — whichever side's RMW sees the
/// other's bit already set frees the record.
template <typename Scheme, typename K, typename V> struct AsyncRequest {
  /// `Ctl` bit layout.
  static constexpr std::uint64_t DoneBit = 1;     ///< applier finished
  static constexpr std::uint64_t DetachedBit = 2; ///< future dropped
  static constexpr std::uint64_t ResultBit = 4;   ///< the op's result

  /// Merge operator: current visible value (nullopt = absent/tombstone)
  /// + the request's operand -> the value to store. A plain function
  /// pointer so the record stays a single flat allocation.
  using merge_fn = V (*)(std::optional<V> &&, const V &);

  /// Packed `[state|result]` completion word (see bit layout above).
  std::atomic<std::uint64_t> Ctl{0};
  AsyncOp Kind;
  /// The op's completion result, staged by `fold` while the batch
  /// applies; published into `Ctl`'s ResultBit by the completing RMW.
  bool Result = false;
  std::uint64_t Hash;
  K KeyV;
  V Val{};      ///< put value / compare_and_set desired / merge operand
  V Expected{}; ///< compare_and_set expected value
  merge_fn Fn = nullptr;

  AsyncRequest(AsyncOp Kind, const K &Key)
      : Kind(Kind), Hash(Codec<K>::hash(Key)), KeyV(Key) {}

  const K &key() const { return KeyV; }
  std::uint64_t hash() const { return Hash; }

  /// Same-key test for batch grouping (hash first: almost always
  /// decides).
  bool sameKey(const AsyncRequest &O) const {
    return Hash == O.Hash && codecEqual(KeyV, O.KeyV);
  }

  /// Applies this op in place to the running value state \p Cur of its
  /// key group (nullopt = absent; see `Store::RequestFold`), stages the
  /// op's completion result, and returns whether the op wrote. Results
  /// mirror the sync API: put -> "key was absent", erase -> "key was
  /// present", compare_and_set -> "swapped", merge -> true; a failed
  /// compare_and_set or an erase of a dead key writes nothing. Re-run
  /// when the group's append loses a race, so the fold is pure in
  /// everything but `Result` (the final run's value wins).
  bool fold(std::optional<V> &Cur) {
    switch (Kind) {
    case AsyncOp::Put:
      Result = !Cur.has_value();
      Cur = Val;
      return true;
    case AsyncOp::Erase:
      Result = Cur.has_value();
      Cur.reset();
      return Result;
    case AsyncOp::CompareAndSet:
      Result = Cur.has_value() && codecEqual(*Cur, Expected);
      if (Result)
        Cur = Val;
      return Result;
    case AsyncOp::Merge:
      Result = true;
      Cur = Fn(std::move(Cur), Val);
      return true;
    }
    return false; // unreachable
  }
};

/// Completion handle for one submitted op. Move-only. `get` blocks
/// (spin-then-yield, self-serve combining) and returns the op's result;
/// dropping the future without `get` detaches it — fire-and-forget, the
/// applier frees the record. A future may outlive its submitter only
/// once the submitter's destructor ran (which completes every op); it
/// must never outlive a pending op's store.
template <typename Scheme, typename K, typename V> class Future {
public:
  using request_type = AsyncRequest<Scheme, K, V>;

  Future() = default;
  Future(Future &&O) noexcept
      : Req(std::exchange(O.Req, nullptr)), Sub(O.Sub), Shard(O.Shard) {}
  Future &operator=(Future &&O) noexcept {
    if (this != &O) {
      release();
      Req = std::exchange(O.Req, nullptr);
      Sub = O.Sub;
      Shard = O.Shard;
    }
    return *this;
  }
  Future(const Future &) = delete;
  Future &operator=(const Future &) = delete;
  ~Future() { release(); }

  /// True while this handle still refers to a submitted op (`get` and
  /// detach both consume it).
  bool valid() const { return Req != nullptr; }

  /// Non-blocking completion probe.
  bool ready() const {
    return Req &&
           (Req->Ctl.load(std::memory_order_acquire) & request_type::DoneBit);
  }

  /// Waits for the op to complete and returns its result, consuming the
  /// future. While the op is pending this thread *helps*: it keeps
  /// trying to take the shard's combiner lock and drain the ring — so
  /// completion never depends on any other thread existing (no combiner
  /// running means the submitter serves itself). When helping finds
  /// nothing to do (another combiner owns the op), the waiter first
  /// yield-spins `WaitSpins` rounds, then *parks* on the shard's batch
  /// epoch until that combiner's batch completes — the park is safe
  /// precisely because a pending op the helper cannot reach is always
  /// owned by an active combiner, whose completion bumps the epoch.
  /// \p Tid is this calling thread's scheme id (combining enters the
  /// store's domain under it).
  bool get(thread_id Tid) {
    assert(Req && "get() on an empty future");
    std::uint64_t C = Req->Ctl.load(std::memory_order_acquire);
    unsigned Rounds = 0;
    while (!(C & request_type::DoneBit)) {
      // The epoch read must precede the help attempt: if the owning
      // combiner completes our op after this load, the bump+notify lands
      // on a changed word and the wait below returns at once — no lost
      // wakeup.
      const std::uint64_t E =
          Sub->Rings[Shard].Epoch.load(std::memory_order_acquire);
      Sub->helpShard(Tid, Shard);
      C = Req->Ctl.load(std::memory_order_acquire);
      if (C & request_type::DoneBit)
        break;
      if (++Rounds > Sub->options().WaitSpins)
        Sub->Rings[Shard].Epoch.wait(E, std::memory_order_acquire);
      else
        std::this_thread::yield();
      C = Req->Ctl.load(std::memory_order_acquire);
    }
    const bool R = (C & request_type::ResultBit) != 0;
    // Done observed: the applier's completing RMW already happened and
    // it never touches a non-detached record afterwards — plain free.
    delete Req;
    Req = nullptr;
    return R;
  }

  /// Detaches without waiting (fire-and-forget). The completion word
  /// arbitrates the free: if the op already completed we free here,
  /// otherwise the applier's completing RMW sees the detach bit and
  /// frees there.
  void release() {
    if (!Req)
      return;
    const std::uint64_t Prev =
        Req->Ctl.fetch_or(request_type::DetachedBit, std::memory_order_acq_rel);
    if (Prev & request_type::DoneBit)
      delete Req;
    Req = nullptr;
  }

private:
  template <typename, typename, typename> friend class Submitter;

  Future(request_type *Req, Submitter<Scheme, K, V> *Sub, std::size_t Shard)
      : Req(Req), Sub(Sub), Shard(Shard) {}

  request_type *Req = nullptr;
  Submitter<Scheme, K, V> *Sub = nullptr;
  std::size_t Shard = 0;
};

/// The async write front end of one `Store`: per-shard bounded MPSC
/// submission rings plus the flat-combining drain. Construct after the
/// store, destroy before it (destruction drains every ring). Several
/// submitters over one store are legal but pointless — rings do not
/// combine across submitters.
template <typename Scheme, typename K = std::uint64_t,
          typename V = std::uint64_t>
class Submitter {
public:
  using store_type = Store<Scheme, K, V>;
  using future = Future<Scheme, K, V>;
  using request_type = AsyncRequest<Scheme, K, V>;
  using merge_fn = typename request_type::merge_fn;

  explicit Submitter(store_type &Db, const AsyncOptions &O = {})
      : Db(&Db), Opt(normalize(O)), Mask(Opt.RingCapacity - 1),
        NumShards(Db.shards()), Rings(new ShardRing[Db.shards()]) {
    for (std::size_t S = 0; S < NumShards; ++S) {
      Rings[S].Slots.reset(new Slot[Opt.RingCapacity]);
      for (std::size_t I = 0; I < Opt.RingCapacity; ++I)
        Rings[S].Slots[I].Seq.store(I, std::memory_order_relaxed);
    }
  }

  Submitter(const Submitter &) = delete;
  Submitter &operator=(const Submitter &) = delete;

  /// Drains every ring under thread id 0, so detached (fire-and-forget)
  /// ops are applied, completed, and freed. Client threads must have
  /// quiesced.
  ~Submitter() { flush(0); }

  /// Async `store::put`: inserts or replaces the binding for \p Key.
  /// The future's result is true when the key had no live binding at
  /// apply time.
  future put(thread_id Tid, const K &Key, const V &Val) {
    request_type *R = new request_type(AsyncOp::Put, Key);
    R->Val = Val;
    return submit(Tid, R);
  }

  /// Async `store::erase`. Result: the key had a live binding.
  future erase(thread_id Tid, const K &Key) {
    return submit(Tid, new request_type(AsyncOp::Erase, Key));
  }

  /// Async `store::compare_and_set`: stores \p Desired iff the key's
  /// visible value at apply time equals \p Expected. Result: swapped.
  future compare_and_set(thread_id Tid, const K &Key, const V &Expected,
                         const V &Desired) {
    request_type *R = new request_type(AsyncOp::CompareAndSet, Key);
    R->Val = Desired;
    R->Expected = Expected;
    return submit(Tid, R);
  }

  /// Async `store::merge` with a flat operand: at apply time stores
  /// `Fn(current, Operand)`. \p Fn must be pure (same repeatability
  /// contract as the sync merge). Result: always true.
  future merge(thread_id Tid, const K &Key, const V &Operand, merge_fn Fn) {
    assert(Fn && "merge needs an operator");
    request_type *R = new request_type(AsyncOp::Merge, Key);
    R->Val = Operand;
    R->Fn = Fn;
    return submit(Tid, R);
  }

  /// Drains every shard's ring on the calling thread (combining each
  /// batch). Returns with all previously submitted ops applied,
  /// provided no concurrent combiner still holds a drain mid-flight.
  void flush(thread_id Tid) {
    for (std::size_t S = 0; S < NumShards; ++S)
      helpShard(Tid, S);
  }

  /// The normalized options actually applied (`RingCapacity` rounded up
  /// to a power of two).
  const AsyncOptions &options() const { return Opt; }

  /// The store this submitter feeds.
  store_type &db() { return *Db; }

private:
  friend class Future<Scheme, K, V>;

  /// One ring slot (Vyukov bounded-queue protocol: `Seq` sequences
  /// producer publication and consumer reuse).
  struct Slot {
    std::atomic<std::uint64_t> Seq;
    request_type *Ptr;
  };

  /// One shard's submission ring + combiner lock. Hot words are
  /// cache-line padded: producers share `Tail`, the combiner owns
  /// `Head`, everyone probes `Lock`.
  struct alignas(CacheLineSize) ShardRing {
    std::unique_ptr<Slot[]> Slots;
    alignas(CacheLineSize) std::atomic<std::uint64_t> Tail{0};
    alignas(CacheLineSize) std::atomic<std::uint64_t> Head{0};
    alignas(CacheLineSize) std::atomic<unsigned> Lock{0};
    /// Batch epoch: bumped (and notified) once per completed combined
    /// batch. Waiters whose op is owned by an in-flight combiner park
    /// on this word (`Future::get`) instead of spinning against the
    /// combiner lock — one futex wake per *batch*, and with threads
    /// oversubscribed the parked waiters leave the CPU to the combiner
    /// rather than thrashing the run queue with yield rounds.
    alignas(CacheLineSize) std::atomic<std::uint64_t> Epoch{0};
  };

  static AsyncOptions normalize(AsyncOptions O) {
    O.RingCapacity = nextPowerOfTwo(O.RingCapacity ? O.RingCapacity : 1);
    if (O.RingCapacity < 2)
      O.RingCapacity = 2;
    if (O.WaitSpins == 0)
      O.WaitSpins = 1;
    return O;
  }

  /// MPSC enqueue (multi-producer side of the Vyukov bounded queue).
  /// False when the ring is full.
  bool enqueue(ShardRing &R, request_type *Q) {
    std::uint64_t Pos = R.Tail.load(std::memory_order_relaxed);
    for (;;) {
      Slot &S = R.Slots[Pos & Mask];
      const std::uint64_t Seq = S.Seq.load(std::memory_order_acquire);
      const auto D =
          static_cast<std::int64_t>(Seq) - static_cast<std::int64_t>(Pos);
      if (D == 0) {
        if (R.Tail.compare_exchange_weak(Pos, Pos + 1,
                                         std::memory_order_relaxed)) {
          S.Ptr = Q;
          S.Seq.store(Pos + 1, std::memory_order_release);
          return true;
        }
      } else if (D < 0) {
        return false; // a full lap behind: the ring is full
      } else {
        Pos = R.Tail.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer dequeue; only the combiner-lock holder calls this.
  /// Null when the ring is empty *or* the next producer has reserved
  /// its slot but not yet published (the waiter's help loop retries).
  request_type *dequeue(ShardRing &R) {
    const std::uint64_t Pos = R.Head.load(std::memory_order_relaxed);
    Slot &S = R.Slots[Pos & Mask];
    const std::uint64_t Seq = S.Seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(Seq) -
            static_cast<std::int64_t>(Pos + 1) <
        0)
      return nullptr;
    request_type *Q = S.Ptr;
    S.Seq.store(Pos + Opt.RingCapacity, std::memory_order_release);
    R.Head.store(Pos + 1, std::memory_order_relaxed);
    return Q;
  }

  /// Submission tail shared by the four op fronts: count it, ring it,
  /// and on a full ring apply synchronously through the same batch
  /// engine (bounded backpressure — never blocks, never deadlocks).
  future submit(thread_id Tid, request_type *R) {
    Db->AsyncSubmits.add();
    const std::size_t S = Db->shardOf(R->Hash);
    if (!enqueue(Rings[S], R)) {
      Db->SyncFallbacks.add();
      request_type *One[1] = {R};
      Db->applyAsyncBatch(Tid, One, std::size_t{1});
      completeBatch(One, 1);
    }
    // Deliberately no combining here: waiters combine (Future::get), so
    // submissions pile into batches instead of each submitter draining
    // its own op as a batch of one.
    return future(R, this, S);
  }

  /// Flat-combining attempt on shard \p S: take the lock if it is free,
  /// drain + apply until the ring looks empty, release — and re-check,
  /// so an op enqueued between the last dequeue and the release is
  /// picked up rather than stranded. Returns immediately when another
  /// combiner holds the shard (it owns every op visible to it; waiters
  /// call again).
  void helpShard(thread_id Tid, std::size_t S) {
    ShardRing &R = Rings[S];
    for (;;) {
      if (R.Head.load(std::memory_order_relaxed) ==
          R.Tail.load(std::memory_order_acquire))
        return; // nothing visible to drain
      unsigned Exp = 0;
      if (!R.Lock.compare_exchange_strong(Exp, 1, std::memory_order_acquire,
                                          std::memory_order_relaxed))
        return; // an active combiner owns this shard's backlog
      Db->CombinerTakeovers.add();
      combine(Tid, R);
      R.Lock.store(0, std::memory_order_release);
    }
  }

  /// Drains up to one ring's worth of requests and applies them as one
  /// batch. Caller holds the combiner lock. The drain cap keeps a
  /// combiner from being pinned forever by producers feeding the ring
  /// as fast as it drains.
  void combine(thread_id Tid, ShardRing &R) {
    std::vector<request_type *> Batch;
    Batch.reserve(64);
    while (Batch.size() < Opt.RingCapacity) {
      request_type *Q = dequeue(R);
      if (!Q)
        break;
      Batch.push_back(Q);
    }
    if (Batch.empty())
      return;
    // Same-key requests adjacent, submission order preserved within a
    // key (stable), as Store::applyAsyncBatch requires.
    std::stable_sort(Batch.begin(), Batch.end(),
                     [](const request_type *A, const request_type *B) {
                       if (A->Hash != B->Hash)
                         return A->Hash < B->Hash;
                       return codecLess(A->KeyV, B->KeyV);
                     });
    Db->applyAsyncBatch(Tid, Batch.data(), Batch.size());
    completeBatch(Batch.data(), Batch.size());
    // One wake covers the whole batch. (libstdc++ tracks waiters, so
    // the no-waiter case skips the syscall.)
    R.Epoch.fetch_add(1, std::memory_order_release);
    R.Epoch.notify_all();
  }

  /// Publishes completions: ONE release-RMW per record lands the done
  /// bit and the result together; a record whose future was already
  /// dropped is freed here (the single-word arbitration).
  void completeBatch(request_type *const *Batch, std::size_t N) {
    for (std::size_t I = 0; I < N; ++I) {
      request_type *Q = Batch[I];
      const std::uint64_t Bits =
          request_type::DoneBit |
          (Q->Result ? request_type::ResultBit : std::uint64_t{0});
      const std::uint64_t Prev =
          Q->Ctl.fetch_or(Bits, std::memory_order_acq_rel);
      if (Prev & request_type::DetachedBit)
        delete Q;
    }
  }

  store_type *Db;
  AsyncOptions Opt;
  std::size_t Mask;
  std::size_t NumShards;
  std::unique_ptr<ShardRing[]> Rings;
};

} // namespace lfsmr::kv

#endif // LFSMR_KV_SUBMIT_H
