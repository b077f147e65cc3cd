//===- lfsmr/guard.h - RAII operation guard ----------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::guard<Scheme>`: the RAII pairing of the paper's `enter`/`leave`
/// (Section 2, "API Model") that every operation on a lock-free structure
/// runs under. Construction enters the reclamation scheme; destruction
/// leaves. While the guard is alive, pointers read through `protect` stay
/// dereferenceable and nodes passed to `retire` are freed only after every
/// guard that might have observed them has left.
///
/// A guard is obtained from a domain:
///
/// \code
///   lfsmr::domain<lfsmr::schemes::hyaline_s> dom;   // transparent mode
///   {
///     auto g = dom.enter(tid);
///     widget *w = g.protect(shared_slot);           // safe to use
///     widget *fresh = g.create<widget>(...);        // header hidden
///     if (auto *old = shared_slot.exchange(fresh))
///       g.retire(old);                              // deferred free
///   }                                               // leave
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_GUARD_H
#define LFSMR_GUARD_H

#include "lfsmr/config.h"
#include "lfsmr/detail/transparent.h"
#include "lfsmr/protected_ptr.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace lfsmr {

template <typename Scheme> class domain;

/// RAII enter/leave wrapper over one reclamation scheme operation.
///
/// Move-only; obtained from `domain<Scheme>::enter`. All methods must be
/// called from the thread that entered. Protection slot indices (the
/// second argument of `protect`/`protect_link`) are consumed only by the
/// pointer/era-index schemes (HP, HE); every other scheme ignores them, so
/// portable code simply numbers the pointers it holds live concurrently.
template <typename Scheme> class guard {
public:
  /// The scheme this guard operates.
  using scheme_type = Scheme;
  /// The scheme's per-node header (intrusive mode embeds it first).
  using node_header = typename Scheme::NodeHeader;

  /// True when the scheme exposes `trim` (the Hyaline family); `trim()`
  /// is a no-op elsewhere.
  static constexpr bool has_trim =
      requires(Scheme &s, typename Scheme::Guard &g) { s.trim(g); };

  /// Enters \p scheme as thread \p tid. Prefer `domain::enter`.
  /// \p rotate_slots (at least 1; `domain::enter` passes
  /// `smr::hazardSlots`) bounds the auto-rotating `protect` overload;
  /// \p transparent records whether the owning domain allows `create`.
  guard(Scheme &scheme, thread_id tid, unsigned rotate_slots,
        bool transparent)
      : s(&scheme), g(scheme.enter(tid)), rotate(rotate_slots),
        transparent_mode(transparent) {
    assert(rotate_slots > 0 && "the rotation needs at least one slot");
  }

  /// Leaves the scheme (unless the guard was moved from or `leave()` was
  /// already called).
  ~guard() {
    if (s)
      s->leave(g);
  }

  guard(const guard &) = delete;
  guard &operator=(const guard &) = delete;

  /// Transfers the open operation; the source becomes inert.
  guard(guard &&other) noexcept
      : s(other.s), g(other.g), rotate(other.rotate),
        next_slot(other.next_slot), transparent_mode(other.transparent_mode) {
    other.s = nullptr;
  }

  guard &operator=(guard &&other) noexcept {
    if (this != &other) {
      if (s)
        s->leave(g);
      s = other.s;
      g = other.g;
      rotate = other.rotate;
      next_slot = other.next_slot;
      transparent_mode = other.transparent_mode;
      other.s = nullptr;
    }
    return *this;
  }

  /// Ends the operation early. The guard becomes inert; every pointer
  /// previously returned by `protect` loses its validity.
  void leave() {
    if (s) {
      s->leave(g);
      s = nullptr;
    }
  }

  /// True while the operation is open.
  bool active() const { return s != nullptr; }

  /// The thread id this guard entered as. Every scheme's native guard
  /// records it (`Scheme::Guard::Tid`), so code running under an open
  /// operation can index per-thread state without a `thread_local`.
  thread_id tid() const { return g.Tid; }

  //===--------------------------------------------------------------------===
  // Protected reads
  //===--------------------------------------------------------------------===

  /// Protected pointer read (the paper's `deref`) into protection slot
  /// \p slot. For HP/HE the slot must stay untouched for as long as the
  /// returned pointer is used; the non-index schemes ignore it.
  template <typename T>
  protected_ptr<T> protect(const std::atomic<T *> &src, unsigned slot) {
    return protected_ptr<T>(s->deref(g, src, slot));
  }

  /// Protected pointer read with automatic slot rotation: successive calls
  /// cycle through the domain's hazard slots, so up to
  /// `config::NumHazards` pointers stay live concurrently. Use the
  /// explicit-slot overload when pointer lifetimes overlap in a loop.
  template <typename T> protected_ptr<T> protect(const std::atomic<T *> &src) {
    return protect(src, next_slot++ % rotate);
  }

  /// Protected read of a tagged link word (mark/flag bits in the low
  /// bits). The scheme protects the node address with the tag masked off
  /// and returns the raw word.
  std::uintptr_t protect_link(const std::atomic<std::uintptr_t> &src,
                              unsigned slot) {
    return s->derefLink(g, src, slot);
  }

  //===--------------------------------------------------------------------===
  // Intrusive mode: user nodes embed `node_header` as their first member
  //===--------------------------------------------------------------------===

  /// Registers a freshly allocated node with the scheme, stamping its
  /// birth era where the scheme tracks one (Hyaline-S/1S, HE, IBR) and
  /// counting the allocation. Must be called before the node is published.
  void init(node_header *h) { s->initNode(g, h); }

  /// Retires an unlinked node: it is freed once no guard can reach it.
  /// The node must have been initialized with `init` and be unreachable
  /// for new operations.
  void retire(node_header *h) { s->retire(g, h); }

  /// Frees a node that was never published into any shared structure
  /// (e.g. a speculative copy discarded after a failed CAS).
  void discard(node_header *h) { s->discard(h); }

  //===--------------------------------------------------------------------===
  // Transparent mode: the header is hidden inside a library-owned block
  //===--------------------------------------------------------------------===

  /// Allocates and constructs a `T`, hiding the scheme header in front of
  /// it — the object type needs no intrusive member. Only valid on
  /// domains built with the transparent constructor (throws
  /// `std::logic_error` otherwise — on an intrusive domain the registered
  /// deleter would free the block with the wrong layout). The returned
  /// pointer must eventually go through `retire`/`discard` (or leak,
  /// matching the fate of a lost node). Strong exception guarantee: if
  /// `T`'s constructor throws, the block is released and the exception
  /// propagates.
  template <typename T, typename... Args> T *create(Args &&...args) {
    require_transparent("guard::create<T>()");
    detail::TransparentBlock<Scheme> *block = nullptr;
    void *obj =
        detail::allocateTransparent<Scheme>(sizeof(T), alignof(T), block);
    s->initNode(g, &block->Hdr);
    // A discarded block is counted as retire+free, keeping the accounting
    // invariant "unreclaimed == retired - freed" intact.
    return detail::constructTransparent<T>(
        obj, [this, block] { s->discard(&block->Hdr); },
        std::forward<Args>(args)...);
  }

  /// Retires an object returned by `create<T>()`: its destructor runs and
  /// its storage is freed once every guard that might have observed it
  /// has left.
  template <typename T> void retire(T *obj) {
    s->retire(g, header_of(obj));
  }

  /// Retires an object returned by `create<T>()`, substituting \p del for
  /// the destructor at reclamation time. The deleter must release the
  /// object's resources only — the block storage stays library-owned.
  template <typename T> void retire(T *obj, void (*del)(T *)) {
    detail::installUserDeleter(obj, del);
    s->retire(g, header_of(obj));
  }

  /// Immediately destroys an object returned by `create<T>()` that was
  /// never published into any shared structure.
  template <typename T> void discard(T *obj) { s->discard(header_of(obj)); }

  //===--------------------------------------------------------------------===
  // Scheme access
  //===--------------------------------------------------------------------===

  /// Reclaims retired batches observed so far without closing the
  /// operation (the paper's Appendix B `trim`; no-op for schemes without
  /// one).
  void trim() {
    if constexpr (has_trim)
      s->trim(g);
  }

  /// The underlying scheme (for scheme-specific observers such as
  /// `currentEra`).
  Scheme &scheme() { return *s; }

  /// The scheme's native per-operation state, for code that drops below
  /// the facade.
  typename Scheme::Guard &native() { return g; }

private:
  /// Transparent-mode misuse on an intrusive domain would hand blocks of
  /// the wrong layout to the registered deleter (silent heap corruption),
  /// so the check stays on in release builds.
  void require_transparent(const char *what) const {
    if (!transparent_mode)
      throw std::logic_error(std::string("lfsmr: ") + what +
                             " requires a transparent-mode domain");
  }

  template <typename T> node_header *header_of(T *obj) {
    require_transparent("guard pointer-retire/discard");
    detail::TransparentMeta *m = detail::metaOf(obj);
    return reinterpret_cast<node_header *>(m->Block);
  }

  Scheme *s;
  typename Scheme::Guard g;
  unsigned rotate;
  unsigned next_slot = 0;
  bool transparent_mode;
};

} // namespace lfsmr

#endif // LFSMR_GUARD_H
