//===- lfsmr/any_domain.h - Runtime-selected domain --------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::any_domain`: a reclamation domain whose scheme is chosen by
/// *name* at runtime — the type-erased counterpart of
/// `lfsmr::domain<Scheme>`. Useful for servers and tools that pick the
/// scheme from a config file or CLI flag, and for sweeping all schemes in
/// one binary the way the paper's figures do.
///
/// The name list is generated from `smr/scheme_list.h`, the same X-macro
/// the benchmark dispatches over, so a scheme added there is
/// automatically constructible here.
///
/// `any_domain` always runs in transparent mode: objects are allocated
/// with `guard::create<T>()` and retired with `guard::retire(ptr)`; no
/// user type ever names a scheme header (it could not — the scheme is not
/// known at compile time). Address-protecting schemes (`"hp"`) cannot
/// back a transparent domain (paper Table 1 marks HP non-transparent;
/// see `detail::protectsAddresses`) and are rejected at construction —
/// use `lfsmr::domain<schemes::hp>` in intrusive mode instead.
///
/// \code
///   lfsmr::any_domain dom("hyalines");      // or "epoch", "ibr", ...
///   auto g = dom.enter(tid);
///   auto *w = g.create<widget>(42);
///   widget *seen = g.protect(shared);
///   if (auto *old = shared.exchange(w))
///     g.retire(old);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_ANY_DOMAIN_H
#define LFSMR_ANY_DOMAIN_H

#include "lfsmr/config.h"
#include "lfsmr/detail/transparent.h"
#include "lfsmr/protected_ptr.h"
#include "lfsmr/schemes.h"
#include "lfsmr/telemetry.h"
#include "smr/scheme_list.h"

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <stdexcept>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace lfsmr {

/// A reclamation domain over a scheme selected by runtime name.
class any_domain {
  /// Upper bound on any scheme's per-operation guard state, so the erased
  /// guard can hold it inline (no allocation per enter).
  static constexpr std::size_t guard_storage_size = 64;

  struct erased {
    virtual ~erased() = default;
    virtual void enter(thread_id tid, void *gs) = 0;
    virtual void leave(void *gs) = 0;
    virtual void *protect(void *gs, const std::atomic<void *> &src,
                          unsigned slot) = 0;
    virtual void *allocate(void *gs, std::size_t size, std::size_t align) = 0;
    virtual void retire_obj(void *gs, void *obj) = 0;
    virtual void discard_obj(void *gs, void *obj) = 0;
    virtual unsigned hazard_slots() const = 0;
    virtual telemetry::domain_stats stats() const = 0;
  };

  template <typename Scheme> struct model final : erased {
    using native_guard = typename Scheme::Guard;
    static_assert(sizeof(native_guard) <= guard_storage_size &&
                      alignof(native_guard) <= alignof(std::max_align_t) &&
                      std::is_trivially_copyable_v<native_guard> &&
                      std::is_trivially_destructible_v<native_guard>,
                  "erased guard storage too small/under-aligned for this "
                  "scheme");

    explicit model(const config &cfg)
        : s(cfg, &detail::reclaimTransparent<Scheme>, nullptr),
          rotate(smr::hazardSlots(cfg)) {}

    static native_guard &as_guard(void *gs) {
      return *static_cast<native_guard *>(gs);
    }

    void enter(thread_id tid, void *gs) override {
      new (gs) native_guard(s.enter(tid));
    }
    void leave(void *gs) override { s.leave(as_guard(gs)); }
    void *protect(void *gs, const std::atomic<void *> &src,
                  unsigned slot) override {
      return s.deref(as_guard(gs), src, slot);
    }
    void *allocate(void *gs, std::size_t size, std::size_t align) override {
      detail::TransparentBlock<Scheme> *block = nullptr;
      void *obj = detail::allocateTransparent<Scheme>(size, align, block);
      s.initNode(as_guard(gs), &block->Hdr);
      return obj;
    }
    void retire_obj(void *gs, void *obj) override {
      s.retire(as_guard(gs), header_of(obj));
    }
    void discard_obj(void * /*gs*/, void *obj) override {
      s.discard(header_of(obj));
    }
    unsigned hazard_slots() const override { return rotate; }
    telemetry::domain_stats stats() const override {
      telemetry::domain_stats st{};
      static_cast<memory_stats &>(st) = snapshot_stats(s.memCounter());
      st.era = smr::schemeEra(s);
      return st;
    }

    static typename Scheme::NodeHeader *header_of(void *obj) {
      return reinterpret_cast<typename Scheme::NodeHeader *>(
          detail::metaOf(obj)->Block);
    }

    Scheme s;
    unsigned rotate;
  };

public:
  /// RAII enter/leave over a runtime-selected scheme; obtained from
  /// `any_domain::enter`. Mirrors `lfsmr::guard` minus the intrusive-mode
  /// surface (a caller who does not know the scheme type cannot embed its
  /// header).
  class guard {
  public:
    /// Prefer `any_domain::enter`.
    guard(any_domain &d, thread_id tid)
        : i(d.impl.get()), rotate(d.impl->hazard_slots()) {
      i->enter(tid, storage);
    }

    ~guard() {
      if (i)
        i->leave(storage);
    }

    guard(const guard &) = delete;
    guard &operator=(const guard &) = delete;

    /// Transfers the open operation; the source becomes inert.
    guard(guard &&other) noexcept
        : i(other.i), rotate(other.rotate), next_slot(other.next_slot) {
      std::memcpy(storage, other.storage, sizeof(storage));
      other.i = nullptr;
    }

    guard &operator=(guard &&other) noexcept {
      if (this != &other) {
        if (i)
          i->leave(storage);
        i = other.i;
        rotate = other.rotate;
        next_slot = other.next_slot;
        std::memcpy(storage, other.storage, sizeof(storage));
        other.i = nullptr;
      }
      return *this;
    }

    /// Ends the operation early; previously protected pointers lose their
    /// validity.
    void leave() {
      if (i) {
        i->leave(storage);
        i = nullptr;
      }
    }

    /// True while the operation is open.
    bool active() const { return i != nullptr; }

    /// Protected pointer read (the paper's `deref`) into protection slot
    /// \p slot. For the index-based schemes (HE) the slot must stay
    /// untouched while the returned pointer is used; pass distinct slots
    /// for pointers held live concurrently.
    ///
    /// The erased call loads through `std::atomic<void *>`; the scheme
    /// contract already relies on the same representation pun (every
    /// `deref` forwards to a `std::atomic<uintptr_t>` `derefLink`), and
    /// the asserts below pin the layout assumptions it needs.
    template <typename T>
    protected_ptr<T> protect(const std::atomic<T *> &src, unsigned slot) {
      static_assert(sizeof(std::atomic<T *>) == sizeof(std::atomic<void *>) &&
                        alignof(std::atomic<T *>) ==
                            alignof(std::atomic<void *>),
                    "atomic pointer layouts must agree for type erasure");
      static_assert(std::atomic<T *>::is_always_lock_free,
                    "erased protect requires lock-free atomic pointers");
      return protected_ptr<T>(static_cast<T *>(i->protect(
          storage, reinterpret_cast<const std::atomic<void *> &>(src), slot)));
    }

    /// Protected pointer read with automatic slot rotation (mirrors the
    /// typed `lfsmr::guard`): successive calls cycle through the
    /// domain's `config::NumHazards` slots so that many pointers stay
    /// live concurrently. Use the explicit-slot overload when pointer
    /// lifetimes overlap in a loop.
    template <typename T>
    protected_ptr<T> protect(const std::atomic<T *> &src) {
      return protect(src, next_slot++ % rotate);
    }

    /// Allocates and constructs a `T` with the runtime scheme's header
    /// hidden in front of it. Strong exception guarantee: if `T`'s
    /// constructor throws, the block is released and the exception
    /// propagates.
    template <typename T, typename... Args> T *create(Args &&...args) {
      void *obj = i->allocate(storage, sizeof(T), alignof(T));
      return detail::constructTransparent<T>(
          obj, [this, obj] { i->discard_obj(storage, obj); },
          std::forward<Args>(args)...);
    }

    /// Retires an object returned by `create<T>()`.
    template <typename T> void retire(T *obj) { i->retire_obj(storage, obj); }

    /// Retires an object returned by `create<T>()`, substituting \p del
    /// for the destructor at reclamation time (resources only — storage
    /// stays library-owned).
    template <typename T> void retire(T *obj, void (*del)(T *)) {
      detail::installUserDeleter(obj, del);
      i->retire_obj(storage, obj);
    }

    /// Immediately destroys an object returned by `create<T>()` that was
    /// never published into any shared structure.
    template <typename T> void discard(T *obj) { i->discard_obj(storage, obj); }

  private:
    erased *i;
    unsigned rotate;
    unsigned next_slot = 0;
    alignas(std::max_align_t) unsigned char storage[guard_storage_size];
  };

  /// Constructs a domain running the scheme named \p scheme (see
  /// `scheme_names()`); throws `std::invalid_argument` on an unknown
  /// name, and on `"hp"` (address-protecting — structurally incompatible
  /// with the transparent allocation any_domain relies on; use
  /// `lfsmr::domain<schemes::hp>` in intrusive mode).
  explicit any_domain(std::string_view scheme, const config &cfg = {})
      : impl(make(scheme, cfg)), name_(scheme) {
    if (!impl) {
      if (in_lineup(scheme))
        throw std::invalid_argument(
            "lfsmr: scheme '" + std::string(scheme) +
            "' protects raw published addresses and cannot back a "
            "transparent any_domain; use lfsmr::domain<> in intrusive "
            "mode instead");
      throw std::invalid_argument("lfsmr: unknown scheme name '" +
                                  std::string(scheme) + "'");
    }
  }

  any_domain(const any_domain &) = delete;
  any_domain &operator=(const any_domain &) = delete;

  /// Every *constructible* scheme name: the paper lineup plus ablations,
  /// in presentation order, minus the address-protecting schemes
  /// (`"hp"`) that cannot run transparently. Generated from
  /// `smr/scheme_list.h`.
  static const std::vector<std::string> &scheme_names() {
    static const std::vector<std::string> names = [] {
      std::vector<std::string> all;
#define LFSMR_ANY_DOMAIN_NAME(NAME, TYPE)                                     \
  if (!detail::protectsAddresses<TYPE>)                                       \
    all.emplace_back(NAME);
      LFSMR_FOREACH_SCHEME(LFSMR_ANY_DOMAIN_NAME)
#undef LFSMR_ANY_DOMAIN_NAME
      return all;
    }();
    return names;
  }

  /// True when \p scheme names a constructible scheme.
  static bool is_scheme(std::string_view scheme) {
    for (const std::string &n : scheme_names())
      if (n == scheme)
        return true;
    return false;
  }

  /// The name this domain was constructed with.
  std::string_view scheme_name() const { return name_; }

  /// Begins an operation as thread \p tid.
  guard enter(thread_id tid) { return guard(*this, tid); }

  /// Allocation/retire/free accounting snapshot plus the scheme's era
  /// clock. Converts implicitly to `memory_stats` for callers of the
  /// pre-telemetry surface.
  telemetry::domain_stats stats() const { return impl->stats(); }

private:
  /// True when \p scheme appears in the full scheme list, including the
  /// names `make` refuses (address-protecting).
  static bool in_lineup(std::string_view scheme) {
#define LFSMR_ANY_DOMAIN_LINEUP(NAME, TYPE)                                   \
  if (scheme == NAME)                                                         \
    return true;
    LFSMR_FOREACH_SCHEME(LFSMR_ANY_DOMAIN_LINEUP)
#undef LFSMR_ANY_DOMAIN_LINEUP
    return false;
  }

  static std::unique_ptr<erased> make(std::string_view scheme,
                                      const config &cfg) {
#define LFSMR_ANY_DOMAIN_CASE(NAME, TYPE)                                     \
  if (scheme == NAME) {                                                       \
    if (detail::protectsAddresses<TYPE>)                                      \
      return nullptr;                                                         \
    return std::make_unique<model<TYPE>>(cfg);                                \
  }
    LFSMR_FOREACH_SCHEME(LFSMR_ANY_DOMAIN_CASE)
#undef LFSMR_ANY_DOMAIN_CASE
    return nullptr;
  }

  std::unique_ptr<erased> impl;
  std::string name_;
};

} // namespace lfsmr

#endif // LFSMR_ANY_DOMAIN_H
