//===- lfsmr/domain.h - Reclamation domain -----------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr::domain<Scheme>`: one reclamation instance — the scheme's slot
/// state, batches, and allocation accounting — owning everything a group
/// of threads shares while reclaiming one set of objects. A process can
/// run many domains (one per data structure is typical); guards and
/// retired nodes never cross domains.
///
/// Two allocation modes, chosen by constructor:
///
///  - **Transparent** (`domain(cfg)`): objects are allocated with
///    `guard::create<T>()` and retired with `guard::retire(ptr)`. The
///    scheme header travels in front of the object inside a library-owned
///    block; `T` needs no intrusive member. Birth-era stamping (for the
///    robust schemes) happens inside `create`.
///
///  - **Intrusive** (`domain(cfg, deleter, ctx)`): user node types embed
///    `Scheme::NodeHeader` as their *first* member, register allocations
///    with `guard::init` and retire with `guard::retire(&node->hdr)`; the
///    registered deleter frees whole nodes. This is the zero-overhead mode
///    the in-tree data structures and benchmarks use.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_DOMAIN_H
#define LFSMR_DOMAIN_H

#include "lfsmr/config.h"
#include "lfsmr/detail/transparent.h"
#include "lfsmr/guard.h"
#include "lfsmr/telemetry.h"

namespace lfsmr {

/// A reclamation domain running scheme \p Scheme (see `lfsmr/schemes.h`
/// for the nine-scheme lineup). Immovable; construct it before the
/// threads that use it and destroy it after they quiesce — destruction
/// frees every node still awaiting reclamation.
template <typename Scheme> class domain {
public:
  /// The concrete reclamation scheme.
  using scheme_type = Scheme;
  /// The scheme's per-node header (intrusive mode embeds it first).
  using node_header = typename Scheme::NodeHeader;
  /// The RAII guard type `enter` returns.
  using guard_type = guard<Scheme>;

  /// Transparent mode: allocate via `guard::create<T>()`, retire via
  /// `guard::retire(ptr)`; no intrusive headers in user types.
  /// Ill-formed for address-protecting schemes (HP) — they can only
  /// protect what they retire when the header sits at the published
  /// address, i.e. intrusive mode (the paper's Table 1 marks HP as
  /// non-transparent for exactly this reason).
  explicit domain(const config &cfg = {})
      : s(cfg, &detail::reclaimTransparent<Scheme>, nullptr), cfg_(cfg),
        transparent_(true) {
    static_assert(!detail::protectsAddresses<Scheme>,
                  "transparent mode is unavailable for address-protecting "
                  "schemes (hazard pointers): the hazard slot holds the "
                  "object address while retire tracks the hidden header; "
                  "use the intrusive constructor instead");
  }

  /// Intrusive mode: user nodes embed `node_header` first; \p del is
  /// invoked with (\p header, \p ctx) to free each reclaimed node.
  domain(const config &cfg, deleter del, void *ctx)
      : s(cfg, del, ctx), cfg_(cfg), transparent_(false) {}

  domain(const domain &) = delete;
  domain &operator=(const domain &) = delete;

  /// Begins an operation as thread \p tid; the returned guard leaves on
  /// destruction. Every scheme requires `tid < cfg.MaxThreads`: each
  /// one keeps per-thread state (Hyaline's local retire batches) indexed
  /// by it. Hyaline's transparency is that its slot count `k` does not
  /// depend on the number of threads, and threads need no registration.
  guard_type enter(thread_id tid) {
    return guard_type(s, tid, smr::hazardSlots(cfg_), transparent_);
  }

  /// The underlying scheme instance, for scheme-specific observers
  /// (`currentEra`, `slots`, ...) and for code predating the facade.
  Scheme &scheme() { return s; }
  /// \copydoc scheme
  const Scheme &scheme() const { return s; }

  /// The configuration the domain was built with.
  const config &configuration() const { return cfg_; }

  /// True when the domain was built in transparent mode.
  bool transparent() const { return transparent_; }

  /// Allocation/retire/free accounting snapshot plus the scheme's era
  /// clock. Converts implicitly to `memory_stats` for callers of the
  /// pre-telemetry surface.
  telemetry::domain_stats stats() const {
    telemetry::domain_stats st{};
    static_cast<memory_stats &>(st) = snapshot_stats(s.memCounter());
    st.era = smr::schemeEra(s);
    return st;
  }

private:
  Scheme s;
  config cfg_;
  bool transparent_;
};

} // namespace lfsmr

#endif // LFSMR_DOMAIN_H
