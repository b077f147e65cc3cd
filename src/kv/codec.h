//===- kv/codec.h - Key/value payload codecs ---------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The codec layer of `lfsmr::kv`: maps user key/value types onto the
/// payload storage embedded in version and key records. The store is
/// generic over `(K, V)`; a `Codec<T>` specialization answers, for one
/// type, the four questions a lock-free record layout forces:
///
///  1. **What lives inside the record?** (`storage_type`, a trivially
///     destructible POD — records are reclaimed by one raw-free deleter
///     that must never run user code).
///  2. **How many trailing bytes follow the record?** Variable-size
///     payloads (byte-strings) are carried *in the same allocation* as
///     the record — one oversized `operator new` per node, behind the
///     scheme header — so a version is always exactly one node to
///     protect, retire, and free. `trailingBytes(v)` sizes that suffix.
///     A codec whose `FixedSize` member is true promises that suffix is
///     always empty, so its records can come from the store's fixed-size
///     node pool (`kv/node_pool.h`); a codec without the member is
///     treated as variable size.
///  3. **How is a value written/read?** `encode` places the payload into
///     the storage (+ trailing suffix); `decode` materializes an owned
///     `T`; `view` returns a borrowed view valid while the record is
///     protected.
///  4. **How are keys hashed and ordered?** `hash` feeds the shard/bucket
///     split-order machinery (`kv/shard_index.h`); `compare` breaks
///     hash-collision ties so Michael chains stay totally ordered. A
///     codec whose `HashIsBijective` member is true promises that `hash`
///     is a bijection with inverse `unhash`: its keys live in their
///     split-order key, and key records store no key bytes at all.
///
/// Three families are supported out of the box:
///
///  - `std::uint64_t` and any other **trivially copyable** type
///    (fixed-size structs): stored inline, zero trailing bytes, ordered
///    word by word. 8-byte integers hash by a bijective multiply, so a
///    key record rebuilds them from its split-order key.
///  - `std::string` (**owned byte-strings**): a `BytesStorage` header
///    inside the record plus the bytes in the trailing suffix, referenced
///    by a self-relative offset (records never move, so the offset is
///    stable for the record's whole life).
///
/// Adding a type = adding a `Codec` specialization; the store, index, and
/// scan layers never look at payloads except through this interface.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_KV_CODEC_H
#define LFSMR_KV_CODEC_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace lfsmr::kv {

/// Fibonacci hashing's multiplier (2^64 / φ, made odd) and its inverse
/// modulo 2^64: the hash of an 8-byte integer key and the map back.
inline constexpr std::uint64_t FibMul = 0x9e3779b97f4a7c15ULL;
/// \copydoc FibMul
inline constexpr std::uint64_t FibInverse = 0xf1de83e19937733dULL;
static_assert(FibMul * FibInverse == 1, "FibInverse inverts FibMul");

/// Finalizing 64-bit mixer (splitmix64): spreads entropy of byte hashes
/// into the top bits the shard selector and bottom bits the bucket
/// selector consume.
constexpr std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// FNV-1a over a byte range, finalized with `mix64` (FNV alone leaves the
/// low bits weak, and the bucket index is drawn from the low bits).
inline std::uint64_t hashBytes(const void *Data, std::size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (std::size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return mix64(H);
}

/// In-record header of a variable-size byte payload. The bytes live in
/// the record's trailing suffix; `Off` is self-relative (record addresses
/// are stable for their whole life), so the storage does not depend on
/// where the record sits inside its node.
struct BytesStorage {
  /// Byte offset from `this` to the payload bytes.
  std::int32_t Off;
  /// Payload length in bytes.
  std::uint32_t Len;

  /// Borrowed view of the payload; valid while the record is protected.
  std::string_view view() const {
    return {reinterpret_cast<const char *>(this) + Off, Len};
  }

  /// Copies \p Src into \p Trailing and records the self-relative offset.
  void assign(void *Trailing, std::string_view Src) {
    if (!Src.empty())
      std::memcpy(Trailing, Src.data(), Src.size());
    Off = static_cast<std::int32_t>(static_cast<const char *>(Trailing) -
                                    reinterpret_cast<const char *>(this));
    Len = static_cast<std::uint32_t>(Src.size());
  }
};

/// Payload codec for key/value type \p T. The primary template covers
/// every trivially copyable type (fixed-size inline storage); the
/// `std::string` specialization below carries owned byte-strings in the
/// record's trailing suffix. Instantiating the store with any other type
/// is a compile error pointing here.
template <typename T, typename Enable = void> struct Codec {
  static_assert(std::is_trivially_copyable_v<T>,
                "lfsmr::kv: unsupported key/value type — use uint64_t, a "
                "trivially-copyable struct, or std::string (or add a "
                "kv::Codec specialization)");

  /// What the record embeds (the value itself).
  using storage_type = T;
  /// Borrowed-read type handed to scan visitors.
  using view_type = const T &;

  /// Every record has the same size (no trailing bytes).
  static constexpr bool FixedSize = true;

  /// 8-byte integers hash by an invertible multiply (`hash`), so their
  /// key records keep only the split-order key.
  static constexpr bool HashIsBijective =
      std::is_integral_v<T> && sizeof(T) == 8;

  /// Trailing bytes needed beyond the record itself (none: inline).
  static std::size_t trailingBytes(const T &) { return 0; }

  /// Writes \p V into \p S. \p Trailing is the record's suffix (unused).
  static void encode(storage_type &S, void * /*Trailing*/, const T &V) {
    S = V;
  }

  /// Owned copy of the stored payload.
  static T decode(const storage_type &S) { return S; }

  /// Borrowed view; valid while the record is protected.
  static view_type view(const storage_type &S) { return S; }

  /// Shard/bucket hash of a probe value. Key types must have unique
  /// object representations (no padding bytes, no floating point): the
  /// hash and the tie-break order are bytewise.
  static std::uint64_t hash(const T &V) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "lfsmr::kv: trivially-copyable KEY types must have "
                  "unique object representations (no padding, no floats) "
                  "for bytewise hashing/ordering");
    if constexpr (HashIsBijective)
      // Fibonacci multiplicative hashing for 64-bit integer keys (the
      // store's historical default; full-period over any pow-2 mask).
      return static_cast<std::uint64_t>(V) * FibMul;
    else
      return hashBytes(&V, sizeof(T));
  }

  /// The key whose `hash` is \p H.
  static T unhash(std::uint64_t H)
    requires HashIsBijective
  {
    return static_cast<T>(H * FibInverse);
  }

  /// Three-way order of stored key vs probe, used only to break
  /// hash-collision ties, so any total order that agrees with bytewise
  /// equality works (see the unique-object-representations requirement
  /// on `hash`). Native 8-byte words first, then the tail bytes: unlike a
  /// `memcmp` whose sign is used, the loop inlines.
  static int compare(const storage_type &S, const T &V) {
    const auto *A = reinterpret_cast<const unsigned char *>(&S);
    const auto *B = reinterpret_cast<const unsigned char *>(&V);
    std::size_t I = 0;
    for (; I + 8 <= sizeof(T); I += 8) {
      std::uint64_t X, Y;
      std::memcpy(&X, A + I, 8);
      std::memcpy(&Y, B + I, 8);
      if (X != Y)
        return X < Y ? -1 : 1;
    }
    for (; I < sizeof(T); ++I)
      if (A[I] != B[I])
        return A[I] < B[I] ? -1 : 1;
    return 0;
  }
};

/// Owned byte-strings: `BytesStorage` in the record, bytes in the
/// trailing suffix — one allocation per version, no hidden `std::string`
/// heap buffer to destruct at reclamation time.
template <> struct Codec<std::string> {
  /// In-record payload header (offset + length; bytes follow the record).
  using storage_type = BytesStorage;
  /// Borrowed-read type handed to scan visitors.
  using view_type = std::string_view;

  /// Largest representable payload (`BytesStorage::Len` is 32 bits);
  /// oversize payloads are refused with `std::length_error` rather than
  /// silently truncated.
  static constexpr std::size_t MaxBytes = 0xffffffffu;

  /// The payload bytes ride in the record's trailing suffix. Called
  /// before any allocation, so the size check rejects an oversize
  /// payload up front.
  static std::size_t trailingBytes(const std::string &V) {
    if (V.size() > MaxBytes)
      throw std::length_error(
          "lfsmr::kv: byte-string payloads are limited to 2^32-1 bytes");
    return V.size();
  }

  /// Copies \p V's bytes into \p Trailing and records the offset.
  static void encode(storage_type &S, void *Trailing, const std::string &V) {
    S.assign(Trailing, V);
  }

  /// Owned copy of the stored payload.
  static std::string decode(const storage_type &S) {
    return std::string(S.view());
  }

  /// Borrowed view; valid while the record is protected.
  static view_type view(const storage_type &S) { return S.view(); }

  /// Shard/bucket hash of a probe value.
  static std::uint64_t hash(const std::string &V) {
    return hashBytes(V.data(), V.size());
  }

  /// Lexicographic three-way order of stored key vs probe (collision
  /// tie-break).
  static int compare(const storage_type &S, const std::string &V) {
    const std::string_view A = S.view(), B = V;
    const int C = A.compare(B);
    return C < 0 ? -1 : (C > 0 ? 1 : 0);
  }
};

/// True when \p T is carried as a byte-string (prefix scans are only
/// meaningful for these).
template <typename T>
inline constexpr bool IsBytesCodec =
    std::is_same_v<typename Codec<T>::storage_type, BytesStorage>;

/// True when \p T's codec declares `FixedSize` (no trailing bytes, ever).
template <typename T>
inline constexpr bool IsFixedSizeCodec =
    requires { requires Codec<T>::FixedSize; };

/// True when \p T's codec declares `HashIsBijective` (`unhash` rebuilds
/// a key from its hash).
template <typename T>
inline constexpr bool IsBijectiveHashCodec =
    requires { requires Codec<T>::HashIsBijective; };

/// Equality of two probe values in the codecs' order: bytewise for
/// trivially copyable types, `operator==` for byte-strings.
template <typename T> bool codecEqual(const T &A, const T &B) {
  if constexpr (std::is_trivially_copyable_v<T>)
    return std::memcmp(&A, &B, sizeof(T)) == 0;
  else
    return A == B;
}

/// Strict order of two probe values, consistent with `codecEqual`.
template <typename T> bool codecLess(const T &A, const T &B) {
  if constexpr (std::is_trivially_copyable_v<T>)
    return Codec<T>::compare(A, B) < 0;
  else
    return A < B;
}

} // namespace lfsmr::kv

#endif // LFSMR_KV_CODEC_H
