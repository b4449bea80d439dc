#pragma once
// Construction-time storage dispatch.
//
// The StorageKind enum is resolved to a concrete AccessStore type exactly
// once, when a profiler is built.  Everything downstream of this file is a
// fully monomorphized DetectorCore<Store> instantiation: the per-access
// detect loop never branches (or virtually dispatches) on the backend.
// make_store also builds the Sec. III-B baselines (ShadowMemory,
// HashTableRecorder), which the benches instantiate directly.

#include <type_traits>

#include "core/profiler.hpp"
#include "sig/access_store.hpp"
#include "sig/packed_shadow_store.hpp"
#include "sig/perfect_signature.hpp"
#include "sig/signature.hpp"
#include "sig/slots.hpp"

namespace depprof {

/// Builds one empty store of the given backend from the configuration.
/// Signature sizing (slots, hash) and hash-table bucket counts come from the
/// config; the exact baselines start empty.
template <AccessStore Store>
Store make_store(const ProfilerConfig& c) {
  if constexpr (std::is_constructible_v<Store, std::size_t, SigHash>)
    return Store(c.slots, c.sig_hash);
  else if constexpr (std::is_constructible_v<Store, std::size_t>)
    return Store(c.slots);
  else
    return Store{};
}

/// Resolves (storage kind, target kind) to a concrete store type and calls
/// `fn` with a std::type_identity tag for it.  This switch is the single
/// place the StorageKind enum is branched on; both profiler factories go
/// through it, which is what makes every live backend available to both the
/// serial profiler and the parallel pipeline.
template <typename Fn>
auto with_store(const ProfilerConfig& c, Fn&& fn) {
  auto dispatch = [&]<typename Slot>() {
    switch (c.storage) {
      case StorageKind::kPerfect:
        return fn(std::type_identity<PerfectSignature<Slot>>{});
      case StorageKind::kPacked:
        return fn(std::type_identity<PackedShadowStore<Slot>>{});
      case StorageKind::kSignature:
      default:
        return fn(std::type_identity<Signature<Slot>>{});
    }
  };
  return c.mt_targets ? dispatch.template operator()<MtSlot>()
                      : dispatch.template operator()<SeqSlot>();
}

}  // namespace depprof
