// Serial profiler factory: resolves StorageKind to a store type once and
// builds SerialProfiler over it (core/serial_profiler.hpp).

#include "core/serial_profiler.hpp"

namespace depprof {

const char* storage_kind_name(StorageKind kind) {
  switch (kind) {
    case StorageKind::kSignature: return "signature";
    case StorageKind::kPerfect: return "perfect";
    case StorageKind::kPacked: return "packed";
  }
  return "?";
}

bool parse_storage_kind(std::string_view name, StorageKind& out) {
  if (name == "signature") out = StorageKind::kSignature;
  else if (name == "perfect") out = StorageKind::kPerfect;
  else if (name == "packed") out = StorageKind::kPacked;
  else return false;
  return true;
}

std::unique_ptr<IProfiler> make_serial_profiler(const ProfilerConfig& config) {
  return with_store(
      config,
      [&]<typename Store>(std::type_identity<Store>) {
        return make_serial_profiler_over<Store>(config);
      });
}

}  // namespace depprof
