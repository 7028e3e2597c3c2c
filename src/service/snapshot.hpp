// Versioned, checksummed container around KiNetGan's serialized state.
//
// Layout (integers in host byte order — see src/common/bytes.hpp):
//   bytes 0-7   magic "KNETSNAP"
//   bytes 8-11  u32 format version (kSnapshotVersion)
//   bytes 12-19 u64 payload length
//   bytes 20-27 u64 FNV-1a of the payload
//   bytes 28-   payload (KiNetGan::save stream)
//
// Truncated files, bit corruption and snapshots written by a different
// format version are all rejected with distinct kinet::Error messages before
// any model state is touched — a registry never loads a half-read model.
#ifndef KINETGAN_SERVICE_SNAPSHOT_H
#define KINETGAN_SERVICE_SNAPSHOT_H

#include <memory>
#include <string>
#include <string_view>

#include "src/common/check.hpp"
#include "src/core/kinetgan.hpp"

namespace kinet::service {

/// Format 2 serves rows from the counter-based sampling stream
/// (src/common/philox.hpp).  This build refuses format 1 and older builds
/// refuse format 2, so replicas on mixed builds never serve different
/// bytes for the same seed.
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::string_view kSnapshotMagic = "KNETSNAP";

/// read_snapshot's refusal of an intact container written in another format
/// version.  Unlike corruption it says nothing is wrong with the bytes, so
/// recovery keeps such a file: the build that wrote it can still serve it.
class SnapshotVersionError : public Error {
public:
    using Error::Error;
};

/// Serializes a fitted model into the container format.
[[nodiscard]] std::string write_snapshot(core::KiNetGan& model);

/// Wraps an already-serialized KiNetGan::save stream into the container
/// format (magic, version, length, checksum) without re-serializing — the
/// registry uses this to persist the payload it just measured.
[[nodiscard]] std::string wrap_snapshot_payload(std::string_view payload);

/// Parses and validates a container; throws kinet::Error naming the failure
/// (bad magic / truncation / checksum mismatch), or SnapshotVersionError for
/// an unsupported format version.
[[nodiscard]] std::unique_ptr<core::KiNetGan> read_snapshot(std::string_view data);

/// File convenience wrappers.
void save_snapshot_file(core::KiNetGan& model, const std::string& path);
[[nodiscard]] std::unique_ptr<core::KiNetGan> load_snapshot_file(const std::string& path);

}  // namespace kinet::service

#endif  // KINETGAN_SERVICE_SNAPSHOT_H
