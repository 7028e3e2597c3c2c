#include "src/service/snapshot.hpp"

#include <fstream>
#include <sstream>

#include "src/common/bytes.hpp"
#include "src/common/check.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/fsio.hpp"

namespace kinet::service {

std::string write_snapshot(core::KiNetGan& model) {
    KINET_FAILPOINT("snapshot.write");
    bytes::Writer payload;
    model.save(payload);
    return wrap_snapshot_payload(payload.buffer());
}

std::string wrap_snapshot_payload(std::string_view payload) {
    bytes::Writer out;
    out.raw(kSnapshotMagic);
    out.u32(kSnapshotVersion);
    out.u64(payload.size());
    out.u64(bytes::fnv1a(payload));
    out.raw(payload);
    return out.take();
}

std::unique_ptr<core::KiNetGan> read_snapshot(std::string_view data) {
    KINET_FAILPOINT("snapshot.read");
    bytes::Reader header(data);
    if (header.remaining() < kSnapshotMagic.size() + 4 + 8 + 8) {
        throw Error("snapshot: truncated header (" + std::to_string(data.size()) + " bytes)");
    }
    if (header.raw(kSnapshotMagic.size()) != kSnapshotMagic) {
        throw Error("snapshot: bad magic — not a KiNETGAN snapshot");
    }
    const std::uint32_t version = header.u32();
    if (version != kSnapshotVersion) {
        throw SnapshotVersionError("snapshot: unsupported format version " +
                                   std::to_string(version) + " (this build reads version " +
                                   std::to_string(kSnapshotVersion) + ")");
    }
    const auto payload_size = static_cast<std::size_t>(header.u64());
    const std::uint64_t expected_hash = header.u64();
    if (header.remaining() != payload_size) {
        throw Error("snapshot: truncated payload (declared " + std::to_string(payload_size) +
                    " bytes, have " + std::to_string(header.remaining()) + ")");
    }
    const std::string_view payload = header.raw(payload_size);
    const std::uint64_t actual_hash = bytes::fnv1a(payload);
    if (actual_hash != expected_hash) {
        throw Error("snapshot: payload checksum mismatch — file is corrupt");
    }

    bytes::Reader body(payload);
    auto model = core::KiNetGan::load(body);
    if (!body.exhausted()) {
        throw Error("snapshot: " + std::to_string(body.remaining()) +
                    " trailing bytes after model state");
    }
    return model;
}

void save_snapshot_file(core::KiNetGan& model, const std::string& path) {
    const std::string blob = write_snapshot(model);
    // Atomic replacement: the container goes to `path + ".tmp"`, is fsynced,
    // and only then renamed over the target.  A crash (or an injected fault)
    // at any instant leaves either the previous snapshot or the new one on
    // disk — never a torn file a restart would refuse to load.
    fsio::write_file_durable(path + ".tmp", blob);
    KINET_FAILPOINT("snapshot.commit");
    fsio::rename_durable(path + ".tmp", path);
}

std::unique_ptr<core::KiNetGan> load_snapshot_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    KINET_CHECK(in.good(), "snapshot: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    KINET_CHECK(!in.bad(), "snapshot: read from " + path + " failed");
    return read_snapshot(buf.str());
}

}  // namespace kinet::service
