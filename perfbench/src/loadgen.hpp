// The load generator's wire client: one blocking kinetd connection that
// times each response at the client socket and hashes every payload byte
// it receives, so responses can be checked against in-process goldens
// without keeping them in memory.
#ifndef KINET_PERFBENCH_LOADGEN_H
#define KINET_PERFBENCH_LOADGEN_H

#include <cstdint>
#include <optional>
#include <string>

#include "src/service/socket.hpp"
#include "stats.hpp"

namespace perfbench {

struct Reply {
    bool ok = false;
    /// ERR message, or "transport: ..." when the connection failed.
    std::string error;
    /// FNV-1a of the payload (framed) or of the reassembled CHUNK payloads.
    std::uint64_t hash = 0;
    /// CSV data rows: newline count minus the header (framed), or the END
    /// trailer's rows= (streamed).
    std::uint64_t rows = 0;
    std::uint64_t bytes = 0;
    /// Status line read (framed) or first CHUNK frame fully read (streamed).
    Clock::time_point first{};
    /// Last response byte read.
    Clock::time_point last{};
    /// The payload itself, kept only when asked for (small kv responses).
    std::string payload;
};

class WireClient {
public:
    explicit WireClient(std::uint16_t port);

    /// Sends one request line and reads an `OK <n>` / `ERR` framed response.
    Reply framed(const std::string& line, bool keep_payload = false);
    /// Sends a `stream=1` SAMPLE line and reads OK STREAM, CHUNK frames and
    /// the END trailer.
    Reply stream(const std::string& line);

private:
    /// Reconnects after a transport failure left the stream unusable.
    void ensure_connected();

    std::uint16_t port_;
    std::optional<kinet::service::TcpStream> conn_;
};

}  // namespace perfbench

#endif  // KINET_PERFBENCH_LOADGEN_H
