#include "loadgen.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string_view>

namespace perfbench {

namespace {

constexpr std::size_t kRecvTimeoutMs = 60000;

std::uint64_t parse_count(std::string_view text) {
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') {
            break;
        }
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
}

}  // namespace

WireClient::WireClient(std::uint16_t port) : port_(port) { ensure_connected(); }

void WireClient::ensure_connected() {
    if (conn_.has_value() && conn_->valid()) {
        return;
    }
    conn_.emplace(kinet::service::TcpStream::connect("127.0.0.1", port_, 2000));
    conn_->set_recv_timeout(kRecvTimeoutMs);
}

Reply WireClient::framed(const std::string& line, bool keep_payload) {
    Reply r;
    try {
        ensure_connected();
        conn_->write_all(line + "\n");
        const auto status = conn_->read_line();
        r.first = Clock::now();
        if (!status.has_value()) {
            throw std::runtime_error("server closed the connection");
        }
        if (status->rfind("ERR ", 0) == 0) {
            r.error = status->substr(4);
            r.last = r.first;
            return r;
        }
        if (status->rfind("OK ", 0) != 0) {
            throw std::runtime_error("unexpected status '" + *status + "'");
        }
        const std::uint64_t size = parse_count(std::string_view(*status).substr(3));
        const std::string payload = conn_->read_exact(static_cast<std::size_t>(size));
        r.last = Clock::now();
        r.hash = fnv64(payload);
        r.bytes = payload.size();
        const auto newlines = static_cast<std::uint64_t>(
            std::count(payload.begin(), payload.end(), '\n'));
        r.rows = newlines == 0 ? 0 : newlines - 1;
        if (keep_payload) {
            r.payload = payload;
        }
        r.ok = true;
    } catch (const std::exception& e) {
        conn_.reset();
        r.ok = false;
        r.error = std::string("transport: ") + e.what();
        r.last = Clock::now();
    }
    return r;
}

Reply WireClient::stream(const std::string& line) {
    Reply r;
    try {
        ensure_connected();
        conn_->write_all(line + "\n");
        const auto status = conn_->read_line();
        if (!status.has_value()) {
            throw std::runtime_error("server closed the connection");
        }
        if (status->rfind("ERR ", 0) == 0) {
            r.error = status->substr(4);
            r.first = r.last = Clock::now();
            return r;
        }
        if (*status != "OK STREAM") {
            throw std::runtime_error("unexpected status '" + *status + "'");
        }
        Fnv64 hash;
        bool first = true;
        for (;;) {
            const auto frame = conn_->read_line();
            if (!frame.has_value()) {
                throw std::runtime_error("stream truncated");
            }
            if (frame->rfind("CHUNK ", 0) == 0) {
                const std::uint64_t size = parse_count(std::string_view(*frame).substr(6));
                const std::string payload = conn_->read_exact(static_cast<std::size_t>(size));
                hash.update(payload);
                r.bytes += payload.size();
                if (first) {
                    r.first = Clock::now();
                    first = false;
                }
                continue;
            }
            r.last = Clock::now();
            if (first) {
                r.first = r.last;
            }
            if (frame->rfind("END rows=", 0) == 0) {
                r.rows = parse_count(std::string_view(*frame).substr(9));
                r.hash = hash.value();
                r.ok = true;
                return r;
            }
            if (frame->rfind("ERR ", 0) == 0) {
                r.error = frame->substr(4);
                return r;
            }
            throw std::runtime_error("unexpected frame '" + *frame + "'");
        }
    } catch (const std::exception& e) {
        conn_.reset();
        r.ok = false;
        r.error = std::string("transport: ") + e.what();
        r.last = Clock::now();
        if (r.first == Clock::time_point{}) {
            r.first = r.last;
        }
    }
    return r;
}

}  // namespace perfbench
