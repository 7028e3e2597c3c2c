#include "src/service/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/csv.hpp"
#include "src/common/failpoint.hpp"
#include "src/common/stopwatch.hpp"
#include "src/common/text.hpp"
#include "src/data/split.hpp"
#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"
#include "src/service/client.hpp"
#include "src/service/snapshot.hpp"

namespace kinet::service {
namespace {

/// Upper bound on rows per framed SAMPLE/VALIDATE response — protects the
/// daemon from a single response monopolising memory.  Streaming SAMPLEs
/// (stream=1) are bounded per *chunk* instead, so n itself is uncapped:
/// rows leave the process as they are generated.
constexpr std::uint64_t kMaxSampleRows = 1'000'000;

/// Default rows per streamed chunk when the request does not pass chunk=.
constexpr std::uint64_t kDefaultStreamChunkRows = 65'536;

/// Ceiling on a `POLL wait=` long-poll — it parks a request worker, so the
/// server, not the client, bounds how long that can last.
constexpr std::uint64_t kMaxPollWaitMs = 30'000;

/// True once a peer has forwarded this request (fwd=1): it must be answered
/// locally, never forwarded again.
bool is_forwarded(const Request& request) {
    return request.kv.find(std::string(kForwardedKey)) != request.kv.end();
}

std::string kv_line(const std::string& key, const std::string& value) {
    return key + "=" + value + "\n";
}

Response error_response(std::string message) {
    Response r;
    r.ok = false;
    r.error = std::move(message);
    return r;
}

/// Resolves a client-supplied relative path inside `dir`.  The wire path is
/// untrusted: absolute paths and any `..` component are rejected, so the
/// protocol can never become an arbitrary filesystem read/write primitive.
/// An empty `dir` means the operator disabled the capability.
std::string resolve_confined(const std::string& dir, const std::string& wire_path,
                             const std::string& what) {
    namespace fs = std::filesystem;
    if (dir.empty()) {
        throw Error(what + ": disabled by server configuration");
    }
    if (wire_path.empty()) {
        throw Error(what + ": empty path");
    }
    const fs::path path(wire_path);
    if (path.is_absolute()) {
        throw Error(what + ": absolute paths are not allowed");
    }
    for (const auto& part : path) {
        if (part == "..") {
            throw Error(what + ": path escapes the configured directory");
        }
    }
    return (fs::path(dir) / path).lexically_normal().string();
}

Response job_info_response(const JobInfo& info) {
    Response r;
    r.payload += kv_line("job", std::to_string(info.id));
    r.payload += kv_line("model", info.model);
    r.payload += kv_line("state", std::string(job_state_name(info.state)));
    r.payload += kv_line("epochs_done", std::to_string(info.epochs_done));
    r.payload += kv_line("epochs_total", std::to_string(info.epochs_total));
    if (info.state == JobState::failed) {
        r.payload += kv_line("error", info.error);
    }
    return r;
}

/// True iff the request is SAMPLE ... stream=1 (any non-"0" value).
bool wants_stream(const Request& request) {
    if (request.op != Op::sample) {
        return false;
    }
    const auto it = request.kv.find("stream");
    return it != request.kv.end() && it->second != "0";
}

}  // namespace

/// Resumable streaming SAMPLE: wraps the model's pull cursor in the event
/// loop's StreamProducer shape.  Each next_frame() emits one CHUNK frame
/// (CSV; header row only in the first chunk), then the END trailer — or a
/// newline-sanitised mid-stream ERR where the next frame would have been.
/// Holding the ModelEntry shared_ptr keeps the model alive across
/// suspensions even if it is concurrently dropped, replaced or evicted.
class SynthServer::SampleStreamProducer : public StreamProducer {
public:
    SampleStreamProducer(std::shared_ptr<ModelEntry> entry,
                         std::unique_ptr<core::KiNetGan::StreamCursor> cursor,
                         Metrics& metrics)
        : entry_(std::move(entry)), cursor_(std::move(cursor)), metrics_(metrics) {}

    bool next_frame(std::string& out) override {
        out.clear();
        try {
            const data::Table* chunk = cursor_->next();
            if (chunk != nullptr) {
                payload_.clear();
                chunk->append_csv(payload_, /*include_header=*/chunks_ == 0);
                out = "CHUNK " + std::to_string(payload_.size()) + "\n";
                out += payload_;
                rows_ += chunk->rows();
                ++chunks_;
                return true;
            }
            out = "END rows=" + std::to_string(rows_) +
                  " chunks=" + std::to_string(chunks_) + "\n";
            entry_->requests.fetch_add(1, std::memory_order_relaxed);
            entry_->rows_served.fetch_add(rows_, std::memory_order_relaxed);
            metrics_.record_rows(rows_);
            metrics_.record_op(Op::sample,
                               static_cast<std::uint64_t>(watch_.millis() * 1000.0));
            return false;
        } catch (const std::exception& e) {
            std::string message = e.what();
            std::replace(message.begin(), message.end(), '\n', ' ');
            out = "ERR " + message + "\n";
            return false;
        }
    }

private:
    std::shared_ptr<ModelEntry> entry_;
    std::unique_ptr<core::KiNetGan::StreamCursor> cursor_;
    Metrics& metrics_;
    std::uint64_t rows_ = 0;
    std::uint64_t chunks_ = 0;
    std::string payload_;  // reused CSV scratch across frames
    Stopwatch watch_;
};

/// Cluster-side streaming SAMPLE: with a target peer, relays the owner's
/// CHUNK/END frames one at a time — a forwarded stream therefore has the
/// same chunk boundaries (and the same bytes) as sampling the owner
/// directly, and never buffers more than one frame.  With no peer it
/// pull-through-fetches the model on first use and then streams the local
/// copy via an inner SampleStreamProducer.  Construction (loop thread)
/// stores the plan only; all blocking work happens inside next_frame() on
/// request workers, and errors surface as a mid-stream ERR frame.
class SynthServer::ClusterStreamProducer : public StreamProducer {
public:
    ClusterStreamProducer(SynthServer& server, std::shared_ptr<ClusterService> cluster,
                          std::string peer, Request request)
        : server_(server),
          cluster_(std::move(cluster)),
          peer_(std::move(peer)),
          request_(std::move(request)) {}

    bool next_frame(std::string& out) override {
        out.clear();
        try {
            if (!started_) {
                started_ = true;
                start();
            }
            if (inner_ != nullptr) {
                return inner_->next_frame(out);
            }
            return relay_frame(out);
        } catch (const std::exception& e) {
            if (relaying_) {
                cluster_->forward_errors.fetch_add(1, std::memory_order_relaxed);
            }
            std::string message = e.what();
            std::replace(message.begin(), message.end(), '\n', ' ');
            out = "ERR " + message + "\n";
            return false;
        }
    }

private:
    void start() {
        if (peer_.empty()) {
            // Our slot but no local copy: pull the snapshot, then stream it
            // exactly like a native streaming SAMPLE.
            const auto entry = server_.acquire_model(request_.model, true);
            const SampleSpec spec = server_.parse_sample_spec(request_, /*streaming=*/true);
            auto cursor = entry->model->open_sample_cursor(
                spec.n, spec.seed, spec.chunk_rows, spec.cond_column, spec.cond_value);
            inner_ = std::make_unique<SampleStreamProducer>(entry, std::move(cursor),
                                                            server_.metrics_);
            return;
        }
        const auto address = cluster_->peer_address(peer_);
        if (!address.has_value()) {
            throw Error("cluster: unknown peer " + peer_);
        }
        cluster_->forwards.fetch_add(1, std::memory_order_relaxed);
        relaying_ = true;
        // A dedicated connection: a stream occupies its transport for its
        // whole lifetime, which would starve every other forward through
        // the pooled per-peer client.
        stream_ = TcpStream::connect(address->host, address->port,
                                     cluster_->config().connect_timeout_ms);
        stream_->set_recv_timeout(cluster_->config().peer_timeout_ms);
        stream_->write_all(format_request(request_) + "\n");
        const auto status = stream_->read_line();
        if (!status.has_value()) {
            throw Error("cluster: " + peer_ + " closed the forwarded stream");
        }
        if (text::starts_with(*status, "ERR ")) {
            throw Error(status->substr(4));
        }
        if (*status != "OK STREAM") {
            throw Error("cluster: unexpected status '" + *status + "' from " + peer_);
        }
    }

    bool relay_frame(std::string& out) {
        const auto frame = stream_->read_line();
        if (!frame.has_value()) {
            throw Error("cluster: " + peer_ + " truncated the forwarded stream");
        }
        if (text::starts_with(*frame, "CHUNK ")) {
            std::size_t bytes = 0;
            try {
                bytes = std::stoull(frame->substr(6));
            } catch (const std::exception&) {
                throw Error("cluster: malformed relay frame '" + *frame + "'");
            }
            out = *frame + "\n" + stream_->read_exact(bytes);
            return true;
        }
        out = *frame + "\n";  // END trailer or mid-stream ERR, verbatim
        return false;
    }

    SynthServer& server_;
    std::shared_ptr<ClusterService> cluster_;
    std::string peer_;      // empty selects pull-through-and-serve-local mode
    Request request_;
    bool started_ = false;
    bool relaying_ = false;
    std::optional<TcpStream> stream_;
    std::unique_ptr<SampleStreamProducer> inner_;
};

SynthServer::SynthServer(ServerOptions options)
    : options_(std::move(options)),
      kg_lab_(kg::NetworkKg::build_lab()),
      kg_unsw_(kg::NetworkKg::build_unsw()),
      jobs_(options_.train_workers) {
    registry_.set_limits(options_.model_cache_bytes, options_.model_ttl_ms);
    if (options_.recover) {
        options_.persist = true;
    }
    if (options_.persist) {
        KINET_CHECK(!options_.snapshot_dir.empty(),
                    "persistence requires a non-empty snapshot_dir");
        store_ = std::make_unique<PersistentStore>(options_.snapshot_dir);
        journal_ = std::make_shared<JobJournal>(store_->journal_path());
    }
    EventLoopOptions lo;
    lo.port = options_.port;
    lo.max_connections = options_.max_connections;
    lo.queue_depth = options_.queue_depth;
    lo.workers = options_.request_workers;
    EventLoopHandlers handlers;
    handlers.execute = [this](const Request& request) { return execute_framed(request); };
    handlers.is_fast = [](const Request& request) { return is_fast_op(request); };
    handlers.open_stream = [this](const Request& request) {
        return open_stream_producer(request);
    };
    handlers.on_tick = [this] { registry_.evict_expired(); };
    loop_ = std::make_unique<EventLoop>(lo, std::move(handlers), metrics_);
}

SynthServer::~SynthServer() { stop(); }

void SynthServer::start() {
    loop_->start();
    if (store_ != nullptr && !recovered_) {
        recovered_ = true;
        if (options_.recover) {
            recover_state();
        } else {
            // A fresh (non-recovering) persistent daemon starts a new epoch:
            // whatever journal a previous run left behind is superseded.
            JobJournal::truncate(journal_->path());
            jobs_.set_journal(journal_);
        }
    }
}

void SynthServer::stop() {
    loop_->stop();
    if (const auto c = cluster()) {
        c->stop();  // prober thread + pooled peer connections
    }
    // Cancel queued + running training jobs; running fits stop at their
    // next epoch boundary.  The executor threads themselves stay up (the
    // JobManager destructor joins them), so a stop()/start() restart keeps
    // async TRAIN working.
    jobs_.cancel_all();
}

void SynthServer::drain(std::size_t timeout_ms) {
    loop_->drain();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (loop_->inflight_requests() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop();
}

void SynthServer::crash_stop() {
    crashed_.store(true, std::memory_order_relaxed);
    jobs_.set_journal(nullptr);
    stop();
}

void SynthServer::enable_cluster(ClusterConfig config) {
    auto service = std::make_shared<ClusterService>(std::move(config));
    // The prober thread drives periodic anti-entropy and post-epoch-change
    // rebalances; both hooks are set before the thread exists, so no
    // synchronisation is needed.
    service->set_anti_entropy_hook([this] { (void)anti_entropy_now(); });
    service->set_rebalance_hook([this] { (void)rebalance_now(); });
    service->start_probing();
    std::shared_ptr<ClusterService> old;
    {
        const MutexLock lock(cluster_mu_);
        old = std::exchange(cluster_, std::move(service));
    }
    if (old != nullptr) {
        old->stop();
    }
}

std::shared_ptr<ClusterService> SynthServer::cluster() const {
    const MutexLock lock(cluster_mu_);
    return cluster_;
}

void SynthServer::join_fleet(ClusterConfig tuning, const PeerAddress& seed) {
    // Announce to the seed first: its JOIN response is the fleet's current
    // view (with this node in it, joining) plus the ring parameters every
    // member must agree on.
    ClientOptions copts;
    copts.connect_timeout_ms = tuning.connect_timeout_ms;
    copts.connect_attempts = 3;
    copts.recv_timeout_ms = tuning.peer_timeout_ms;
    auto client = SynthClient::connect(seed.host, seed.port, copts);
    Request join;
    join.op = Op::join;
    join.model = tuning.self.name();
    join.positional.push_back(tuning.self.name());
    const Response joined = client.call(join);
    if (!joined.ok) {
        throw Error("JOIN via " + seed.name() + " rejected: " + joined.error);
    }
    const MemberView view = MemberView::parse(joined.payload);
    const auto kv = parse_kv_payload(joined.payload);
    if (const auto it = kv.find("virtual_nodes"); it != kv.end()) {
        tuning.virtual_nodes = static_cast<std::size_t>(
            parse_u64(it->second, "JOIN virtual_nodes"));
    }
    if (const auto it = kv.find("replicas"); it != kv.end()) {
        tuning.replicas = static_cast<std::size_t>(parse_u64(it->second, "JOIN replicas"));
    }
    tuning.peers.clear();
    for (const auto& member : view.members) {
        if (member.name != tuning.self.name()) {
            tuning.peers.push_back(member.addr);
        }
    }
    enable_cluster(std::move(tuning));
    const auto c = cluster();
    (void)c->adopt_view(view);
    // Warm up before going active: pull every snapshot the joined ring
    // places on this (still joining) node, so the first request routed here
    // is served locally instead of missing.
    (void)rebalance_now();
    // Going active bumps the epoch; dissemination (our probes carry it,
    // peers pull the view) spreads both the join and the activation.
    (void)c->set_member_state(c->self_name(), MemberState::active);
}

std::uint16_t SynthServer::port() const noexcept { return loop_->port(); }

bool SynthServer::running() const noexcept { return loop_->running(); }

std::string SynthServer::execute_framed(const Request& request) {
    const Stopwatch watch;
    const Response response = handle(request);
    metrics_.record_op(request.op, static_cast<std::uint64_t>(watch.millis() * 1000.0));
    return format_response(response);
}

bool SynthServer::is_fast_op(const Request& request) {
    switch (request.op) {
    case Op::ping:
    case Op::cancel:
    case Op::jobs:
    case Op::drop:
    case Op::quit:
    case Op::cluster:
    case Op::fault:
    case Op::epoch:
        // EPOCH answers inline so view pulls keep working while the node
        // drains (a leaving member must stay able to disseminate its final
        // epochs) — it only snapshots the membership table, never blocks.
        return true;
    case Op::poll:
        // The wait= long-poll parks the request until the job is terminal;
        // that belongs on a worker, never on the loop thread.
        return request.kv.find("wait") == request.kv.end();
    case Op::stats:
        // The global form reads atomics; the per-model form takes the
        // entry mutex (contended by SAVE/TRAIN) and belongs on a worker.
        return request.model.empty();
    default:
        return false;
    }
}

std::unique_ptr<StreamProducer> SynthServer::open_stream_producer(const Request& request) {
    if (!wants_stream(request)) {
        return nullptr;
    }
    // Everything that can fail from a bad request fails here, *before* the
    // first frame — the event loop turns the throw into an ordinary ERR.
    const SampleSpec spec = parse_sample_spec(request, /*streaming=*/true);
    if (const auto c = cluster();
        c != nullptr && !is_forwarded(request) && registry_.get(request.model) == nullptr) {
        // Ring/health reads only on the loop thread; connects and fetches
        // happen inside the producer on a worker.
        Request relay = request;
        relay.kv[std::string(kForwardedKey)] = "1";
        const auto target = c->route(request.model);
        return std::make_unique<ClusterStreamProducer>(
            *this, c, target.value_or(std::string{}), std::move(relay));
    }
    const auto entry = require_model(request.model);
    auto cursor = entry->model->open_sample_cursor(spec.n, spec.seed, spec.chunk_rows,
                                                   spec.cond_column, spec.cond_value);
    return std::make_unique<SampleStreamProducer>(entry, std::move(cursor), metrics_);
}

Response SynthServer::handle(const Request& request) {
    try {
        return dispatch(request);
    } catch (const std::exception& e) {
        return error_response(e.what());
    }
}

Response SynthServer::dispatch(const Request& request) {
    if (auto relayed = maybe_forward(request); relayed.has_value()) {
        return std::move(*relayed);
    }
    switch (request.op) {
    case Op::ping: {
        Response r;
        r.payload = "pong\n";
        if (const auto c = cluster()) {
            // The pong carries our epoch — the probing peer pulls our view
            // when it is newer than its own.  A probe's PING carries the
            // sender's epoch + name the other way; when *it* is newer we
            // schedule a pull (this runs on the loop thread — never block).
            r.payload += kv_line("epoch", std::to_string(c->epoch()));
            const auto epoch_it = request.kv.find("epoch");
            const auto from_it = request.kv.find("from");
            if (epoch_it != request.kv.end() && from_it != request.kv.end()) {
                try {
                    c->note_remote_epoch(from_it->second,
                                         parse_u64(epoch_it->second, "PING epoch"));
                } catch (const Error&) {
                    // Malformed epoch from an odd client: health still pings.
                }
            }
        }
        return r;
    }
    case Op::train:
        return handle_train(request);
    case Op::load: {
        const std::string path =
            resolve_confined(options_.snapshot_dir, request.positional.at(0), "LOAD");
        auto model = load_snapshot_file(path);
        admit_model(request.model, std::move(model));
        return Response{};
    }
    case Op::save: {
        const std::string path =
            resolve_confined(options_.snapshot_dir, request.positional.at(0), "SAVE");
        const auto entry = require_model(request.model);
        const MutexLock lock(entry->mu);
        save_snapshot_file(*entry->model, path);
        return Response{};
    }
    case Op::drop:
        if (!registry_.erase(request.model)) {
            return error_response("no model named " + request.model);
        }
        if (store_ != nullptr && !crashed_.load(std::memory_order_relaxed)) {
            store_->remove(request.model);
        }
        return Response{};
    case Op::sample:
        return handle_sample(request);
    case Op::validate:
        return handle_validate(request);
    case Op::stats:
        return handle_stats(request);
    case Op::poll:
        return handle_poll(request);
    case Op::cancel:
        return handle_cancel(request);
    case Op::jobs:
        return handle_jobs();
    case Op::cluster:
        return handle_cluster(request);
    case Op::replicate:
        return handle_replicate(request);
    case Op::fetch:
        return handle_fetch(request);
    case Op::fedtrain:
        return handle_fedtrain(request);
    case Op::fault:
        return handle_fault(request);
    case Op::digest:
        return handle_digest(request);
    case Op::join:
        return handle_join(request);
    case Op::leave:
        return handle_leave(request);
    case Op::epoch:
        return handle_epoch(request);
    case Op::quit:
        return Response{};  // transport-level; acknowledged by the event loop
    }
    return error_response("unhandled op");
}

std::optional<Response> SynthServer::maybe_forward(const Request& request) {
    const auto c = cluster();
    if (c == nullptr || is_forwarded(request)) {
        return std::nullopt;
    }
    switch (request.op) {
    case Op::sample:
    case Op::validate:
    case Op::train:
        break;
    default:
        // FEDTRAIN deliberately included: it means "train on THIS site's
        // data", so it always runs where it lands.  Everything else
        // (monitoring, jobs, snapshot files) is per-node by design.
        return std::nullopt;
    }
    // A ring-aware client stamps the epoch it routed by.  A stamp *older*
    // than ours means the client's cached ring predates a membership change
    // and may have routed to the wrong owner: answer the retryable
    // `wrong_owner` rejection (carrying the current epoch and owner) so the
    // client refreshes its view and re-routes, instead of silently paying a
    // forwarding hop on every request.  A stamp newer than ours is served
    // best-effort — we are the stale side, and dissemination is already
    // converging us; rejecting would bounce the client between nodes.
    if (const auto it = request.kv.find("epoch"); it != request.kv.end()) {
        try {
            if (parse_u64(it->second, "request epoch") < c->epoch()) {
                return coded_error(kWrongOwnerCode,
                                   "epoch=" + std::to_string(c->epoch()) +
                                       " owner=" + c->owner_of(request.model));
            }
        } catch (const Error&) {
            // Malformed stamp: treat as unstamped and route normally.
        }
    }
    if (request.op == Op::train) {
        const auto target = c->route(request.model);
        if (!target.has_value()) {
            return std::nullopt;  // we own it, or every candidate is down
        }
        if (kv_u64(request, "async", 0) != 0) {
            return forward_train_async(c, *target, request);
        }
        try {
            return c->forward(*target, request);
        } catch (const Error&) {
            return std::nullopt;  // owner died mid-request: train locally
        }
    }
    // SAMPLE/VALIDATE: any local copy — placement, replication or
    // pull-through cache — answers here; snapshots are bit-identical for
    // seeded sampling, so the bytes match the owner's.
    if (registry_.get(request.model) != nullptr) {
        return std::nullopt;
    }
    for (const auto& node : c->preference(request.model)) {
        if (node == c->self_name()) {
            return std::nullopt;  // our slot: answer (pull-through may fill)
        }
        if (!c->peer_up(node)) {
            continue;  // ring-aware fallback walks past down members
        }
        try {
            return c->forward(node, request);
        } catch (const Error&) {
            // The failed RPC marked the peer down; try the next candidate.
        }
    }
    return std::nullopt;  // no healthy peer: local best effort
}

Response SynthServer::forward_train_async(const std::shared_ptr<ClusterService>& c,
                                          const std::string& peer, Request request) {
    // A remote job id would be meaningless to this client's POLL, so the
    // proxy pattern: submit remotely, mirror its progress into a *local*
    // job the client polls like any other.  The proxy occupies a training
    // executor slot, not a request worker.
    const auto epochs =
        static_cast<std::size_t>(kv_u64(request, "epochs", options_.default_epochs));
    const std::string model = request.model;
    const std::uint64_t id = jobs_.submit(
        model, epochs, [c, peer, request](JobManager::Context& context) {
            const auto address = c->peer_address(peer);
            if (!address.has_value()) {
                throw Error("cluster: unknown peer " + peer);
            }
            // A dedicated connection: the proxy holds a conversation (submit
            // + repeated long-polls) that would otherwise monopolise the
            // pooled per-peer client for the whole remote fit.
            ClientOptions options;
            options.connect_timeout_ms = c->config().connect_timeout_ms;
            options.connect_attempts = 3;
            options.recv_timeout_ms = c->config().peer_timeout_ms;
            options.reconnect_on_reset = true;
            auto client = SynthClient::connect(address->host, address->port, options);
            c->forwards.fetch_add(1, std::memory_order_relaxed);
            Request submit = request;
            submit.kv[std::string(kForwardedKey)] = "1";
            const auto submitted = client.call(submit);
            if (!submitted.ok) {
                throw Error("forwarded TRAIN rejected by " + peer + ": " + submitted.error);
            }
            const auto kv = parse_kv_payload(submitted.payload);
            const auto job_it = kv.find("job");
            if (job_it == kv.end()) {
                throw Error("forwarded TRAIN: no job id from " + peer);
            }
            const std::string remote_id = job_it->second;
            Request poll;
            poll.op = Op::poll;
            poll.positional.push_back(remote_id);
            poll.kv["wait"] = "1";
            poll.kv["timeout"] = "1000";
            poll.kv[std::string(kForwardedKey)] = "1";
            for (;;) {
                if (context.cancel_requested()) {
                    Request cancel;
                    cancel.op = Op::cancel;
                    cancel.positional.push_back(remote_id);
                    cancel.kv[std::string(kForwardedKey)] = "1";
                    try {
                        (void)client.call(cancel);
                    } catch (const Error&) {
                    }
                    throw Error("cancelled while proxying to " + peer);
                }
                const auto polled = client.call(poll);
                if (!polled.ok) {
                    throw Error("forwarded TRAIN: poll on " + peer + " failed: " +
                                polled.error);
                }
                const auto status = parse_kv_payload(polled.payload);
                if (const auto done_it = status.find("epochs_done");
                    done_it != status.end()) {
                    context.report_progress(std::stoull(done_it->second));
                }
                const auto state_it = status.find("state");
                const std::string state =
                    state_it == status.end() ? std::string{} : state_it->second;
                if (state == "done") {
                    return;
                }
                if (state == "failed" || state == "cancelled") {
                    const auto err_it = status.find("error");
                    throw Error("remote training " + state +
                                (err_it == status.end() ? "" : ": " + err_it->second));
                }
            }
        },
        format_request(request));
    Response r;
    r.payload += kv_line("job", std::to_string(id));
    r.payload += kv_line("model", model);
    r.payload += kv_line("epochs", std::to_string(epochs));
    r.payload += kv_line("owner", peer);
    return r;
}

SynthServer::TrainPlan SynthServer::parse_train_plan(const Request& request) const {
    TrainPlan plan;
    plan.model = request.model;

    const std::string domain = kv_string(request, "domain", "lab");
    if (domain == "unsw") {
        plan.unsw = true;
    } else if (domain != "lab") {
        throw Error("TRAIN: unknown domain '" + domain + "' (expected lab or unsw)");
    }

    const std::string source = kv_string(request, "source", "sim");
    if (text::starts_with(source, "csv:")) {
        plan.csv_path = resolve_confined(options_.data_dir, source.substr(4), "TRAIN source");
    } else if (source != "sim") {
        throw Error("TRAIN: unknown source '" + source + "' (expected sim or csv:<path>)");
    }

    plan.records = static_cast<std::size_t>(kv_u64(request, "records", 2000));
    plan.sim_seed = kv_u64(request, "sim-seed", plan.unsw ? 11 : 7);
    plan.attack = kv_double(request, "attack", 1.0);
    if (plan.attack < 0.0) {
        throw Error("TRAIN: attack must be >= 0");
    }
    plan.split_frac = kv_double(request, "split-frac", 0.0);
    if (plan.split_frac < 0.0 || plan.split_frac >= 1.0) {
        throw Error("TRAIN: split-frac must be in [0, 1)");
    }
    plan.split_seed = kv_u64(request, "split-seed", 0);

    plan.opts.gan.epochs = static_cast<std::size_t>(
        kv_u64(request, "epochs", options_.default_epochs));
    if (plan.opts.gan.epochs == 0) {
        throw Error("TRAIN: epochs must be >= 1");
    }
    plan.opts.gan.seed = kv_u64(request, "gan-seed", 42);
    return plan;
}

data::Table SynthServer::build_training_table(const TrainPlan& plan) const {
    data::Table table;
    if (!plan.csv_path.empty()) {
        const auto schema = plan.unsw ? netsim::unsw_schema() : netsim::lab_schema();
        table = data::Table::from_csv(csv::read_file(plan.csv_path), schema);
        KINET_CHECK(table.rows() > 0, "TRAIN: CSV source has no data rows");
    } else if (plan.unsw) {
        netsim::UnswOptions sim;
        sim.records = plan.records;
        sim.seed = plan.sim_seed;
        sim.attack_intensity = plan.attack;
        table = netsim::UnswNb15Synthesizer(sim).generate();
    } else {
        netsim::LabSimOptions sim;
        sim.records = plan.records;
        sim.seed = plan.sim_seed;
        sim.attack_intensity = plan.attack;
        table = netsim::LabTrafficSimulator(sim).generate();
    }
    if (plan.split_frac > 0.0) {
        Rng split_rng(plan.split_seed);
        const std::size_t label =
            plan.unsw ? netsim::unsw_label_column() : netsim::lab_label_column();
        auto split = data::train_test_split(table, plan.split_frac, split_rng, label);
        table = std::move(split.train);
    }
    return table;
}

SynthServer::TrainResult SynthServer::run_training(const TrainPlan& plan,
                                                   JobManager::Context* context) const {
    const data::Table train = build_training_table(plan);
    auto model = std::make_unique<core::KiNetGan>(
        plan.unsw ? kg_unsw_.make_oracle() : kg_lab_.make_oracle(),
        plan.unsw ? netsim::unsw_conditional_columns() : netsim::lab_conditional_columns(),
        plan.opts);
    core::KiNetGan::FitObserver observer;
    if (context != nullptr) {
        observer = [context](std::size_t done, std::size_t /*total*/) {
            context->report_progress(done);
            return !context->cancel_requested();
        };
    }
    model->fit(train, observer);
    return TrainResult{std::move(model), train.rows()};
}

Response SynthServer::handle_train(const Request& request) {
    const TrainPlan plan = parse_train_plan(request);

    if (kv_u64(request, "async", 0) != 0) {
        // Queue the fit on the training executor and answer immediately;
        // the connection (and its request worker) is free for other work.
        // On completion the job put()s the model into the registry — an
        // atomic swap, so in-flight SAMPLEs never see a half-trained model.
        const std::uint64_t id = jobs_.submit(
            plan.model, plan.opts.gan.epochs,
            [this, plan](JobManager::Context& context) {
                admit_model(plan.model, run_training(plan, &context).model);
            },
            format_request(request));
        Response r;
        r.payload += kv_line("job", std::to_string(id));
        r.payload += kv_line("model", plan.model);
        r.payload += kv_line("epochs", std::to_string(plan.opts.gan.epochs));
        return r;
    }

    auto result = run_training(plan, nullptr);
    Response r;
    r.payload += kv_line("rows", std::to_string(result.rows));
    r.payload += kv_line("epochs", std::to_string(plan.opts.gan.epochs));
    r.payload += kv_line("seconds", text::format_double(result.model->report().seconds, 3));
    r.payload += kv_line("adherence",
                         text::format_double(result.model->last_cond_adherence(), 4));
    r.payload += kv_line("domain", plan.unsw ? "unsw" : "lab");
    admit_model(plan.model, std::move(result.model));
    return r;
}

SynthServer::SampleSpec SynthServer::parse_sample_spec(const Request& request,
                                                       bool streaming) const {
    SampleSpec spec;
    spec.n = static_cast<std::size_t>(parse_u64(request.positional.at(0), "SAMPLE row count"));
    if (!streaming) {
        // Framed responses materialise the whole payload; streamed ones
        // never hold more than a chunk, so only the chunk is bounded.
        KINET_CHECK(spec.n <= kMaxSampleRows, "SAMPLE: row count " + std::to_string(spec.n) +
                                                  " exceeds the per-request cap of " +
                                                  std::to_string(kMaxSampleRows) +
                                                  " (use stream=1 for larger pulls)");
    }
    spec.seed = kv_u64(request, "seed", 0);
    if (streaming) {
        // chunk= only means something on the streaming path; the framed
        // path ignores it like any other unknown key (no new failure mode
        // for old clients).
        spec.chunk_rows = static_cast<std::size_t>(
            kv_u64(request, "chunk", kDefaultStreamChunkRows));
        KINET_CHECK(spec.chunk_rows >= 1 && spec.chunk_rows <= kMaxSampleRows,
                    "SAMPLE: chunk must be in [1, " + std::to_string(kMaxSampleRows) + "]");
    }
    if (const auto it = request.kv.find("cond"); it != request.kv.end()) {
        const std::size_t colon = it->second.find(':');
        KINET_CHECK(colon != std::string::npos && colon > 0 && colon + 1 < it->second.size(),
                    "SAMPLE: cond must be <column>:<value>");
        spec.cond_column = it->second.substr(0, colon);
        spec.cond_value = it->second.substr(colon + 1);
    }
    return spec;
}

void SynthServer::run_sample_stream(const core::KiNetGan& model, const SampleSpec& spec,
                                    std::size_t chunk_rows,
                                    const core::KiNetGan::SampleSink& sink) {
    if (spec.cond_column.empty()) {
        model.sample_seeded_stream(spec.n, spec.seed, chunk_rows, sink);
    } else {
        model.sample_conditional_seeded_stream(spec.n, spec.cond_column, spec.cond_value,
                                               spec.seed, chunk_rows, sink);
    }
}

Response SynthServer::handle_sample(const Request& request) {
    const SampleSpec spec = parse_sample_spec(request, /*streaming=*/false);
    // In a fleet, a local miss may be healed by pulling the snapshot from a
    // replica (safe even for forwarded requests — the FETCH it issues is
    // itself marked forwarded and can never cascade).
    const auto entry = acquire_model(request.model, /*allow_pull_through=*/true);

    // The inference path is const and thread-safe: no per-entry lock, so
    // any number of SAMPLEs run concurrently against one model snapshot.
    // The CSV payload is built chunk-by-chunk from the streaming sampler —
    // the full decoded Table never exists in memory.
    Response r;
    std::uint64_t rows = 0;
    run_sample_stream(*entry->model, spec, 0, [&](const data::Table& chunk) {
        chunk.append_csv(r.payload, /*include_header=*/rows == 0);
        rows += chunk.rows();
    });
    if (rows == 0) {
        // Zero-row responses still carry the header line (the sink never
        // sees an empty chunk, so the payload is empty here).
        data::Table(entry->model->schema()).append_csv(r.payload, /*include_header=*/true);
    }
    entry->requests.fetch_add(1, std::memory_order_relaxed);
    entry->rows_served.fetch_add(rows, std::memory_order_relaxed);
    metrics_.record_rows(rows);
    return r;
}

Response SynthServer::handle_validate(const Request& request) {
    const auto entry = acquire_model(request.model, /*allow_pull_through=*/true);
    const auto n = static_cast<std::size_t>(
        kv_u64(request, "n", options_.default_validate_rows));
    KINET_CHECK(n <= kMaxSampleRows, "VALIDATE: row count " + std::to_string(n) +
                                         " exceeds the per-request cap of " +
                                         std::to_string(kMaxSampleRows));
    const std::uint64_t seed = kv_u64(request, "seed", 0);
    // Validity is accumulated chunk-by-chunk off the streaming sampler —
    // the draw is never materialised as a whole table (it used to be built
    // in memory just to be counted and thrown away).
    std::size_t valid = 0;
    entry->model->sample_seeded_stream(n, seed, 0, [&](const data::Table& chunk) {
        valid += entry->model->kg_valid_count(chunk);
    });
    const double validity =
        (n == 0) ? 0.0 : static_cast<double>(valid) / static_cast<double>(n);
    entry->requests.fetch_add(1, std::memory_order_relaxed);

    Response r;
    r.payload += kv_line("rows", std::to_string(n));
    r.payload += kv_line("validity", text::format_double(validity, 4));
    return r;
}

Response SynthServer::handle_stats(const Request& request) {
    Response r;
    if (!request.model.empty()) {
        const auto entry = require_model(request.model);
        const MutexLock lock(entry->mu);
        const auto& report = entry->model->report();
        r.payload += kv_line("model", request.model);
        r.payload += kv_line("requests", std::to_string(entry->requests.load()));
        r.payload += kv_line("rows_served", std::to_string(entry->rows_served.load()));
        r.payload += kv_line("epochs_trained", std::to_string(report.generator_loss.size()));
        r.payload += kv_line("train_seconds", text::format_double(report.seconds, 3));
        r.payload += kv_line("adherence",
                             text::format_double(entry->model->last_cond_adherence(), 4));
        if (!report.generator_loss.empty()) {
            r.payload += kv_line("final_g_loss",
                                 text::format_double(report.generator_loss.back(), 4));
            r.payload += kv_line("final_d_loss",
                                 text::format_double(report.discriminator_loss.back(), 4));
        }
        return r;
    }
    r.payload += kv_line("models", std::to_string(registry_.size()));
    r.payload += kv_line("jobs", std::to_string(jobs_.size()));
    r.payload += kv_line("model_cache_bytes", std::to_string(registry_.memory_bytes()));
    r.payload += kv_line("model_cache_evictions", std::to_string(registry_.evictions()));
    r.payload += kv_line("requests_inflight", std::to_string(loop_->inflight_requests()));
    r.payload += kv_line("persisted_models",
                         std::to_string(store_ == nullptr ? 0 : store_->manifest().size()));
    r.payload += kv_line("recovered_models", std::to_string(recovered_models_.load()));
    r.payload += kv_line("skipped_models", std::to_string(skipped_models_.load()));
    r.payload += kv_line("recovered_jobs", std::to_string(recovered_jobs_.load()));
    r.payload += kv_line("resubmitted_jobs", std::to_string(resubmitted_jobs_.load()));
    r.payload += kv_line("anti_entropy_rounds", std::to_string(anti_entropy_rounds_.load()));
    r.payload += kv_line("repairs", std::to_string(repairs_.load()));
    r.payload += metrics_.render();
    if (const auto c = cluster()) {
        r.payload += c->render_stats();
    }
    for (const auto& name : registry_.names()) {
        const auto entry = registry_.get(name);
        if (entry == nullptr) {
            continue;  // concurrently dropped
        }
        r.payload += name + " requests=" + std::to_string(entry->requests.load()) +
                     " rows_served=" + std::to_string(entry->rows_served.load()) + "\n";
    }
    return r;
}

Response SynthServer::handle_poll(const Request& request) {
    const std::uint64_t id = parse_u64(request.positional.at(0), "POLL job id");
    std::optional<JobInfo> info;
    if (kv_u64(request, "wait", 0) != 0) {
        // Long-poll: park until the job is terminal or the (server-capped)
        // timeout passes, then answer with the snapshot either way — the
        // client inspects `state` to tell completion from timeout.
        const auto timeout =
            std::min<std::uint64_t>(kv_u64(request, "timeout", 1000), kMaxPollWaitMs);
        info = jobs_.wait(id, static_cast<std::size_t>(timeout));
    } else {
        info = jobs_.info(id);
    }
    if (!info.has_value()) {
        return error_response("no job " + std::to_string(id));
    }
    return job_info_response(*info);
}

Response SynthServer::handle_cancel(const Request& request) {
    const std::uint64_t id = parse_u64(request.positional.at(0), "CANCEL job id");
    // Cancel + snapshot happen in one JobManager critical section: a
    // separate info() lookup could race with terminal-job pruning.
    const auto info = jobs_.request_cancel(id);
    if (!info.has_value()) {
        return error_response("no job " + std::to_string(id));
    }
    return job_info_response(*info);
}

Response SynthServer::handle_jobs() const {
    const auto jobs = jobs_.list();
    Response r;
    r.payload += kv_line("jobs", std::to_string(jobs.size()));
    for (const auto& job : jobs) {
        r.payload += std::to_string(job.id) + " model=" + job.model +
                     " state=" + std::string(job_state_name(job.state)) +
                     " epochs_done=" + std::to_string(job.epochs_done) +
                     " epochs_total=" + std::to_string(job.epochs_total) + "\n";
    }
    return r;
}

Response SynthServer::handle_cluster(const Request& request) {
    Response r;
    const auto c = cluster();
    if (c == nullptr) {
        r.payload += kv_line("enabled", "0");
        return r;
    }
    r.payload += kv_line("enabled", "1");
    r.payload += c->render_status(request.model);
    return r;
}

Response SynthServer::handle_replicate(const Request& request) {
    // The transport already read exactly the declared byte count;
    // read_snapshot validates magic, version, length and checksum before
    // any registry state changes — a corrupt push is rejected whole, with
    // a machine-readable (permanent) code: resending the same bytes can
    // never succeed, so no peer should burn its retry budget here.
    std::unique_ptr<core::KiNetGan> model;
    try {
        model = read_snapshot(request.body);
    } catch (const std::exception& e) {
        const std::string what = e.what();
        return coded_error(what.find("checksum mismatch") != std::string::npos
                               ? kChecksumMismatchCode
                               : kBadSnapshotCode,
                           what);
    }
    admit_model(request.model, std::move(model), kv_u64(request, "rev", 0));
    if (const auto c = cluster()) {
        c->replications_in.fetch_add(1, std::memory_order_relaxed);
    }
    Response r;
    r.payload += kv_line("model", request.model);
    r.payload += kv_line("bytes", std::to_string(request.body.size()));
    return r;
}

Response SynthServer::handle_fetch(const Request& request) {
    // A forwarded FETCH never cascades into another fetch — that is the
    // loop breaker that makes pull-through safe to attempt anywhere.
    const auto entry = acquire_model(request.model, !is_forwarded(request));
    Response r;
    {
        const MutexLock lock(entry->mu);
        r.payload = write_snapshot(*entry->model);
    }
    if (const auto c = cluster()) {
        c->fetches_in.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

Response SynthServer::handle_fedtrain(const Request& request) {
    const TrainPlan plan = parse_train_plan(request);
    const auto c = cluster();
    const std::size_t peer_count = c == nullptr ? 0 : c->config().peers.size();
    // The job's progress denominator covers both phases: epochs of local
    // training, then one unit per peer for the publish fan-out.
    const std::uint64_t id = jobs_.submit(
        plan.model, plan.opts.gan.epochs + peer_count,
        [this, plan](JobManager::Context& context) {
            auto result = run_training(plan, &context);
            const std::size_t epochs = plan.opts.gan.epochs;
            // admit_model hands back the serialized container, so the
            // publish fan-out reuses the registration's bytes (and carries
            // its revision, keeping the fleet's Lamport order consistent).
            std::string snapshot;
            const std::uint64_t revision =
                admit_model(plan.model, std::move(result.model), 0, &snapshot);
            const auto cl = cluster();
            if (cl == nullptr) {
                return;  // standalone: FEDTRAIN degrades to an async TRAIN
            }
            std::string first_error;
            const std::size_t ok = cl->publish(
                plan.model, snapshot, revision,
                [&context, epochs](std::size_t done, std::size_t /*total*/) {
                    context.report_progress(epochs + done);
                },
                &first_error);
            // A peer that is down just misses this round (pull-through or a
            // later publish heals it); only a total publish failure fails
            // the job — the local model is still registered either way.
            if (ok == 0 && !first_error.empty()) {
                throw Error("publish reached no peer; first error: " + first_error);
            }
        },
        format_request(request));
    Response r;
    r.payload += kv_line("job", std::to_string(id));
    r.payload += kv_line("model", plan.model);
    r.payload += kv_line("epochs", std::to_string(plan.opts.gan.epochs));
    r.payload += kv_line("peers", std::to_string(peer_count));
    return r;
}

Response SynthServer::handle_fault(const Request& request) {
    if (!options_.enable_failpoints) {
        return error_response(
            "FAULT: failpoint control is disabled (start with --enable-failpoints)");
    }
    if (request.positional.empty()) {
        Response r;
        r.payload = failpoint::render_status();
        return r;
    }
    const std::string& name = request.positional.at(0);
    const auto it = request.kv.find("spec");
    if (it == request.kv.end()) {
        return error_response("FAULT: missing spec= (use spec=off to disarm)");
    }
    failpoint::configure(name, it->second);
    Response r;
    r.payload += kv_line("failpoint", name);
    r.payload += kv_line("spec", it->second);
    return r;
}

Response SynthServer::handle_digest(const Request& /*request*/) {
    const auto digest = registry_.digest();
    Response r;
    r.payload += kv_line("models", std::to_string(digest.size()));
    if (const auto c = cluster()) {
        // Anti-entropy doubles as view dissemination: the puller compares
        // this epoch against its own and adopts the newer view, so a
        // membership change a partition missed heals on the next digest
        // exchange.  parse_digest_payload skips the line (not 4 tokens).
        r.payload += kv_line("epoch", std::to_string(c->epoch()));
    }
    for (const auto& entry : digest) {
        r.payload += entry.name + " rev=" + std::to_string(entry.revision) +
                     " bytes=" + std::to_string(entry.bytes) +
                     " checksum=" + std::to_string(entry.checksum) + "\n";
    }
    return r;
}

namespace {

/// The EPOCH payload: the full membership view plus the ring parameters a
/// joiner (or ring-aware client) must agree on to compute placement.
Response view_response(const ClusterService& c, const MemberView& view) {
    Response r;
    r.payload = view.serialize();
    r.payload += kv_line("virtual_nodes", std::to_string(c.config().virtual_nodes));
    r.payload += kv_line("replicas", std::to_string(c.config().replicas));
    return r;
}

}  // namespace

Response SynthServer::handle_epoch(const Request& /*request*/) {
    const auto c = cluster();
    if (c == nullptr) {
        return error_response("EPOCH: clustering is not enabled");
    }
    return view_response(*c, c->view());
}

Response SynthServer::handle_join(const Request& request) {
    const auto c = cluster();
    if (c == nullptr) {
        return error_response("JOIN: clustering is not enabled");
    }
    KINET_FAILPOINT("cluster.join");
    const PeerAddress addr = parse_peer_address(request.positional.at(0));
    // Admission is local + monotonic: the epoch bump re-rings placement
    // with the joiner on it, the prober disseminates the view, and every
    // member's rebalance hook moves the affected snapshots.
    return view_response(*c, c->join_member(request.model, addr));
}

Response SynthServer::handle_leave(const Request& request) {
    const auto c = cluster();
    if (c == nullptr) {
        return error_response("LEAVE: clustering is not enabled");
    }
    const std::string& target = request.model;
    if (c->view().find(target) == nullptr) {
        return error_response("LEAVE: no member named " + target);
    }
    // Two epochs, same shape for self-leave and administrative removal of
    // another member: leaving (off the ring — ownership moves, the member
    // stays reachable), then an explicit synchronous handoff of everything
    // this node holds for the new placement, then removal from the view.
    (void)c->set_member_state(target, MemberState::leaving);
    (void)rebalance_now();
    const MemberView view = c->remove_member(target);
    Response r;
    r.payload += kv_line("member", target);
    r.payload += kv_line("epoch", std::to_string(view.epoch));
    if (target == c->self_name()) {
        // Drain like SIGTERM: in-flight requests complete, fast ops (EPOCH,
        // PING — peers still pull our final view) keep answering, and new
        // non-fast work gets the retryable `draining:` rejection so clients
        // fail over to the surviving members.
        loop_->drain();
        r.payload += kv_line("draining", "1");
    }
    return r;
}


std::uint64_t SynthServer::admit_model(const std::string& name,
                                       std::unique_ptr<core::KiNetGan> model,
                                       std::uint64_t revision,
                                       std::string* container_out) {
    const bool persisting = store_ != nullptr && !crashed_.load(std::memory_order_relaxed);
    std::string container;
    std::string* const capture =
        (persisting || container_out != nullptr) ? &container : nullptr;
    const std::uint64_t rev = registry_.put(name, std::move(model), revision, capture);
    if (persisting) {
        // Write-through iff our registration is still current: a concurrent
        // replacement may already have persisted a newer revision, and the
        // store must never go backwards.
        if (const auto stored = registry_.get(name);
            stored != nullptr && stored->revision == rev) {
            store_->store(DigestEntry{name, rev, stored->memory_bytes, stored->checksum},
                          container);
        }
    }
    if (container_out != nullptr) {
        *container_out = std::move(container);
    }
    return rev;
}

void SynthServer::recover_state() {
    // Models first: every manifest entry is re-read, re-verified by its
    // container checksum, and admitted at its recorded revision.  A corrupt
    // or unreadable snapshot is dropped from the store rather than fatal —
    // anti-entropy (or a re-train) heals it later.  An intact snapshot of
    // another format version is skipped but kept, file and manifest entry,
    // so the build that wrote it can still recover it.
    for (const auto& entry : store_->manifest()) {
        try {
            auto model = read_snapshot(store_->load(entry.name));
            registry_.put(entry.name, std::move(model), entry.revision);
            recovered_models_.fetch_add(1, std::memory_order_relaxed);
        } catch (const SnapshotVersionError&) {
            skipped_models_.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
            store_->remove(entry.name);
        }
    }

    // Jobs: fold the journal into one record per id.  A submit with no
    // terminal record is the crash signature of an interrupted job.
    struct Recovered {
        JobInfo info;
        std::string request_line;
        bool terminal = false;
    };
    std::map<std::uint64_t, Recovered> records;
    for (const auto& record : JobJournal::replay(journal_->path())) {
        if (record.kind == JobJournal::Record::Kind::submit) {
            Recovered r;
            r.info.id = record.id;
            r.info.model = record.model;
            r.info.epochs_total = record.epochs_total;
            r.request_line = record.request_line;
            records[record.id] = std::move(r);
            continue;
        }
        const auto it = records.find(record.id);
        if (it == records.end()) {
            continue;  // terminal for a submit before the last rotation
        }
        it->second.terminal = true;
        it->second.info.state = record.state;
        it->second.info.error = record.error;
        if (record.state == JobState::done) {
            it->second.info.epochs_done = it->second.info.epochs_total;
        }
    }

    // Rotate the journal, then attach it: restored records re-journal into
    // the fresh file, so the next crash replays one epoch of history, not
    // the whole daemon lifetime.
    JobJournal::truncate(journal_->path());
    jobs_.set_journal(journal_);
    std::vector<std::string> resubmit;
    for (auto& [id, rec] : records) {
        const bool interrupted = !rec.terminal;
        if (interrupted) {
            rec.info.state = JobState::failed;
            rec.info.error = "interrupted by daemon restart";
        }
        jobs_.restore_terminal(rec.info);
        recovered_jobs_.fetch_add(1, std::memory_order_relaxed);
        if (interrupted && !rec.request_line.empty()) {
            resubmit.push_back(rec.request_line);
        }
    }
    // Deterministic resume: replay each interrupted request as a fresh
    // submission.  The failed record above is kept — the client that polls
    // the old id learns what happened; the re-run gets a new id like any
    // other submission.  This runs only after EVERY restored record has
    // advanced the job counter, so a resubmitted id can never collide with
    // a journaled one still waiting to be restored.
    for (const auto& line : resubmit) {
        try {
            const Response response = handle(parse_request(line));
            if (response.ok) {
                resubmitted_jobs_.fetch_add(1, std::memory_order_relaxed);
            }
        } catch (const std::exception&) {
            // A request line from an older protocol era; the failed
            // record already tells the operator what was lost.
        }
    }
}

namespace {

/// One u64 field ("rev=", "bytes=", "checksum=") of a digest line.
std::optional<std::uint64_t> digest_field(const std::string& token,
                                          std::string_view key) {
    if (token.size() <= key.size() || token.compare(0, key.size(), key) != 0) {
        return std::nullopt;
    }
    try {
        return parse_u64(token.substr(key.size()), "digest field");
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// Parses a peer's DIGEST payload back into entries.  Malformed lines are
/// skipped — anti-entropy degrades to repairing less, never to crashing.
std::vector<DigestEntry> parse_digest_payload(const std::string& payload) {
    std::vector<DigestEntry> out;
    for (const auto& line : text::split(payload, '\n')) {
        if (line.empty() || text::starts_with(line, "models=")) {
            continue;
        }
        const auto tokens = text::split(line, ' ');
        if (tokens.size() != 4) {
            continue;
        }
        const auto rev = digest_field(tokens[1], "rev=");
        const auto bytes = digest_field(tokens[2], "bytes=");
        const auto checksum = digest_field(tokens[3], "checksum=");
        if (!rev.has_value() || !bytes.has_value() || !checksum.has_value()) {
            continue;
        }
        out.push_back(DigestEntry{tokens[0], *rev, *bytes, *checksum});
    }
    return out;
}

}  // namespace

std::size_t SynthServer::anti_entropy_now() {
    const auto c = cluster();
    if (c == nullptr) {
        return 0;
    }
    anti_entropy_rounds_.fetch_add(1, std::memory_order_relaxed);
    std::size_t repaired = 0;
    for (const auto& peer : c->peer_names()) {
        if (!c->peer_up(peer)) {
            continue;
        }
        std::vector<DigestEntry> remote;
        try {
            remote = parse_digest_payload(c->digest_from(peer));
        } catch (const Error&) {
            continue;  // peer died mid-digest; the prober will notice
        }
        for (const auto& entry : remote) {
            // Only models this node should hold: self on the ring
            // preference list.  Anything else stays the owners' problem —
            // anti-entropy repairs placement, it does not replicate
            // everything everywhere.
            const auto preference = c->preference(entry.name);
            if (std::find(preference.begin(), preference.end(), c->self_name()) ==
                preference.end()) {
                continue;
            }
            const auto local = registry_.get(entry.name);
            if (local != nullptr && (entry.revision <= local->revision ||
                                     entry.checksum == local->checksum)) {
                continue;  // ours is as new, or the bytes already match
            }
            try {
                admit_model(entry.name, read_snapshot(c->fetch_from(peer, entry.name)),
                            entry.revision);
                repairs_.fetch_add(1, std::memory_order_relaxed);
                ++repaired;
            } catch (const std::exception&) {
                // The fetch raced a drop, or the copy was corrupt in
                // flight; the next round retries against a healthy peer.
            }
        }
    }
    return repaired;
}

std::size_t SynthServer::rebalance_now() {
    const auto c = cluster();
    if (c == nullptr) {
        return 0;
    }
    c->rebalances.fetch_add(1, std::memory_order_relaxed);
    std::size_t moved = 0;
    // Pull phase: snapshots the current ring places here that this node is
    // missing (or holds stale) are fetched from whichever up peer reports
    // them — the new owner pulls, so a joining node fills itself instead of
    // every old owner having to notice the join.
    for (const auto& peer : c->peer_names()) {
        if (!c->peer_up(peer)) {
            continue;
        }
        std::vector<DigestEntry> remote;
        try {
            remote = parse_digest_payload(c->digest_from(peer));
        } catch (const Error&) {
            continue;  // peer died mid-digest; the prober will notice
        }
        for (const auto& entry : remote) {
            const auto preference = c->preference(entry.name);
            if (std::find(preference.begin(), preference.end(), c->self_name()) ==
                preference.end()) {
                continue;  // not placed here
            }
            const auto local = registry_.get(entry.name);
            if (local != nullptr && local->revision >= entry.revision) {
                continue;  // ours is as new
            }
            try {
                KINET_FAILPOINT("cluster.handoff");
                const std::string container = c->fetch_from(peer, entry.name);
                admit_model(entry.name, read_snapshot(container), entry.revision);
                c->handoff_snapshots.fetch_add(1, std::memory_order_relaxed);
                c->handoff_bytes.fetch_add(container.size(), std::memory_order_relaxed);
                ++moved;
            } catch (const std::exception&) {
                // Raced a drop, or the copy was corrupt in flight; epoch-
                // aware anti-entropy completes the move on a later round.
                c->handoff_failures.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
    // Retire phase: snapshots this node holds that the ring moved elsewhere
    // are pushed (revision-guarded) to the first reachable member of their
    // new preference list *before* the local copy is dropped — the fleet
    // never retires its only copy.  An unreachable new owner just means the
    // copy stays here until a later rebalance or anti-entropy finishes the
    // move.
    for (const auto& name : registry_.names()) {
        const auto preference = c->preference(name);
        if (std::find(preference.begin(), preference.end(), c->self_name()) !=
            preference.end()) {
            continue;  // still placed here
        }
        const auto local = registry_.get(name);
        if (local == nullptr) {
            continue;  // concurrently dropped
        }
        bool handed_off = false;
        for (const auto& node : preference) {
            if (node == c->self_name() || !c->peer_up(node)) {
                continue;
            }
            try {
                KINET_FAILPOINT("cluster.handoff");
                std::string container;
                {
                    const MutexLock lock(local->mu);
                    container = write_snapshot(*local->model);
                }
                c->replicate_to(node, name, container, local->revision);
                c->handoff_snapshots.fetch_add(1, std::memory_order_relaxed);
                c->handoff_bytes.fetch_add(container.size(), std::memory_order_relaxed);
                handed_off = true;
                ++moved;
                break;
            } catch (const std::exception&) {
                c->handoff_failures.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (handed_off) {
            registry_.erase(name);
            if (store_ != nullptr && !crashed_.load(std::memory_order_relaxed)) {
                store_->remove(name);
            }
        }
    }
    return moved;
}

std::shared_ptr<ModelEntry> SynthServer::require_model(const std::string& name) const {
    auto entry = registry_.get(name);
    if (entry == nullptr) {
        throw Error("no model named " + name);
    }
    return entry;
}

std::shared_ptr<ModelEntry> SynthServer::acquire_model(const std::string& name,
                                                       bool allow_pull_through) {
    if (auto entry = registry_.get(name)) {
        return entry;
    }
    const auto c = cluster();
    if (c != nullptr && allow_pull_through) {
        for (const auto& node : c->preference(name)) {
            if (node == c->self_name() || !c->peer_up(node)) {
                continue;
            }
            try {
                admit_model(name, read_snapshot(c->fetch_from(node, name)));
                c->cache_fills.fetch_add(1, std::memory_order_relaxed);
                if (auto entry = registry_.get(name)) {
                    return entry;
                }
            } catch (const Error&) {
                // That member doesn't have it (or died); try the next one.
            }
        }
    }
    throw Error("no model named " + name);
}

}  // namespace kinet::service
