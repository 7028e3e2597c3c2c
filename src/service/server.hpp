// SynthServer — synthetic-data-as-a-service over the kinetd wire protocol.
//
// The paper's deployment story (Sec. I) has every site run a local KiNETGAN
// and share only synthetic traffic; this server is that site-side component
// as a long-lived concurrent process.  An epoll event loop (EventLoop) owns
// every connection — non-blocking sockets, buffered framing, write
// backpressure — so thread count is bounded by the worker pool, not the
// connection count.  Cheap ops (PING, POLL, global STATS, ...) answer
// inline on the loop; real work (TRAIN, SAMPLE, VALIDATE, LOAD/SAVE) runs
// on the bounded request workers behind an admission-controlled queue that
// answers `ERR queue_full` rather than queueing without bound.  Streaming
// SAMPLEs run as resumable generator cursors: a client that stops reading
// suspends its own stream without holding a thread.  TRAIN jobs submitted
// with async=1 run on a small dedicated training executor (JobManager) —
// so SAMPLE latency is independent of how many fits are in flight.
// Per-request RNG seeding (SAMPLE ... seed=K) makes responses
// deterministic functions of the request, independent of how concurrent
// clients interleave.
#ifndef KINETGAN_SERVICE_SERVER_H
#define KINETGAN_SERVICE_SERVER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <atomic>

#include "src/common/thread_annotations.hpp"

#include "src/core/kinetgan.hpp"
#include "src/kg/network_kg.hpp"
#include "src/service/cluster/cluster.hpp"
#include "src/service/event_loop.hpp"
#include "src/service/jobs.hpp"
#include "src/service/journal.hpp"
#include "src/service/metrics.hpp"
#include "src/service/persistence.hpp"
#include "src/service/protocol.hpp"
#include "src/service/registry.hpp"
#include "src/service/socket.hpp"

namespace kinet::service {

struct ServerOptions {
    /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// Default TRAIN epochs when the request does not pass epochs=.
    std::size_t default_epochs = 30;
    /// Default VALIDATE sample size when the request does not pass n=.
    std::size_t default_validate_rows = 1000;
    /// Dedicated training-executor threads for TRAIN ... async=1 jobs.
    std::size_t train_workers = 2;
    /// Directory confining client-supplied LOAD/SAVE snapshot paths: the
    /// wire path must be relative and stay inside this directory (`..` and
    /// absolute paths are rejected).  Empty disables LOAD/SAVE entirely.
    std::string snapshot_dir = ".";
    /// Same confinement for TRAIN source=csv:<path> dataset reads.  Empty
    /// disables CSV ingestion.
    std::string data_dir = ".";
    /// Open-connection cap; accepts beyond it get `ERR queue_full`.
    std::size_t max_connections = 4096;
    /// Bound on requests queued for the workers; past it, requests answer
    /// `ERR queue_full` instead of waiting.
    std::size_t queue_depth = 256;
    /// Worker threads executing non-fast requests and stream steps.
    std::size_t request_workers = 4;
    /// Registry memory budget over serialized model bytes (0 = unlimited);
    /// put() evicts least-recently-used models past it.
    std::uint64_t model_cache_bytes = 0;
    /// Registry idle TTL in milliseconds (0 = never expire).
    std::uint64_t model_ttl_ms = 0;
    /// Durable persistence: every registered model is write-through
    /// persisted (atomic snapshot + manifest) into snapshot_dir, and async
    /// jobs are journaled.  Requires a non-empty snapshot_dir.
    bool persist = false;
    /// On the first start(), reload the persisted registry from the
    /// manifest and resolve journaled jobs: terminal records become
    /// POLLable again, interrupted ones are marked failed ("interrupted by
    /// daemon restart") and, when resumable, resubmitted.  Implies persist.
    bool recover = false;
    /// Admin gate for the FAULT op.  Off (the default) rejects all wire
    /// failpoint control; the KINET_FAILPOINTS env var works regardless.
    bool enable_failpoints = false;
};

class SynthServer {
public:
    explicit SynthServer(ServerOptions options = {});
    ~SynthServer();
    SynthServer(const SynthServer&) = delete;
    SynthServer& operator=(const SynthServer&) = delete;

    /// Binds the listener and starts the event loop and request workers.
    void start();
    /// Stops the loop, closes live connections, joins the workers, and
    /// cancels in-flight training jobs (the training executor itself stays
    /// up, so start() after stop() restores full service).  Idempotent;
    /// also invoked by the destructor, which then joins the executor.
    void stop();
    /// Graceful shutdown (SIGTERM): stop admitting new work — non-fast
    /// requests answer the retryable `draining:` rejection so clients fail
    /// over — wait up to `timeout_ms` for in-flight requests, then stop().
    void drain(std::size_t timeout_ms);
    /// Chaos-test crash hatch: detaches the job journal and freezes the
    /// persistent store exactly as kill -9 would (no terminal records, no
    /// final snapshots), then tears down the process-local threads so the
    /// test can restart against the same snapshot_dir with recover=true.
    void crash_stop();

    /// The bound port (valid after start()).
    [[nodiscard]] std::uint16_t port() const noexcept;
    [[nodiscard]] bool running() const noexcept;

    /// Executes one request against the registry — the transport-independent
    /// core, used directly by tests and by the event loop's handlers.
    /// Errors come back as ERR responses, never as exceptions.
    [[nodiscard]] Response handle(const Request& request);

    [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }
    [[nodiscard]] JobManager& jobs() noexcept { return jobs_; }
    [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }

    /// Joins this daemon into a fleet: builds the ring, starts peer health
    /// probing, and switches SAMPLE/VALIDATE/TRAIN routing on.  Callable
    /// before or after start() — tests bind ephemeral ports first and only
    /// then know every member's address.  Calling again replaces the
    /// membership (the old ClusterService is stopped).
    void enable_cluster(ClusterConfig config);
    /// Dynamic join (the --join flag): announces this node to `seed` via
    /// the JOIN op, adopts the fleet view + ring parameters the seed
    /// returns, pulls the snapshots the new ring places here, and only then
    /// marks itself active — the first request routed to this node finds
    /// its model present.  `tuning` carries self plus local overrides;
    /// its peer list is replaced by the fleet view.
    void join_fleet(ClusterConfig tuning, const PeerAddress& seed);
    /// The live cluster service; nullptr while standalone.
    [[nodiscard]] std::shared_ptr<ClusterService> cluster() const;

    /// One synchronous anti-entropy round (what the cluster prober runs
    /// every anti_entropy_interval_ms): pull each up peer's DIGEST, and for
    /// models this node should hold (self in the ring preference list) that
    /// are missing or strictly older than the peer's copy, FETCH and admit
    /// the peer's snapshot.  Returns how many models were repaired.
    std::size_t anti_entropy_now();

    /// One synchronous rebalance round (what the cluster prober runs after
    /// any epoch change): pull snapshots the current ring places here that
    /// this node is missing (or holds stale), then retire local snapshots
    /// the ring moved elsewhere — each pushed to its new owner before the
    /// local copy is dropped, so the fleet never loses its only copy.
    /// Returns how many snapshots moved.
    std::size_t rebalance_now();

private:
    /// Everything a training run needs, resolved and validated *before* the
    /// job is queued — a malformed async TRAIN fails synchronously.
    struct TrainPlan {
        std::string model;
        bool unsw = false;       // domain=unsw (else the lab domain)
        std::string csv_path;    // confined path; empty -> simulate traffic
        std::size_t records = 0;
        std::uint64_t sim_seed = 0;
        double attack = 1.0;
        double split_frac = 0.0;
        std::uint64_t split_seed = 0;
        core::KiNetGanOptions opts;
    };

    struct TrainResult {
        std::unique_ptr<core::KiNetGan> model;
        std::size_t rows = 0;  // training rows after the held-out split
    };

    /// One SAMPLE request's arguments, validated up front (shared by the
    /// framed and streaming paths).
    struct SampleSpec {
        std::size_t n = 0;
        std::uint64_t seed = 0;
        std::string cond_column;  // empty -> unconditional
        std::string cond_value;
        std::size_t chunk_rows = 0;  // streaming chunk bound
    };

    class SampleStreamProducer;
    class ClusterStreamProducer;

    /// handle() plus per-op latency metrics — the loop's execute handler.
    [[nodiscard]] std::string execute_framed(const Request& request);
    /// True for ops the loop answers inline (PING, POLL, CANCEL, JOBS,
    /// DROP, global STATS) — they bypass the request queue.
    [[nodiscard]] static bool is_fast_op(const Request& request);
    /// Returns a stream producer iff the request is SAMPLE ... stream=1
    /// (validating spec and model up front); nullptr otherwise.
    [[nodiscard]] std::unique_ptr<StreamProducer> open_stream_producer(const Request& request);

    [[nodiscard]] Response dispatch(const Request& request);
    /// Cluster routing for SAMPLE/VALIDATE/TRAIN: nullopt means "handle
    /// locally"; otherwise the response relayed from the model's owner
    /// (walking the ring preference list past down peers).  Runs on request
    /// workers — a forward is a blocking peer RPC whose response completes
    /// through the ordinary worker-completion path.
    [[nodiscard]] std::optional<Response> maybe_forward(const Request& request);
    /// Async TRAIN for a model another node owns: a local proxy job that
    /// submits the training to `peer` and mirrors its progress, so the job
    /// id in the response is POLLable *here*.
    [[nodiscard]] Response forward_train_async(const std::shared_ptr<ClusterService>& c,
                                               const std::string& peer, Request request);
    [[nodiscard]] Response handle_train(const Request& request);
    [[nodiscard]] Response handle_fedtrain(const Request& request);
    [[nodiscard]] Response handle_cluster(const Request& request);
    [[nodiscard]] Response handle_replicate(const Request& request);
    [[nodiscard]] Response handle_fetch(const Request& request);
    [[nodiscard]] Response handle_fault(const Request& request);
    [[nodiscard]] Response handle_digest(const Request& request);
    [[nodiscard]] Response handle_join(const Request& request);
    [[nodiscard]] Response handle_leave(const Request& request);
    [[nodiscard]] Response handle_epoch(const Request& request);
    [[nodiscard]] Response handle_sample(const Request& request);
    [[nodiscard]] SampleSpec parse_sample_spec(const Request& request, bool streaming) const;
    /// Drives the model's streaming sampler for `spec` (conditional or not).
    static void run_sample_stream(const core::KiNetGan& model, const SampleSpec& spec,
                                  std::size_t chunk_rows,
                                  const core::KiNetGan::SampleSink& sink);
    [[nodiscard]] Response handle_validate(const Request& request);
    [[nodiscard]] Response handle_stats(const Request& request);
    [[nodiscard]] Response handle_poll(const Request& request);
    [[nodiscard]] Response handle_cancel(const Request& request);
    [[nodiscard]] Response handle_jobs() const;
    [[nodiscard]] TrainPlan parse_train_plan(const Request& request) const;
    [[nodiscard]] data::Table build_training_table(const TrainPlan& plan) const;
    /// Fits a fresh model per the plan; `context` (may be null) receives
    /// epoch progress and carries the cooperative cancellation flag.
    [[nodiscard]] TrainResult run_training(const TrainPlan& plan,
                                           JobManager::Context* context) const;
    [[nodiscard]] std::shared_ptr<ModelEntry> require_model(const std::string& name) const;
    /// require_model with pull-through replication: on a local miss in a
    /// fleet, fetch the snapshot from an up member of the model's
    /// preference list, admit it to the registry (whose LRU byte budget is
    /// the cache policy), and serve it locally from then on.
    [[nodiscard]] std::shared_ptr<ModelEntry> acquire_model(const std::string& name,
                                                            bool allow_pull_through);
    /// registry_.put plus write-through persistence: when the store is
    /// attached (and the server has not "crashed"), the snapshot container
    /// and manifest land durably before the call returns — a persistence
    /// failure fails the registration.  `container_out` (optional) receives
    /// the container so publish paths do not re-serialize.  Returns the
    /// stamped revision.
    std::uint64_t admit_model(const std::string& name, std::unique_ptr<core::KiNetGan> model,
                              std::uint64_t revision = 0, std::string* container_out = nullptr);
    /// The recover=true path of the first start(): manifest models back into
    /// the registry, journal replayed into restored/resubmitted jobs.
    void recover_state();

    ServerOptions options_;
    ModelRegistry registry_;
    kg::NetworkKg kg_lab_;
    kg::NetworkKg kg_unsw_;
    JobManager jobs_;
    Metrics metrics_;
    std::unique_ptr<EventLoop> loop_;
    /// Durable store + journal; nullptr when persistence is off.  Set once
    /// in the constructor, so worker threads read them without a lock.
    std::unique_ptr<PersistentStore> store_;
    std::shared_ptr<JobJournal> journal_;
    /// Recovery runs once, on the first start() after construction.
    bool recovered_ = false;
    /// crash_stop() raised this: persistence writes stop mid-flight, as a
    /// real kill -9 would stop them.
    std::atomic<bool> crashed_{false};
    // Robustness counters surfaced by the global STATS payload.
    std::atomic<std::uint64_t> recovered_models_{0};
    std::atomic<std::uint64_t> skipped_models_{0};
    std::atomic<std::uint64_t> recovered_jobs_{0};
    std::atomic<std::uint64_t> resubmitted_jobs_{0};
    std::atomic<std::uint64_t> anti_entropy_rounds_{0};
    std::atomic<std::uint64_t> repairs_{0};
    mutable Mutex cluster_mu_;
    std::shared_ptr<ClusterService> cluster_ KINET_GUARDED_BY(cluster_mu_);
};

}  // namespace kinet::service

#endif  // KINETGAN_SERVICE_SERVER_H
