#include "fleet.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/netsim/lab_simulator.hpp"
#include "src/netsim/unsw_synthesizer.hpp"
#include "src/service/client.hpp"

namespace perfbench {

namespace svc = kinet::service;

std::string TrainPlan::wire_args() const {
    return "domain=" + domain + " records=" + std::to_string(records) +
           " sim-seed=" + std::to_string(sim_seed) + " epochs=" + std::to_string(epochs) +
           " gan-seed=" + std::to_string(gan_seed);
}

const TrainPlan& lab_plan() {
    static const TrainPlan plan{"lab", 2000, 7, 2, 42};
    return plan;
}

const TrainPlan& unsw_plan() {
    static const TrainPlan plan{"unsw", 2000, 11, 2, 43};
    return plan;
}

svc::ServerOptions server_options() {
    svc::ServerOptions o;
    o.port = 0;
    o.request_workers = 4;
    o.queue_depth = 256;
    o.train_workers = 2;
    o.max_connections = 4096;
    // No snapshot files or CSV ingestion: nothing touches the disk.
    o.snapshot_dir.clear();
    o.data_dir.clear();
    return o;
}

svc::ClusterConfig cluster_config(const std::vector<svc::PeerAddress>& addrs,
                                  std::size_t self_index) {
    svc::ClusterConfig cfg;
    cfg.self = addrs[self_index];
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i != self_index) {
            cfg.peers.push_back(addrs[i]);
        }
    }
    cfg.replicas = 1;
    cfg.virtual_nodes = 64;
    cfg.probe_interval_ms = 1000;
    cfg.connect_timeout_ms = 1000;
    cfg.peer_timeout_ms = 30000;
    cfg.anti_entropy_interval_ms = 0;
    return cfg;
}

namespace {

/// The first of `stem`, `stem-1`, `stem-2`, ... that `server` owns (ports
/// are ephemeral, so placement is found, not hardcoded).
std::string name_owned_by(svc::SynthServer& server, const std::string& stem) {
    const auto c = server.cluster();
    for (int i = 0; i < 4096; ++i) {
        const std::string name = i == 0 ? stem : stem + "-" + std::to_string(i);
        if (c->owns(name)) {
            return name;
        }
    }
    throw std::runtime_error("ring never placed a " + stem + " name on " + c->self_name());
}

svc::TrainSpec train_spec(const TrainPlan& plan) {
    svc::TrainSpec spec;
    spec.domain = plan.domain;
    spec.records = plan.records;
    spec.sim_seed = plan.sim_seed;
    spec.epochs = plan.epochs;
    spec.gan_seed = plan.gan_seed;
    return spec;
}

std::vector<Pin> rarest_categories(const TrainPlan& plan, const std::string& column,
                                   std::size_t count) {
    kinet::data::Table table;
    if (plan.domain == "unsw") {
        kinet::netsim::UnswOptions o;
        o.records = plan.records;
        o.seed = plan.sim_seed;
        table = kinet::netsim::UnswNb15Synthesizer(o).generate();
    } else {
        kinet::netsim::LabSimOptions o;
        o.records = plan.records;
        o.seed = plan.sim_seed;
        table = kinet::netsim::LabTrafficSimulator(o).generate();
    }
    const auto& schema = table.schema();
    std::size_t col = schema.size();
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].name == column) {
            col = i;
        }
    }
    if (col == schema.size()) {
        throw std::runtime_error("no column " + column);
    }
    std::map<std::string, std::size_t> freq;
    for (const auto& row : table.to_csv().rows) {
        ++freq[row[col]];
    }
    std::vector<std::pair<std::size_t, std::string>> ranked;
    for (const auto& [value, n] : freq) {
        ranked.emplace_back(n, value);
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<Pin> pins;
    for (std::size_t i = 0; i < ranked.size() && pins.size() < count; ++i) {
        pins.push_back(Pin{column, ranked[i].second});
    }
    return pins;
}

}  // namespace

std::unique_ptr<Fleet> Fleet::start() {
    std::unique_ptr<Fleet> f(new Fleet());
    f->solo_ = std::make_unique<svc::SynthServer>(server_options());
    f->a_ = std::make_unique<svc::SynthServer>(server_options());
    f->b_ = std::make_unique<svc::SynthServer>(server_options());
    f->solo_->start();
    f->a_->start();
    f->b_->start();
    const std::vector<svc::PeerAddress> addrs{{"127.0.0.1", f->a_->port()},
                                              {"127.0.0.1", f->b_->port()}};
    f->a_->enable_cluster(cluster_config(addrs, 0));
    f->b_->enable_cluster(cluster_config(addrs, 1));

    f->lab.name = name_owned_by(*f->a_, "lab");
    f->unsw.name = name_owned_by(*f->b_, "unsw");

    auto client_a = svc::SynthClient::connect("127.0.0.1", f->a_->port());
    auto client_b = svc::SynthClient::connect("127.0.0.1", f->b_->port());
    auto client_s = svc::SynthClient::connect("127.0.0.1", f->solo_->port());
    (void)client_a.train(f->lab.name, train_spec(lab_plan()));
    (void)client_b.train(f->unsw.name, train_spec(unsw_plan()));
    client_s.replicate(f->lab.name, client_a.fetch(f->lab.name));

    // One warm request per served (node, model).
    (void)client_s.sample_csv(f->lab.name, 128, 1);
    (void)client_a.sample_csv(f->lab.name, 128, 1);
    (void)client_b.sample_csv(f->unsw.name, 128, 1);
    client_a.quit();
    client_b.quit();
    client_s.quit();
    return f;
}

void Fleet::resolve_models() {
    lab.entry = a_->registry().get(lab.name);
    unsw.entry = b_->registry().get(unsw.name);
    if (lab.entry == nullptr || unsw.entry == nullptr) {
        throw std::runtime_error("set-up models missing from their owners");
    }
    lab.minority = rarest_categories(lab_plan(), "event_type", 2);
    unsw.minority = rarest_categories(unsw_plan(), "attack_cat", 2);
}

Fleet::~Fleet() {
    for (auto* server : {solo_.get(), a_.get(), b_.get()}) {
        if (server != nullptr) {
            server->stop();
        }
    }
}

}  // namespace perfbench
