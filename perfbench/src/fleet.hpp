// The system under test, built only through the public src/service API: a
// standalone kinetd node plus a 2-member fleet (enable_cluster), all
// in-process on loopback.  Fleet::start() is the benchmark's set-up phase.
#ifndef KINET_PERFBENCH_FLEET_H
#define KINET_PERFBENCH_FLEET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/service/server.hpp"

namespace perfbench {

/// One model's training plan: the TRAIN/FEDTRAIN arguments.  The fixed
/// seeds make every fit of a plan bit-identical, so a model re-published by
/// FEDTRAIN serves exactly the bytes of the one fitted at set-up.
struct TrainPlan {
    std::string domain;
    std::size_t records = 0;
    std::uint64_t sim_seed = 0;
    std::size_t epochs = 0;
    std::uint64_t gan_seed = 0;

    /// "domain=.. records=.. sim-seed=.. epochs=.. gan-seed=.."
    [[nodiscard]] std::string wire_args() const;
};

const TrainPlan& lab_plan();
const TrainPlan& unsw_plan();

/// A conditional pin `column:value` (SAMPLE ... cond=).
struct Pin {
    std::string column;
    std::string value;
};

struct ServedModel {
    /// Wire name; chosen so the ring places it on the intended member.
    std::string name;
    /// In-process handle on the set-up fit, for golden outputs.
    std::shared_ptr<kinet::service::ModelEntry> entry;
    /// The rarest categories of the minority column (event_type for lab,
    /// attack_cat for unsw) in the training data.
    std::vector<Pin> minority;
};

/// Server options every node runs with (recorded in spec.json).
kinet::service::ServerOptions server_options();
/// Fleet options for member `self_index` of `addrs`: one replica, no
/// background anti-entropy, so a non-owner forwards instead of holding a
/// copy.
kinet::service::ClusterConfig cluster_config(const std::vector<kinet::service::PeerAddress>& addrs,
                                             std::size_t self_index);

class Fleet {
public:
    /// Starts the standalone node S and members A and B, trains the lab
    /// model on A (its ring owner) and the unsw model on B over the wire,
    /// replicates lab to S, and sends one warm SAMPLE per model.
    static std::unique_ptr<Fleet> start();
    ~Fleet();
    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    kinet::service::SynthServer& solo() { return *solo_; }
    kinet::service::SynthServer& a() { return *a_; }
    kinet::service::SynthServer& b() { return *b_; }

    /// Fills ServedModel::entry and ::minority (outside the timed set-up).
    void resolve_models();

    ServedModel lab;   // owned by A, replicated to S
    ServedModel unsw;  // owned by B

private:
    Fleet() = default;

    std::unique_ptr<kinet::service::SynthServer> solo_;
    std::unique_ptr<kinet::service::SynthServer> a_;
    std::unique_ptr<kinet::service::SynthServer> b_;
};

}  // namespace perfbench

#endif  // KINET_PERFBENCH_FLEET_H
