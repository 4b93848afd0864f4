// mcrdl_info — prints the registered backends, their capability matrix and
// performance personalities, the built-in system topologies, the execution
// engine, and the serving layer's default scheduler configuration.
//
//   ./tools/mcrdl_info
#include <cstdio>

#include "src/backends/backend.h"
#include "src/coll/spec.h"
#include "src/common/format.h"
#include "src/net/cost.h"
#include "src/sched/admission.h"

using namespace mcrdl;

int main() {
  std::printf("MCR-DL simulated communication backends\n\n");
  {
    TextTable t({"Backend", "Family", "Launch", "Vector collectives", "Native op coverage",
                 "Stream-aware"});
    auto profiles = net::all_backend_profiles();
    profiles.push_back(net::gloo_profile());
    for (const auto& p : profiles) {
      int native = 0, total = 0;
      for (OpType op : {OpType::Send, OpType::Recv, OpType::Broadcast, OpType::Reduce,
                        OpType::AllReduce, OpType::AllGather, OpType::AllGatherV, OpType::Gather,
                        OpType::GatherV, OpType::Scatter, OpType::ScatterV, OpType::ReduceScatter,
                        OpType::AllToAll, OpType::AllToAllSingle, OpType::AllToAllV,
                        OpType::Barrier}) {
        ++total;
        native += p.is_native(op);
      }
      char cov[32], launch[32];
      std::snprintf(cov, sizeof(cov), "%d/%d", native, total);
      std::snprintf(launch, sizeof(launch), "%.1f us", p.launch_overhead_us);
      t.add_row({p.display_name, p.stream_aware ? "stream (NCCL-like)" : "host MPI", launch,
                 p.native_vector_collectives ? "native" : "emulated by MCR-DL", cov,
                 p.stream_aware ? "yes" : "no"});
    }
    std::printf("%s", t.to_string().c_str());
  }

  std::printf("\nRegistered composite algorithms (DESIGN.md §15)\n\n");
  {
    TextTable t({"Pattern", "Description"});
    for (const coll::CompositeInfo& info : coll::registered_composites()) {
      t.add_row({info.pattern, info.description});
    }
    std::printf("%s", t.to_string().c_str());
    std::string arms;
    for (const std::string& arm : coll::composite_arms({"nccl", "mv2-gdr"})) {
      if (!arms.empty()) arms += ", ";
      arms += arm;
    }
    std::printf(
        "\nComposite strings are accepted anywhere a backend string is once\n"
        "McrDlOptions::coll.enabled is set; coll.tuner_arms additionally offers\n"
        "them as \"auto\" arms (e.g. with nccl + mv2-gdr loaded: %s).\n",
        arms.c_str());
  }

  std::printf("\nBuilt-in system topologies\n\n");
  {
    TextTable t({"System", "GPUs/node", "Intra-node", "Inter-node (per GPU)", "NIC/node",
                 "GPU peak"});
    for (const auto& cfg :
         {net::SystemConfig::lassen(1), net::SystemConfig::theta_gpu(1)}) {
      char intra[48], inter[48], nic[32], peak[32];
      std::snprintf(intra, sizeof(intra), "%.0f GB/s @ %.1f us", cfg.intra_node.bandwidth_gbps,
                    cfg.intra_node.latency_us);
      std::snprintf(inter, sizeof(inter), "%.0f GB/s @ %.1f us", cfg.inter_node.bandwidth_gbps,
                    cfg.inter_node.latency_us);
      std::snprintf(nic, sizeof(nic), "%.0f GB/s", cfg.nic_bandwidth_gbps);
      std::snprintf(peak, sizeof(peak), "%.0f TFLOPs", cfg.gpu_tflops);
      t.add_row({cfg.name, std::to_string(cfg.gpus_per_node), intra, inter, nic, peak});
    }
    std::printf("%s", t.to_string().c_str());
  }

  std::printf("\nExecution engine (DESIGN.md §4)\n\n");
  {
    TextTable t({"Engine", "Actors", "Scheduling", "Output"});
    t.add_row({"serial baton", "one fiber per rank", "one actor at a time (the baton)",
               "deterministic virtual time"});
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\nEvery actor of a ClusterContext is a fiber on the thread that calls\n"
      "run_spmd(). Independent contexts share nothing and may run on\n"
      "separate threads.\n");

  std::printf("\nServing-layer scheduler defaults (DESIGN.md §10)\n\n");
  {
    const sched::AdmissionConfig config;
    TextTable t({"QoS class", "Bandwidth weight", "Rank quota", "Queue depth"});
    for (sched::QosClass qos : sched::all_qos_classes()) {
      const sched::QosPolicy& policy = config.policy(qos);
      char share[32];
      std::snprintf(share, sizeof(share), "%.0f%% of world", policy.rank_share * 100.0);
      t.add_row({sched::qos_name(qos), std::to_string(static_cast<int>(sched::qos_weight(qos))),
                 share, std::to_string(policy.max_queued)});
    }
    std::printf("%s", t.to_string().c_str());
  }
  std::printf(
      "\nAdmission: strict priority across classes, FIFO within a class;\n"
      "jobs exceeding their class quota are rejected up front (never queued),\n"
      "full queues reject with back-pressure. See tools/mcrdl_serve.\n");

  std::printf("\nMCR-DL emulates every missing native operation (see Table I bench).\n");
  return 0;
}
