#include "src/net/comm_types.h"

namespace mcrdl {

const char* op_name(OpType op) {
  switch (op) {
    case OpType::Send: return "send";
    case OpType::Recv: return "recv";
    case OpType::Broadcast: return "broadcast";
    case OpType::Reduce: return "reduce";
    case OpType::AllReduce: return "all_reduce";
    case OpType::AllGather: return "all_gather";
    case OpType::AllGatherV: return "all_gatherv";
    case OpType::Gather: return "gather";
    case OpType::GatherV: return "gatherv";
    case OpType::Scatter: return "scatter";
    case OpType::ScatterV: return "scatterv";
    case OpType::ReduceScatter: return "reduce_scatter";
    case OpType::AllToAll: return "all_to_all";
    case OpType::AllToAllSingle: return "all_to_all_single";
    case OpType::AllToAllV: return "all_to_allv";
    case OpType::Barrier: return "barrier";
  }
  return "?";
}

bool op_from_name(const std::string& name, OpType& out) {
  static const OpType all[] = {
      OpType::Send,    OpType::Recv,     OpType::Broadcast,      OpType::Reduce,
      OpType::AllReduce, OpType::AllGather, OpType::AllGatherV,  OpType::Gather,
      OpType::GatherV, OpType::Scatter,  OpType::ScatterV,       OpType::ReduceScatter,
      OpType::AllToAll, OpType::AllToAllSingle, OpType::AllToAllV, OpType::Barrier};
  for (OpType op : all) {
    if (name == op_name(op)) {
      out = op;
      return true;
    }
  }
  return false;
}

}  // namespace mcrdl
