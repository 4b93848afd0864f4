// Communication operation vocabulary shared by the cost models, backends,
// and the MCR-DL core.
#pragma once

#include <cstddef>
#include <string>

namespace mcrdl {

// Every operation in the MCR-DL API (paper Listing 1).
enum class OpType {
  Send,
  Recv,
  Broadcast,
  Reduce,
  AllReduce,
  AllGather,
  AllGatherV,
  Gather,
  GatherV,
  Scatter,
  ScatterV,
  ReduceScatter,
  AllToAll,        // list-of-tensors variant
  AllToAllSingle,  // single-tensor shuffle
  AllToAllV,
  Barrier,
};
// Number of OpType values, for tables indexed by op.
inline constexpr std::size_t kOpTypeCount = static_cast<std::size_t>(OpType::Barrier) + 1;

enum class ReduceOp { Sum, Prod, Min, Max, Avg };

const char* op_name(OpType op);

// Inverse of op_name; returns false if the name is unknown.
bool op_from_name(const std::string& name, OpType& out);

}  // namespace mcrdl
