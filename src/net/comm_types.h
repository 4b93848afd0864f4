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
const char* reduce_op_name(ReduceOp op);

// Inverse of op_name; returns false if the name is unknown.
bool op_from_name(const std::string& name, OpType& out);

// True for operations whose wire pattern is all-to-all-like (their cost is
// dominated by cross-bisection traffic rather than a single root).
bool is_alltoall_like(OpType op);
// True for rooted operations (gather/scatter/reduce/bcast families).
bool is_rooted(OpType op);
// True for the variable-count ("vector") collectives NCCL-style libraries
// lack natively (paper Table I).
bool is_vector_collective(OpType op);

}  // namespace mcrdl
