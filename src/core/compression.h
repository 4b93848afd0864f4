// Lossy communication compression (paper Section V-E): eligible
// data-movement collectives route their payloads through the zfp-style
// fixed-rate codec, so fewer bytes cross the wire at the price of bounded
// reconstruction error. Reduction collectives are left uncompressed (summing
// compressed residues needs algorithm changes out of scope for this hook).
//
// The codec's (de)compression work is charged to the device as a kernel on
// the default stream before the operation posts.
#pragma once

#include <cstdint>

#include "src/backends/backend.h"
#include "src/compress/zfp_codec.h"

namespace mcrdl {

struct CompressionConfig {
  bool enabled = false;
  compress::ZfpConfig codec;            // fixed-rate settings
  std::size_t min_bytes = 64 << 10;     // smaller messages skip compression
  double throughput_gbps = 80.0;        // codec speed for the timing model
};

class CompressionLayer {
 public:
  CompressionLayer(ClusterContext* cluster, CompressionConfig config);

  const CompressionConfig& config() const { return config_; }
  void set_config(CompressionConfig config) { config_ = config; }

  // True if `op` has a compressed implementation at all — a static property
  // of the layer (movement ops with a contiguous payload), independent of
  // the current config. The pipeline bypasses its compression stage for
  // every other op.
  static bool op_supported(OpType op) {
    return op == OpType::Broadcast || op == OpType::AllGather || op == OpType::AllToAllSingle;
  }

  // True if the hook applies: enabled, a movement op, floating payload of
  // sufficient size.
  bool eligible(OpType op, const Tensor& payload) const;

  Work broadcast(Comm& comm, int rank, Tensor tensor, int root, bool async_op);
  Work all_gather(Comm& comm, int rank, Tensor output, Tensor input, bool async_op);
  Work all_to_all_single(Comm& comm, int rank, Tensor output, Tensor input, bool async_op);

  int compressed_op_count() const { return compressed_op_count_; }

 private:
  // Compressed image of `t` as a U8 tensor of exactly `bytes` bytes
  // (phantom stays phantom).
  Tensor compress_to_tensor(const Tensor& t, std::size_t bytes, sim::Device* dev) const;
  void decompress_from_tensor(const Tensor& compressed, Tensor out) const;
  // Charges codec time for `bytes` of payload to the device.
  void charge_codec_time(sim::Device* dev, std::size_t bytes) const;

  ClusterContext* cluster_;
  CompressionConfig config_;
  compress::ZfpCodec codec_;
  int compressed_op_count_ = 0;
};

}  // namespace mcrdl
