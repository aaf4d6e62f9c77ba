// Umbrella header for the LTNC library.
//
// Pulls in the whole public API in dependency order. Downstream users who
// only need one layer can include the individual headers instead:
//
//   common/…        GF(2) bit vectors, payloads, RNG, sampling, stats
//   gf2/…           Gaussian elimination (RLNC decoding, test oracles)
//   lt/…            LT erasure codes: Soliton distributions, encoder,
//                   belief-propagation decoder
//   core/…          LTNC — the recoding network-code (paper §III),
//                   plus the generations extension
//   rlnc/…, wc/…    the paper's two baselines
//   wire/…          versioned binary wire codec + frame buffers
//   net/…           peer sampling, traffic accounting, transports
//   session/…       scheme-agnostic NodeProtocol adapters + the sans-I/O
//                   session Endpoint (the protocol state machine)
//   dissemination/… the epidemic simulation harness over session/
//   metrics/…       Monte-Carlo experiment harness, result records and
//                   their JSON/CSV/table writer
#pragma once

#include "common/bitvector.hpp"       // IWYU pragma: export
#include "common/coded_packet.hpp"    // IWYU pragma: export
#include "common/discrete_distribution.hpp"  // IWYU pragma: export
#include "common/fenwick.hpp"         // IWYU pragma: export
#include "common/op_counters.hpp"     // IWYU pragma: export
#include "common/payload.hpp"         // IWYU pragma: export
#include "common/rng.hpp"             // IWYU pragma: export
#include "common/stats.hpp"           // IWYU pragma: export
#include "common/types.hpp"           // IWYU pragma: export
#include "core/generations.hpp"      // IWYU pragma: export
#include "core/ltnc_codec.hpp"       // IWYU pragma: export
#include "dissemination/simulation.hpp"  // IWYU pragma: export
#include "gf2/gaussian.hpp"          // IWYU pragma: export
#include "gf2/gf2_matrix.hpp"        // IWYU pragma: export
#include "lt/bp_decoder.hpp"         // IWYU pragma: export
#include "lt/lt_encoder.hpp"         // IWYU pragma: export
#include "lt/soliton.hpp"            // IWYU pragma: export
#include "metrics/emitter.hpp"       // IWYU pragma: export
#include "metrics/experiment.hpp"    // IWYU pragma: export
#include "net/peer_sampler.hpp"      // IWYU pragma: export
#include "net/sim_channel.hpp"       // IWYU pragma: export
#include "net/traffic.hpp"           // IWYU pragma: export
#include "net/transport.hpp"         // IWYU pragma: export
#include "net/udp_transport.hpp"     // IWYU pragma: export
#include "rlnc/rlnc_codec.hpp"       // IWYU pragma: export
#include "session/endpoint.hpp"      // IWYU pragma: export
#include "session/protocols.hpp"     // IWYU pragma: export
#include "wc/wc_node.hpp"            // IWYU pragma: export
#include "wire/codec.hpp"            // IWYU pragma: export
#include "wire/frame.hpp"            // IWYU pragma: export
