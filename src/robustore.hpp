#pragma once

/// Umbrella header: the full RobuSTore public API.
///
/// Layering (bottom to top):
///   common/    deterministic RNG, running statistics, units
///   sim/       discrete-event engine
///   coding/    erasure codes: GF(256)+Reed-Solomon, LT (robust soliton,
///              peeling decoder, update planner), Raptor, Tornado,
///              replication; XOR kernels
///   analysis/  closed-form replication-vs-coding reassembly math
///   disk/      block-level drive model with in-disk layout synthesis
///   net/       latency + serialisation links
///   server/    filer cache, admission control, storage server
///   meta/      metadata service (registry, namespace, locks, selection)
///   security/  credential-chain capability validation
///   workload/  competitive background load generators
///   client/    the four storage schemes over a simulated cluster
///   metrics/   per-access and aggregate figures of merit
///   core/      single- and multi-client experiment runners

#include "analysis/reassembly.hpp"
#include "client/cluster.hpp"
#include "client/raid0.hpp"
#include "client/robustore_scheme.hpp"
#include "client/rraid.hpp"
#include "client/scheme.hpp"
#include "client/stored_file.hpp"
#include "coding/gf256.hpp"
#include "coding/lt_codec.hpp"
#include "coding/lt_graph.hpp"
#include "coding/matrix.hpp"
#include "coding/raptor.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/replication.hpp"
#include "coding/soliton.hpp"
#include "coding/tornado.hpp"
#include "coding/update.hpp"
#include "coding/xor_kernel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/experiment.hpp"
#include "core/multi_client.hpp"
#include "disk/disk.hpp"
#include "disk/layout.hpp"
#include "disk/params.hpp"
#include "meta/metadata_server.hpp"
#include "metrics/metrics.hpp"
#include "net/link.hpp"
#include "security/credentials.hpp"
#include "server/admission.hpp"
#include "server/filer_cache.hpp"
#include "server/storage_server.hpp"
#include "sim/engine.hpp"
#include "workload/background.hpp"
