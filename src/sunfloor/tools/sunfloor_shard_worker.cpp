// sunfloor_shard_worker — a distributed-exploration shard worker.
//
// Serves the dist frame protocol (dist/protocol.h) over a Unix-domain or
// TCP socket: a coordinator (sunfloor_cli explore --shard-addrs A,B,...)
// ships contiguous grid slices, the worker runs each through the
// ordinary explorer and ships complete results back.
// N workers reassembled by the coordinator are byte-identical to one
// single-process run.
//
// Usage:
//   sunfloor_shard_worker --listen <path|host:port> [options]
//
// Options:
//   --listen <addr>           unix socket path (contains '/') or host:port
//   --conn-threads <n>        concurrent coordinators served  (default 2)
//   --max-frame-bytes <n>     request frame size limit      (default 256MB)
//   --trace <file>            span trace (dist.shard + pipeline spans),
//                             written on exit
//   --metrics <file|->        metrics snapshot JSON, written on exit
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, finish the
// connection being served, flush the --trace/--metrics sinks, exit 0.
#include <cstdio>
#include <string>

#include "sunfloor/dist/shard.h"
#include "sunfloor/tools/flags.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/tools/shutdown_signal.h"

using namespace sunfloor;
using namespace sunfloor::tools;

int main(int argc, char** argv) {
    dist::WorkerOptions opts;
    ObsSinks sinks;
    Flags flags("sunfloor_shard_worker");
    flags.add(listener_flags(opts.listen, opts.conn_threads,
                             opts.max_frame_bytes))
        .add(sinks.flags());
    if (!flags.parse(argc, argv, 1)) return 2;
    if (opts.listen.empty())
        return flags.error("sunfloor_shard_worker requires --listen");

    if (!sinks.open()) return 1;

    dist::WorkerServer worker(opts);
    std::string error;
    if (!worker.start(error)) {
        std::fprintf(stderr, "cannot start: %s\n", error.c_str());
        return 1;
    }

    forward_shutdown_signals(worker.shutdown_fd());

    std::printf("sunfloor_shard_worker listening on %s (%d connections)\n",
                opts.listen.c_str(), opts.conn_threads);
    std::fflush(stdout);

    worker.wait();

    std::printf("sunfloor_shard_worker: shut down\n");
    if (!sinks.finish()) return 1;
    return 0;
}
