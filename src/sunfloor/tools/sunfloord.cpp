// sunfloord — the synthesis-as-a-service daemon.
//
// Serves the line-delimited JSON protocol of service/protocol.h over a
// Unix-domain or TCP socket, running synthesis/exploration jobs on a
// worker pool with warm per-spec pipeline sessions (service/job_engine.h).
// Results are byte-identical to one-shot sunfloor_cli runs.
//
// Usage:
//   sunfloord --listen <path|host:port> [options]
//
// Options:
//   --listen <addr>           unix socket path (contains '/') or host:port
//   --workers <n>             job worker threads; 0 = all cores (default 0)
//   --queue-depth <n>         max queued jobs before queue-full (default 256)
//   --quota <n>               max active jobs per client       (default 64)
//   --sessions <n>            warm per-spec sessions kept, LRU (default 8)
//   --explore-threads <n>     threads inside one explore job   (default 1)
//   --conn-threads <n>        concurrent connections served    (default 4)
//   --max-frame-bytes <n>     request frame size limit         (default 1MB)
//   --trace <file>            span trace (service.request / service.job
//                             plus the pipeline spans), written on exit
//   --metrics <file|->        metrics snapshot JSON, written on exit
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, reject new
// submissions ("shutting-down"), finish every accepted job, flush the
// --trace/--metrics sinks, exit 0.
#include <cstdio>
#include <string>

#include "sunfloor/service/server.h"
#include "sunfloor/tools/flags.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/tools/shutdown_signal.h"

using namespace sunfloor;
using namespace sunfloor::tools;

int main(int argc, char** argv) {
    service::ServerOptions opts;
    ObsSinks sinks;
    Flags flags("sunfloord");
    flags.add(listener_flags(opts.listen, opts.conn_threads,
                             opts.max_frame_bytes))
        .add({flag("--workers", opts.engine.workers, an_int(0)),
              flag("--queue-depth", opts.engine.queue_capacity, an_int(1)),
              flag("--quota", opts.engine.per_client_quota, an_int(1)),
              flag("--sessions", opts.engine.max_sessions, an_int(1)),
              flag("--explore-threads", opts.engine.explore_threads,
                   an_int(1))})
        .add(sinks.flags());
    if (!flags.parse(argc, argv, 1)) return 2;
    if (opts.listen.empty())
        return flags.error("sunfloord requires --listen");

    if (!sinks.open()) return 1;

    service::Server server(opts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "cannot start: %s\n", error.c_str());
        return 1;
    }

    forward_shutdown_signals(server.shutdown_fd());

    std::printf("sunfloord listening on %s (%d workers, queue %d, "
                "quota %d, %d sessions)\n",
                opts.listen.c_str(), server.engine().options().workers,
                server.engine().options().queue_capacity,
                server.engine().options().per_client_quota,
                server.engine().options().max_sessions);
    std::fflush(stdout);

    server.wait();  // returns once shut down and every job is terminal

    const service::EngineStats st = server.engine().stats();
    std::printf("sunfloord: drained, %lld job(s) completed, %lld failed, "
                "%lld rejected\n",
                st.completed, st.failed, st.rejected);
    if (!sinks.finish()) return 1;
    return 0;
}
