#include "sunfloor/dist/shard.h"

#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sunfloor/cas/codec.h"
#include "sunfloor/cas/store.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::dist {

ShardResponse run_shard(const ShardRequest& req) {
    obs::ScopedSpan span("dist.shard", "points",
                         static_cast<long long>(req.points.size()));
    pipeline::SessionOptions sopts;
    if (!req.cas_dir.empty()) {
        // Throws std::runtime_error on an unusable directory; the serving
        // layer reports it instead of computing without the shared store
        // (a silent fallback would hide misconfiguration, not results —
        // the store is bit-transparent — but the operator asked for it).
        sopts.cas =
            std::make_shared<cas::Store>(cas::StoreOptions{req.cas_dir});
    }
    auto session =
        std::make_shared<pipeline::SynthesisSession>(req.spec, sopts);
    const Explorer explorer(session, req.base_cfg, req.opts);
    ExploreResult res = explorer.run(req.points);

    ShardResponse resp;
    resp.points.reserve(res.points.size());
    for (ExplorePointResult& pr : res.points) {
        ShardPointResult out;
        out.phase_used = pr.result.phase_used;
        out.designs.reserve(pr.result.points.size());
        for (const DesignPoint& dp : pr.result.points)
            out.designs.push_back(
                cas::encode_evaluation(pipeline::EvaluatedDesign(dp)));
        out.sim_reports = std::move(pr.sim_reports);
        resp.points.push_back(std::move(out));
    }
    resp.stage = res.stats.stage;
    obs::Registry::global().counter("dist.shards.run").add();
    return resp;
}

int FrameReader::next(std::string& error) {
    if (want_ == 0) {
        std::string header;
        const int r =
            service::read_line(fd_, buf_, header, max_bytes_, error);
        if (r != 1) return r;
        std::size_t bytes = 0;
        if (!frame_payload_size(header, bytes, error)) return -1;
        if (max_bytes_ > 0 && bytes > max_bytes_) {
            error = format("frame exceeds %zu bytes", max_bytes_);
            return -1;
        }
        frame_ = std::move(header);
        frame_ += '\n';
        want_ = frame_.size() + bytes;  // bytes < 2^63: no wrap
    }
    const int r = service::read_exact(fd_, buf_, frame_, want_, error);
    if (r == 1) want_ = 0;  // the next call starts a new frame
    return r;
}

WorkerServer::WorkerServer(WorkerOptions opts)
    : opts_(std::move(opts)),
      loop_([this](int fd) { serve_connection(fd); },
            make_error_frame("worker busy: too many pending connections")) {}

bool WorkerServer::start(std::string& error) {
    return loop_.start(opts_.listen, opts_.conn_threads, error);
}

void WorkerServer::serve_connection(int fd) {
    FrameReader reader(fd, static_cast<std::size_t>(
                               opts_.max_frame_bytes > 0
                                   ? opts_.max_frame_bytes
                                   : 0));
    std::string err;
    for (;;) {
        const int r = reader.next(err);
        if (r == 0) break;  // clean EOF
        if (r == -2) {      // receive timeout: idle or mid-frame
            if (loop_.stopping()) break;
            continue;
        }
        if (r < 0) {
            service::write_all(fd, make_error_frame(err));
            break;
        }
        std::string resp;
        WorkerRequest req;
        std::string perr;
        if (!parse_worker_frame(reader.frame(), req, perr)) {
            resp = make_error_frame(perr);
        } else if (req.op == WorkerRequest::Op::Ping) {
            resp = make_pong_frame();
        } else {
            try {
                resp = make_ok_frame(run_shard(req.run));
            } catch (const std::exception& e) {
                resp = make_error_frame(e.what());
            }
        }
        if (!service::write_all(fd, resp)) break;
    }
}

}  // namespace sunfloor::dist
